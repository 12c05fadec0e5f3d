// Contract machinery: failure modes, the RAII override, and a few real
// contracts from the pipeline firing on bad inputs.

#include <gtest/gtest.h>

#include "channel/link_budget.hpp"
#include "channel/pathloss.hpp"
#include "core/contracts.hpp"
#include "core/framing.hpp"
#include "dsp/fft.hpp"
#include "dsp/units.hpp"
#include "lte/cell_config.hpp"

namespace {

using namespace lscatter;
using namespace lscatter::dsp::unit_literals;
using core::ContractViolation;
using core::contracts::FailureMode;
using core::contracts::ScopedFailureMode;

TEST(Contracts, PassingCheckIsSilent) {
  ScopedFailureMode guard(FailureMode::kThrow);
  EXPECT_NO_THROW(LSCATTER_EXPECT(2 + 2 == 4, "arithmetic works"));
}

TEST(Contracts, ScopedModeRestoresOnExit) {
  const FailureMode before = core::contracts::failure_mode();
  {
    ScopedFailureMode guard(FailureMode::kThrow);
    EXPECT_EQ(core::contracts::failure_mode(), FailureMode::kThrow);
  }
  EXPECT_EQ(core::contracts::failure_mode(), before);
}

#if LSCATTER_CHECKS_ENABLED
TEST(Contracts, ThrowModeRaisesContractViolation) {
  ScopedFailureMode guard(FailureMode::kThrow);
  EXPECT_THROW(LSCATTER_EXPECT(1 == 2, "forced failure"), ContractViolation);
  EXPECT_THROW(LSCATTER_ENSURE(false, "forced failure"), ContractViolation);
  EXPECT_THROW(LSCATTER_ASSERT(false, "forced failure"), ContractViolation);
}

TEST(Contracts, MessageNamesKindExpressionAndLocation) {
  ScopedFailureMode guard(FailureMode::kThrow);
  try {
    LSCATTER_EXPECT(1 > 2, "one is not greater than two");
    FAIL() << "expected a ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("1 > 2"), std::string::npos);
    EXPECT_NE(what.find("test_contracts.cpp"), std::string::npos);
    EXPECT_NE(what.find("one is not greater than two"), std::string::npos);
  }
}

// --- real contracts in the pipeline ---

TEST(Contracts, SnrRejectsNonPositiveBandwidth) {
  ScopedFailureMode guard(FailureMode::kThrow);
  channel::LinkBudget b;
  EXPECT_THROW(b.backscatter_snr_db(40.0_db, 40.0_db, dsp::Hz{0.0}),
               ContractViolation);
  EXPECT_THROW(b.backscatter_snr_db(40.0_db, 40.0_db, dsp::Hz{-18e6}),
               ContractViolation);
  EXPECT_NO_THROW(b.backscatter_snr_db(40.0_db, 40.0_db, dsp::Hz{18e6}));
}

TEST(Contracts, NoiseFloorRejectsNonPositiveBandwidth) {
  ScopedFailureMode guard(FailureMode::kThrow);
  EXPECT_THROW(channel::noise_floor_dbm(dsp::Hz{0.0}, 7.0_db),
               ContractViolation);
}

TEST(Contracts, PathLossRejectsNonPositiveDistance) {
  ScopedFailureMode guard(FailureMode::kThrow);
  channel::PathLossModel m;
  EXPECT_THROW(m.median_db(0.0, 680_mhz), ContractViolation);
  EXPECT_THROW(m.median_db(-3.0, 680_mhz), ContractViolation);
}

TEST(Contracts, LinkBudgetRejectsNegativePathLoss) {
  ScopedFailureMode guard(FailureMode::kThrow);
  channel::LinkBudget b;
  EXPECT_THROW(b.backscatter_rx_dbm(dsp::Db{-1.0}, 40.0_db),
               ContractViolation);
}

TEST(Contracts, FftPlanRejectsMismatchedInput) {
  ScopedFailureMode guard(FailureMode::kThrow);
  const dsp::FftPlan plan(128);
  dsp::cvec wrong(64);
  EXPECT_THROW((void)plan.forward(wrong), ContractViolation);
}

TEST(Contracts, CellConfigRejectsOutOfRangeSymbol) {
  ScopedFailureMode guard(FailureMode::kThrow);
  const lte::CellConfig cell;
  EXPECT_THROW((void)cell.symbol_offset_in_slot(lte::kSymbolsPerSlot),
               ContractViolation);
  EXPECT_THROW((void)cell.cp_length(99), ContractViolation);
}

TEST(Contracts, PacketCodecRejectsDegenerateSizes) {
  ScopedFailureMode guard(FailureMode::kThrow);
  EXPECT_THROW(core::PacketCodec(32, core::Fec::kNone), ContractViolation);
  EXPECT_THROW(core::split_bits(std::vector<std::uint8_t>(8, 1), 0),
               ContractViolation);
}
#endif  // LSCATTER_CHECKS_ENABLED

}  // namespace
