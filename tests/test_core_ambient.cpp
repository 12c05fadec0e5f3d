// Ambient reconstruction: the realistic UE path (decode the original band,
// regenerate the waveform) versus the genie path, and the per-RE rebuild
// kept as the oracle the batched reconstructor must match bit for bit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "channel/awgn.hpp"
#include "core/ambient_reconstructor.hpp"
#include "core/link_simulator.hpp"
#include "core/scenario.hpp"
#include "lte/pbch.hpp"
#include "lte/pdcch.hpp"
#include "lte/qam.hpp"
#include "lte/sequences.hpp"
#include "lte/signal_map.hpp"

namespace {

using namespace lscatter;
using dsp::cf32;
using dsp::cvec;

// ---- Oracle: the per-RE rebuild ------------------------------------------
//
// One QAM decision per resource element, the blind layout from a separate
// RE-type map, and a CRS channel estimator of its own: the straightforward
// rebuild that AmbientReconstructor must match bit for bit. Built only on
// the allocating public lte calls and the full CRS master set.

/// Rebuild the full RE-type map of a subframe from broadcast knowledge:
/// cell identity + subframe index + decoded DCI (+ PBCH presence).
std::vector<lte::ReType> derive_re_types(const lte::CellConfig& cfg,
                                         std::size_t subframe_index,
                                         const lte::Dci& dci,
                                         bool pbch_enabled) {
  using lte::ReType;
  const std::size_t n_sc = cfg.n_subcarriers();
  std::vector<ReType> types(lte::kSymbolsPerSubframe * n_sc, ReType::kData);
  auto at = [&](std::size_t l, std::size_t k) -> ReType& {
    return types[l * n_sc + k];
  };

  // Sync signals + guards.
  if (lte::is_sync_subframe(subframe_index)) {
    const std::size_t first = lte::sync_band_first_subcarrier(cfg);
    for (std::size_t n = 0; n < lte::kSyncSubcarriers; ++n) {
      at(lte::kPssSymbolIndex, first + n) = ReType::kPss;
      at(lte::kSssSymbolIndex, first + n) = ReType::kSss;
    }
    for (std::size_t g = 1; g <= 5; ++g) {
      for (const std::size_t l :
           {lte::kPssSymbolIndex, lte::kSssSymbolIndex}) {
        if (first >= g) at(l, first - g) = ReType::kUnused;
        if (first + lte::kSyncSubcarriers + g - 1 < n_sc) {
          at(l, first + lte::kSyncSubcarriers + g - 1) = ReType::kUnused;
        }
      }
    }
  }

  // CRS lattice.
  for (const std::size_t l : lte::kCrsSymbolIndices) {
    for (const std::size_t k : lte::crs_subcarriers(cfg, l)) {
      at(l, k) = ReType::kCrs;
    }
  }

  // PBCH region.
  if (pbch_enabled && subframe_index % lte::kSubframesPerFrame == 0) {
    for (const std::size_t l : lte::kPbchSymbolIndices) {
      for (const std::size_t k : lte::pbch_subcarriers(cfg, l)) {
        at(l, k) = ReType::kPbch;
      }
    }
  }

  // Control region.
  for (const std::size_t k : lte::pdcch_subcarriers(cfg)) {
    at(lte::kPdcchSymbolIndex, k) = ReType::kPdcch;
  }

  // Center-RB scheduling gaps (skipped entirely at 1.4 MHz, matching the
  // eNodeB).
  if (n_sc > 72) {
    const std::size_t center_first = n_sc / 2 - 36;
    for (std::size_t l = 0; l < lte::kSymbolsPerSubframe; ++l) {
      if (dci.center_active(l)) continue;
      for (std::size_t i = 0; i < 72; ++i) {
        const std::size_t k = center_first + i;
        if (at(l, k) == ReType::kData) at(l, k) = ReType::kUnused;
      }
    }
  }
  return types;
}

/// Least-squares CRS estimate per pilot, linearly interpolated.
lte::ChannelEstimate oracle_estimate_channel(const lte::CellConfig& cfg,
                                             const lte::ResourceGrid& rx_grid,
                                             std::size_t subframe_index) {
  const std::size_t n_sc = cfg.n_subcarriers();
  std::vector<cf32> acc(n_sc, cf32{});
  std::vector<int> count(n_sc, 0);
  for (const std::size_t l : lte::kCrsSymbolIndices) {
    const auto positions = lte::crs_subcarriers(cfg, l);
    const std::size_t ns =
        2 * (subframe_index % lte::kSubframesPerFrame) +
        (l >= lte::kSymbolsPerSlot);
    cvec all(2 * lte::kMaxRb);
    lte::crs_values_into(cfg.cell_id(), ns, l % lte::kSymbolsPerSlot, 0,
                         all);
    const std::size_t offset = lte::kMaxRb - cfg.n_rb();
    for (std::size_t m = 0; m < positions.size(); ++m) {
      const std::size_t k = positions[m];
      const cf32 tx = all[m + offset];
      const float p = std::norm(tx);
      if (p <= 0.0f) continue;
      acc[k] += rx_grid.at(l, k) * std::conj(tx) / p;
      count[k]++;
    }
  }
  std::vector<std::size_t> pk;
  cvec pv;
  for (std::size_t k = 0; k < n_sc; ++k) {
    if (count[k] > 0) {
      pk.push_back(k);
      pv.push_back(acc[k] / static_cast<float>(count[k]));
    }
  }
  lte::ChannelEstimate est;
  est.h.assign(n_sc, cf32{1.0f, 0.0f});
  if (pk.empty()) return est;
  std::size_t seg = 0;
  for (std::size_t k = 0; k < n_sc; ++k) {
    if (k <= pk.front()) {
      est.h[k] = pv.front();
      continue;
    }
    if (k >= pk.back()) {
      est.h[k] = pv.back();
      continue;
    }
    while (seg + 1 < pk.size() && pk[seg + 1] < k) ++seg;
    const std::size_t k0 = pk[seg];
    const std::size_t k1 = pk[seg + 1];
    const float t = static_cast<float>(k - k0) / static_cast<float>(k1 - k0);
    est.h[k] = pv[seg] * (1.0f - t) + pv[seg + 1] * t;
  }
  return est;
}

cf32 oracle_equalize(const lte::ChannelEstimate& est,
                     const lte::ResourceGrid& rx_grid, std::size_t l,
                     std::size_t k) {
  const cf32 h = est.h[k];
  const float p = std::norm(h);
  const cf32 y = rx_grid.at(l, k);
  return p > 1e-12f ? y * std::conj(h) / p : y;
}

cf32 oracle_decide(cf32 eq, lte::Modulation m) {
  const auto bits = lte::qam_demodulate(std::span<const cf32>(&eq, 1), m);
  return lte::qam_modulate(bits, m)[0];
}

core::ReconstructionResult oracle_reconstruct(
    const lte::CellConfig& cell, std::span<const cf32> rx_direct,
    const lte::SubframeTx& truth, lte::Modulation modulation) {
  core::ReconstructionResult out;
  const lte::ResourceGrid rx_grid =
      lte::OfdmDemodulator(cell).demodulate(rx_direct);
  const lte::ChannelEstimate est =
      oracle_estimate_channel(cell, rx_grid, truth.subframe_index);
  lte::ResourceGrid rebuilt(cell);
  for (std::size_t l = 0; l < lte::kSymbolsPerSubframe; ++l) {
    for (std::size_t k = 0; k < cell.n_subcarriers(); ++k) {
      switch (truth.grid.type_at(l, k)) {
        case lte::ReType::kUnused:
          break;
        case lte::ReType::kPss:
        case lte::ReType::kSss:
        case lte::ReType::kCrs:
        case lte::ReType::kPbch:
        case lte::ReType::kPdcch:
          rebuilt.at(l, k) = truth.grid.at(l, k);
          break;
        case lte::ReType::kData: {
          const cf32 decided =
              oracle_decide(oracle_equalize(est, rx_grid, l, k), modulation);
          rebuilt.at(l, k) = decided;
          ++out.re_total;
          if (std::abs(decided - truth.grid.at(l, k)) > 1e-3f) {
            ++out.re_errors;
          }
          break;
        }
      }
    }
  }
  out.samples = lte::OfdmModulator(cell).modulate(rebuilt);
  return out;
}

std::optional<core::ReconstructionResult> oracle_reconstruct_blind(
    const lte::CellConfig& cell, std::span<const cf32> rx_direct,
    std::size_t subframe_index, bool pbch_enabled, dsp::Db sync_boost_db) {
  const lte::ResourceGrid rx_grid =
      lte::OfdmDemodulator(cell).demodulate(rx_direct);
  const lte::ChannelEstimate est =
      oracle_estimate_channel(cell, rx_grid, subframe_index);

  lte::ResourceGrid eq_ctrl(cell);
  for (const std::size_t k : lte::pdcch_subcarriers(cell)) {
    eq_ctrl.at(lte::kPdcchSymbolIndex, k) =
        oracle_equalize(est, rx_grid, lte::kPdcchSymbolIndex, k);
  }
  const auto dci = lte::decode_pdcch(cell, eq_ctrl);
  if (!dci) return std::nullopt;

  const auto types =
      derive_re_types(cell, subframe_index, *dci, pbch_enabled);
  const std::size_t n_sc = cell.n_subcarriers();
  lte::ResourceGrid rebuilt(cell);
  lte::map_sync_signals(cell, subframe_index % lte::kSubframesPerFrame,
                        rebuilt,
                        static_cast<float>(sync_boost_db.amplitude()));
  lte::map_crs(cell, subframe_index, rebuilt);
  if (pbch_enabled && subframe_index % lte::kSubframesPerFrame == 0) {
    lte::Mib mib;
    mib.bandwidth = cell.bandwidth;
    mib.sfn = static_cast<std::uint16_t>(
        (subframe_index / lte::kSubframesPerFrame) & 0x3FF);
    lte::map_pbch(cell, mib, rebuilt);
  }
  lte::map_pdcch(cell, *dci, rebuilt);

  core::ReconstructionResult out;
  for (std::size_t l = 0; l < lte::kSymbolsPerSubframe; ++l) {
    for (std::size_t k = 0; k < n_sc; ++k) {
      if (types[l * n_sc + k] != lte::ReType::kData) continue;
      rebuilt.at(l, k) =
          oracle_decide(oracle_equalize(est, rx_grid, l, k), dci->mcs);
      ++out.re_total;
    }
  }
  out.samples = lte::OfdmModulator(cell).modulate(rebuilt);
  return out;
}

bool same_samples(std::span<const cf32> a, std::span<const cf32> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

/// The UE's original band: the eNodeB's subframe through a flat rotated
/// direct path at `snr_db`, plus AWGN.
cvec direct_path(const lte::SubframeTx& tx, double snr_db, dsp::Rng& rng) {
  const cf32 h = rng.complex_normal() * 1e-3f;
  cvec rx(tx.samples.size());
  for (std::size_t n = 0; n < rx.size(); ++n) rx[n] = h * tx.samples[n];
  channel::add_awgn(rx, std::norm(h) * std::pow(10.0, -snr_db / 10.0), rng);
  return rx;
}

/// Runs both reconstructors and the oracle on one input; counts every
/// disagreement (samples compared by memcmp).
struct OracleCheck {
  std::size_t cases = 0;
  std::size_t mismatches = 0;
  std::size_t dci_failures = 0;

  void run(core::AmbientReconstructor& rec, const lte::Enodeb::Config& ecfg,
           std::span<const cf32> rx, const lte::SubframeTx& tx,
           const std::string& what) {
    const lte::CellConfig& cell = ecfg.cell;
    ++cases;
    const auto want = oracle_reconstruct(cell, rx, tx, ecfg.modulation);
    const auto got = rec.reconstruct(rx, tx, ecfg.modulation);
    if (!same_samples(got.samples, want.samples) ||
        got.re_total != want.re_total || got.re_errors != want.re_errors) {
      ++mismatches;
      ADD_FAILURE() << "reconstruct differs: " << what;
    }

    const auto want_b = oracle_reconstruct_blind(
        cell, rx, tx.subframe_index, ecfg.enable_pbch, ecfg.sync_boost_db);
    const auto got_b = rec.reconstruct_blind(
        rx, tx.subframe_index, ecfg.enable_pbch, ecfg.sync_boost_db);
    // The _into form leaves its output untouched on a DCI failure.
    cvec into(cell.samples_per_subframe(), cf32{7.0f, -7.0f});
    const cvec sentinel = into;
    const auto n_into = rec.reconstruct_blind_into(
        rx, tx.subframe_index, ecfg.enable_pbch, ecfg.sync_boost_db, into);
    if (!want_b) ++dci_failures;
    const bool agree =
        want_b.has_value() == got_b.has_value() &&
        want_b.has_value() == n_into.has_value() &&
        (want_b ? same_samples(got_b->samples, want_b->samples) &&
                      same_samples(into, want_b->samples) &&
                      got_b->re_total == want_b->re_total &&
                      *n_into == want_b->re_total
                : same_samples(into, sentinel));
    if (!agree) {
      ++mismatches;
      ADD_FAILURE() << "reconstruct_blind differs: " << what;
    }
  }
};

TEST(AmbientOracle, BatchedRebuildIsBitIdenticalToPerReRebuild) {
  // Every bandwidth x MCS over subframes 0-19 (sync subframes, PBCH on
  // two SFNs, random center-RB gaps above 1.4 MHz) at direct-path SNRs
  // spread over 0-30 dB. One reconstructor per cell serves every call, so
  // state left by one subframe type must not leak into the next.
  OracleCheck check;
  for (const lte::Bandwidth bw : lte::kAllBandwidths) {
    for (const lte::Modulation mcs :
         {lte::Modulation::kQpsk, lte::Modulation::kQam16,
          lte::Modulation::kQam64}) {
      lte::Enodeb::Config ecfg;
      ecfg.cell.bandwidth = bw;
      ecfg.cell.n_id_1 = 41;
      ecfg.cell.n_id_2 = 1;
      ecfg.modulation = mcs;
      ecfg.seed = 100 + static_cast<std::uint64_t>(bw) * 3 +
                  static_cast<std::uint64_t>(mcs);
      lte::Enodeb enb(ecfg);
      core::AmbientReconstructor rec(ecfg.cell);
      dsp::Rng rng(ecfg.seed);
      for (std::size_t sf = 0; sf < 20; ++sf) {
        const auto tx = enb.next_subframe();
        const double snr_db =
            30.0 * static_cast<double>((sf * 7) % 20) / 19.0;
        const cvec rx = direct_path(tx, snr_db, rng);
        check.run(rec, ecfg, rx, tx,
                  lte::to_string(bw) + " " + lte::to_string(mcs) + " sf " +
                      std::to_string(sf) + " snr " + std::to_string(snr_db));
      }
    }
  }
  EXPECT_EQ(check.mismatches, 0u) << "of " << check.cases << " cases";
  EXPECT_EQ(check.cases, 6u * 3u * 20u);
}

TEST(AmbientOracle, DciFailureAndNonFiniteSamplesMatchTheOracle) {
  lte::Enodeb::Config ecfg;
  ecfg.cell.bandwidth = lte::Bandwidth::kMHz5;
  ecfg.seed = 77;
  lte::Enodeb enb(ecfg);
  core::AmbientReconstructor rec(ecfg.cell);
  dsp::Rng rng(78);
  OracleCheck check;

  // Noise only: the DCI fails its CRC.
  const auto tx1 = enb.make_subframe(1);
  cvec noise(tx1.samples.size());
  channel::add_awgn(noise, 1.0, rng);
  check.run(rec, ecfg, noise, tx1, "noise-only input");
  EXPECT_EQ(check.dci_failures, 1u);

  // NaN and +/-inf samples inside a data symbol (the DCI still decodes),
  // then inside the control symbol.
  const auto tx3 = enb.make_subframe(3);
  const std::size_t sym3 =
      lte::symbol_offset_in_subframe(ecfg.cell, 3) + 100;
  for (const std::size_t at : {sym3, std::size_t{50}}) {
    cvec rx = direct_path(tx3, 25.0, rng);
    rx[at] = cf32{std::numeric_limits<float>::quiet_NaN(), 0.0f};
    rx[at + 7] = cf32{std::numeric_limits<float>::infinity(), 1.0f};
    rx[at + 9] = cf32{0.0f, -std::numeric_limits<float>::infinity()};
    check.run(rec, ecfg, rx, tx3, "non-finite at " + std::to_string(at));
  }
  EXPECT_EQ(check.mismatches, 0u) << "of " << check.cases << " cases";
}

#if LSCATTER_CHECKS_ENABLED
TEST(AmbientReconstructor, IsSingleOwner) {
  // The working set is unguarded: the first call pins the owner thread
  // and a call from any other thread is a contract violation.
  lte::Enodeb::Config ecfg;
  ecfg.cell.bandwidth = lte::Bandwidth::kMHz1_4;
  lte::Enodeb enb(ecfg);
  const auto tx = enb.make_subframe(1);
  core::AmbientReconstructor rec(ecfg.cell);
  ASSERT_TRUE(rec.reconstruct_blind(tx.samples, 1).has_value());

  core::contracts::ScopedFailureMode guard(
      core::contracts::FailureMode::kThrow);
  bool threw = false;
  std::thread([&] {
    try {
      (void)rec.reconstruct_blind(tx.samples, 1);
    } catch (const core::ContractViolation&) {
      threw = true;
    }
  }).join();
  EXPECT_TRUE(threw);
  EXPECT_TRUE(rec.reconstruct_blind(tx.samples, 1).has_value());
}
#endif

TEST(DeriveReTypes, MatchesTheEnodebsOwnGrid) {
  // The oracle's blind derivation must agree RE-for-RE with what the
  // eNodeB actually mapped, across sync and non-sync subframes.
  lte::Enodeb::Config ecfg;
  ecfg.cell.bandwidth = lte::Bandwidth::kMHz10;
  ecfg.cell.n_id_1 = 55;
  ecfg.seed = 6;
  lte::Enodeb enb(ecfg);
  for (const std::size_t sf : {0u, 1u, 5u, 7u, 10u}) {
    const auto tx = enb.make_subframe(sf);
    const auto types =
        derive_re_types(ecfg.cell, sf, tx.dci, ecfg.enable_pbch);
    const std::size_t n_sc = ecfg.cell.n_subcarriers();
    for (std::size_t l = 0; l < lte::kSymbolsPerSubframe; ++l) {
      for (std::size_t k = 0; k < n_sc; ++k) {
        ASSERT_EQ(types[l * n_sc + k], tx.grid.type_at(l, k))
            << "sf " << sf << " l " << l << " k " << k;
      }
    }
  }
}

TEST(AmbientReconstructor, PerfectInputReproducesWaveformExactly) {
  lte::Enodeb::Config ecfg;
  ecfg.cell.bandwidth = lte::Bandwidth::kMHz5;
  ecfg.seed = 3;
  lte::Enodeb enb(ecfg);
  const auto tx = enb.make_subframe(1);

  core::AmbientReconstructor rec(ecfg.cell);
  const auto result = rec.reconstruct(tx.samples, tx, ecfg.modulation);
  EXPECT_EQ(result.re_errors, 0u);
  EXPECT_GT(result.re_total, 1000u);

  double max_err = 0.0;
  for (std::size_t n = 0; n < tx.samples.size(); ++n) {
    max_err = std::max(
        max_err,
        static_cast<double>(std::abs(result.samples[n] - tx.samples[n])));
  }
  EXPECT_LT(max_err, 1e-3);
}

TEST(AmbientReconstructor, SurvivesScalingRotationAndNoise) {
  lte::Enodeb::Config ecfg;
  ecfg.cell.bandwidth = lte::Bandwidth::kMHz5;
  ecfg.seed = 5;
  lte::Enodeb enb(ecfg);
  const auto tx = enb.make_subframe(2);

  cvec rx(tx.samples.size());
  const cf32 h{2e-4f, 3e-4f};  // realistic direct amplitude, rotated
  for (std::size_t n = 0; n < rx.size(); ++n) rx[n] = h * tx.samples[n];
  dsp::Rng noise(6);
  channel::add_awgn(rx, 1e-12, noise);  // ~25 dB direct SNR

  core::AmbientReconstructor rec(ecfg.cell);
  const auto result = rec.reconstruct(rx, tx, ecfg.modulation);
  // A handful of RE decisions may flip at 25 dB with 16QAM; the bulk must
  // be right.
  EXPECT_LT(static_cast<double>(result.re_errors) /
                static_cast<double>(result.re_total),
            0.01);
}

TEST(AmbientReconstructor, SyncSignalsRegenerateFromIdentity) {
  lte::Enodeb::Config ecfg;
  ecfg.cell.bandwidth = lte::Bandwidth::kMHz1_4;
  ecfg.seed = 7;
  lte::Enodeb enb(ecfg);
  const auto tx = enb.make_subframe(0);  // sync subframe

  // Even with a noisy input, PSS/SSS/CRS positions come out exactly
  // because they are regenerated, not decided.
  cvec rx = tx.samples;
  dsp::Rng noise(8);
  channel::add_awgn(rx, 1e-3, noise);
  core::AmbientReconstructor rec(ecfg.cell);
  const auto result = rec.reconstruct(rx, tx, ecfg.modulation);

  lte::OfdmDemodulator demod(ecfg.cell);
  const auto rebuilt_pss =
      demod.demodulate_symbol(result.samples, lte::kPssSymbolIndex);
  const auto truth_pss = tx.grid.symbol(lte::kPssSymbolIndex);
  for (std::size_t k = 0; k < rebuilt_pss.size(); ++k) {
    EXPECT_NEAR(std::abs(rebuilt_pss[k] - truth_pss[k]), 0.0, 1e-2);
  }
}

TEST(LinkSimulator, BlindAmbientWorksEndToEnd) {
  core::ScenarioOptions opt;
  opt.seed = 37;
  core::LinkConfig cfg = core::make_scenario(core::Scene::kSmartHome, opt);
  cfg.env.pathloss.shadowing_sigma_db = dsp::Db{0.0};
  cfg.ambient = core::AmbientSource::kBlind;
  core::LinkSimulator sim(cfg);
  const auto m = sim.run(10);
  EXPECT_EQ(m.packets_detected, m.packets_sent);
  EXPECT_LT(m.ber(), 1e-3);
  EXPECT_GT(m.throughput_bps(), 12.5e6);
}

TEST(LinkSimulator, ReconstructedAmbientMatchesGenieAtCloseRange) {
  core::ScenarioOptions opt;
  opt.seed = 31;
  core::LinkConfig genie = core::make_scenario(core::Scene::kSmartHome, opt);
  genie.env.pathloss.shadowing_sigma_db = dsp::Db{0.0};
  core::LinkConfig recon = genie;
  recon.ambient = core::AmbientSource::kReconstructed;

  core::LinkSimulator sim_g(genie);
  core::LinkSimulator sim_r(recon);
  const auto mg = sim_g.run(10);
  const auto mr = sim_r.run(10);

  EXPECT_EQ(mr.packets_detected, mr.packets_sent);
  // The direct link is very strong up close, so reconstruction is nearly
  // perfect and throughput must be within a few percent of genie mode.
  EXPECT_NEAR(mr.throughput_bps(), mg.throughput_bps(),
              0.05 * mg.throughput_bps());
  EXPECT_LT(static_cast<double>(sim_r.last_drop().ambient_re_errors + 1) /
                static_cast<double>(sim_r.last_drop().ambient_re_total + 1),
            0.01);
}

}  // namespace
