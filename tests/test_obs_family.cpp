// Labeled metric families (obs/family.hpp) and thread-sharded counters
// (obs/sharded.hpp): flattened `name{label=value}` registration, the
// bounded-cardinality overflow contract (cap hit -> obs.labels.dropped
// counts each collapsed value, report stays schema-valid), report-side
// merging of sharded cells, and the diff-side promise that a labeled
// report against an unlabeled baseline fails only as added metric rows,
// never as a schema break.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/diff.hpp"
#include "obs/family.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/sharded.hpp"

namespace {

using namespace lscatter;

TEST(ObsFamily, CellsRegisterUnderFlattenedNames) {
  obs::CounterFamily family("test.family.decoded", "tag");
  family.cell(std::string_view("7")).add(3);
  family.cell(std::uint64_t{7}).add(2);  // same cell via the int overload
  family.cell(std::string_view("9")).add(1);

  obs::Registry& reg = obs::Registry::instance();
  EXPECT_EQ(reg.counter_value("test.family.decoded{tag=7}"), 5u);
  EXPECT_EQ(reg.counter_value("test.family.decoded{tag=9}"), 1u);
  EXPECT_EQ(family.size(), 2u);
  EXPECT_EQ(family.name(), "test.family.decoded");
  EXPECT_EQ(family.label_key(), "tag");
}

TEST(ObsFamily, CellAddressesAreStable) {
  obs::GaugeFamily family("test.family.depth", "stage");
  obs::Gauge& a = family.cell(std::string_view("acquire"));
  a.set(4.0);
  EXPECT_EQ(&family.cell(std::string_view("acquire")), &a);
  EXPECT_EQ(family.cell(std::string_view("acquire")).value(), 4.0);
}

TEST(ObsFamily, LabelValuesAreSanitized) {
  obs::CounterFamily family("test.family.sanitized", "key");
  family.cell(std::string_view("a{b}=c,d\"e")).add(1);
  EXPECT_EQ(obs::Registry::instance().counter_value(
                "test.family.sanitized{key=a_b__c_d_e}"),
            1u);
}

TEST(ObsFamily, CardinalityOverflowCollapsesAndCounts) {
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& dropped = reg.counter(obs::kLabelsDroppedCounter);
  const std::uint64_t dropped_before = dropped.value();

  obs::HistogramFamily family("test.family.lat.seconds", "tag",
                              /*max_cells=*/3);
  for (std::uint64_t t = 0; t < 8; ++t) {
    family.cell(t).record(1e-3);
  }
  // 3 real cells; tags 3..7 (5 distinct values) collapsed.
  EXPECT_EQ(family.size(), 3u);
  EXPECT_EQ(dropped.value() - dropped_before, 5u);

  // Repeat hits on collapsed values do not re-count.
  family.cell(std::uint64_t{5}).record(2e-3);
  EXPECT_EQ(dropped.value() - dropped_before, 5u);

  // All collapsed values share the __other__ overflow cell.
  const obs::Histogram* overflow =
      reg.find_histogram("test.family.lat.seconds{tag=__other__}");
  ASSERT_NE(overflow, nullptr);
  EXPECT_EQ(overflow->count(), 6u);  // tags 3..7 once each + tag 5 again

  // The overflowed family still yields a schema-valid lscatter.obs/1
  // report: diffing it against itself must be clean, not a schema error.
  const obs::json::Value report = obs::build_report("family-overflow");
  EXPECT_EQ(report.find("schema")->as_string(), "lscatter.obs/1");
  const obs::DiffResult self = obs::diff_reports(report, report);
  EXPECT_TRUE(self.ok());
}

TEST(ObsFamily, LabeledVsUnlabeledDiffIsAddedRowsNotSchema) {
  // Baseline: report before the labeled family exists.
  const obs::json::Value base = obs::build_report("label-diff");

  obs::CounterFamily family("test.family.diffcase", "tag");
  family.cell(std::uint64_t{0}).add(1);
  family.cell(std::uint64_t{1}).add(1);
  const obs::json::Value labeled = obs::build_report("label-diff");

  // New labeled rows are info, so they cannot fail the median gate.
  const obs::DiffResult tolerant = obs::diff_reports(base, labeled);
  EXPECT_FALSE(tolerant.has_drift());
  EXPECT_TRUE(tolerant.ok());
  bool saw_added_info = false;
  for (const obs::DiffFinding& f : tolerant.findings) {
    if (f.kind == "metric_added") {
      EXPECT_EQ(f.severity, obs::DiffSeverity::kInfo);
      saw_added_info = true;
    }
  }
  EXPECT_TRUE(saw_added_info);

  // Removing the rows again is drift.
  const obs::DiffResult removed = obs::diff_reports(labeled, base);
  EXPECT_TRUE(removed.has_drift());
}

TEST(ObsSharded, MergesAcrossThreadsAndReportsAsPlainRow) {
  obs::Registry& reg = obs::Registry::instance();
  obs::ShardedCounter& c = reg.sharded_counter("test.sharded.hits");
  c.reset();

  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> team;
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& t : team) t.join();

  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(reg.counter_value("test.sharded.hits"), kThreads * kPerThread);
  EXPECT_EQ(reg.find_sharded_counter("test.sharded.hits"), &c);
  // Sharded names appear in the plain counter namespace...
  const auto names = reg.counter_names();
  EXPECT_NE(std::find(names.begin(), names.end(),
                      std::string("test.sharded.hits")),
            names.end());
  // ...and in the report's counters section, already merged.
  const obs::json::Value report = obs::build_report("sharded-merge");
  EXPECT_EQ(report.find("counters")->find("test.sharded.hits")->as_number(),
            static_cast<double>(kThreads * kPerThread));
  // find_counter sees only plain counters: no phantom plain registration.
  EXPECT_EQ(reg.find_counter("test.sharded.hits"), nullptr);

  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsSharded, PlainAndShardedSameNameReportTheSum) {
  obs::Registry& reg = obs::Registry::instance();
  reg.counter("test.sharded.both").add(3);
  reg.sharded_counter("test.sharded.both").add(4);
  EXPECT_EQ(reg.counter_value("test.sharded.both"), 7u);
  // One row, not two, in the merged name list.
  const auto names = reg.counter_names();
  EXPECT_EQ(std::count(names.begin(), names.end(),
                       std::string("test.sharded.both")),
            1);
}

TEST(ObsSharded, ResetAllClearsShardedCells) {
  obs::Registry& reg = obs::Registry::instance();
  reg.sharded_counter("test.sharded.resettable").add(9);
  reg.reset_all();
  EXPECT_EQ(reg.counter_value("test.sharded.resettable"), 0u);
}

}  // namespace
