// Report diffing (obs/diff.hpp): the three verdict classes the
// registry-median gate (`lscatter-obs regress`) relies on — clean,
// metric-name drift, and quantile regression — plus the noise floor,
// threshold tuning, smoke mode, and the machine-readable verdict JSON.

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "obs/diff.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/registry.hpp"

namespace {

using namespace lscatter;

// A minimal but schema-complete report. `p50` scales all three
// quantiles so ratio tests can dial in a regression with one knob.
obs::json::Value make_report(const std::string& hist_name, double p50,
                             double packets = 100.0) {
  obs::json::Value r;
  r["schema"] = "lscatter.obs/1";
  r["report"] = "unit";
  r["counters"]["test.diff.packets"] = packets;
  r["gauges"]["test.diff.hwm"] = 42.0;
  obs::json::Value& h = r["histograms"][hist_name];
  h["count"] = 1000.0;
  h["mean"] = p50;
  h["p50"] = p50;
  h["p90"] = p50 * 2.0;
  h["p99"] = p50 * 3.0;
  return r;
}

TEST(ObsDiff, IdenticalReportsAreClean) {
  const auto base = make_report("test.diff.demod.seconds", 1e-4);
  const auto cur = make_report("test.diff.demod.seconds", 1e-4);
  const obs::DiffResult d = obs::diff_reports(base, cur);
  EXPECT_TRUE(d.ok());
  EXPECT_FALSE(d.has_drift());
  EXPECT_FALSE(d.has_regression());
  EXPECT_TRUE(d.findings.empty());
}

TEST(ObsDiff, RenamedMetricIsDrift) {
  const auto base = make_report("test.diff.demod.seconds", 1e-4);
  const auto cur = make_report("test.diff.demodulate.seconds", 1e-4);
  const obs::DiffResult d = obs::diff_reports(base, cur);
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.has_drift());
  EXPECT_FALSE(d.has_regression());

  bool removed = false, added = false;
  for (const auto& f : d.findings) {
    if (f.kind == "metric_removed" &&
        f.name == "test.diff.demod.seconds") {
      EXPECT_EQ(f.severity, obs::DiffSeverity::kDrift);
      removed = true;
    }
    if (f.kind == "metric_added" &&
        f.name == "test.diff.demodulate.seconds") {
      EXPECT_EQ(f.severity, obs::DiffSeverity::kInfo);
      added = true;
    }
  }
  EXPECT_TRUE(removed);
  EXPECT_TRUE(added);
  // Drift fails even in smoke mode (quantile comparison off).
  obs::DiffOptions smoke;
  smoke.compare_quantiles = false;
  EXPECT_FALSE(obs::diff_reports(base, cur, smoke).ok());
}

TEST(ObsDiff, P50RegressionPastThresholdFails) {
  const auto base = make_report("test.diff.demod.seconds", 1e-4);
  const auto cur = make_report("test.diff.demod.seconds", 2e-4);  // 2.00x
  const obs::DiffResult d = obs::diff_reports(base, cur);  // default 25%
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.has_regression());
  EXPECT_FALSE(d.has_drift());
  // All three quantiles scaled 2.00x, but only the median exceeds its
  // threshold — p90/p99 sit inside the looser 2.5x tail allowance.
  int regressions = 0;
  for (const auto& f : d.findings) {
    if (f.kind == "quantile_regression") {
      ++regressions;
      EXPECT_EQ(f.name, "test.diff.demod.seconds.p50");
      EXPECT_DOUBLE_EQ(f.current / f.base, 2.0);
    }
  }
  EXPECT_EQ(regressions, 1);

  // A generous threshold lets the same pair pass...
  obs::DiffOptions loose;
  loose.regression_threshold = 1.5;  // allow up to 2.5x
  EXPECT_TRUE(obs::diff_reports(base, cur, loose).ok());
  // ...as does smoke mode, which never looks at timings.
  obs::DiffOptions smoke;
  smoke.compare_quantiles = false;
  EXPECT_TRUE(obs::diff_reports(base, cur, smoke).ok());
}

TEST(ObsDiff, TailBlowupPastTailThresholdFails) {
  const auto base = make_report("test.diff.demod.seconds", 1e-4);
  auto cur = make_report("test.diff.demod.seconds", 1e-4);  // p50 stable
  cur["histograms"]["test.diff.demod.seconds"]["p99"] = 1e-3;  // 3.33x
  const obs::DiffResult d = obs::diff_reports(base, cur);
  EXPECT_FALSE(d.ok());
  ASSERT_EQ(d.findings.size(), 1u);
  EXPECT_EQ(d.findings[0].kind, "quantile_regression");
  EXPECT_EQ(d.findings[0].name, "test.diff.demod.seconds.p99");

  obs::DiffOptions loose;
  loose.tail_regression_threshold = 4.0;
  EXPECT_TRUE(obs::diff_reports(base, cur, loose).ok());
}

TEST(ObsDiff, ImprovementIsInfoNotFailure) {
  const auto base = make_report("test.diff.demod.seconds", 1e-4);
  const auto cur = make_report("test.diff.demod.seconds", 0.4e-4);
  const obs::DiffResult d = obs::diff_reports(base, cur);
  EXPECT_TRUE(d.ok());
  bool improvement = false;
  for (const auto& f : d.findings) {
    if (f.kind == "quantile_improvement") improvement = true;
  }
  EXPECT_TRUE(improvement);
}

TEST(ObsDiff, NoiseFloorSkipsTinyQuantiles) {
  // 300 ns -> 1.2 µs is a 4x "regression" whose base quantiles (p99 =
  // 3x p50 = 900 ns) all sit below the 1 µs noise floor: must not
  // fail the gate.
  const auto base = make_report("test.diff.tiny.seconds", 3e-7);
  const auto cur = make_report("test.diff.tiny.seconds", 1.2e-6);
  EXPECT_TRUE(obs::diff_reports(base, cur).ok());
}

TEST(ObsDiff, CounterDeltaIsInfo) {
  // The second base is what regress's median of an even number of
  // records gives: its .5 must show, not round to "150 -> 150 (-0)".
  struct Case {
    double base;
    double current;
    const char* detail;
  };
  for (const Case& c : {Case{100.0, 150.0, "100 -> 150 (+50)"},
                        Case{150.5, 150.0, "150.5 -> 150 (-0.5)"}}) {
    const auto base = make_report("test.diff.h.seconds", 1e-4, c.base);
    const auto cur = make_report("test.diff.h.seconds", 1e-4, c.current);
    const obs::DiffResult d = obs::diff_reports(base, cur);
    EXPECT_TRUE(d.ok());
    ASSERT_EQ(d.findings.size(), 1u);
    EXPECT_EQ(d.findings[0].kind, "counter_delta");
    EXPECT_DOUBLE_EQ(d.findings[0].base, c.base);
    EXPECT_DOUBLE_EQ(d.findings[0].current, c.current);
    EXPECT_NE(d.findings[0].detail.find(c.detail), std::string::npos)
        << d.findings[0].detail;
  }
}

TEST(ObsDiff, ForeignSchemaIsDrift) {
  const auto good = make_report("test.diff.h.seconds", 1e-4);
  obs::json::Value bad;
  bad["schema"] = "someone-else/9";
  const obs::DiffResult d = obs::diff_reports(good, bad);
  EXPECT_FALSE(d.ok());
  ASSERT_EQ(d.findings.size(), 1u);
  EXPECT_EQ(d.findings[0].kind, "schema_mismatch");

  obs::json::Value empty;  // not even an object
  EXPECT_FALSE(obs::diff_reports(good, empty).ok());
}

TEST(ObsDiff, ObsOffReportsWithEmptySectionsDiffClean) {
  // -DLSCATTER_OBS=OFF binaries still write reports; both sides empty
  // must compare clean, one side empty must read as drift.
  obs::json::Value off_a;
  off_a["schema"] = "lscatter.obs/1";
  off_a["report"] = "off";
  obs::json::Value off_b = off_a;
  EXPECT_TRUE(obs::diff_reports(off_a, off_b).ok());

  const auto full = make_report("test.diff.h.seconds", 1e-4);
  const obs::DiffResult d = obs::diff_reports(full, off_a);
  EXPECT_TRUE(d.has_drift());
}

TEST(ObsDiff, VerdictJsonAndTextRoundTrip) {
  const auto base = make_report("test.diff.demod.seconds", 1e-4);
  const auto cur = make_report("test.diff.demodulate.seconds", 1e-4);
  const obs::DiffResult d = obs::diff_reports(base, cur);

  const auto parsed = obs::json::parse(d.to_json().dump(2));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->find("ok")->as_bool());
  EXPECT_TRUE(parsed->find("drift")->as_bool());
  EXPECT_FALSE(parsed->find("regression")->as_bool());
  EXPECT_EQ(parsed->find("findings")->as_array().size(),
            d.findings.size());

  const std::string text = d.format_text();
  EXPECT_NE(text.find("[drift]"), std::string::npos);
  EXPECT_NE(text.find("verdict: FAIL"), std::string::npos);
}

TEST(ObsDiff, EmptyVsEmptyIsClean) {
  // Two reports with empty metric sections (not just missing ones).
  obs::json::Value a;
  a["schema"] = "lscatter.obs/1";
  a["report"] = "empty";
  a["counters"].make_object();
  a["gauges"].make_object();
  a["histograms"].make_object();
  const obs::json::Value b = a;
  const obs::DiffResult d = obs::diff_reports(a, b);
  EXPECT_TRUE(d.ok());
  EXPECT_TRUE(d.findings.empty());
}

TEST(ObsDiff, ZeroCountHistogramsCompareClean) {
  // A histogram that never recorded (count 0, all quantiles 0) must not
  // produce regression findings in either direction: base quantile 0 is
  // below the noise floor, so the comparison is skipped.
  auto zero = make_report("test.diff.idle.seconds", 0.0);
  zero["histograms"]["test.diff.idle.seconds"]["count"] = 0.0;
  EXPECT_TRUE(obs::diff_reports(zero, zero).ok());

  // Zero base, live current: still clean — you can't compute growth
  // against nothing. The count delta is visible to humans via trend,
  // not a gate failure.
  const auto live = make_report("test.diff.idle.seconds", 1e-3);
  EXPECT_TRUE(obs::diff_reports(zero, live).ok());
}

TEST(ObsDiff, NonFiniteCurrentQuantileIsRegression) {
  // Policy (locked here, documented in obs/diff.hpp): a NaN or inf
  // current quantile over a comparable finite base is always a
  // regression — NaN must not slip through just because every ratio
  // comparison on it is false.
  const auto base = make_report("test.diff.demod.seconds", 1e-4);
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    auto cur = make_report("test.diff.demod.seconds", 1e-4);
    cur["histograms"]["test.diff.demod.seconds"]["p50"] = bad;
    const obs::DiffResult d = obs::diff_reports(base, cur);
    EXPECT_FALSE(d.ok());
    EXPECT_TRUE(d.has_regression());
    bool non_finite = false;
    for (const auto& f : d.findings) {
      if (f.kind == "quantile_non_finite") {
        non_finite = true;
        EXPECT_EQ(f.name, "test.diff.demod.seconds.p50");
      }
    }
    EXPECT_TRUE(non_finite);
  }
}

TEST(ObsDiff, NonFiniteBaseQuantileIsSkipped) {
  // A corrupted baseline must not wedge the gate: non-finite base
  // quantiles are skipped (the fresh run can't be blamed for them).
  auto base = make_report("test.diff.demod.seconds", 1e-4);
  base["histograms"]["test.diff.demod.seconds"]["p50"] =
      std::numeric_limits<double>::quiet_NaN();
  const auto cur = make_report("test.diff.demod.seconds", 5e-4);
  const obs::DiffResult d = obs::diff_reports(base, cur);
  for (const auto& f : d.findings) {
    EXPECT_NE(f.name, "test.diff.demod.seconds.p50") << f.kind;
  }
}

TEST(ObsDiff, InfSurvivesJsonParseAsOverflow) {
  // The strict parser still yields inf for an overflowing literal
  // (strtod semantics), so a registry line edited to 1e999 exercises
  // the same non-finite path end to end.
  const auto parsed = obs::json::parse(
      R"({"schema":"lscatter.obs/1","report":"x","histograms":)"
      R"({"test.diff.demod.seconds":{"count":10,"mean":1e999,)"
      R"("p50":1e999,"p90":1e999,"p99":1e999}}})");
  ASSERT_TRUE(parsed.has_value());
  const auto base = make_report("test.diff.demod.seconds", 1e-4);
  const obs::DiffResult d = obs::diff_reports(base, *parsed);
  EXPECT_TRUE(d.has_regression());
}

TEST(ObsDiff, LiveReportDiffsCleanAgainstItself) {
  // End-to-end against the real exporter: a build_report snapshot diffed
  // against a re-parse of its own serialization is clean (the
  // `lscatter-obs regress` happy path on an unmodified tree).
  obs::Registry& reg = obs::Registry::instance();
  reg.counter("test.diff.live.packets").add(3);
  reg.histogram("test.diff.live.stage.seconds").record(2e-3);
  const obs::json::Value report = obs::build_report("live");
  const auto reparsed = obs::json::parse(report.dump(2));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_TRUE(obs::diff_reports(report, *reparsed).ok());
}

}  // namespace
