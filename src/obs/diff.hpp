#pragma once
// Structural diff of two `lscatter.obs/1` run reports — the engine behind
// `lscatter-obs regress` (and so scripts/bench_gate.sh), which diffs a
// fresh report against the run registry's per-metric median.
//
// Two failure classes, deliberately separate:
//   * drift       — the schema version differs, or a counter/gauge/
//                   histogram present in the base is missing from the
//                   new report. Always a failure: a renamed or dropped
//                   metric silently breaks every downstream consumer, so
//                   the gate has no threshold for it.
//   * regression  — a histogram quantile (p50/p90/p99) grew past a
//                   relative threshold. Timing-sensitive, so it can be
//                   disabled (`compare_quantiles = false`, the gate's
//                   --smoke mode) and tuned (`regression_threshold`);
//                   machines vary.
// Everything else (a newly added metric, counter deltas, improvements)
// is reported as info: the base is historical, so a metric new in this
// build cannot be in it yet, and the output doubles as a changelog.

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace lscatter::obs {

enum class DiffSeverity { kInfo, kDrift, kRegression };

struct DiffFinding {
  DiffSeverity severity = DiffSeverity::kInfo;
  std::string kind;     // schema_mismatch | metric_added | metric_removed
                        // | counter_delta | quantile_regression
                        // | quantile_improvement | quantile_non_finite
  std::string section;  // counters | gauges | histograms | (schema: "")
  std::string name;     // metric name, ".p50"-suffixed for quantiles
  double base = 0.0;
  double current = 0.0;
  std::string detail;   // one human-readable line
};

struct DiffOptions {
  /// Relative growth that fails the median: 0.25 means current p50 may
  /// be at most 1.25x base.
  double regression_threshold = 0.25;

  /// Separate (looser) growth allowance for p90/p99. Short bench runs
  /// put few samples in the tail, and the log-bucketed histograms
  /// quantize at ~1.33x per bucket, so tails legitimately jump 1.5-1.8x
  /// between identical runs; the default tolerates that while still
  /// catching order-of-magnitude tail blowups.
  double tail_regression_threshold = 1.5;

  /// Compare histogram quantiles at all. Off = schema-drift check only
  /// (the gate's --smoke mode, for timings from another machine).
  bool compare_quantiles = true;
};

/// Quantiles below this (seconds for .seconds histograms) are
/// clock-resolution / bucket-granularity noise — a 200 ns stage p50
/// moves a whole 1.33x log-bucket on scheduler jitter alone — so the
/// ratio test skips them rather than flake; `trend_rows` uses the same
/// floor.
///
/// Non-finite values (the parser accepts 1e999 -> inf; in-memory
/// reports can carry NaN): a non-finite *base* quantile is skipped —
/// no ratio is meaningful against it — while a non-finite *current*
/// quantile over a comparable base is always a regression
/// (quantile_non_finite); NaN must not slip through the gate by
/// failing every comparison. Locked by tests/test_obs_diff.cpp.
inline constexpr double kMinBaseQuantile = 1e-6;

struct DiffResult {
  std::vector<DiffFinding> findings;

  bool has_drift() const;
  bool has_regression() const;
  /// True when the gate should pass: no drift, no regression.
  bool ok() const { return !has_drift() && !has_regression(); }

  /// Machine-readable verdict: {ok, drift, regression, findings:[...]}.
  json::Value to_json() const;
  /// One finding per line, severities tagged, for terminal output.
  std::string format_text() const;
};

/// Diff `current` against `base` (both parsed `lscatter.obs/1` reports).
/// Malformed inputs (wrong/missing schema) yield a schema_mismatch drift
/// finding rather than a crash — the gate must fail loudly, not throw.
DiffResult diff_reports(const json::Value& base, const json::Value& current,
                        const DiffOptions& options = {});

}  // namespace lscatter::obs
