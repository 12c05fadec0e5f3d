#pragma once
// Append-only run registry: the longitudinal store behind `lscatter-obs
// record/query/trend/regress` and the bench gate's registry-median
// fallback (DESIGN.md §11).
//
// One run = one line of JSONL. Each line is a `lscatter.obs-run/1`
// envelope wrapping a *compacted* `lscatter.obs/1` report (spans and
// histogram bucket arrays stripped — quantiles survive) plus provenance:
//
//   { "schema": "lscatter.obs-run/1",
//     "provenance": { "bench", "git_sha", "dirty", "config_hash",
//                     "hostname", "threads", "unix_time_s" },
//     "report": { ...compacted lscatter.obs/1... } }
//
// Design rules:
//   * Appends are crash-safe: the whole record is serialized to a single
//     '\n'-terminated line and handed to the kernel in one O_APPEND
//     write, so a crashed or concurrent writer can at worst leave one
//     torn *trailing* line — never interleave two records.
//   * The reader is strict per line but lenient per file: a line that is
//     not valid `lscatter.obs-run/1` is skipped and counted, never
//     fatal. A registry survives torn tails, hand edits, and version
//     skew. (Fuzzed in fuzz/fuzz_obs_registry.cpp.)
//   * No wall clocks in this library. `Provenance::unix_time_s` is
//     stamped by the caller (the CLI or the bench binary) so library
//     code stays deterministic and testable.
//
// Default location: `.lscatter/registry.jsonl` relative to the working
// directory, overridden by the `LSCATTER_OBS_REGISTRY` env var or an
// explicit path argument.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/diff.hpp"
#include "obs/json.hpp"

namespace lscatter::obs {

inline constexpr const char* kRunRecordSchema = "lscatter.obs-run/1";
inline constexpr const char* kDefaultRegistryPath =
    ".lscatter/registry.jsonl";

/// Resolve the registry path: `explicit_path` when non-empty, else the
/// `LSCATTER_OBS_REGISTRY` env var, else kDefaultRegistryPath.
std::string registry_path_from_env(const std::string& explicit_path = "");

/// Who/what/when of one recorded run. `unix_time_s` must be injected by
/// the caller — see the no-wall-clock rule above.
struct Provenance {
  std::string bench;       // run/report name, e.g. "bench_micro_dsp"
  std::string git_sha;     // empty when unknown
  bool dirty = false;      // uncommitted changes at record time
  std::uint64_t config_hash = 0;  // config_hash() of the bench config
  std::string hostname;    // local_hostname() or caller-supplied
  std::uint64_t threads = 0;
  /// Resolved SIMD dispatch tier at record time (dsp::to_string of
  /// dsp::simd_tier(): "avx2" or "scalar"); empty when
  /// unknown (records predating the field). Lets trend/regress compare
  /// like-for-like: a scalar-forced CI row must not poison the median
  /// for AVX2 boxes.
  std::string simd_tier;
  double unix_time_s = 0.0;
};

/// gethostname() wrapper; "unknown" when the syscall fails.
std::string local_hostname();

/// Recursively sort object keys (arrays keep order). Two configs that
/// differ only in member order canonicalize identically — the basis of
/// config_hash().
json::Value canonicalize(const json::Value& v);

/// SplitMix64-style hash over the compact dump of canonicalize(config):
/// each byte perturbs the state, then two xor-multiply finalizer rounds
/// avalanche it (same constants as dsp::derive_seed). Stable across
/// processes and platforms; hash of two configs matches iff their
/// canonical forms match.
std::uint64_t config_hash(const json::Value& config);

/// Shrink an `lscatter.obs/1` report for registry storage: drop the
/// `spans` section and every histogram's `buckets` array, keep
/// counters/gauges/quantiles/extra verbatim. Idempotent.
json::Value compact_report(const json::Value& report);

struct RunRecord {
  Provenance provenance;
  json::Value report;  // compacted lscatter.obs/1 document

  json::Value to_json() const;
  /// Strict decode of one envelope; nullopt when the schema tag,
  /// provenance object, or report object is missing/mistyped.
  static std::optional<RunRecord> from_json(const json::Value& v);
};

/// Parse one registry line (no trailing newline required). nullopt on
/// any corruption — the reader counts these, the fuzz harness hammers
/// this entry point.
std::optional<RunRecord> parse_record_line(std::string_view line);

/// Append one record as a single JSONL line, creating parent directories
/// as needed. On failure returns false and, when `error` is non-null,
/// stores a human-readable reason including the path.
bool append_record(const std::string& path, const RunRecord& record,
                   std::string* error = nullptr);

struct ReadStats {
  std::size_t total_lines = 0;    // non-empty lines seen
  std::size_t corrupt_lines = 0;  // skipped (not valid lscatter.obs-run/1)
};

/// Read every valid record, oldest first. A missing file is an empty
/// registry, not an error. Corrupt lines are skipped and counted.
std::vector<RunRecord> read_records(const std::string& path,
                                    ReadStats* stats = nullptr);

struct RecordFilter {
  std::string bench;    // exact match on provenance.bench; empty = any
  std::string git_sha;  // prefix match on provenance.git_sha; empty = any
  /// Exact match on provenance.simd_tier; empty = any. Records with no
  /// recorded tier (pre-field registries) match any requested tier, so
  /// an upgraded CLI keeps reading old registries.
  std::string simd_tier;
  /// Exact match on provenance.threads; 0 = any. Like simd_tier,
  /// records with no recorded thread count (0) always match.
  std::uint64_t threads = 0;
  std::size_t last = 0;  // after filtering keep the newest K; 0 = all
};

std::vector<RunRecord> filter_records(std::vector<RunRecord> records,
                                      const RecordFilter& filter);

/// Flattened numeric metric paths of one report, in report order:
/// "counters.<name>", "gauges.<name>", and
/// "histograms.<name>.{count,mean,p50,p90,p99}".
std::vector<std::string> metric_names(const json::Value& report);

/// Value at a flattened metric path; nullopt when absent or non-numeric.
std::optional<double> metric_value(const json::Value& report,
                                   const std::string& metric);

/// One metric's trajectory across a record sequence (append order).
struct TrendRow {
  std::string metric;
  std::size_t n = 0;       // records carrying this metric
  double first = 0.0;      // oldest value
  double last = 0.0;       // newest value
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;  // across the sequence
  /// newest vs median-of-priors ratio; 0 when not computable.
  double last_over_median = 0.0;
  /// Histogram-quantile metric whose newest value grew past the
  /// obs::diff thresholds relative to the median of the prior records.
  bool regressed = false;
};

/// Per-metric p50/p90/p99 across `records` plus monotone regression
/// flagging using the same thresholds as obs::diff (p50 paths use
/// `regression_threshold`, p90/p99 paths `tail_regression_threshold`;
/// counters and gauges are informational, never flagged). Metrics are
/// the union over all records; `metric_filter` (substring, empty = all)
/// narrows the output.
std::vector<TrendRow> trend_rows(const std::vector<RunRecord>& records,
                                 const std::string& metric_filter = "",
                                 const DiffOptions& options = {});

/// Synthesize an `lscatter.obs/1` baseline from a record set: every
/// metric present in more than half of the records contributes the
/// median of its present values (majority vote keeps one odd run with a
/// foreign metric set from spraying drift findings). Feed the result to
/// diff_reports() as the base — that is `lscatter-obs regress`.
json::Value median_report(const std::vector<RunRecord>& records);

}  // namespace lscatter::obs
