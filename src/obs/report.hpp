#pragma once
// Run-report exporters: serialize the Registry and the SpanSink into a
// JSON document (schema in DESIGN.md §7) or a compact text table, plus
// the `LSCATTER_OBS_JSON=<path>` environment hook benches and examples
// call on exit.
//
// Report schema (top-level object):
//   schema          "lscatter.obs/1"
//   report          free-form run name
//   counters        { name: integer }
//   gauges          { name: number }
//   histograms      { name: {count,sum,mean,min,max,p50,p90,p99,
//                            underflow, buckets:[{le,count},...]} }
//   spans           { total, dropped,
//                     events:[{name,start_ns,dur_ns,depth,thread,seq,
//                              parent_seq|null},...] }
//   extra           caller-provided object (bench rows, config echo)

#include <optional>
#include <string>

#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace lscatter::obs {

struct ReportOptions {
  /// Cap on exported span events (most recent kept). 0 = omit spans.
  std::size_t max_span_events = 4096;

  /// Export only the non-empty buckets of each histogram.
  bool include_buckets = true;
};

/// Defaults overridden by `LSCATTER_OBS_SPANS=<n>` (span-event cap) and
/// `LSCATTER_OBS_BUCKETS=0|1` — how scripts/bench_gate.sh shrinks its
/// fresh reports to names + quantiles without a recompile.
ReportOptions report_options_from_env();

/// Snapshot the process-wide registry + span sink into a JSON value.
/// `extra`, when provided, is attached verbatim under "extra".
json::Value build_report(const std::string& report_name,
                         const ReportOptions& options = {},
                         const json::Value* extra = nullptr);

/// Human-readable table of the same snapshot (counters, gauges, and
/// histogram p50/p90/p99) for stderr/stdout diagnostics.
std::string format_text_report(const std::string& report_name);

/// Serialize `report` to `path` (pretty-printed). False on I/O failure.
bool write_json_file(const json::Value& report, const std::string& path);

/// If `LSCATTER_OBS_JSON` is set (or `default_path` is non-empty), write
/// the current report there and return the path written. Benches call
/// this once after their workload. Returns nullopt when no destination
/// is configured or the write failed. Additionally honors
/// `LSCATTER_OBS_TRACE=<path>`: dumps the span sink as Chrome
/// trace-event JSON (obs/trace_export.hpp) — independent of whether a
/// report destination is configured — and the ReportOptions env knobs
/// above.
std::optional<std::string> write_report_from_env(
    const std::string& report_name, const std::string& default_path = "",
    const json::Value* extra = nullptr);

}  // namespace lscatter::obs
