#include "obs/report.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "dsp/fft.hpp"
#include "obs/trace_export.hpp"

namespace lscatter::obs {

namespace {

// An exporter destination like LSCATTER_OBS_JSON=results/day1/report.json
// must work without the caller pre-creating results/day1/ — a silently
// dropped report is the worst observability failure mode. Directory
// creation failure falls through to fopen, whose errno names the cause.
void create_parent_dirs(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (parent.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
}

// dsp sits below obs and cannot register metrics itself, so the FFT plan
// cache and workspace accounting live as plain atomics in dsp and get
// published here at report time. Counters are cumulative per process;
// deltas since the last publish keep repeated report writes (multi-phase
// benches) from double-counting. Processes that never ran an FFT publish
// nothing, so reports without DSP activity keep their metric set stable.
void publish_fft_stats() {
  const dsp::FftRuntimeStats stats = dsp::fft_runtime_stats();
  if (stats.plan_cache_hits == 0 && stats.plan_cache_misses == 0 &&
      stats.workspace_bytes_peak == 0) {
    return;
  }
  static std::uint64_t published_hits = 0;
  static std::uint64_t published_misses = 0;
  Registry& reg = Registry::instance();
  reg.counter("dsp.fft.plan_cache_hits")
      .add(stats.plan_cache_hits - published_hits);
  reg.counter("dsp.fft.plan_cache_misses")
      .add(stats.plan_cache_misses - published_misses);
  published_hits = stats.plan_cache_hits;
  published_misses = stats.plan_cache_misses;
  reg.gauge("dsp.fft.workspace_bytes")
      .set(static_cast<double>(stats.workspace_bytes));
  reg.gauge("dsp.fft.workspace_bytes_peak")
      .set(static_cast<double>(stats.workspace_bytes_peak));
}

json::Value histogram_json(const Histogram& h, bool include_buckets) {
  json::Value v;
  v["count"] = json::Value(h.count());
  v["sum"] = json::Value(h.sum());
  // An empty histogram measured nothing: leave the statistics out rather
  // than write zeros that metric_value would read as measurements.
  if (h.count() == 0) return v;
  v["mean"] = json::Value(h.mean());
  v["min"] = json::Value(h.min());
  v["max"] = json::Value(h.max());
  v["p50"] = json::Value(h.quantile(0.50));
  v["p90"] = json::Value(h.quantile(0.90));
  v["p99"] = json::Value(h.quantile(0.99));
  if (h.underflow() > 0) v["underflow"] = json::Value(h.underflow());
  if (include_buckets) {
    json::Array buckets;
    for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      const std::uint64_t c = h.bucket_count(i);
      if (c == 0) continue;
      json::Value b;
      b["le"] = json::Value(Histogram::upper_edge(i));
      b["count"] = json::Value(c);
      buckets.push_back(std::move(b));
    }
    v["buckets"] = json::Value(std::move(buckets));
  }
  return v;
}

}  // namespace

ReportOptions report_options_from_env() {
  ReportOptions options;
  if (const char* spans = std::getenv("LSCATTER_OBS_SPANS")) {
    char* end = nullptr;
    const unsigned long long n = std::strtoull(spans, &end, 10);
    if (end != spans && *end == '\0') {
      options.max_span_events = static_cast<std::size_t>(n);
    }
  }
  if (const char* buckets = std::getenv("LSCATTER_OBS_BUCKETS")) {
    options.include_buckets =
        !(buckets[0] == '0' && buckets[1] == '\0');
  }
  return options;
}

json::Value build_report(const std::string& report_name,
                         const ReportOptions& options,
                         const json::Value* extra) {
  Registry& reg = Registry::instance();
  json::Value root;
  root["schema"] = json::Value("lscatter.obs/1");
  root["report"] = json::Value(report_name);

  json::Value counters;
  counters.make_object();
  for (const auto& name : reg.counter_names()) {
    // counter_value merges thread-sharded cells under the same name, so
    // sharding is invisible to every report consumer.
    counters[name] = json::Value(reg.counter_value(name));
  }
  root["counters"] = std::move(counters);

  json::Value gauges;
  gauges.make_object();
  for (const auto& name : reg.gauge_names()) {
    gauges[name] = json::Value(reg.find_gauge(name)->value());
  }
  root["gauges"] = std::move(gauges);

  json::Value histograms;
  histograms.make_object();
  for (const auto& name : reg.histogram_names()) {
    histograms[name] =
        histogram_json(*reg.find_histogram(name), options.include_buckets);
  }
  root["histograms"] = std::move(histograms);

  if (options.max_span_events > 0) {
    const SpanSink& sink = SpanSink::instance();
    auto events = sink.snapshot();
    const std::size_t keep =
        std::min(events.size(), options.max_span_events);
    json::Value spans;
    spans["total"] = json::Value(sink.total_recorded());
    spans["dropped"] =
        json::Value(sink.total_recorded() -
                    static_cast<std::uint64_t>(keep));
    json::Array arr;
    arr.reserve(keep);
    for (std::size_t i = events.size() - keep; i < events.size(); ++i) {
      const SpanEvent& ev = events[i];
      json::Value e;
      e["name"] = json::Value(ev.name == nullptr ? "" : ev.name);
      e["start_ns"] = json::Value(ev.start_ns);
      e["dur_ns"] = json::Value(ev.duration_ns);
      e["depth"] = json::Value(static_cast<std::uint64_t>(ev.depth));
      e["thread"] = json::Value(static_cast<std::uint64_t>(ev.thread_id));
      e["seq"] = json::Value(ev.seq);
      e["parent_seq"] = ev.parent_seq == SpanEvent::kNoParent
                            ? json::Value(nullptr)
                            : json::Value(ev.parent_seq);
      if (ev.flow_id != 0) e["flow"] = json::Value(ev.flow_id);
      arr.push_back(std::move(e));
    }
    spans["events"] = json::Value(std::move(arr));
    root["spans"] = std::move(spans);
  }

  if (extra != nullptr) root["extra"] = *extra;
  return root;
}

std::string format_text_report(const std::string& report_name) {
  Registry& reg = Registry::instance();
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "== obs report: %s ==\n",
                report_name.c_str());
  out += line;

  const auto counter_names = reg.counter_names();
  if (!counter_names.empty()) {
    out += "-- counters --\n";
    for (const auto& name : counter_names) {
      std::snprintf(line, sizeof(line), "%-44s %12llu\n", name.c_str(),
                    static_cast<unsigned long long>(
                        reg.counter_value(name)));
      out += line;
    }
  }
  const auto gauge_names = reg.gauge_names();
  if (!gauge_names.empty()) {
    out += "-- gauges --\n";
    for (const auto& name : gauge_names) {
      std::snprintf(line, sizeof(line), "%-44s %12.6g\n", name.c_str(),
                    reg.find_gauge(name)->value());
      out += line;
    }
  }
  const auto histogram_names = reg.histogram_names();
  if (!histogram_names.empty()) {
    out += "-- histograms (count / mean / p50 / p90 / p99) --\n";
    for (const auto& name : histogram_names) {
      const Histogram& h = *reg.find_histogram(name);
      std::snprintf(line, sizeof(line),
                    "%-44s %9llu %10.3e %10.3e %10.3e %10.3e\n",
                    name.c_str(),
                    static_cast<unsigned long long>(h.count()), h.mean(),
                    h.quantile(0.5), h.quantile(0.9), h.quantile(0.99));
      out += line;
    }
  }
  return out;
}

bool write_json_file(const json::Value& report, const std::string& path) {
  create_parent_dirs(path);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot open %s for writing: %s\n",
                 path.c_str(), std::strerror(errno));
    return false;
  }
  const std::string text = report.dump(2);
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) ==
                      text.size() &&
                  std::fputc('\n', f) != EOF;
  std::fclose(f);
  return ok;
}

std::optional<std::string> write_report_from_env(
    const std::string& report_name, const std::string& default_path,
    const json::Value* extra) {
  if (const char* trace = std::getenv("LSCATTER_OBS_TRACE")) {
    if (trace[0] != '\0' && !write_trace_file(trace)) {
      std::fprintf(stderr,
                   "obs: failed to write Chrome trace to %s "
                   "(LSCATTER_OBS_TRACE)\n",
                   trace);
    }
  }
  const char* env = std::getenv("LSCATTER_OBS_JSON");
  std::string path = env != nullptr ? env : default_path;
  if (path.empty()) return std::nullopt;
  publish_fft_stats();
  const json::Value report =
      build_report(report_name, report_options_from_env(), extra);
  if (!write_json_file(report, path)) {
    std::fprintf(stderr, "obs: failed to write report to %s\n",
                 path.c_str());
    return std::nullopt;
  }
  return path;
}

}  // namespace lscatter::obs
