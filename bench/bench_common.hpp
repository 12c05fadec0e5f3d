#pragma once
// Shared helpers for the figure-regeneration benches: multi-drop averaging
// of LScatter links, consistent row printing, and JSON report emission
// through the observability exporter (`LSCATTER_OBS_JSON=<path>`). Every
// bench prints its seed so runs are reproducible.
//
// Drops run through the parallel sim pool (core/sim_pool.hpp). Results
// are bit-identical at any thread count, so the worker count is purely a
// wall-clock knob: `--threads=N` on any figure bench, else the
// LSCATTER_THREADS env var, else hardware concurrency.

#include <ctime>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/link_simulator.hpp"
#include "core/scenario.hpp"
#include "core/sim_pool.hpp"
#include "dsp/simd.hpp"
#include "dsp/stats.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/run_registry.hpp"

namespace lscatter::benchutil {

/// Bench-wide worker count: 0 = auto (LSCATTER_THREADS, else hardware).
inline std::size_t& bench_threads() {
  static std::size_t threads = 0;
  return threads;
}

/// Run-registry destination set by `--registry=PATH`; empty = only the
/// `LSCATTER_OBS_REGISTRY` env var can enable recording.
inline std::string& bench_registry_flag() {
  static std::string path;
  return path;
}

/// True when this run should append to the run registry: either the
/// `--registry=` flag or the `LSCATTER_OBS_REGISTRY` env var is set.
inline bool bench_registry_enabled() {
  if (!bench_registry_flag().empty()) return true;
  const char* env = std::getenv("LSCATTER_OBS_REGISTRY");
  return env != nullptr && env[0] != '\0';
}

// ---- command-line flags ---------------------------------------------------
// The one flag parser every bench uses, after ns-3's CommandLine: each
// flag is looked up by name with its default next to it, and arguments
// no lookup asks for are left alone. The last occurrence of a flag wins.

/// Text after `--name=` (or "" for a bare `--name`), else nullptr.
inline const char* flag_text(int argc, char** argv, const char* name) {
  const std::size_t len = std::strlen(name);
  const char* text = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) != 0) continue;
    if (argv[i][len] == '=') text = argv[i] + len + 1;
    if (argv[i][len] == '\0') text = argv[i] + len;
  }
  return text;
}

/// Integer flag `--name=N`; `fallback` when it is absent, negative or
/// below `min`.
inline std::size_t flag_count(int argc, char** argv, const char* name,
                              std::size_t fallback, std::size_t min = 1) {
  const char* text = flag_text(argc, argv, name);
  if (text == nullptr || text[0] == '-') return fallback;
  const unsigned long long v = std::strtoull(text, nullptr, 10);
  return v >= min ? static_cast<std::size_t>(v) : fallback;
}

/// Real-valued flag `--name=X`; `fallback` when it is absent.
inline double flag_real(int argc, char** argv, const char* name,
                        double fallback) {
  const char* text = flag_text(argc, argv, name);
  return text != nullptr ? std::strtod(text, nullptr) : fallback;
}

/// Parse `--threads=N` and `--registry[=PATH]` (the flags every figure
/// bench takes) and print the resolved worker count so runs are
/// self-describing.
inline void init_threads(int argc, char** argv) {
  bench_threads() = flag_count(argc, argv, "--threads", bench_threads());
  if (const char* path = flag_text(argc, argv, "--registry")) {
    bench_registry_flag() = path[0] != '\0' ? path : obs::kDefaultRegistryPath;
  }
  std::printf("threads=%zu (results are thread-count independent)\n",
              core::resolve_threads(bench_threads()));
}

struct SweepPoint {
  double mean_throughput_bps = 0.0;
  double median_throughput_bps = 0.0;
  double p90_throughput_bps = 0.0;
  double p99_throughput_bps = 0.0;
  double ber = 0.0;  // pooled over drops
  double pdr = 0.0;
  double detect = 0.0;
};

/// Run `drops` independent channel drops of `subframes` each and pool.
/// Fans out across the sim pool; bit-identical at any thread count.
inline SweepPoint run_drops(const core::LinkConfig& base, std::size_t drops,
                            std::size_t subframes,
                            std::size_t threads = 0) {
  SweepPoint p;
  const core::DropSweep sweep = core::run_drops_parallel(
      base, drops, subframes, threads > 0 ? threads : bench_threads());
  const std::vector<double>& tputs = sweep.throughputs_bps;
  const core::LinkMetrics& total = sweep.total;
  p.mean_throughput_bps = dsp::mean(tputs);
  const dsp::QuantileSummary q = dsp::summary_quantiles(tputs);
  p.median_throughput_bps = q.p50;
  p.p90_throughput_bps = q.p90;
  p.p99_throughput_bps = q.p99;
  p.ber = total.ber();
  p.pdr = total.packet_delivery_ratio();
  p.detect = total.preamble_detection_ratio();
  return p;
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("==========================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("==========================================================\n");
}

/// Accumulates sweep rows and writes them — together with the registry
/// snapshot — as one JSON report on destruction. Rows land under
/// `extra.rows`; per-bench parameters (seed, drops, ...) under
/// `extra.params`. Destination: `LSCATTER_OBS_JSON`, else `default_path`,
/// else nothing is written.
class BenchReport {
 public:
  explicit BenchReport(std::string name, std::string default_path = "")
      : name_(std::move(name)), default_path_(std::move(default_path)) {
    extra_["rows"].make_array();
    extra_["params"].make_object();
  }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  ~BenchReport() { write(); }

  obs::json::Object& params() { return extra_["params"].make_object(); }

  /// Whole `extra` payload, for attachments beyond rows/params (e.g. a
  /// SnapshotSeries dump under `extra.snapshot`).
  obs::json::Value& extra() { return extra_; }

  /// Append a row; fill in the returned object.
  obs::json::Object& add_row() {
    obs::json::Array& rows = extra_["rows"].as_array();
    rows.emplace_back(obs::json::Object{});
    return rows.back().make_object();
  }

  /// Append a row pre-populated from a SweepPoint.
  obs::json::Object& add_row(const std::string& label,
                             const SweepPoint& point) {
    obs::json::Object& row = add_row();
    row["label"] = label;
    row["mean_throughput_bps"] = point.mean_throughput_bps;
    row["median_throughput_bps"] = point.median_throughput_bps;
    row["p90_throughput_bps"] = point.p90_throughput_bps;
    row["p99_throughput_bps"] = point.p99_throughput_bps;
    row["ber"] = point.ber;
    row["pdr"] = point.pdr;
    row["detect"] = point.detect;
    return row;
  }

  /// Write now (idempotent; the destructor is a no-op afterwards). When
  /// a run registry is configured (`--registry=` flag or
  /// `LSCATTER_OBS_REGISTRY`), the same report — compacted — is also
  /// appended there with provenance.
  void write() {
    if (written_) return;
    written_ = true;
    const auto path =
        obs::write_report_from_env(name_, default_path_, &extra_);
    if (path) std::printf("\nJSON report: %s\n", path->c_str());
    if (bench_registry_enabled()) record_to_registry();
  }

 private:
  void record_to_registry() {
    const std::string registry =
        obs::registry_path_from_env(bench_registry_flag());
    obs::RunRecord rec;
    rec.report = obs::compact_report(
        obs::build_report(name_, obs::report_options_from_env(), &extra_));
    rec.provenance.bench = name_;
    // Git state is the driver's business (scripts/bench_gate.sh exports
    // it); a bench binary must not shell out.
    if (const char* sha = std::getenv("LSCATTER_GIT_SHA")) {
      rec.provenance.git_sha = sha;
    }
    if (const char* dirty = std::getenv("LSCATTER_GIT_DIRTY")) {
      rec.provenance.dirty = !(dirty[0] == '0' && dirty[1] == '\0');
    }
    rec.provenance.config_hash = obs::config_hash(extra_["params"]);
    rec.provenance.hostname = obs::local_hostname();
    rec.provenance.threads = core::resolve_threads(bench_threads());
    rec.provenance.simd_tier = dsp::to_string(dsp::simd_tier());
    // Caller-side wall-clock stamp: the obs library itself never reads
    // clocks (DESIGN.md §11); the bench binary is the caller here.
    rec.provenance.unix_time_s = static_cast<double>(std::time(nullptr));
    std::string error;
    if (obs::append_record(registry, rec, &error)) {
      std::printf("registry: appended %s to %s\n", name_.c_str(),
                  registry.c_str());
    } else {
      // Non-fatal by design: a missing registry record only weakens the
      // trend baseline, it must not fail the bench. But it has to be
      // loud — CI artifacts need to show exactly which path refused the
      // record and why, or a silently thinning registry looks like a
      // healthy one.
      std::fprintf(stderr,
                   "registry: FAILED to append %s to %s: %s "
                   "(non-fatal; run not recorded)\n",
                   name_.c_str(), registry.c_str(),
                   error.empty() ? "unknown error" : error.c_str());
    }
  }

  std::string name_;
  std::string default_path_;
  obs::json::Value extra_;
  bool written_ = false;
};

}  // namespace lscatter::benchutil
