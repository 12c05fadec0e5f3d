// lscatter_perfbench: one process per run of one workload.
//
//   lscatter_perfbench --workload <name> --seed <n> --seconds <s>
//                      --trace <0|1> [--out-dir <dir>]
//
// Workloads: ue_20mhz_blind, ue_1p4mhz_ragged, montecarlo_home_20mhz.
// --trace 0 prints the end-to-end metrics; --trace 1 splits the time into
// an untraced and a traced half and prints the per-layer metrics, writing
// a Chrome trace and the program's obs report under --out-dir. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {value, unit}}}. Exit status: 0 ok, 1 a correctness
// violation, 2 usage error, 3 refused (assert-enabled build).

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "core/contracts.hpp"
#include "dsp/simd.hpp"
#include "obs/alloc_probe.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "workload.hpp"

namespace perfbench {

std::uint64_t heap_allocations() {
  return lscatter::obs::alloc_probe_count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Result::violation(const std::string& what) {
  correct = false;
  ++failed;
  std::printf("VIOLATION: %s\n", what.c_str());
}

namespace {

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(o.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        return false;
      }
      o.trace = val[0] == '1';
    } else if (key == "--out-dir") {
      o.out_dir = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty();
}

/// Spans as Chrome trace-event JSON, plus the program's own obs report
/// (its core.demod.* and lte.enodeb.subframe histograms; channel.awgn.add
/// too for montecarlo) beside them as a cross-check.
void write_trace(const Options& options, const Tracer& tracer) {
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  const std::string stem = options.out_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed);
  const bool spans = tracer.write_chrome(stem + ".trace.json");
  const bool report = lscatter::obs::write_json_file(
      lscatter::obs::build_report("perfbench." + options.workload),
      stem + ".obs.json");
  std::printf("trace: %s.trace.json%s, obs report: %s.obs.json%s\n",
              stem.c_str(), spans ? "" : " (write failed)", stem.c_str(),
              report ? "" : " (write failed)");
}

void print_result(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!parse_args(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n",
                 argv[0]);
    return 2;
  }

#ifdef NDEBUG
  constexpr bool kNdebug = true;
#else
  constexpr bool kNdebug = false;
#endif
  const bool montecarlo = options.workload == "montecarlo_home_20mhz";
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("build: simd_tier=%s pool_workers=%d NDEBUG=%d contracts=%d "
              "obs=%d\n",
              lscatter::dsp::to_string(lscatter::dsp::simd_tier()),
              montecarlo ? 2 : 1, kNdebug ? 1 : 0, LSCATTER_CHECKS_ENABLED,
              LSCATTER_OBS_ENABLED);
  if (!kNdebug) {
    std::printf("refusing to report: assert-enabled build (configure with "
                "CMAKE_BUILD_TYPE=RelWithDebInfo or Release)\n");
    return 3;
  }

  Result result;
  Tracer tracer(options.trace);
  try {
    if (options.workload == "ue_20mhz_blind") {
      UeSpec spec;
      spec.bandwidth = lscatter::lte::Bandwidth::kMHz20;
      spec.block_subframes = 40;
      result = run_ue_workload(options, spec, tracer);
    } else if (options.workload == "ue_1p4mhz_ragged") {
      UeSpec spec;
      spec.bandwidth = lscatter::lte::Bandwidth::kMHz1_4;
      spec.ragged = true;
      spec.min_chunk = 3;
      spec.max_chunk = 2600;
      spec.block_subframes = 200;
      result = run_ue_workload(options, spec, tracer);
    } else if (montecarlo) {
      result = run_montecarlo_workload(options, tracer);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::printf("workload aborted: %s\n", e.what());
    return 1;
  }

  if (options.trace) write_trace(options, tracer);
  for (const auto& [name, m] : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.violation("metric " + name + " is not finite");
    }
  }
  print_result(result);
  return result.correct ? 0 : 1;
}
