// lscatter-obs: command-line consumer of `lscatter.obs/1` run reports
// (the JSON every bench/example writes via LSCATTER_OBS_JSON) and of the
// append-only run registry (`lscatter.obs-run/1` JSONL, DESIGN.md §11).
//
//   lscatter-obs summarize <report.json>
//       Text table of counters, gauges, and histogram quantiles —
//       format_text_report, but for a file instead of the live registry.
//
//   lscatter-obs trace <report.json> -o <out.json>
//       Convert the report's span events to Chrome trace-event JSON for
//       ui.perfetto.dev / chrome://tracing (obs/trace_export.hpp).
//
//   lscatter-obs record <report.json> [--registry PATH] [--bench NAME]
//                       [--sha SHA] [--dirty 0|1] [--threads N]
//                       [--time SECONDS]
//       Compact the report (drop spans + bucket arrays), stamp
//       provenance — bench name (default: the report's own name), git
//       sha/dirty (callers pass them; the CLI never shells out),
//       SplitMix64 hash of the canonicalized `extra.params` config,
//       hostname, wall-clock time (stamped HERE: the library never
//       reads clocks) — and append one JSONL line to the registry.
//
//   lscatter-obs query [--registry PATH] [--bench NAME] [--sha PREFIX]
//                      [--metric PATH] [--last K] [--json]
//       List matching records, oldest first. --metric adds one flattened
//       metric column (e.g. histograms.lte.ofdm.modulate.seconds.p50).
//
//   lscatter-obs trend [--registry PATH] [--bench NAME]
//                      [--metric SUBSTR] [--last K] [--threshold PCT]
//                      [--tail-threshold PCT] [--json]
//       Per-metric first/last/p50/p90/p99 across the matching records,
//       with histogram-quantile metrics flagged REGRESSED when the
//       newest value grew past the regress thresholds relative to the
//       median of the prior records.
//
//   lscatter-obs regress <fresh.json> [--registry PATH] [--bench NAME]
//                        [--last K] [--min-records N] [--threshold PCT]
//                        [--tail-threshold PCT] [--schema-only] [--json]
//       The one perf gate (scripts/bench_gate.sh runs it for every
//       micro-bench): synthesize the per-metric median baseline
//       (obs::median_report) from the matching records and diff the
//       fresh report against it (obs/diff.hpp). A metric missing from
//       the fresh report is drift; a new one is info. --threshold is the
//       allowed relative p50 growth in percent (default 25);
//       --tail-threshold bounds p90/p99 (default 150 — tails of short
//       runs are log-bucket-quantized and noisy); --schema-only skips
//       quantile comparison entirely (the bench gate's smoke mode);
//       --json prints the machine-readable verdict. Exit 0 = clean
//       (including "fewer than --min-records [default 2] prior runs" —
//       a young registry must not block the gate; the fresh report is
//       still schema-validated), 1 = drift or regression, 2 =
//       usage/input error.
//
// Works identically on reports from -DLSCATTER_OBS=OFF builds — those
// just have empty metric sections.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <optional>
#include <string>
#include <vector>

#include "dsp/simd.hpp"
#include "obs/diff.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/run_registry.hpp"
#include "obs/trace_export.hpp"

namespace {

using namespace lscatter;

int usage() {
  std::fprintf(
      stderr,
      "usage: lscatter-obs <command> ...\n"
      "  summarize <report.json>\n"
      "  trace <report.json> -o <out.json>\n"
      "  record <report.json> [--registry PATH] [--bench NAME]"
      " [--sha SHA] [--dirty 0|1] [--threads N] [--simd TIER]"
      " [--time S]\n"
      "  query [--registry PATH] [--bench NAME] [--sha PREFIX]"
      " [--simd TIER|any] [--threads N] [--metric PATH] [--last K]"
      " [--json]\n"
      "  trend [--registry PATH] [--bench NAME] [--metric SUBSTR]"
      " [--simd TIER|any] [--threads N] [--last K] [--threshold PCT]"
      " [--tail-threshold PCT] [--json]\n"
      "  regress <fresh.json> [--registry PATH] [--bench NAME]"
      " [--simd TIER|any (default: current tier)] [--threads N]"
      " [--last K] [--min-records N] [--threshold PCT]"
      " [--tail-threshold PCT] [--schema-only] [--json]\n");
  return 2;
}

std::optional<obs::json::Value> load_report(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "lscatter-obs: cannot open %s\n", path);
    return std::nullopt;
  }
  std::string text;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  auto parsed = obs::json::parse(text);
  if (!parsed) {
    std::fprintf(stderr, "lscatter-obs: %s is not valid JSON\n", path);
  }
  return parsed;
}

bool is_obs_report(const obs::json::Value& report) {
  const obs::json::Value* s = report.find("schema");
  return s != nullptr && s->is_string() &&
         s->as_string() == "lscatter.obs/1";
}

double field_or(const obs::json::Value& obj, const char* key,
                double fallback) {
  const obs::json::Value* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

std::string report_name_of(const obs::json::Value& report) {
  const obs::json::Value* v = report.find("report");
  return v != nullptr && v->is_string() ? v->as_string() : std::string{};
}

/// Registry-command flag state shared by record/query/trend/regress.
struct RegistryArgs {
  std::string registry;   // resolved path
  std::string bench;
  std::string sha;
  std::string simd;  // tier name, "any", or empty (per-command default)
  bool dirty = false;
  std::uint64_t threads = 0;
  double time_s = -1.0;   // < 0 = stamp now
  std::string metric;
  std::size_t last = 0;
  std::size_t min_records = 2;
  obs::DiffOptions diff;
  bool as_json = false;
  std::vector<const char*> positional;
};

/// Parse the shared flags; returns false (after a message) on bad input.
bool parse_registry_args(int argc, char** argv, RegistryArgs& out) {
  std::string registry_flag;
  const auto value = [&](int& i) -> const char* {
    return i + 1 < argc ? argv[++i] : nullptr;
  };
  const auto parse_pct = [&](int& i, double& pct_out) {
    const char* s = value(i);
    if (s == nullptr) return false;
    char* end = nullptr;
    const double pct = std::strtod(s, &end);
    if (end == s || *end != '\0' || pct < 0.0) {
      std::fprintf(stderr, "lscatter-obs: bad threshold %s\n", s);
      return false;
    }
    pct_out = pct / 100.0;
    return true;
  };
  for (int i = 0; i < argc; ++i) {
    const char* a = argv[i];
    const char* v = nullptr;
    if (std::strcmp(a, "--registry") == 0) {
      if ((v = value(i)) == nullptr) return false;
      registry_flag = v;
    } else if (std::strcmp(a, "--bench") == 0) {
      if ((v = value(i)) == nullptr) return false;
      out.bench = v;
    } else if (std::strcmp(a, "--sha") == 0) {
      if ((v = value(i)) == nullptr) return false;
      out.sha = v;
    } else if (std::strcmp(a, "--dirty") == 0) {
      if ((v = value(i)) == nullptr) return false;
      out.dirty = !(v[0] == '0' && v[1] == '\0');
    } else if (std::strcmp(a, "--threads") == 0) {
      if ((v = value(i)) == nullptr) return false;
      out.threads = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(a, "--simd") == 0) {
      if ((v = value(i)) == nullptr) return false;
      out.simd = v;
    } else if (std::strcmp(a, "--time") == 0) {
      if ((v = value(i)) == nullptr) return false;
      out.time_s = std::strtod(v, nullptr);
    } else if (std::strcmp(a, "--metric") == 0) {
      if ((v = value(i)) == nullptr) return false;
      out.metric = v;
    } else if (std::strcmp(a, "--last") == 0) {
      if ((v = value(i)) == nullptr) return false;
      out.last = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(a, "--min-records") == 0) {
      if ((v = value(i)) == nullptr) return false;
      out.min_records = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(a, "--threshold") == 0) {
      if (!parse_pct(i, out.diff.regression_threshold)) return false;
    } else if (std::strcmp(a, "--tail-threshold") == 0) {
      if (!parse_pct(i, out.diff.tail_regression_threshold)) return false;
    } else if (std::strcmp(a, "--schema-only") == 0) {
      out.diff.compare_quantiles = false;
    } else if (std::strcmp(a, "--json") == 0) {
      out.as_json = true;
    } else if (a[0] == '-' && a[1] == '-') {
      std::fprintf(stderr, "lscatter-obs: unknown flag %s\n", a);
      return false;
    } else {
      out.positional.push_back(a);
    }
  }
  out.registry = obs::registry_path_from_env(registry_flag);
  return true;
}

/// The one place the CLI reads a wall clock: provenance time stamps.
double stamp_time(const RegistryArgs& args) {
  if (args.time_s >= 0.0) return args.time_s;
  return static_cast<double>(std::time(nullptr));
}

std::vector<obs::RunRecord> load_filtered(const RegistryArgs& args,
                                          obs::ReadStats* stats) {
  obs::RecordFilter filter;
  filter.bench = args.bench;
  filter.git_sha = args.sha;
  // "any" (or empty) disables the like-for-like tier gate; a concrete
  // tier name matches exactly (records without the field still pass).
  if (!args.simd.empty() && args.simd != "any") {
    filter.simd_tier = args.simd;
  }
  filter.threads = args.threads;
  filter.last = args.last;
  return obs::filter_records(obs::read_records(args.registry, stats),
                             filter);
}

void warn_corrupt(const RegistryArgs& args, const obs::ReadStats& stats) {
  if (stats.corrupt_lines > 0) {
    std::fprintf(stderr,
                 "lscatter-obs: %s: skipped %zu corrupt line(s) of %zu\n",
                 args.registry.c_str(), stats.corrupt_lines,
                 stats.total_lines);
  }
}

void print_section_scalars(const obs::json::Value& report,
                           const char* section, const char* heading,
                           const char* fmt) {
  const obs::json::Value* s = report.find(section);
  if (s == nullptr || !s->is_object() || s->as_object().size() == 0) return;
  std::printf("-- %s --\n", heading);
  for (const auto& name : s->as_object().keys()) {
    const obs::json::Value* v = s->find(name);
    if (v == nullptr || !v->is_number()) continue;
    std::printf(fmt, name.c_str(), v->as_number());
  }
}

int cmd_summarize(int argc, char** argv) {
  if (argc != 1) return usage();
  const auto report = load_report(argv[0]);
  if (!report) return 2;

  const obs::json::Value* name = report->find("report");
  std::printf("== obs report: %s (%s) ==\n",
              name != nullptr && name->is_string()
                  ? name->as_string().c_str()
                  : "<unnamed>",
              argv[0]);
  print_section_scalars(*report, "counters", "counters", "%-44s %12.0f\n");
  print_section_scalars(*report, "gauges", "gauges", "%-44s %12.6g\n");

  const obs::json::Value* hists = report->find("histograms");
  if (hists != nullptr && hists->is_object() &&
      hists->as_object().size() > 0) {
    std::printf("-- histograms (count / mean / p50 / p90 / p99) --\n");
    for (const auto& hname : hists->as_object().keys()) {
      const obs::json::Value* h = hists->find(hname);
      if (h == nullptr || !h->is_object()) continue;
      std::printf("%-44s %9.0f %10.3e %10.3e %10.3e %10.3e\n",
                  hname.c_str(), field_or(*h, "count", 0.0),
                  field_or(*h, "mean", 0.0), field_or(*h, "p50", 0.0),
                  field_or(*h, "p90", 0.0), field_or(*h, "p99", 0.0));
    }
  }

  const obs::json::Value* spans = report->find("spans");
  if (spans != nullptr && spans->is_object()) {
    std::printf("-- spans --\ntotal %.0f, dropped %.0f, exported %zu\n",
                field_or(*spans, "total", 0.0),
                field_or(*spans, "dropped", 0.0),
                spans->find("events") != nullptr &&
                        spans->find("events")->is_array()
                    ? spans->find("events")->as_array().size()
                    : std::size_t{0});
  }
  return 0;
}

int cmd_trace(int argc, char** argv) {
  const char* in_path = nullptr;
  const char* out_path = nullptr;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0) {
      if (i + 1 >= argc) return usage();
      out_path = argv[++i];
    } else if (in_path == nullptr) {
      in_path = argv[i];
    } else {
      return usage();
    }
  }
  if (in_path == nullptr || out_path == nullptr) return usage();

  const auto report = load_report(in_path);
  if (!report) return 2;
  const auto trace = obs::trace_from_report(*report);
  if (!trace) {
    std::fprintf(stderr,
                 "lscatter-obs: %s has no spans section (written with "
                 "max_span_events=0?)\n",
                 in_path);
    return 2;
  }
  if (!obs::write_json_file(*trace, out_path)) {
    std::fprintf(stderr, "lscatter-obs: cannot write %s\n", out_path);
    return 2;
  }
  const std::size_t n = trace->find("traceEvents")->as_array().size();
  std::printf("wrote %s (%zu trace events) — open in ui.perfetto.dev\n",
              out_path, n);
  return 0;
}

int cmd_record(int argc, char** argv) {
  RegistryArgs args;
  if (!parse_registry_args(argc, argv, args)) return 2;
  if (args.positional.size() != 1) return usage();

  const auto report = load_report(args.positional[0]);
  if (!report) return 2;
  if (!is_obs_report(*report)) {
    std::fprintf(stderr, "lscatter-obs: %s is not an lscatter.obs/1 report\n",
                 args.positional[0]);
    return 2;
  }

  obs::RunRecord rec;
  rec.report = obs::compact_report(*report);
  rec.provenance.bench =
      !args.bench.empty() ? args.bench : report_name_of(*report);
  rec.provenance.git_sha = args.sha;
  rec.provenance.dirty = args.dirty;
  rec.provenance.hostname = obs::local_hostname();
  // Defaults mirror what the bench child resolved: the CLI shares
  // LSCATTER_SIMD / LSCATTER_THREADS with the bench it is recording, so
  // dsp::simd_tier() here matches the tier the bench dispatched to.
  rec.provenance.threads = args.threads;
  if (rec.provenance.threads == 0) {
    if (const char* env = std::getenv("LSCATTER_THREADS")) {
      rec.provenance.threads = std::strtoull(env, nullptr, 10);
    }
  }
  rec.provenance.simd_tier = !args.simd.empty() && args.simd != "any"
                                 ? args.simd
                                 : dsp::to_string(dsp::simd_tier());
  rec.provenance.unix_time_s = stamp_time(args);
  // The bench's own parameters (seed, drops, sizes) are the config; the
  // hash keys longitudinal queries, so insertion-order differences must
  // not split a trajectory — hence the canonicalized hash.
  const obs::json::Value* extra = report->find("extra");
  const obs::json::Value* params =
      extra != nullptr ? extra->find("params") : nullptr;
  rec.provenance.config_hash =
      obs::config_hash(params != nullptr ? *params : obs::json::Value{});

  std::string error;
  if (!obs::append_record(args.registry, rec, &error)) {
    std::fprintf(stderr, "lscatter-obs: %s\n", error.c_str());
    return 2;
  }
  obs::ReadStats stats;
  const auto all = obs::read_records(args.registry, &stats);
  std::printf("recorded %s (config %016llx) -> %s (%zu records)\n",
              rec.provenance.bench.c_str(),
              static_cast<unsigned long long>(rec.provenance.config_hash),
              args.registry.c_str(), all.size());
  warn_corrupt(args, stats);
  return 0;
}

int cmd_query(int argc, char** argv) {
  RegistryArgs args;
  if (!parse_registry_args(argc, argv, args)) return 2;
  if (!args.positional.empty()) return usage();

  obs::ReadStats stats;
  const auto records = load_filtered(args, &stats);
  warn_corrupt(args, stats);

  if (args.as_json) {
    obs::json::Array arr;
    arr.reserve(records.size());
    for (const auto& rec : records) {
      obs::json::Value v = rec.to_json();
      if (!args.metric.empty()) {
        const auto m = obs::metric_value(rec.report, args.metric);
        v["metric"] = obs::json::Value(args.metric);
        v["value"] = m ? obs::json::Value(*m) : obs::json::Value(nullptr);
      }
      arr.push_back(std::move(v));
    }
    std::printf("%s\n", obs::json::Value(std::move(arr)).dump(2).c_str());
    return 0;
  }

  std::printf("%-4s %-12s %-24s %-10s %-5s %-16s %-8s %-7s", "#", "time",
              "bench", "sha", "dirty", "config", "threads", "simd");
  if (!args.metric.empty()) std::printf(" %s", args.metric.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const obs::Provenance& p = records[i].provenance;
    std::printf("%-4zu %-12.0f %-24s %-10.10s %-5s %016llx %-8llu %-7s",
                i, p.unix_time_s, p.bench.c_str(),
                p.git_sha.empty() ? "-" : p.git_sha.c_str(),
                p.dirty ? "yes" : "no",
                static_cast<unsigned long long>(p.config_hash),
                static_cast<unsigned long long>(p.threads),
                p.simd_tier.empty() ? "-" : p.simd_tier.c_str());
    if (!args.metric.empty()) {
      const auto m = obs::metric_value(records[i].report, args.metric);
      if (m) {
        std::printf(" %.6g", *m);
      } else {
        std::printf(" -");
      }
    }
    std::printf("\n");
  }
  std::printf("%zu record(s) in %s\n", records.size(),
              args.registry.c_str());
  return 0;
}

int cmd_trend(int argc, char** argv) {
  RegistryArgs args;
  if (!parse_registry_args(argc, argv, args)) return 2;
  if (!args.positional.empty()) return usage();

  obs::ReadStats stats;
  const auto records = load_filtered(args, &stats);
  warn_corrupt(args, stats);
  if (records.empty()) {
    std::fprintf(stderr, "lscatter-obs: no matching records in %s\n",
                 args.registry.c_str());
    return 2;
  }

  const auto rows = obs::trend_rows(records, args.metric, args.diff);
  if (args.as_json) {
    obs::json::Array arr;
    arr.reserve(rows.size());
    for (const auto& row : rows) {
      obs::json::Value v;
      v["metric"] = obs::json::Value(row.metric);
      v["n"] = obs::json::Value(static_cast<std::uint64_t>(row.n));
      v["first"] = obs::json::Value(row.first);
      v["last"] = obs::json::Value(row.last);
      v["p50"] = obs::json::Value(row.p50);
      v["p90"] = obs::json::Value(row.p90);
      v["p99"] = obs::json::Value(row.p99);
      v["last_over_median"] = obs::json::Value(row.last_over_median);
      v["regressed"] = obs::json::Value(row.regressed);
      arr.push_back(std::move(v));
    }
    std::printf("%s\n", obs::json::Value(std::move(arr)).dump(2).c_str());
    return 0;
  }

  std::printf("== trend over %zu record(s)%s%s ==\n", records.size(),
              args.bench.empty() ? "" : ", bench=",
              args.bench.c_str());
  std::printf("%-52s %4s %10s %10s %10s %10s %10s %s\n", "metric", "n",
              "first", "last", "p50", "p90", "p99", "flag");
  std::size_t regressed = 0;
  for (const auto& row : rows) {
    std::printf("%-52s %4zu %10.4g %10.4g %10.4g %10.4g %10.4g %s\n",
                row.metric.c_str(), row.n, row.first, row.last, row.p50,
                row.p90, row.p99,
                row.regressed ? "REGRESSED" : "");
    if (row.regressed) ++regressed;
  }
  std::printf("%zu metric(s), %zu regressed\n", rows.size(), regressed);
  return 0;
}

int cmd_regress(int argc, char** argv) {
  RegistryArgs args;
  if (!parse_registry_args(argc, argv, args)) return 2;
  if (args.positional.size() != 1) return usage();

  const auto fresh = load_report(args.positional[0]);
  if (!fresh) return 2;
  if (!is_obs_report(*fresh)) {
    std::fprintf(stderr, "lscatter-obs: %s is not an lscatter.obs/1 report\n",
                 args.positional[0]);
    return 2;
  }
  if (args.bench.empty()) args.bench = report_name_of(*fresh);
  // Like-for-like by default: gate a fresh run only against prior runs
  // of the same SIMD tier (a scalar-forced CI row must not poison the
  // median for an AVX2 box). --simd any restores the old behavior.
  if (args.simd.empty()) args.simd = dsp::to_string(dsp::simd_tier());

  obs::ReadStats stats;
  const auto records = load_filtered(args, &stats);
  warn_corrupt(args, stats);
  if (records.size() < args.min_records) {
    std::printf(
        "regress: %zu prior record(s) for %s in %s (< %zu); nothing to "
        "gate against — pass\n",
        records.size(), args.bench.c_str(), args.registry.c_str(),
        args.min_records);
    return 0;
  }

  const obs::json::Value base = obs::median_report(records);
  const obs::DiffResult result = obs::diff_reports(base, *fresh, args.diff);
  if (args.as_json) {
    std::printf("%s\n", result.to_json().dump(2).c_str());
  } else {
    std::printf("== regress vs median of %zu record(s) for %s ==\n%s",
                records.size(), args.bench.c_str(),
                result.format_text().c_str());
  }
  return result.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const char* cmd = argv[1];
  if (std::strcmp(cmd, "summarize") == 0) {
    return cmd_summarize(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "trace") == 0) return cmd_trace(argc - 2, argv + 2);
  if (std::strcmp(cmd, "record") == 0) {
    return cmd_record(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "query") == 0) return cmd_query(argc - 2, argv + 2);
  if (std::strcmp(cmd, "trend") == 0) return cmd_trend(argc - 2, argv + 2);
  if (std::strcmp(cmd, "regress") == 0) {
    return cmd_regress(argc - 2, argv + 2);
  }
  return usage();
}
