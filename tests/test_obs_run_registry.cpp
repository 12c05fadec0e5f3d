// Run registry (obs/run_registry.hpp): append/read round trips, the
// strict-per-line lenient-per-file reader, canonicalized config hashing,
// report compaction, filtering, metric flattening, trend regression
// flagging, and the majority-vote median baseline behind `lscatter-obs
// regress`.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/diff.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/run_registry.hpp"

namespace {

using namespace lscatter;

std::string temp_registry(const char* name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

// Minimal compacted lscatter.obs/1 report; p50 scales the quantiles so
// trend/median tests can dial a trajectory with one knob.
obs::json::Value make_report(double p50, double packets = 100.0) {
  obs::json::Value r;
  r["schema"] = "lscatter.obs/1";
  r["report"] = "unit";
  r["counters"]["test.reg.packets"] = packets;
  r["gauges"]["test.reg.hwm"] = 7.0;
  obs::json::Value& h = r["histograms"]["test.reg.demod.seconds"];
  h["count"] = 1000.0;
  h["mean"] = p50;
  h["p50"] = p50;
  h["p90"] = p50 * 2.0;
  h["p99"] = p50 * 3.0;
  return r;
}

obs::RunRecord make_record(double p50, const std::string& bench = "unit",
                           double time_s = 1.0) {
  obs::RunRecord rec;
  rec.report = make_report(p50);
  rec.provenance.bench = bench;
  rec.provenance.git_sha = "0123456789abcdef0123";
  rec.provenance.dirty = false;
  rec.provenance.config_hash = obs::config_hash(rec.report);
  rec.provenance.hostname = "unit-host";
  rec.provenance.threads = 4;
  rec.provenance.unix_time_s = time_s;
  return rec;
}

TEST(RunRegistry, AppendReadRoundTrip) {
  const std::string path = temp_registry("lscatter_registry_rt.jsonl");
  std::string error;
  ASSERT_TRUE(obs::append_record(path, make_record(1e-4, "a", 1.0), &error))
      << error;
  ASSERT_TRUE(obs::append_record(path, make_record(2e-4, "b", 2.0), &error))
      << error;

  obs::ReadStats stats;
  const auto records = obs::read_records(path, &stats);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(stats.total_lines, 2u);
  EXPECT_EQ(stats.corrupt_lines, 0u);

  const obs::Provenance& p = records[0].provenance;
  EXPECT_EQ(p.bench, "a");
  EXPECT_EQ(p.git_sha, "0123456789abcdef0123");
  EXPECT_FALSE(p.dirty);
  EXPECT_EQ(p.hostname, "unit-host");
  EXPECT_EQ(p.threads, 4u);
  EXPECT_DOUBLE_EQ(p.unix_time_s, 1.0);
  // The 64-bit hash must survive the JSON trip bit-exactly (it travels
  // as a hex string precisely because doubles can't carry it).
  EXPECT_EQ(p.config_hash, obs::config_hash(records[0].report));
  const auto v =
      obs::metric_value(records[1].report,
                        "histograms.test.reg.demod.seconds.p50");
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(*v, 2e-4);
}

TEST(RunRegistry, MissingFileIsEmptyRegistry) {
  obs::ReadStats stats;
  const auto records = obs::read_records(
      temp_registry("lscatter_registry_missing.jsonl"), &stats);
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(stats.total_lines, 0u);
}

TEST(RunRegistry, CorruptLinesAreSkippedAndCounted) {
  const std::string path = temp_registry("lscatter_registry_corrupt.jsonl");
  ASSERT_TRUE(obs::append_record(path, make_record(1e-4)));
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    // A hand edit, a torn tail, and a foreign-schema line.
    std::fputs("total garbage\n", f);
    std::fputs("{\"schema\":\"lscatter.obs-run/1\",\"prov", f);
    std::fputs("\n{\"schema\":\"someone-else/9\"}\n", f);
    std::fclose(f);
  }
  ASSERT_TRUE(obs::append_record(path, make_record(2e-4)));

  obs::ReadStats stats;
  const auto records = obs::read_records(path, &stats);
  ASSERT_EQ(records.size(), 2u);  // both real records survive
  EXPECT_EQ(stats.total_lines, 5u);
  EXPECT_EQ(stats.corrupt_lines, 3u);
}

TEST(RunRegistry, ParseRecordLineToleratesTrailingNewlineAndCr) {
  const std::string line = make_record(1e-4).to_json().dump(-1);
  EXPECT_TRUE(obs::parse_record_line(line).has_value());
  EXPECT_TRUE(obs::parse_record_line(line + "\n").has_value());
  EXPECT_TRUE(obs::parse_record_line(line + "\r\n").has_value());
  EXPECT_FALSE(obs::parse_record_line("").has_value());
  EXPECT_FALSE(obs::parse_record_line("\n").has_value());
  EXPECT_FALSE(obs::parse_record_line("[1,2,3]").has_value());
}

TEST(RunRegistry, AppendCreatesParentDirectories) {
  const std::string path =
      ::testing::TempDir() + "lscatter_reg_subdir/deeper/registry.jsonl";
  std::remove(path.c_str());  // earlier runs of this binary append too
  std::string error;
  ASSERT_TRUE(obs::append_record(path, make_record(1e-4), &error)) << error;
  EXPECT_EQ(obs::read_records(path).size(), 1u);
}

TEST(RunRegistry, ConfigHashIsKeyOrderIndependent) {
  obs::json::Value a;
  a["seed"] = 42.0;
  a["drops"] = 8.0;
  a["nested"]["x"] = 1.0;
  a["nested"]["y"] = 2.0;
  obs::json::Value b;
  b["nested"]["y"] = 2.0;
  b["nested"]["x"] = 1.0;
  b["drops"] = 8.0;
  b["seed"] = 42.0;
  EXPECT_EQ(obs::config_hash(a), obs::config_hash(b));

  // One changed value must move the hash. (Built fresh: json::Value
  // copies are shallow — objects share state through shared_ptr.)
  obs::json::Value c;
  c["seed"] = 43.0;
  c["drops"] = 8.0;
  c["nested"]["x"] = 1.0;
  c["nested"]["y"] = 2.0;
  EXPECT_NE(obs::config_hash(a), obs::config_hash(c));
  obs::json::Value arr1, arr2;
  arr1["v"].make_array().push_back(obs::json::Value(1.0));
  arr1["v"].as_array().push_back(obs::json::Value(2.0));
  arr2["v"].make_array().push_back(obs::json::Value(2.0));
  arr2["v"].as_array().push_back(obs::json::Value(1.0));
  EXPECT_NE(obs::config_hash(arr1), obs::config_hash(arr2));
}

TEST(RunRegistry, CompactReportDropsSpansAndBuckets) {
  obs::json::Value r = make_report(1e-4);
  r["spans"]["total"] = 10.0;
  obs::json::Value& h = r["histograms"]["test.reg.demod.seconds"];
  h["buckets"].make_array().push_back(obs::json::Value(1.0));
  r["extra"]["params"]["seed"] = 42.0;

  const obs::json::Value compact = obs::compact_report(r);
  EXPECT_EQ(compact.find("spans"), nullptr);
  const obs::json::Value* ch =
      compact.find("histograms")->find("test.reg.demod.seconds");
  ASSERT_NE(ch, nullptr);
  EXPECT_EQ(ch->find("buckets"), nullptr);
  EXPECT_DOUBLE_EQ(ch->find("p50")->as_number(), 1e-4);
  // extra (params included) survives verbatim; compaction is idempotent.
  EXPECT_NE(compact.find("extra"), nullptr);
  EXPECT_EQ(obs::compact_report(compact).dump(-1), compact.dump(-1));
}

TEST(RunRegistry, FilterByBenchShaPrefixAndLast) {
  std::vector<obs::RunRecord> records;
  for (int i = 0; i < 4; ++i) {
    obs::RunRecord rec = make_record(1e-4, i % 2 == 0 ? "even" : "odd",
                                     static_cast<double>(i));
    rec.provenance.git_sha = i < 2 ? "aaa111" : "bbb222";
    records.push_back(std::move(rec));
  }

  obs::RecordFilter f;
  f.bench = "even";
  EXPECT_EQ(obs::filter_records(records, f).size(), 2u);
  f.bench.clear();
  f.git_sha = "bbb";
  EXPECT_EQ(obs::filter_records(records, f).size(), 2u);
  f.git_sha.clear();
  f.last = 3;
  const auto last3 = obs::filter_records(records, f);
  ASSERT_EQ(last3.size(), 3u);
  EXPECT_DOUBLE_EQ(last3.front().provenance.unix_time_s, 1.0);
  EXPECT_DOUBLE_EQ(last3.back().provenance.unix_time_s, 3.0);
}

TEST(RunRegistry, MetricNamesAndValuesFlatten) {
  const obs::json::Value r = make_report(1e-4, 33.0);
  const auto names = obs::metric_names(r);
  // counters + gauges first, then the five histogram fields.
  ASSERT_EQ(names.size(), 7u);
  EXPECT_EQ(names[0], "counters.test.reg.packets");
  EXPECT_EQ(names[1], "gauges.test.reg.hwm");
  EXPECT_EQ(names[2], "histograms.test.reg.demod.seconds.count");

  EXPECT_DOUBLE_EQ(*obs::metric_value(r, "counters.test.reg.packets"),
                   33.0);
  EXPECT_DOUBLE_EQ(
      *obs::metric_value(r, "histograms.test.reg.demod.seconds.p99"),
      3e-4);
  EXPECT_FALSE(obs::metric_value(r, "histograms.test.reg.demod.seconds")
                   .has_value());
  EXPECT_FALSE(obs::metric_value(r, "counters.nope").has_value());
  EXPECT_FALSE(obs::metric_value(r, "nodot").has_value());
}

TEST(RunRegistry, EmptyHistogramRendersNoMeasuredValues) {
  // Registered but never recorded: the rendered report carries count and
  // sum only, so nothing downstream reads a quantile of zero samples.
  obs::Registry::instance().histogram("test.reg.empty.seconds");
  const obs::json::Value report = obs::build_report("empty-hist");
  const std::string name = "histograms.test.reg.empty.seconds";
  EXPECT_DOUBLE_EQ(*obs::metric_value(report, name + ".count"), 0.0);
  for (const char* field : {".p50", ".p90", ".p99", ".mean", ".min", ".max"}) {
    EXPECT_FALSE(obs::metric_value(report, name + field).has_value())
        << field;
  }
  const auto names = obs::metric_names(report);
  EXPECT_EQ(std::count(names.begin(), names.end(), name + ".count"), 1);
  EXPECT_EQ(std::count(names.begin(), names.end(), name + ".p50"), 0);
}

TEST(RunRegistry, TrendFlagsQuantileGrowthOnly) {
  // Three stable runs then a 3x p50 jump; the packets counter jumps too
  // but counters are informational, never flagged.
  std::vector<obs::RunRecord> records;
  for (const double p50 : {1e-4, 1e-4, 1e-4, 3e-4}) {
    obs::RunRecord rec = make_record(p50);
    rec.report["counters"]["test.reg.packets"] =
        obs::json::Value(p50 * 1e6);
    records.push_back(std::move(rec));
  }

  const auto rows = obs::trend_rows(records);
  const auto find_row = [&rows](const std::string& m) {
    for (const auto& row : rows) {
      if (row.metric == m) return row;
    }
    return obs::TrendRow{};
  };

  const auto p50 = find_row("histograms.test.reg.demod.seconds.p50");
  EXPECT_EQ(p50.n, 4u);
  EXPECT_DOUBLE_EQ(p50.first, 1e-4);
  EXPECT_DOUBLE_EQ(p50.last, 3e-4);
  EXPECT_DOUBLE_EQ(p50.last_over_median, 3.0);
  EXPECT_TRUE(p50.regressed);  // 3.0x > 1.25x default

  // p99 grew 3x as well but sits inside the 2.5x tail allowance ceiling?
  // No: 3x > 2.5x, so it regresses too; p90 at 3x likewise.
  EXPECT_TRUE(find_row("histograms.test.reg.demod.seconds.p99").regressed);
  EXPECT_FALSE(find_row("counters.test.reg.packets").regressed);
  EXPECT_FALSE(find_row("histograms.test.reg.demod.seconds.count")
                   .regressed);

  // Substring filter narrows the rows.
  const auto only_p50 = obs::trend_rows(records, ".p50");
  ASSERT_EQ(only_p50.size(), 1u);
  EXPECT_EQ(only_p50[0].metric, "histograms.test.reg.demod.seconds.p50");
}

TEST(RunRegistry, TrendStableSeriesDoesNotRegress) {
  std::vector<obs::RunRecord> records;
  for (int i = 0; i < 5; ++i) records.push_back(make_record(1e-4));
  for (const auto& row : obs::trend_rows(records)) {
    EXPECT_FALSE(row.regressed) << row.metric;
  }
}

TEST(RunRegistry, MedianReportTakesMajorityVote) {
  // Five runs; one odd run carries a foreign gauge that must NOT reach
  // the baseline (4+1 runs, quorum = 3, the gauge appears once).
  std::vector<obs::RunRecord> records;
  for (const double p50 : {1e-4, 2e-4, 3e-4, 4e-4, 5e-4}) {
    records.push_back(make_record(p50));
  }
  records[2].report["gauges"]["test.reg.stray"] = obs::json::Value(1.0);

  const obs::json::Value base = obs::median_report(records);
  EXPECT_EQ(base.find("schema")->as_string(), "lscatter.obs/1");
  EXPECT_DOUBLE_EQ(
      *obs::metric_value(base, "histograms.test.reg.demod.seconds.p50"),
      3e-4);
  EXPECT_FALSE(obs::metric_value(base, "gauges.test.reg.stray")
                   .has_value());
  EXPECT_TRUE(obs::metric_value(base, "gauges.test.reg.hwm").has_value());

  // The synthesized baseline is a legal diff base: a clean faster run
  // diffs ok against it (the `lscatter-obs regress` happy path), and a
  // fresh run that still carries the stray gauge shows it as info.
  EXPECT_TRUE(obs::diff_reports(base, records[1].report).ok());
  const obs::DiffResult stray = obs::diff_reports(base, records[2].report);
  EXPECT_TRUE(stray.ok());
  EXPECT_TRUE(std::any_of(
      stray.findings.begin(), stray.findings.end(), [](const auto& f) {
        return f.kind == "metric_added" && f.name == "test.reg.stray" &&
               f.severity == obs::DiffSeverity::kInfo;
      }));
}

TEST(RunRegistry, RegistryPathPrecedence) {
  EXPECT_EQ(obs::registry_path_from_env("explicit.jsonl"),
            "explicit.jsonl");
  ASSERT_EQ(setenv("LSCATTER_OBS_REGISTRY", "/tmp/env.jsonl", 1), 0);
  EXPECT_EQ(obs::registry_path_from_env(), "/tmp/env.jsonl");
  EXPECT_EQ(obs::registry_path_from_env("explicit.jsonl"),
            "explicit.jsonl");
  ASSERT_EQ(unsetenv("LSCATTER_OBS_REGISTRY"), 0);
  EXPECT_EQ(obs::registry_path_from_env(),
            std::string(obs::kDefaultRegistryPath));
}

}  // namespace
