// Observability subsystem: metric semantics, span nesting, and JSON
// report round-trips. These tests share the process-wide registry with
// everything else linked into the binary, so they use distinct
// `test.obs.*` metric names and reset state where needed.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <thread>

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"

namespace {

using namespace lscatter;

TEST(ObsRegistry, CounterAccumulatesAndResets) {
  obs::Counter& c = obs::Registry::instance().counter("test.obs.counter");
  c.reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(1);
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsRegistry, RegistryReturnsStableReferences) {
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& a = reg.counter("test.obs.stable");
  obs::Counter& b = reg.counter("test.obs.stable");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.find_counter("test.obs.stable"), &a);
  EXPECT_EQ(reg.find_counter("test.obs.never_registered"), nullptr);
}

TEST(ObsRegistry, GaugeSetAndHighWaterMark) {
  obs::Gauge& g = obs::Registry::instance().gauge("test.obs.gauge");
  g.reset();
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.update_max(2.0);  // lower: ignored
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.update_max(7.25);  // higher: taken
  EXPECT_DOUBLE_EQ(g.value(), 7.25);
  g.set(1.0);  // plain set always wins
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
}

TEST(ObsRegistry, HistogramStatsAndQuantiles) {
  obs::Histogram& h =
      obs::Registry::instance().histogram("test.obs.hist");
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);

  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i) * 1e-6);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.sum(), 500.5e-3, 1e-9);
  EXPECT_DOUBLE_EQ(h.min(), 1e-6);
  EXPECT_DOUBLE_EQ(h.max(), 1e-3);

  // Log-bucketed quantiles are approximate: within a bucket width
  // (factor 10^(1/8) ~ 1.33x) of the exact order statistic.
  EXPECT_NEAR(h.quantile(0.5), 500e-6, 500e-6 * 0.35);
  EXPECT_NEAR(h.quantile(0.99), 990e-6, 990e-6 * 0.35);
  // Endpoints are exact (clamped to the observed extrema).
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1e-6);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1e-3);
}

TEST(ObsRegistry, HistogramUnderflowAndReset) {
  obs::Histogram& h =
      obs::Registry::instance().histogram("test.obs.hist_uf");
  h.reset();
  h.record(0.0);
  h.record(-1.0);
  h.record(2.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.underflow(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -1.0);
  EXPECT_DOUBLE_EQ(h.max(), 2.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.underflow(), 0u);
}

TEST(ObsRegistry, CountersAreThreadSafe) {
  obs::Counter& c = obs::Registry::instance().counter("test.obs.mt");
  c.reset();
  constexpr int kThreads = 4;
  constexpr int kAdds = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(ObsSpan, NestingDepthAndParenting) {
  obs::SpanSink::instance().clear();
  {
    obs::ScopedSpan outer("test.obs.outer");
    EXPECT_EQ(obs::ScopedSpan::current_depth(), 1u);
    {
      obs::ScopedSpan inner("test.obs.inner");
      EXPECT_EQ(obs::ScopedSpan::current_depth(), 2u);
    }
    EXPECT_EQ(obs::ScopedSpan::current_depth(), 1u);
  }
  EXPECT_EQ(obs::ScopedSpan::current_depth(), 0u);

  const auto events = obs::SpanSink::instance().snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Inner closes first; events land in finish order.
  const obs::SpanEvent& inner = events[0];
  const obs::SpanEvent& outer = events[1];
  EXPECT_STREQ(inner.name, "test.obs.inner");
  EXPECT_STREQ(outer.name, "test.obs.outer");
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner.parent_seq, outer.seq);
  EXPECT_EQ(outer.parent_seq, obs::SpanEvent::kNoParent);
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.duration_ns,
            outer.start_ns + outer.duration_ns);
}

TEST(ObsSpan, RingBufferDropsOldestAndCounts) {
  // total/dropped are cumulative process counters; assert on deltas.
  obs::SpanSink& sink = obs::SpanSink::instance();
  sink.set_capacity(4);
  const std::uint64_t total0 = sink.total_recorded();
  const std::uint64_t dropped0 = sink.dropped();
  for (int i = 0; i < 10; ++i) {
    obs::ScopedSpan s("test.obs.ring");
  }
  EXPECT_EQ(sink.snapshot().size(), 4u);
  EXPECT_EQ(sink.total_recorded() - total0, 10u);
  EXPECT_EQ(sink.dropped() - dropped0, 6u);
  sink.set_capacity(obs::SpanSink::kDefaultCapacity);
}

TEST(ObsSpan, MacroFeedsLatencyHistogram) {
  obs::Registry& reg = obs::Registry::instance();
  reg.histogram("test.obs.macro_span.seconds").reset();
  for (int i = 0; i < 3; ++i) {
    LSCATTER_OBS_SPAN("test.obs.macro_span");
  }
  const obs::Histogram* h =
      reg.find_histogram("test.obs.macro_span.seconds");
#if LSCATTER_OBS_ENABLED
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_GE(h->min(), 0.0);
#else
  (void)h;
#endif
}

TEST(ObsJson, ValueDumpAndParseRoundTrip) {
  obs::json::Value v;
  v["string"] = "a \"quoted\"\nline\t\\";
  v["number"] = 1.5;
  v["int"] = std::uint64_t{12345678901234ull};
  v["flag"] = true;
  v["nothing"] = nullptr;
  obs::json::Array arr;
  arr.emplace_back(1);
  arr.emplace_back("two");
  v["list"] = std::move(arr);
  v["nested"]["deep"] = 0.125;

  for (const int indent : {-1, 0, 2}) {
    const std::string text = v.dump(indent);
    const auto parsed = obs::json::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(parsed->find("string")->as_string(),
              "a \"quoted\"\nline\t\\");
    EXPECT_DOUBLE_EQ(parsed->find("number")->as_number(), 1.5);
    EXPECT_DOUBLE_EQ(parsed->find("int")->as_number(), 12345678901234.0);
    EXPECT_TRUE(parsed->find("flag")->as_bool());
    EXPECT_EQ(parsed->find("nothing")->kind(),
              obs::json::Value::Kind::kNull);
    EXPECT_EQ(parsed->find("list")->as_array().size(), 2u);
    EXPECT_DOUBLE_EQ(parsed->find("nested")->find("deep")->as_number(),
                     0.125);
  }

  // Objects keep insertion order through dump.
  const std::string text = v.dump(-1);
  EXPECT_LT(text.find("string"), text.find("number"));
  EXPECT_LT(text.find("number"), text.find("nested"));
}

TEST(ObsJson, ParserRejectsMalformedInput) {
  EXPECT_FALSE(obs::json::parse("").has_value());
  EXPECT_FALSE(obs::json::parse("{").has_value());
  EXPECT_FALSE(obs::json::parse("{\"a\":}").has_value());
  EXPECT_FALSE(obs::json::parse("[1,]").has_value());
  EXPECT_FALSE(obs::json::parse("\"unterminated").has_value());
  EXPECT_FALSE(obs::json::parse("{} trailing").has_value());
  EXPECT_FALSE(obs::json::parse("nul").has_value());
}

TEST(ObsReport, JsonReportRoundTripsThroughParser) {
  obs::Registry& reg = obs::Registry::instance();
  reg.counter("test.obs.report.counter").reset();
  reg.counter("test.obs.report.counter").add(7);
  reg.gauge("test.obs.report.gauge").set(2.5);
  obs::Histogram& h = reg.histogram("test.obs.report.hist");
  h.reset();
  for (int i = 0; i < 100; ++i) h.record(1e-3);

  obs::json::Value extra;
  extra["run"] = "unit-test";
  const obs::json::Value report =
      obs::build_report("round-trip", {}, &extra);

  const auto parsed = obs::json::parse(report.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("schema")->as_string(), "lscatter.obs/1");
  EXPECT_EQ(parsed->find("report")->as_string(), "round-trip");
  EXPECT_DOUBLE_EQ(
      parsed->find("counters")->find("test.obs.report.counter")
          ->as_number(),
      7.0);
  EXPECT_DOUBLE_EQ(
      parsed->find("gauges")->find("test.obs.report.gauge")->as_number(),
      2.5);
  const obs::json::Value* hist =
      parsed->find("histograms")->find("test.obs.report.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->find("count")->as_number(), 100.0);
  EXPECT_NEAR(hist->find("mean")->as_number(), 1e-3, 1e-12);
  EXPECT_NEAR(hist->find("p50")->as_number(), 1e-3, 1e-3);
  ASSERT_NE(hist->find("buckets"), nullptr);
  EXPECT_GE(hist->find("buckets")->as_array().size(), 1u);
  EXPECT_EQ(parsed->find("extra")->find("run")->as_string(), "unit-test");

  // The text exporter mentions the same metrics.
  const std::string text = obs::format_text_report("round-trip");
  EXPECT_NE(text.find("test.obs.report.counter"), std::string::npos);
  EXPECT_NE(text.find("test.obs.report.hist"), std::string::npos);
}

TEST(ObsReport, WriteFromEnvFailsSoftlyOnUnwritablePath) {
  // The writer creates missing parent directories, so "unwritable" must
  // route through a non-directory: /dev/null can never become a parent.
  ASSERT_EQ(setenv("LSCATTER_OBS_JSON",
                   "/dev/null/lscatter/report.json", 1),
            0);
  const auto path = obs::write_report_from_env("env-fail");
  unsetenv("LSCATTER_OBS_JSON");
  EXPECT_FALSE(path.has_value());  // and no crash/throw getting here
}

TEST(ObsReport, WriteFromEnvNoDestinationIsNullopt) {
  unsetenv("LSCATTER_OBS_JSON");
  EXPECT_FALSE(obs::write_report_from_env("env-none").has_value());
}

TEST(ObsReport, ReportOptionsFromEnvShrinkBaselines) {
  // Defaults when unset.
  unsetenv("LSCATTER_OBS_SPANS");
  unsetenv("LSCATTER_OBS_BUCKETS");
  obs::ReportOptions options = obs::report_options_from_env();
  EXPECT_EQ(options.max_span_events, obs::ReportOptions{}.max_span_events);
  EXPECT_TRUE(options.include_buckets);

  // The bench_gate.sh configuration: no spans, no buckets.
  ASSERT_EQ(setenv("LSCATTER_OBS_SPANS", "0", 1), 0);
  ASSERT_EQ(setenv("LSCATTER_OBS_BUCKETS", "0", 1), 0);
  options = obs::report_options_from_env();
  EXPECT_EQ(options.max_span_events, 0u);
  EXPECT_FALSE(options.include_buckets);

  obs::Registry::instance().histogram("test.obs.envopts").record(1e-3);
  {
    obs::ScopedSpan s("test.obs.envopts_span");
  }
  const obs::json::Value report = obs::build_report("shrunk", options);
  EXPECT_EQ(report.find("spans"), nullptr);
  const obs::json::Value* hist =
      report.find("histograms")->find("test.obs.envopts");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("buckets"), nullptr);
  EXPECT_NE(hist->find("p99"), nullptr);

  // Garbage values fall back to defaults / stay permissive.
  ASSERT_EQ(setenv("LSCATTER_OBS_SPANS", "not-a-number", 1), 0);
  EXPECT_EQ(obs::report_options_from_env().max_span_events,
            obs::ReportOptions{}.max_span_events);
  unsetenv("LSCATTER_OBS_SPANS");
  unsetenv("LSCATTER_OBS_BUCKETS");
}

TEST(ObsReport, NumberFormattingRoundTripsExactly) {
  // The writer picks the shortest representation that strtod-round-trips;
  // spot-check values that commonly lose precision.
  for (const double v : {1e-9, 0.1, 1.0 / 3.0, 12345678901234567.0,
                         6.02e23, 5e-324}) {
    obs::json::Value j;
    j["v"] = v;
    const auto parsed = obs::json::parse(j.dump(-1));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("v")->as_number(), v);
  }
}

}  // namespace
