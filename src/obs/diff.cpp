#include "obs/diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace lscatter::obs {

namespace {

const char* severity_tag(DiffSeverity s) {
  switch (s) {
    case DiffSeverity::kInfo: return "info";
    case DiffSeverity::kDrift: return "drift";
    case DiffSeverity::kRegression: return "regression";
  }
  return "?";
}

std::string schema_of(const json::Value& report) {
  const json::Value* s = report.find("schema");
  return s != nullptr && s->is_string() ? s->as_string() : "<missing>";
}

/// Keys of a section object ("counters"/"gauges"/"histograms"); empty
/// when the section is absent (valid for reports from -DLSCATTER_OBS=OFF
/// builds, where the registry is simply empty).
std::vector<std::string> section_keys(const json::Value& report,
                                      const std::string& section) {
  const json::Value* v = report.find(section);
  if (v == nullptr || !v->is_object()) return {};
  std::vector<std::string> keys = v->as_object().keys();
  std::sort(keys.begin(), keys.end());
  return keys;
}

double number_at(const json::Value& report, const std::string& section,
                 const std::string& name) {
  const json::Value* s = report.find(section);
  if (s == nullptr) return 0.0;
  const json::Value* v = s->find(name);
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

void add_finding(DiffResult& result, DiffSeverity severity,
                 std::string kind, std::string section, std::string name,
                 double base, double current, std::string detail) {
  DiffFinding f;
  f.severity = severity;
  f.kind = std::move(kind);
  f.section = std::move(section);
  f.name = std::move(name);
  f.base = base;
  f.current = current;
  f.detail = std::move(detail);
  result.findings.push_back(std::move(f));
}

void diff_metric_names(DiffResult& result, const json::Value& base,
                       const json::Value& current,
                       const std::string& section) {
  const auto base_keys = section_keys(base, section);
  const auto cur_keys = section_keys(current, section);
  for (const auto& name : base_keys) {
    if (!std::binary_search(cur_keys.begin(), cur_keys.end(), name)) {
      add_finding(result, DiffSeverity::kDrift, "metric_removed", section,
                  name, 0.0, 0.0,
                  section + "." + name + " present in base, missing in new");
    }
  }
  for (const auto& name : cur_keys) {
    if (!std::binary_search(base_keys.begin(), base_keys.end(), name)) {
      add_finding(result, DiffSeverity::kInfo, "metric_added", section,
                  name, 0.0, 0.0,
                  section + "." + name + " missing in base, present in new");
    }
  }
}

void diff_counters(DiffResult& result, const json::Value& base,
                   const json::Value& current) {
  for (const auto& name : section_keys(base, "counters")) {
    const json::Value* cur = current.find("counters");
    if (cur == nullptr || cur->find(name) == nullptr) continue;
    const double b = number_at(base, "counters", name);
    const double c = number_at(current, "counters", name);
    if (b == c) continue;
    // %.15g keeps integer counts exact and still shows the .5 of a median
    // over an even number of records.
    char line[256];
    std::snprintf(line, sizeof(line), "counter %s: %.15g -> %.15g (%+.15g)",
                  name.c_str(), b, c, c - b);
    add_finding(result, DiffSeverity::kInfo, "counter_delta", "counters",
                name, b, c, line);
  }
}

void diff_quantiles(DiffResult& result, const json::Value& base,
                    const json::Value& current,
                    const DiffOptions& options) {
  static constexpr const char* kQuantiles[] = {"p50", "p90", "p99"};
  const json::Value* cur_hists = current.find("histograms");
  const json::Value* base_hists = base.find("histograms");
  if (cur_hists == nullptr || base_hists == nullptr) return;

  for (const auto& name : section_keys(base, "histograms")) {
    const json::Value* bh = base_hists->find(name);
    const json::Value* ch = cur_hists->find(name);
    if (bh == nullptr || ch == nullptr) continue;
    for (const char* q : kQuantiles) {
      const json::Value* bq = bh->find(q);
      const json::Value* cq = ch->find(q);
      if (bq == nullptr || cq == nullptr || !bq->is_number() ||
          !cq->is_number()) {
        continue;
      }
      const double b = bq->as_number();
      const double c = cq->as_number();
      // Below the noise floor (or empty histogram: quantile 0) a ratio
      // is meaningless; same for a non-finite base (a 1e999 literal in a
      // hand-edited registry line parses to inf) — nothing can regress
      // against it.
      if (!(b > 0.0) || b < kMinBaseQuantile || !std::isfinite(b)) {
        continue;
      }
      const double threshold = std::strcmp(q, "p50") == 0
                                   ? options.regression_threshold
                                   : options.tail_regression_threshold;
      const double ratio = c / b;
      const std::string qualified = name + "." + q;
      char line[256];
      // A non-finite current quantile against a comparable base is a
      // regression, never noise: NaN would otherwise fail every ratio
      // comparison silently and slip through the gate.
      if (!std::isfinite(c)) {
        std::snprintf(line, sizeof(line),
                      "%s %s: %.3e -> non-finite (%f)", name.c_str(), q,
                      b, c);
        add_finding(result, DiffSeverity::kRegression,
                    "quantile_non_finite", "histograms", qualified, b, c,
                    line);
        continue;
      }
      if (ratio > 1.0 + threshold) {
        std::snprintf(line, sizeof(line),
                      "%s %s: %.3e -> %.3e (%.2fx > %.2fx allowed)",
                      name.c_str(), q, b, c, ratio, 1.0 + threshold);
        add_finding(result, DiffSeverity::kRegression,
                    "quantile_regression", "histograms", qualified, b, c,
                    line);
      } else if (ratio < 1.0 - std::min(threshold, 0.99)) {
        std::snprintf(line, sizeof(line), "%s %s: %.3e -> %.3e (%.2fx)",
                      name.c_str(), q, b, c, ratio);
        add_finding(result, DiffSeverity::kInfo, "quantile_improvement",
                    "histograms", qualified, b, c, line);
      }
    }
  }
}

}  // namespace

bool DiffResult::has_drift() const {
  return std::any_of(findings.begin(), findings.end(),
                     [](const DiffFinding& f) {
                       return f.severity == DiffSeverity::kDrift;
                     });
}

bool DiffResult::has_regression() const {
  return std::any_of(findings.begin(), findings.end(),
                     [](const DiffFinding& f) {
                       return f.severity == DiffSeverity::kRegression;
                     });
}

json::Value DiffResult::to_json() const {
  json::Value root;
  root["ok"] = json::Value(ok());
  root["drift"] = json::Value(has_drift());
  root["regression"] = json::Value(has_regression());
  json::Array arr;
  arr.reserve(findings.size());
  for (const DiffFinding& f : findings) {
    json::Value j;
    j["severity"] = json::Value(severity_tag(f.severity));
    j["kind"] = json::Value(f.kind);
    j["section"] = json::Value(f.section);
    j["name"] = json::Value(f.name);
    j["base"] = json::Value(f.base);
    j["current"] = json::Value(f.current);
    j["detail"] = json::Value(f.detail);
    arr.push_back(std::move(j));
  }
  root["findings"] = json::Value(std::move(arr));
  return root;
}

std::string DiffResult::format_text() const {
  std::string out;
  for (const DiffFinding& f : findings) {
    out += '[';
    out += severity_tag(f.severity);
    out += "] ";
    out += f.detail;
    out += '\n';
  }
  char line[128];
  std::snprintf(line, sizeof(line),
                "verdict: %s (%zu finding%s, drift=%s, regression=%s)\n",
                ok() ? "OK" : "FAIL", findings.size(),
                findings.size() == 1 ? "" : "s",
                has_drift() ? "yes" : "no",
                has_regression() ? "yes" : "no");
  out += line;
  return out;
}

DiffResult diff_reports(const json::Value& base, const json::Value& current,
                        const DiffOptions& options) {
  DiffResult result;

  const std::string base_schema = schema_of(base);
  const std::string cur_schema = schema_of(current);
  if (base_schema != "lscatter.obs/1" || cur_schema != "lscatter.obs/1") {
    add_finding(result, DiffSeverity::kDrift, "schema_mismatch", "",
                "schema", 0.0, 0.0,
                "schema: base=\"" + base_schema + "\" new=\"" + cur_schema +
                    "\" (want \"lscatter.obs/1\")");
    return result;  // nothing below is meaningful on foreign documents
  }

  for (const char* section : {"counters", "gauges", "histograms"}) {
    diff_metric_names(result, base, current, section);
  }
  diff_counters(result, base, current);
  if (options.compare_quantiles) {
    diff_quantiles(result, base, current, options);
  }
  return result;
}

}  // namespace lscatter::obs
