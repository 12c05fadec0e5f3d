#include "obs/run_registry.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/thread_safety.hpp"
#include "dsp/stats.hpp"

namespace lscatter::obs {

namespace {

/// Create the directories above `path` when it has any. Returns false
/// only on a real filesystem error (EEXIST is success).
bool ensure_parent_dirs(const std::string& path, std::string* error) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (parent.empty()) return true;
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create directory " + parent.string() + ": " +
               ec.message();
    }
    return false;
  }
  return true;
}

const json::Value* find_object(const json::Value& v,
                               const std::string& key) {
  const json::Value* m = v.find(key);
  return m != nullptr && m->is_object() ? m : nullptr;
}

std::string string_field(const json::Value& obj, const char* key) {
  const json::Value* v = obj.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string{};
}

double number_field(const json::Value& obj, const char* key,
                    double fallback = 0.0) {
  const json::Value* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

/// 16-hex-digit encode/decode for config_hash: a double loses integer
/// precision past 2^53, so the 64-bit hash travels as a string.
std::string hash_to_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::uint64_t hash_from_hex(const std::string& s) {
  if (s.empty()) return 0;
  return std::strtoull(s.c_str(), nullptr, 16);
}

}  // namespace

std::string registry_path_from_env(const std::string& explicit_path) {
  if (!explicit_path.empty()) return explicit_path;
  if (const char* env = std::getenv("LSCATTER_OBS_REGISTRY")) {
    if (env[0] != '\0') return env;
  }
  return kDefaultRegistryPath;
}

std::string local_hostname() {
  char buf[256] = {};
  if (::gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf[0] != '\0' ? buf : "unknown";
}

json::Value canonicalize(const json::Value& v) {
  switch (v.kind()) {
    case json::Value::Kind::kObject: {
      std::vector<std::string> keys = v.as_object().keys();
      std::sort(keys.begin(), keys.end());
      json::Value out;
      out.make_object();
      for (const auto& key : keys) {
        out[key] = canonicalize(*v.find(key));
      }
      return out;
    }
    case json::Value::Kind::kArray: {
      json::Array out;
      out.reserve(v.as_array().size());
      for (const auto& elem : v.as_array()) {
        out.push_back(canonicalize(elem));
      }
      return json::Value(std::move(out));
    }
    default:
      return v;
  }
}

std::uint64_t config_hash(const json::Value& config) {
  const std::string text = canonicalize(config).dump(-1);
  // SplitMix64 over the byte stream: golden-gamma step per byte, then
  // the Steele et al. finalizer — same constants as dsp::derive_seed so
  // the avalanche properties are the proven ones.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const unsigned char c : text) {
    h = (h ^ c) * 0xbf58476d1ce4e5b9ULL;
    h += 0x9e3779b97f4a7c15ULL;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

json::Value compact_report(const json::Value& report) {
  if (!report.is_object()) return report;
  json::Value out;
  out.make_object();
  for (const auto& key : report.as_object().keys()) {
    const json::Value& member = *report.find(key);
    if (key == "spans") continue;
    if (key == "histograms" && member.is_object()) {
      json::Value hists;
      hists.make_object();
      for (const auto& hname : member.as_object().keys()) {
        const json::Value& h = *member.find(hname);
        if (!h.is_object()) {
          hists[hname] = h;
          continue;
        }
        json::Value slim;
        slim.make_object();
        for (const auto& field : h.as_object().keys()) {
          if (field == "buckets") continue;
          slim[field] = *h.find(field);
        }
        hists[hname] = std::move(slim);
      }
      out[key] = std::move(hists);
      continue;
    }
    out[key] = member;
  }
  return out;
}

json::Value RunRecord::to_json() const {
  json::Value v;
  v["schema"] = json::Value(kRunRecordSchema);
  json::Value prov;
  prov["bench"] = json::Value(provenance.bench);
  prov["git_sha"] = json::Value(provenance.git_sha);
  prov["dirty"] = json::Value(provenance.dirty);
  prov["config_hash"] = json::Value(hash_to_hex(provenance.config_hash));
  prov["hostname"] = json::Value(provenance.hostname);
  prov["threads"] = json::Value(provenance.threads);
  prov["simd_tier"] = json::Value(provenance.simd_tier);
  prov["unix_time_s"] = json::Value(provenance.unix_time_s);
  v["provenance"] = std::move(prov);
  v["report"] = report;
  return v;
}

std::optional<RunRecord> RunRecord::from_json(const json::Value& v) {
  if (!v.is_object()) return std::nullopt;
  const json::Value* schema = v.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kRunRecordSchema) {
    return std::nullopt;
  }
  const json::Value* prov = find_object(v, "provenance");
  const json::Value* report = find_object(v, "report");
  if (prov == nullptr || report == nullptr) return std::nullopt;

  RunRecord rec;
  rec.provenance.bench = string_field(*prov, "bench");
  rec.provenance.git_sha = string_field(*prov, "git_sha");
  const json::Value* dirty = prov->find("dirty");
  rec.provenance.dirty = dirty != nullptr &&
                         dirty->kind() == json::Value::Kind::kBool &&
                         dirty->as_bool();
  rec.provenance.config_hash =
      hash_from_hex(string_field(*prov, "config_hash"));
  rec.provenance.hostname = string_field(*prov, "hostname");
  // Clamp before the cast: double -> uint64 of a negative, non-finite,
  // or out-of-range value is UB (the registry fuzzer feeds all three).
  const double threads = number_field(*prov, "threads");
  rec.provenance.threads =
      std::isfinite(threads) && threads > 0.0 && threads <= 9.0e18
          ? static_cast<std::uint64_t>(threads)
          : 0;
  rec.provenance.simd_tier = string_field(*prov, "simd_tier");
  rec.provenance.unix_time_s = number_field(*prov, "unix_time_s");
  rec.report = *report;
  return rec;
}

std::optional<RunRecord> parse_record_line(std::string_view line) {
  // Tolerate the trailing '\r' of a registry that crossed a Windows
  // checkout; everything else must parse strictly.
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  if (line.empty()) return std::nullopt;
  const auto parsed = json::parse(line);
  if (!parsed) return std::nullopt;
  return RunRecord::from_json(*parsed);
}

namespace {

// Serializes in-process appenders (a bench self-recording while the gate
// records the same run, or concurrent sweeps sharing one registry). The
// kernel's O_APPEND already serializes cross-process writers; this mutex
// keeps same-process writers from interleaving open/write/close errno
// handling, and gives the append path a capability the thread-safety
// lane can reason about. It guards an IO critical section, not a data
// member, hence the guarded-mutex waiver.
lscatter::Mutex& append_mutex() {
  static lscatter::Mutex m;  // lint-ok: guarded-mutex
  return m;
}

}  // namespace

bool append_record(const std::string& path, const RunRecord& record,
                   std::string* error) {
  lscatter::LockGuard lock(append_mutex());
  if (!ensure_parent_dirs(path, error)) return false;
  std::string line = record.to_json().dump(-1);
  if (line.find('\n') != std::string::npos) {
    // A compact dump must be one physical line; embedded newlines would
    // tear the JSONL framing. json::escape makes this unreachable, but
    // a registry must never be corrupted by a future writer bug.
    if (error != nullptr) *error = "record serialized with embedded newline";
    return false;
  }
  line += '\n';

  // "ab" => O_APPEND: the kernel serializes concurrent appends, and the
  // single fwrite below lands the whole record (stdio buffer is larger
  // than any compacted record, so it reaches write() in one call).
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot open " + path + " for append: " +
               std::strerror(errno);
    }
    return false;
  }
  const bool ok =
      std::fwrite(line.data(), 1, line.size(), f) == line.size();
  const bool closed = std::fclose(f) == 0;
  if ((!ok || !closed) && error != nullptr) {
    *error = "short write to " + path;
  }
  return ok && closed;
}

std::vector<RunRecord> read_records(const std::string& path,
                                    ReadStats* stats) {
  std::vector<RunRecord> out;
  ReadStats local;
  std::ifstream in(path, std::ios::binary);
  if (in) {
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line == "\r") continue;
      ++local.total_lines;
      auto rec = parse_record_line(line);
      if (rec) {
        out.push_back(std::move(*rec));
      } else {
        ++local.corrupt_lines;
      }
    }
  }
  if (stats != nullptr) *stats = local;
  return out;
}

std::vector<RunRecord> filter_records(std::vector<RunRecord> records,
                                      const RecordFilter& filter) {
  auto rejected = [&filter](const RunRecord& r) {
    if (!filter.bench.empty() && r.provenance.bench != filter.bench) {
      return true;
    }
    if (!filter.git_sha.empty() &&
        r.provenance.git_sha.rfind(filter.git_sha, 0) != 0) {
      return true;
    }
    // Like-for-like gating: a record that predates the field (empty
    // tier / zero threads) matches any filter, so old registries keep
    // working; a record that *does* carry the field must match exactly.
    if (!filter.simd_tier.empty() && !r.provenance.simd_tier.empty() &&
        r.provenance.simd_tier != filter.simd_tier) {
      return true;
    }
    if (filter.threads != 0 && r.provenance.threads != 0 &&
        r.provenance.threads != filter.threads) {
      return true;
    }
    return false;
  };
  records.erase(
      std::remove_if(records.begin(), records.end(), rejected),
      records.end());
  if (filter.last > 0 && records.size() > filter.last) {
    records.erase(records.begin(),
                  records.end() - static_cast<std::ptrdiff_t>(filter.last));
  }
  return records;
}

namespace {

constexpr const char* kHistogramFields[] = {"count", "mean", "p50", "p90",
                                            "p99"};

}  // namespace

std::vector<std::string> metric_names(const json::Value& report) {
  std::vector<std::string> out;
  for (const char* section : {"counters", "gauges"}) {
    const json::Value* s = find_object(report, section);
    if (s == nullptr) continue;
    for (const auto& name : s->as_object().keys()) {
      const json::Value* v = s->find(name);
      if (v != nullptr && v->is_number()) {
        out.push_back(std::string(section) + "." + name);
      }
    }
  }
  const json::Value* hists = find_object(report, "histograms");
  if (hists != nullptr) {
    for (const auto& hname : hists->as_object().keys()) {
      const json::Value* h = hists->find(hname);
      if (h == nullptr || !h->is_object()) continue;
      for (const char* field : kHistogramFields) {
        const json::Value* v = h->find(field);
        if (v != nullptr && v->is_number()) {
          out.push_back("histograms." + hname + "." + field);
        }
      }
    }
  }
  return out;
}

std::optional<double> metric_value(const json::Value& report,
                                   const std::string& metric) {
  // Split on the FIRST dot only for the section; histogram names contain
  // dots themselves, so the field is the suffix after the LAST dot.
  const std::size_t first_dot = metric.find('.');
  if (first_dot == std::string::npos) return std::nullopt;
  const std::string section = metric.substr(0, first_dot);
  const std::string rest = metric.substr(first_dot + 1);
  const json::Value* s = find_object(report, section);
  if (s == nullptr) return std::nullopt;

  const json::Value* v = nullptr;
  if (section == "histograms") {
    const std::size_t last_dot = rest.rfind('.');
    if (last_dot == std::string::npos) return std::nullopt;
    const json::Value* h = s->find(rest.substr(0, last_dot));
    if (h == nullptr || !h->is_object()) return std::nullopt;
    v = h->find(rest.substr(last_dot + 1));
  } else {
    v = s->find(rest);
  }
  if (v == nullptr || !v->is_number()) return std::nullopt;
  return v->as_number();
}

std::vector<TrendRow> trend_rows(const std::vector<RunRecord>& records,
                                 const std::string& metric_filter,
                                 const DiffOptions& options) {
  // Union of metric paths across all records, in first-seen order.
  std::vector<std::string> metrics;
  for (const RunRecord& rec : records) {
    for (auto& name : metric_names(rec.report)) {
      if (std::find(metrics.begin(), metrics.end(), name) ==
          metrics.end()) {
        metrics.push_back(std::move(name));
      }
    }
  }

  std::vector<TrendRow> out;
  for (const std::string& metric : metrics) {
    if (!metric_filter.empty() &&
        metric.find(metric_filter) == std::string::npos) {
      continue;
    }
    TrendRow row;
    row.metric = metric;
    std::vector<double> values;
    for (const RunRecord& rec : records) {
      const auto v = metric_value(rec.report, metric);
      if (v) values.push_back(*v);
    }
    if (values.empty()) continue;
    row.n = values.size();
    row.first = values.front();
    row.last = values.back();
    const dsp::QuantileSummary q = dsp::summary_quantiles(values);
    row.p50 = q.p50;
    row.p90 = q.p90;
    row.p99 = q.p99;

    // Regression flag: newest value vs the median of everything before
    // it, same thresholds and noise floor as obs::diff, and — like diff
    // — only for histogram latency quantiles, where growth is bad by
    // construction. Counters/gauges stay informational.
    const bool is_p50 = metric.size() > 4 &&
                        metric.rfind(".p50") == metric.size() - 4;
    const bool is_tail =
        metric.size() > 4 && (metric.rfind(".p90") == metric.size() - 4 ||
                              metric.rfind(".p99") == metric.size() - 4);
    if (values.size() >= 2 &&
        metric.rfind("histograms.", 0) == 0 && (is_p50 || is_tail)) {
      std::vector<double> priors(values.begin(), values.end() - 1);
      const double base = dsp::median(std::move(priors));
      if (std::isfinite(base) && base >= kMinBaseQuantile &&
          base > 0.0) {
        row.last_over_median = row.last / base;
        const double threshold = is_p50
                                     ? options.regression_threshold
                                     : options.tail_regression_threshold;
        row.regressed = !std::isfinite(row.last) ||
                        row.last_over_median > 1.0 + threshold;
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

json::Value median_report(const std::vector<RunRecord>& records) {
  json::Value base;
  base["schema"] = json::Value("lscatter.obs/1");
  base["report"] = json::Value("registry-median");

  // Majority vote on the metric set: a metric present in more than half
  // the records is part of the baseline; stragglers from one odd run
  // (e.g. a crashed bench that never registered its gauges) are not.
  const std::size_t quorum = records.size() / 2 + 1;

  struct Entry {
    std::string metric;
    std::vector<double> values;
  };
  std::vector<Entry> entries;
  for (const RunRecord& rec : records) {
    for (const auto& name : metric_names(rec.report)) {
      const auto v = metric_value(rec.report, name);
      if (!v) continue;
      auto it = std::find_if(
          entries.begin(), entries.end(),
          [&name](const Entry& e) { return e.metric == name; });
      if (it == entries.end()) {
        entries.push_back({name, {*v}});
      } else {
        it->values.push_back(*v);
      }
    }
  }

  json::Value counters, gauges, histograms;
  counters.make_object();
  gauges.make_object();
  histograms.make_object();
  for (const Entry& e : entries) {
    if (e.values.size() < quorum) continue;
    const double med = dsp::median(e.values);
    const std::size_t first_dot = e.metric.find('.');
    const std::string section = e.metric.substr(0, first_dot);
    const std::string rest = e.metric.substr(first_dot + 1);
    if (section == "counters") {
      counters[rest] = json::Value(med);
    } else if (section == "gauges") {
      gauges[rest] = json::Value(med);
    } else if (section == "histograms") {
      const std::size_t last_dot = rest.rfind('.');
      histograms[rest.substr(0, last_dot)][rest.substr(last_dot + 1)] =
          json::Value(med);
    }
  }
  base["counters"] = std::move(counters);
  base["gauges"] = std::move(gauges);
  base["histograms"] = std::move(histograms);
  return base;
}

}  // namespace lscatter::obs
