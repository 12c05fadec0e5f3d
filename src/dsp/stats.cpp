#include "dsp/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace lscatter::dsp {

double mean(const std::vector<double>& x) {
  if (x.empty()) return 0.0;
  double s = 0.0;
  for (double v : x) s += v;
  return s / static_cast<double>(x.size());
}

double variance(const std::vector<double>& x) {
  if (x.empty()) return 0.0;
  const double m = mean(x);
  double s = 0.0;
  for (double v : x) s += (v - m) * (v - m);
  return s / static_cast<double>(x.size());
}

double stddev(const std::vector<double>& x) { return std::sqrt(variance(x)); }

double maximum(const std::vector<double>& x) {
  assert(!x.empty());
  return *std::max_element(x.begin(), x.end());
}

double quantile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double quantile(std::vector<double> x, double q) {
  std::sort(x.begin(), x.end());
  return quantile_sorted(x, q);
}

double percentile(std::vector<double> x, double p) {
  assert(!x.empty());
  assert(p >= 0.0 && p <= 100.0);
  return quantile(std::move(x), p / 100.0);
}

double median(std::vector<double> x) { return percentile(std::move(x), 50.0); }

QuantileSummary summary_quantiles(std::vector<double> x) {
  std::sort(x.begin(), x.end());
  QuantileSummary s;
  s.p50 = quantile_sorted(x, 0.50);
  s.p90 = quantile_sorted(x, 0.90);
  s.p99 = quantile_sorted(x, 0.99);
  return s;
}

double quantile_from_buckets(std::span<const BucketSpan> buckets, double q) {
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  std::uint64_t total = 0;
  for (const auto& b : buckets) total += b.count;
  if (total == 0) return 0.0;

  const double target = q * static_cast<double>(total);
  double seen = 0.0;
  for (const auto& b : buckets) {
    if (b.count == 0) continue;
    const double next = seen + static_cast<double>(b.count);
    if (next >= target) {
      const double frac =
          b.count == 0 ? 0.0
                       : (target - seen) / static_cast<double>(b.count);
      if (b.lower > 0.0 && b.upper > b.lower) {
        return b.lower * std::pow(b.upper / b.lower, frac);
      }
      return b.lower + frac * (b.upper - b.lower);
    }
    seen = next;
  }
  return buckets.empty() ? 0.0 : buckets.back().upper;
}

BoxStats box_stats(std::vector<double> x) {
  assert(!x.empty());
  std::sort(x.begin(), x.end());
  BoxStats b;
  auto pct = [&](double p) { return quantile_sorted(x, p / 100.0); };
  b.min = x.front();
  b.max = x.back();
  b.q1 = pct(25.0);
  b.median = pct(50.0);
  b.q3 = pct(75.0);
  const double iqr = b.q3 - b.q1;
  b.whisker_lo = b.q1 - 1.5 * iqr;
  b.whisker_hi = b.q3 + 1.5 * iqr;
  b.n_outliers = 0;
  for (double v : x) {
    if (v < b.whisker_lo || v > b.whisker_hi) ++b.n_outliers;
  }
  return b;
}

std::string format_box(const BoxStats& b, const char* unit) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "q1=%.3f med=%.3f q3=%.3f min=%.3f max=%.3f outliers=%zu %s",
                b.q1, b.median, b.q3, b.min, b.max, b.n_outliers, unit);
  return buf;
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::evaluate(double v) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), v);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalCdf::quantile(double p) const {
  assert(!sorted_.empty());
  assert(p >= 0.0 && p <= 1.0);
  return quantile_sorted(sorted_, p);
}

std::vector<std::pair<double, double>> EmpiricalCdf::series(
    double lo, double hi, std::size_t points) const {
  assert(points >= 2);
  std::vector<std::pair<double, double>> out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double x =
        lo + (hi - lo) * static_cast<double>(i) /
                 static_cast<double>(points - 1);
    out.emplace_back(x, evaluate(x));
  }
  return out;
}

Histogram::Histogram(double lo_, double hi_, std::size_t bins)
    : lo(lo_), hi(hi_), counts(bins, 0) {
  assert(hi_ > lo_ && bins > 0);
}

void Histogram::add(double v) {
  if (v < lo) v = lo;
  if (v >= hi) v = std::nexttoward(hi, lo);
  const auto bin = static_cast<std::size_t>(
      (v - lo) / (hi - lo) * static_cast<double>(counts.size()));
  counts[std::min(bin, counts.size() - 1)]++;
}

std::size_t Histogram::total() const {
  std::size_t t = 0;
  for (auto c : counts) t += c;
  return t;
}

}  // namespace lscatter::dsp
