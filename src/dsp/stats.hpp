#pragma once
// Descriptive statistics used by the evaluation harness: percentiles for
// the paper's box plots, empirical CDFs for Fig. 4c / 31 / 32, and simple
// aggregates.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace lscatter::dsp {

double mean(const std::vector<double>& x);
double variance(const std::vector<double>& x);  // population variance
double stddev(const std::vector<double>& x);
double maximum(const std::vector<double>& x);

/// Linear-interpolated quantile of *already sorted* data, q in [0, 1]
/// (clamped). Returns 0.0 for empty input; a single element is every
/// quantile of itself. The shared kernel behind percentile(), median(),
/// box_stats(), and EmpiricalCdf::quantile().
double quantile_sorted(std::span<const double> sorted, double q);

/// Linear-interpolated quantile, q in [0, 1]; sorts a copy. Empty input
/// yields 0.0.
double quantile(std::vector<double> x, double q);

/// Linear-interpolated percentile, p in [0, 100]. Precondition: non-empty.
double percentile(std::vector<double> x, double p);

double median(std::vector<double> x);

/// The three quantiles every run report tabulates.
struct QuantileSummary {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// p50/p90/p99 in one sort; zeros for empty input.
QuantileSummary summary_quantiles(std::vector<double> x);

/// One bucket of a pre-aggregated histogram: `count` samples somewhere in
/// (lower, upper].
struct BucketSpan {
  double lower = 0.0;
  double upper = 0.0;
  std::uint64_t count = 0;
};

/// Approximate quantile (q in [0, 1], clamped) of data summarized as
/// ascending log-spaced buckets, interpolating geometrically inside the
/// selected bucket — the estimator the observability histogram exporter
/// uses. Buckets with non-positive bounds fall back to linear
/// interpolation. Returns 0.0 when all counts are zero.
double quantile_from_buckets(std::span<const BucketSpan> buckets, double q);

/// The five-number summary the paper's box plots show, plus whisker bounds
/// at 1.5 IQR and the count of outliers beyond them.
struct BoxStats {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  double whisker_lo = 0.0;
  double whisker_hi = 0.0;
  std::size_t n_outliers = 0;
};

BoxStats box_stats(std::vector<double> x);

/// Render a BoxStats row like "q1=.. med=.. q3=.." for bench output.
std::string format_box(const BoxStats& b, const char* unit = "");

/// Empirical CDF over the samples; evaluate() returns P[X <= v].
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::vector<double> samples);

  double evaluate(double v) const;
  /// Inverse CDF (quantile), p in [0, 1].
  double quantile(double p) const;
  std::size_t size() const { return sorted_.size(); }

  /// Sample the CDF at `points` evenly spaced values across [lo, hi];
  /// returns (x, F(x)) pairs — the series a plot of Fig. 4c needs.
  std::vector<std::pair<double, double>> series(double lo, double hi,
                                                std::size_t points) const;

 private:
  std::vector<double> sorted_;
};

/// Fixed-bin histogram.
struct Histogram {
  double lo = 0.0;
  double hi = 1.0;
  std::vector<std::size_t> counts;

  Histogram(double lo_, double hi_, std::size_t bins);
  void add(double v);
  std::size_t total() const;
};

}  // namespace lscatter::dsp
