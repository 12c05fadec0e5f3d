#pragma once
// Labeled metric families: one logical metric broken out by a single
// label dimension (per-tag decode counters, per-stage latency
// histograms, per-slot collision counts). Cells are ordinary Registry
// metrics registered under the flattened name
//
//     name{label=value}        e.g. core.multi_tag.packets_ok{tag=7}
//
// so every existing consumer — build_report, lscatter-obs
// diff/trend/regress, the run registry — sees labeled rows as plain
// metric names and keeps working unchanged (`lscatter.obs/1` schema is
// untouched; a labeled report diffs against an unlabeled baseline as
// added metric rows, not as a schema break).
//
// Cardinality is bounded: a family accepts at most `max_cells` distinct
// label values (default kDefaultMaxCells). Past the cap, new values
// collapse into one shared overflow cell `name{label=__other__}` and the
// process-wide counter `obs.labels.dropped` counts each collapsed
// value — a cell-scale run with thousands of tags degrades to aggregate
// accounting instead of unbounded registry growth.
//
// Hot-path discipline (enforced by the lscatter-lint `obs-loop` rule):
// resolve cells OUTSIDE loops — `cell()` takes a family mutex and a map
// lookup — cache the returned reference, and hit the cached cell inside
// the loop. Cell addresses are stable for the process lifetime (they
// live in the Registry), so caching is always safe.

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "core/thread_safety.hpp"
#include "obs/registry.hpp"

namespace lscatter::obs {

inline constexpr std::size_t kDefaultMaxCells = 64;

/// Counts label values collapsed into `{...=__other__}` overflow cells,
/// across all families in the process.
inline constexpr const char* kLabelsDroppedCounter = "obs.labels.dropped";

/// Label value used for the shared overflow cell of a saturated family.
inline constexpr const char* kOverflowLabel = "__other__";

namespace detail {

/// `name{key=value}` with the value sanitized so the flattened string
/// parses back unambiguously: '{', '}', '=', '"', ',' and control bytes
/// become '_'. Defined in family.cpp.
std::string flatten_label(const std::string& name, const std::string& key,
                          std::string_view value);

// One overload per metric kind so Family<M> below stays a single
// template instead of three near-identical classes.
inline Counter& family_metric(Registry& reg, const std::string& flat,
                              Counter*) {
  return reg.counter(flat);
}
inline Gauge& family_metric(Registry& reg, const std::string& flat,
                            Gauge*) {
  return reg.gauge(flat);
}
inline Histogram& family_metric(Registry& reg, const std::string& flat,
                                Histogram*) {
  return reg.histogram(flat);
}

}  // namespace detail

/// A family of `Metric` cells keyed by one label. Thread-safe; cell()
/// is amortized one mutex + one hash lookup, so cache the reference on
/// hot paths (see file comment).
template <typename Metric>
class Family {
 public:
  /// `name` and `label_key` follow the `subsystem.stage.metric` naming
  /// scheme (DESIGN.md §7/§12). `max_cells` bounds distinct label
  /// values; the overflow cell does not count against it.
  Family(std::string name, std::string label_key,
         std::size_t max_cells = kDefaultMaxCells)
      : name_(std::move(name)),
        label_key_(std::move(label_key)),
        max_cells_(max_cells == 0 ? 1 : max_cells) {}

  Family(const Family&) = delete;
  Family& operator=(const Family&) = delete;

  /// Cell for `label_value`, creating (and registering) it on first
  /// use. Past the cardinality cap, returns the shared overflow cell
  /// and bumps `obs.labels.dropped` once per rejected value.
  /// Lock rank: the family mutex is acquired BEFORE the registry mutex
  /// (cell registration calls into Registry under our lock); nothing in
  /// the registry ever calls back into a family, so the order is acyclic.
  Metric& cell(std::string_view label_value) LSCATTER_EXCLUDES(mutex_) {
    lscatter::LockGuard lock(mutex_);
    const auto it = cells_.find(label_value);
    if (it != cells_.end()) return *it->second;
    if (cells_.size() >= max_cells_) {
      return overflow_locked(label_value);
    }
    Metric& m = detail::family_metric(
        Registry::instance(),
        detail::flatten_label(name_, label_key_, label_value),
        static_cast<Metric*>(nullptr));
    cells_.emplace(std::string(label_value), &m);
    return m;
  }

  /// Integer-label convenience (tag indices, slots, thread ordinals).
  Metric& cell(std::uint64_t label_value) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(label_value));
    return cell(std::string_view(buf));
  }

  /// Distinct label values currently held (overflow cell excluded).
  std::size_t size() const LSCATTER_EXCLUDES(mutex_) {
    lscatter::LockGuard lock(mutex_);
    return cells_.size();
  }

  std::size_t max_cells() const { return max_cells_; }
  const std::string& name() const { return name_; }
  const std::string& label_key() const { return label_key_; }

 private:
  // Heterogeneous lookup so cell(string_view) never allocates for the
  // hit path.
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct Eq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };

  Metric& overflow_locked(std::string_view rejected_value)
      LSCATTER_REQUIRES(mutex_) {
    // Each *distinct* rejected value counts once; repeat hits on an
    // already-collapsed value route straight to the overflow cell.
    if (dropped_.insert(std::string(rejected_value)).second) {
      Registry::instance().counter(kLabelsDroppedCounter).add(1);
    }
    if (overflow_ == nullptr) {
      overflow_ = &detail::family_metric(
          Registry::instance(),
          detail::flatten_label(name_, label_key_, kOverflowLabel),
          static_cast<Metric*>(nullptr));
    }
    return *overflow_;
  }

  std::string name_;
  std::string label_key_;
  std::size_t max_cells_;
  mutable lscatter::Mutex mutex_;
  std::unordered_map<std::string, Metric*, Hash, Eq> cells_
      LSCATTER_GUARDED_BY(mutex_);
  // Rejected values already counted in obs.labels.dropped.
  std::unordered_set<std::string, Hash, Eq> dropped_
      LSCATTER_GUARDED_BY(mutex_);
  Metric* overflow_ LSCATTER_GUARDED_BY(mutex_) = nullptr;
};

using CounterFamily = Family<Counter>;
using GaugeFamily = Family<Gauge>;
using HistogramFamily = Family<Histogram>;

}  // namespace lscatter::obs
