#include "core/sim_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "core/contracts.hpp"
#include "core/thread_safety.hpp"
#include "dsp/rng.hpp"
#include "obs/obs.hpp"

namespace lscatter::core {
namespace {

// One finished drop parked in the reorder window: either metrics or the
// exception that killed it (never both).
struct Slot {
  LinkMetrics metrics;
  std::exception_ptr error;
};

// Shared pool state. A single mutex is deliberate: drops cost
// milliseconds to seconds each, so claim/deliver contention is noise
// next to the simulation work. The cursor/window/stop fields are
// GUARDED_BY the pool mutex (checked on the clang thread-safety lane);
// window/drops/flow_base are set before the team starts and never
// mutated after, so workers may read them unlocked.
struct PoolState {
  lscatter::Mutex mutex;
  lscatter::CondVar window_open;   // workers: window advanced
  lscatter::CondVar result_ready;  // consumer: in-order slot landed
  std::size_t next_claim LSCATTER_GUARDED_BY(mutex) = 0;  // next handout
  std::size_t next_emit LSCATTER_GUARDED_BY(mutex) = 0;   // consumer wants
  std::size_t window = 1;       // immutable after team start
  std::size_t drops = 0;        // immutable after team start
  std::uint64_t flow_base = 0;  // immutable; drop d's trace flow id is
                                // flow_base + d (see below)
  std::map<std::size_t, Slot> ready
      LSCATTER_GUARDED_BY(mutex);  // finished, awaiting emission
  bool stop LSCATTER_GUARDED_BY(mutex) = false;  // failure: drain + exit
};

// Condition-variable wait predicates, named and annotated REQUIRES so
// the thread-safety analysis checks the guarded reads (a lambda body
// would be analyzed without the lock context and rejected).

/// Worker admission: drop `index` may run once it is inside the reorder
/// window, i.e. fewer than `window` drops ahead of the consumer cursor.
bool admission_open(const PoolState& state, std::size_t index)
    LSCATTER_REQUIRES(state.mutex) {
  return state.stop || index < state.next_emit + state.window;
}

/// Consumer wake: the next in-order slot has landed in the window.
bool next_slot_ready(const PoolState& state)
    LSCATTER_REQUIRES(state.mutex) {
  return state.ready.count(state.next_emit) != 0;
}

// Process-unique flow-id block for a sweep of `drops` drops: drop d gets
// flow id base + d, so the claim/execute/deliver spans of one drop share
// one id and trace_export links them into a connected Perfetto arc,
// while concurrent or repeated sweeps never collide. Starts at 1 — flow
// id 0 means "no flow".
std::uint64_t claim_flow_block(std::size_t drops) {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(drops, std::memory_order_relaxed);
}

using DropConfigFn = std::function<LinkConfig(std::size_t)>;

LinkMetrics run_one_drop(const DropConfigFn& make_config,
                         std::size_t drop_index, std::size_t subframes,
                         std::uint64_t flow) {
  LSCATTER_OBS_SPAN_FLOW("core.pool.drop", flow);
  LinkSimulator sim(make_config(drop_index));
  return sim.run(subframes);
}

void worker_loop(PoolState& state, const DropConfigFn& make_config,
                 std::size_t subframes) {
  for (;;) {
    std::size_t index = 0;
    {
      lscatter::UniqueLock lock(state.mutex);
      if (state.stop || state.next_claim >= state.drops) return;
      index = state.next_claim++;
      // Flow leg 1: the claim-to-admission wait. Its duration is the
      // backpressure stall (core.pool.enqueue.seconds), and the span's
      // flow id ties it to this drop's execute and deliver legs.
      LSCATTER_OBS_SPAN_FLOW("core.pool.enqueue",
                             state.flow_base + index);
      // Backpressure: never run more than `window` drops ahead of the
      // consumer. Indices below ours are claimed (the cursor is
      // contiguous), so the window is guaranteed to advance.
      while (!admission_open(state, index)) state.window_open.wait(lock);
      if (state.stop) return;
    }

    Slot slot;
    try {
      slot.metrics = run_one_drop(make_config, index, subframes,
                                  state.flow_base + index);
      LSCATTER_OBS_SHARDED_COUNTER_INC("core.pool.drops_completed");
    } catch (...) {
      slot.error = std::current_exception();
      LSCATTER_OBS_SHARDED_COUNTER_INC("core.pool.drops_failed");
    }

    {
      lscatter::LockGuard lock(state.mutex);
      state.ready.emplace(index, std::move(slot));
      LSCATTER_OBS_GAUGE_MAX("core.pool.window_high_water",
                             state.ready.size());
    }
    state.result_ready.notify_one();
  }
}

void run_serial(const DropConfigFn& make_config, std::size_t drops,
                std::size_t subframes,
                const std::function<void(const DropOutcome&)>& consume) {
  const std::uint64_t flow_base = claim_flow_block(drops);
  for (std::size_t d = 0; d < drops; ++d) {
    DropOutcome outcome;
    outcome.drop_index = d;
    outcome.metrics = run_one_drop(make_config, d, subframes, flow_base + d);
    LSCATTER_OBS_SHARDED_COUNTER_INC("core.pool.drops_completed");
    {
      LSCATTER_OBS_SPAN_FLOW("core.pool.deliver", flow_base + d);
      consume(outcome);
    }
  }
}

}  // namespace

std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("LSCATTER_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

LinkConfig config_for_drop(const LinkConfig& base, std::size_t drop_index) {
  LinkConfig cfg = base;
  cfg.seed = dsp::derive_seed(base.seed, drop_index);
  cfg.enodeb.seed = dsp::derive_seed(cfg.seed, 1);
  return cfg;
}

void for_each_drop(const LinkConfig& base, std::size_t drops,
                   std::size_t subframes, const PoolOptions& options,
                   const std::function<void(const DropOutcome&)>& consume) {
  for_each_drop(
      drops, subframes, options,
      [&base](std::size_t d) { return config_for_drop(base, d); }, consume);
}

void for_each_drop(std::size_t drops, std::size_t subframes,
                   const PoolOptions& options,
                   const std::function<LinkConfig(std::size_t)>& make_config,
                   const std::function<void(const DropOutcome&)>& consume) {
  LSCATTER_EXPECT(static_cast<bool>(make_config),
                  "for_each_drop needs a per-drop config");
  LSCATTER_EXPECT(static_cast<bool>(consume),
                  "for_each_drop needs a consumer");
  if (drops == 0) return;

  std::size_t threads = resolve_threads(options.threads);
  if (threads > drops) threads = drops;
  LSCATTER_OBS_GAUGE_SET("core.pool.workers", threads);

  if (threads <= 1) {
    run_serial(make_config, drops, subframes, consume);
    return;
  }

  PoolState state;
  state.drops = drops;
  state.flow_base = claim_flow_block(drops);
  state.window =
      options.window > 0 ? options.window : std::max<std::size_t>(2 * threads, 8);

  std::vector<std::thread> team;
  team.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    team.emplace_back([&state, &make_config, subframes] {
      worker_loop(state, make_config, subframes);
    });
  }

  std::exception_ptr failure;
  {
    lscatter::UniqueLock lock(state.mutex);
    while (state.next_emit < drops) {
      while (!next_slot_ready(state)) state.result_ready.wait(lock);
      auto node = state.ready.extract(state.next_emit);
      DropOutcome outcome;
      outcome.drop_index = state.next_emit;
      ++state.next_emit;
      state.window_open.notify_all();

      Slot slot = std::move(node.mapped());
      if (slot.error) {
        failure = slot.error;
        state.stop = true;
        break;
      }
      outcome.metrics = slot.metrics;
      lock.unlock();
      try {
        // Flow leg 3: in-order delivery on the consumer thread.
        LSCATTER_OBS_SPAN_FLOW("core.pool.deliver",
                               state.flow_base + outcome.drop_index);
        consume(outcome);
      } catch (...) {
        failure = std::current_exception();
        lock.lock();
        state.stop = true;
        break;
      }
      lock.lock();
    }
    state.stop = state.stop || failure != nullptr;
  }
  state.window_open.notify_all();
  for (auto& worker : team) worker.join();
  if (failure) std::rethrow_exception(failure);
}

DropSweep run_drops_parallel(const LinkConfig& base, std::size_t drops,
                             std::size_t subframes, std::size_t threads) {
  DropSweep sweep;
  sweep.throughputs_bps.reserve(drops);
  PoolOptions options;
  options.threads = threads;
  for_each_drop(base, drops, subframes, options,
                [&sweep](const DropOutcome& outcome) {
                  sweep.total += outcome.metrics;
                  sweep.throughputs_bps.push_back(
                      outcome.metrics.throughput_bps());
                });
  LSCATTER_ENSURE(sweep.throughputs_bps.size() == drops,
                  "every drop must deliver exactly once");
  return sweep;
}

}  // namespace lscatter::core
