// SpanSink concurrency stress: writers hammering record() through real
// ScopedSpans while readers concurrently snapshot() — the exact access
// pattern of the bench gate's report export racing live instrumentation.
// Run under -DLSCATTER_SANITIZE=thread (scripts/check.sh builds this
// target with TSan) to prove the mutex discipline; in plain builds it
// still checks the accounting invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/family.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace {

using namespace lscatter;

TEST(ObsStress, ConcurrentSpansAndSnapshots) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kSpansPerWriter = 3000;  // nested pairs: 2 events each

  obs::SpanSink& sink = obs::SpanSink::instance();
  sink.set_capacity(256);  // small ring: force constant overwrites
  sink.clear();
  obs::Histogram& latency =
      obs::Registry::instance().histogram("test.stress.span.seconds");
  latency.reset();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> snapshots_taken{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const auto events = sink.snapshot();
        EXPECT_LE(events.size(), 256u);
        for (const obs::SpanEvent& ev : events) {
          ASSERT_NE(ev.name, nullptr);  // never a torn/blank slot
        }
        (void)sink.total_recorded();
        (void)sink.dropped();
        snapshots_taken.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&latency] {
      for (int i = 0; i < kSpansPerWriter; ++i) {
        obs::ScopedSpan outer("test.stress.outer", &latency);
        obs::ScopedSpan inner("test.stress.inner");
      }
    });
  }
  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(sink.total_recorded(),
            static_cast<std::uint64_t>(kWriters) * kSpansPerWriter * 2);
  EXPECT_EQ(latency.count(),
            static_cast<std::uint64_t>(kWriters) * kSpansPerWriter);
  EXPECT_GT(snapshots_taken.load(), 0u);
  EXPECT_EQ(sink.snapshot().size(), 256u);

  sink.set_capacity(obs::SpanSink::kDefaultCapacity);
}

// Sharded-vs-unsharded merge equivalence under contention: 8 threads
// drive the same increment stream into a plain shared-atomic Counter and
// a ShardedCounter, with a reader thread concurrently merging the
// sharded cells mid-flight (the report-export race). Run under TSan in
// the nightly deep-tsan lane (--gtest_filter='ObsStress.Sharded*') to
// prove the relaxed-atomic cell discipline; in plain builds it locks the
// end-state equivalence.
TEST(ObsStress, ShardedMergeMatchesSharedCounterAtEightThreads) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kItersPerThread = 50000;

  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& shared = reg.counter("test.stress.merge.shared");
  obs::ShardedCounter& sharded =
      reg.sharded_counter("test.stress.merge.sharded");
  shared.reset();
  sharded.reset();

  std::atomic<bool> done{false};
  std::thread reader([&] {
    // Mid-flight merges must be monotonic and never torn past the total.
    std::uint64_t last = 0;
    constexpr std::uint64_t kTotal =
        static_cast<std::uint64_t>(kThreads) * kItersPerThread;
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t v = sharded.value();
      EXPECT_GE(v, last);
      EXPECT_LE(v, kTotal);
      last = v;
      (void)reg.counter_value("test.stress.merge.sharded");
    }
  });

  std::vector<std::thread> team;
  team.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&] {
      // Cache the cell once per thread, as the macro does; every hit is
      // then an uncontended relaxed RMW on this thread's own line.
      std::atomic<std::uint64_t>& cell = sharded.cell();
      for (std::uint64_t i = 0; i < kItersPerThread; ++i) {
        shared.add(1);
        cell.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : team) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  // Quiescent merge equals the shared-atomic ground truth exactly.
  EXPECT_EQ(sharded.value(), shared.value());
  EXPECT_EQ(sharded.value(),
            static_cast<std::uint64_t>(kThreads) * kItersPerThread);
  EXPECT_EQ(reg.counter_value("test.stress.merge.sharded"),
            shared.value());

  shared.reset();
  sharded.reset();
}

// Shard cells are claimed by dense thread ordinal: within a <=kShards
// team every thread must land on its own cacheline-aligned cell, or the
// "uncontended" claim is a lie.
TEST(ObsStress, ShardedCellsAreDistinctPerThread) {
  obs::ShardedCounter counter;
  constexpr int kThreads = 8;
  std::vector<std::atomic<std::uint64_t>*> cells(kThreads);
  std::vector<std::thread> team;
  team.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&counter, &cells, t] {
      cells[static_cast<std::size_t>(t)] = &counter.cell();
    });
  }
  for (auto& t : team) t.join();
  std::sort(cells.begin(), cells.end());
  EXPECT_EQ(std::unique(cells.begin(), cells.end()), cells.end());
  for (const auto* cell : cells) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(cell) % 64, 0u);
  }
}

// Registry reads racing sharded increments AND family cell registration:
// counter_value() walks the registry under its mutex while writer threads
// hammer their sharded cells and keep registering new family cells —
// which nests the registry mutex under the family mutex (the declared
// family -> registry lock rank, DESIGN.md §13). Under TSan (the CI
// sanitize job and the nightly deep-tsan lane) its deadlock detector
// checks the rank stays acyclic on every nested acquisition.
TEST(ObsStress, ShardedIncrementsRaceRegistryReadsAndFamilyCells) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kItersPerThread = 20000;
  // 96 distinct labels against the 64-cell default cap: the overflow
  // path (which bumps a registry counter under the family lock) runs too.
  constexpr std::uint64_t kLabels = 96;

  obs::Registry& reg = obs::Registry::instance();
  obs::ShardedCounter& sharded =
      reg.sharded_counter("test.stress.race.sharded");
  sharded.reset();
  obs::CounterFamily family("test.stress.race.family", "slot");

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)reg.counter_value("test.stress.race.sharded");
      (void)family.size();
    }
  });

  std::vector<std::thread> team;
  team.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&] {
      std::atomic<std::uint64_t>& cell = sharded.cell();
      for (std::uint64_t i = 0; i < kItersPerThread; ++i) {
        cell.fetch_add(1, std::memory_order_relaxed);
        if (i % 64 == 0) {
          // family mutex -> registry mutex on a miss; cached-cell add on
          // a hit. Both paths race the reader's registry walk.
          family.cell((i / 64) % kLabels).add(1);
        }
      }
    });
  }
  for (auto& t : team) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(sharded.value(),
            static_cast<std::uint64_t>(kThreads) * kItersPerThread);
  EXPECT_EQ(reg.counter_value("test.stress.race.sharded"),
            sharded.value());
  EXPECT_EQ(family.size(), obs::kDefaultMaxCells);
  sharded.reset();
}

TEST(ObsStress, SnapshotDuringCapacityChanges) {
  obs::SpanSink& sink = obs::SpanSink::instance();
  sink.clear();
  std::atomic<bool> done{false};
  std::thread resizer([&] {
    for (int i = 0; i < 200; ++i) {
      sink.set_capacity(i % 2 == 0 ? 16 : 128);
    }
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    obs::ScopedSpan s("test.stress.resize");
    (void)sink.snapshot();
  }
  resizer.join();
  sink.set_capacity(obs::SpanSink::kDefaultCapacity);
}

}  // namespace
