// ThreadPool stress tests. Written to be meaningful under TSan: many tiny
// tasks, concurrent submitters, and ParallelFor interleaved with unrelated
// submissions — the schedules that would expose queue/latch races.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "wt/core/thread_pool.h"

namespace wt {
namespace {

TEST(ThreadPoolTest, ManyTinyTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 10000; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 10000);
}

// Ranges starting at 0 and above 0, so a chunk offset that forgets
// `begin` on the pooled path shows up as a miss or a double hit.
TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  for (size_t begin : {size_t{0}, size_t{1000}}) {
    for (size_t grain : {size_t{0}, size_t{1}, size_t{7}, size_t{4096}}) {
      std::vector<std::atomic<int>> hits(begin + 1000);
      for (auto& h : hits) h.store(0);
      pool.ParallelFor(
          begin, hits.size(),
          [&hits](size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
          },
          grain);
      for (size_t i = 0; i < hits.size(); ++i) {
        ASSERT_EQ(hits[i].load(), i < begin ? 0 : 1)
            << "begin=" << begin << " grain=" << grain << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForEmptyAndSingleRanges) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(5, 5, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(5, 6, [&calls](size_t i) {
    EXPECT_EQ(i, 5u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

// ParallelFor must wait for exactly its own range, even while unrelated
// slow tasks sit in the queue.
TEST(ThreadPoolTest, ParallelForIsIndependentOfOtherSubmissions) {
  ThreadPool pool(4);
  std::atomic<bool> release{false};
  std::atomic<int> background{0};
  // One slow background task that outlives the ParallelFor.
  pool.Submit([&] {
    while (!release.load()) std::this_thread::yield();
    background.fetch_add(1);
  });
  std::vector<std::atomic<int>> hits(256);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(0, hits.size(), [&hits](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  // ParallelFor returned while the background task still spins.
  EXPECT_EQ(background.load(), 0);
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
  release.store(true);
  pool.WaitIdle();
  EXPECT_EQ(background.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentSubmittersAndWaiters) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 2000;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &count] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        pool.Submit(
            [&count] { count.fetch_add(1, std::memory_order_relaxed); });
      }
      pool.WaitIdle();  // concurrent WaitIdle from several threads
    });
  }
  for (std::thread& t : submitters) t.join();
  pool.WaitIdle();
  EXPECT_EQ(count.load(), kSubmitters * kPerSubmitter);
}

TEST(ThreadPoolTest, ParallelForAccumulatesViaDisjointSlots) {
  // Non-atomic writes to disjoint indices: exactly the access pattern the
  // orchestrator relies on (each task owns records[idx]). TSan would flag
  // any chunking bug that let two tasks touch one slot.
  ThreadPool pool(8);
  std::vector<uint64_t> out(10000, 0);
  pool.ParallelFor(0, out.size(), [&out](size_t i) { out[i] = i * i; });
  uint64_t sum = std::accumulate(out.begin(), out.end(), uint64_t{0});
  uint64_t expect = 0;
  for (uint64_t i = 0; i < out.size(); ++i) expect += i * i;
  EXPECT_EQ(sum, expect);
}

// Claim-counter stress: grain=1 makes every index its own claim, and a
// cost that ramps with the index keeps participants finishing their chunks
// at very different times. Exactly-once coverage plus a value checksum
// catch both a lost chunk and a double-claimed one.
TEST(ThreadPoolTest, ImbalancedCostsCoverExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 2000;
  for (int round = 0; round < 4; ++round) {
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0);
    std::atomic<uint64_t> checksum{0};
    std::atomic<uint64_t> benchmark_sink{0};  // keeps the busy loop alive
    pool.ParallelFor(
        0, kN,
        [&](size_t i) {
          // Cost ramps ~i: the back of the range is thousands of times
          // more expensive than the front.
          uint64_t x = 0;
          for (size_t k = 0; k < i; ++k) x += k;
          benchmark_sink.fetch_add(x, std::memory_order_relaxed);
          checksum.fetch_add(i, std::memory_order_relaxed);
          hits[i].fetch_add(1, std::memory_order_relaxed);
        },
        /*grain=*/1);
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "round=" << round << " i=" << i;
    }
    EXPECT_EQ(checksum.load(), uint64_t{kN} * (kN - 1) / 2);
  }
}

// Several threads race their own ParallelFor jobs on one pool while a
// submitter floods the queue: pool workers multiplex queue tasks and
// every live job, and each caller must wake only when *its* range is
// done. The schedule this creates — concurrent jobs, shared claims, queue
// interleave — is the one TSan needs to see to vet the claim protocol.
TEST(ThreadPoolTest, ConcurrentParallelForsWithInterleavedSubmits) {
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr size_t kN = 1500;
  std::atomic<int> queue_count{0};
  std::atomic<bool> stop{false};
  // Submits at least once even if the callers finish before this thread
  // is first scheduled, which a loaded host can do.
  std::thread submitter([&] {
    do {
      pool.Submit(
          [&queue_count] { queue_count.fetch_add(1, std::memory_order_relaxed); });
      std::this_thread::yield();
    } while (!stop.load(std::memory_order_relaxed));
  });
  std::vector<std::thread> callers;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    hits[c] = std::vector<std::atomic<int>>(kN);
    for (auto& h : hits[c]) h.store(0);
  }
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &hits, c] {
      for (int round = 0; round < 3; ++round) {
        pool.ParallelFor(
            0, kN,
            [&hits, c](size_t i) {
              hits[c][i].fetch_add(1, std::memory_order_relaxed);
            },
            /*grain=*/7);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  stop.store(true);
  submitter.join();
  pool.WaitIdle();
  for (int c = 0; c < kCallers; ++c) {
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[c][i].load(), 3) << "caller=" << c << " i=" << i;
    }
  }
  EXPECT_GT(queue_count.load(), 0);
}

// A worker thread issuing its own nested ParallelFor (a sweep task does
// this transitively when its model parallelizes internally) must not
// deadlock: the caller participates in its own job, so forward progress
// never depends on a free pool thread.
TEST(ThreadPoolTest, NestedParallelForFromWorkerCompletes) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  std::atomic<bool> done{false};
  pool.Submit([&] {
    pool.ParallelFor(0, 64, [&inner_total](size_t) {
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
    done.store(true);
  });
  pool.WaitIdle();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(inner_total.load(), 64);
}

}  // namespace
}  // namespace wt
