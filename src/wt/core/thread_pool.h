// Fixed-size worker pool for run-level parallelism (§4.2).

#ifndef WT_CORE_THREAD_POOL_H_
#define WT_CORE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace wt {

/// Worker pool with two execution paths:
///  * Submit — FIFO tasks through a mutex-guarded queue (cold path: task
///    granularity is coarse and ordering does not matter);
///  * ParallelFor — index chunks claimed from one shared counter (hot path:
///    the orchestrator fans a wavefront's (point, replicate) tasks out
///    through here).
///
/// ParallelFor participants (every pool thread plus the calling thread)
/// claim `grain` indices at a time with one fetch_add on the job's shared
/// counter and run them, until the counter passes the end of the range.
/// Whoever is free takes the next chunk, so imbalance never strands work
/// behind a busy thread and no barrier forms until the final chunk
/// completes. The caller participates too: a pool starved of CPU
/// (oversubscription) degrades to the caller executing everything inline
/// — never to a slowdown.
///
/// Scheduling is invisible to results by construction: `body` must be a
/// pure function of its index (plus caller-owned slots indexed by it),
/// which is exactly the orchestrator's (seed, run_id, replicate) contract.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task.
  void Submit(std::function<void()> task);

  /// Runs body(i) for every i in [begin, end), exactly once each, claiming
  /// `grain` indices per claim (0 = auto: ~8 chunks per participant). A
  /// range of at most one chunk runs inline on the caller. Blocks until
  /// every index of THIS call has finished — independent of other
  /// concurrently submitted work. `body` must be safe to invoke
  /// concurrently for distinct indices. Safe to call from multiple threads
  /// and from inside pool tasks (the caller participates, so it never
  /// deadlocks waiting on a busy pool).
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& body, size_t grain = 0);

  /// Blocks until every Submit task has finished.
  void WaitIdle();

 private:
  // One ParallelFor invocation. `next` is the shared claim counter: an
  // offset into [0, total) that participants advance by `grain`. done
  // counts fully executed indices — the acq_rel RMW chain on it publishes
  // every body() effect to whichever participant observes done == total
  // and signals completion.
  struct PfJob {
    const std::function<void(size_t)>* body = nullptr;
    size_t base = 0;   // original `begin`, added back before calling body
    size_t total = 0;  // indices in the job
    size_t grain = 1;  // indices per claim
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::atomic<int64_t> chunks{0};
    std::mutex mu;
    std::condition_variable cv;
    bool finished = false;
  };

  void WorkerLoop();
  // Claims and executes chunks until the counter passes the range's end.
  void Participate(PfJob& job);
  // Executes [lo, hi) and signals the caller when this completed the job.
  void RunChunk(PfJob& job, size_t lo, size_t hi);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  // Active ParallelFor jobs; workers grab shared_ptr copies under mu_.
  std::vector<std::shared_ptr<PfJob>> pf_jobs_;
  // Bumped when pf_jobs_ grows; lets sleeping workers distinguish "new
  // job" from "job I already drained" without spinning.
  uint64_t pf_version_ = 0;
  int in_flight_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace wt

#endif  // WT_CORE_THREAD_POOL_H_
