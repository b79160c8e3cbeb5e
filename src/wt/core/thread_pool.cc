#include "wt/core/thread_pool.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "wt/common/macros.h"
#include "wt/obs/metrics.h"
#include "wt/obs/trace.h"

namespace wt {

namespace {

// Immortal labels for trace export (obs::SetThisThreadLabel stores the
// pointer). Pools larger than the table share the generic tail label.
const char* WorkerLabel(int i) {
  static const char* kLabels[] = {
      "worker-0",  "worker-1",  "worker-2",  "worker-3",
      "worker-4",  "worker-5",  "worker-6",  "worker-7",
      "worker-8",  "worker-9",  "worker-10", "worker-11",
      "worker-12", "worker-13", "worker-14", "worker-15",
  };
  constexpr int kN = static_cast<int>(sizeof(kLabels) / sizeof(kLabels[0]));
  return (i >= 0 && i < kN) ? kLabels[i] : "worker";
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  WT_CHECK(num_threads >= 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] {
      obs::SetThisThreadLabel(WorkerLabel(i));
      // Announce the lane even if this worker never claims a chunk (the
      // caller-participating ParallelFor can legitimately absorb all work
      // on a starved host) — trace consumers rely on seeing pool lanes.
      WT_TRACE_INSTANT_ARG("pool", "spawn", "worker", static_cast<int64_t>(i));
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    obs::GaugeMaxIfEnabled("sched.queue_depth_max",
                           static_cast<int64_t>(queue_.size()));
  }
  work_cv_.notify_one();
}

void ThreadPool::RunChunk(PfJob& job, size_t lo, size_t hi) {
  {
    // One span per claimed chunk on the executing thread's lane, so a
    // trace shows how the claims spread the range over threads.
    WT_TRACE_SCOPE_ARG("orchestrator", "worker", "chunk",
                       static_cast<int64_t>(lo));
    for (size_t i = lo; i < hi; ++i) (*job.body)(job.base + i);
  }
  job.chunks.fetch_add(1, std::memory_order_relaxed);
  // acq_rel: the finishing observer synchronizes with every participant's
  // body() writes through the RMW chain on `done`.
  const size_t done =
      job.done.fetch_add(hi - lo, std::memory_order_acq_rel) + (hi - lo);
  if (done == job.total) {
    {
      std::lock_guard<std::mutex> lock(job.mu);
      job.finished = true;
    }
    job.cv.notify_all();
  }
}

void ThreadPool::Participate(PfJob& job) {
  // A claim past the end only leaves the counter one grain further beyond
  // `total`. A claim needs only the RMW's atomicity (the job's fields
  // reached this thread under `mu_`, and results are published through
  // `done`), but the order stays seq_cst until a contended benchmark
  // shows that weakening it pays.
  for (;;) {
    const size_t lo = job.next.fetch_add(job.grain, std::memory_order_seq_cst);
    if (lo >= job.total) return;
    RunChunk(job, lo, std::min(lo + job.grain, job.total));
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& body,
                             size_t grain) {
  if (begin >= end) return;
  const size_t n = end - begin;
  const size_t participants = workers_.size() + 1;  // caller joins in
  if (grain == 0) grain = std::max(size_t{1}, n / (participants * 8));

  // A single chunk runs inline: nothing to share, so skip the wakeups.
  if (n <= grain) {
    for (size_t i = begin; i < end; ++i) body(i);
    obs::CountIfEnabled("sched.pf_inline", 1);
    return;
  }

  auto job = std::make_shared<PfJob>();
  job->body = &body;
  job->base = begin;
  job->total = n;
  job->grain = grain;

  // Wake only as many workers as there are chunks beyond the caller's
  // first — a 2-chunk loop on a 16-thread pool must not wake 16 threads.
  const size_t wake = std::min(workers_.size(), (n + grain - 1) / grain - 1);
  {
    std::unique_lock<std::mutex> lock(mu_);
    pf_jobs_.push_back(job);
    ++pf_version_;
  }
  if (wake >= workers_.size()) {
    work_cv_.notify_all();
  } else {
    for (size_t i = 0; i < wake; ++i) work_cv_.notify_one();
  }

  Participate(*job);

  {
    std::unique_lock<std::mutex> lock(job->mu);
    job->cv.wait(lock, [&job] { return job->finished; });
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    pf_jobs_.erase(std::find(pf_jobs_.begin(), pf_jobs_.end(), job));
  }
  obs::CountIfEnabled("sched.pf_jobs", 1);
  obs::CountIfEnabled("sched.pf_chunks",
                      job->chunks.load(std::memory_order_relaxed));
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_version = 0;
  std::vector<std::shared_ptr<PfJob>> jobs;
  while (true) {
    std::function<void()> task;
    jobs.clear();
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this, seen_version] {
        return shutdown_ || !queue_.empty() || pf_version_ != seen_version;
      });
      if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop_front();
        ++in_flight_;
      } else if (pf_version_ != seen_version) {
        seen_version = pf_version_;
        jobs = pf_jobs_;  // participate outside the lock
      } else if (shutdown_) {
        return;  // queue drained, no new jobs
      }
    }
    if (task) {
      task();
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
      continue;
    }
    for (const std::shared_ptr<PfJob>& job : jobs) Participate(*job);
  }
}

}  // namespace wt
