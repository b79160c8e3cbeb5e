// E11 — DES kernel microbenchmarks: the per-event cost that bounds every
// wind-tunnel run (ROADMAP north star: "as fast as the hardware allows").
//
// Workloads:
//  * hold model (classic DES queue benchmark): steady-state pop-one/push-one
//    at fixed queue sizes — isolates heap + dispatch cost per event;
//  * chain dispatch: self-rescheduling single event — isolates scheduling
//    overhead with a near-empty queue;
//  * schedule/cancel churn: half of all scheduled events are cancelled via
//    their handles — the seed queue left tombstones in the heap, the slot
//    pool removes entries outright.
//
// Each workload runs twice in the same binary: once on the current
// wt::EventQueue and once on SeedEventQueue, a frozen copy of the seed
// implementation (std::priority_queue + shared_ptr cancellation +
// std::function callbacks). Measuring both on the same machine makes the
// speedup column an honest same-conditions ratio rather than a number
// imported from someone else's hardware.
//
// google-benchmark registrations are provided for interactive profiling of
// the live queue.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "bench_main.h"
#include "wt/obs/wallclock.h"
#include "wt/sim/event_queue.h"

namespace {

// ------------------------------------------------------------------------
// Frozen seed implementation (pre-PR-2 event queue), kept verbatim modulo
// naming so the speedup column is measured, not remembered.
// ------------------------------------------------------------------------

struct SeedEventState {
  bool cancelled = false;
};

class SeedEventHandle {
 public:
  SeedEventHandle() = default;
  explicit SeedEventHandle(std::weak_ptr<SeedEventState> state)
      : state_(std::move(state)) {}
  void Cancel() {
    if (auto s = state_.lock()) s->cancelled = true;
  }

 private:
  std::weak_ptr<SeedEventState> state_;
};

class SeedEventQueue {
 public:
  using Fn = std::function<void()>;
  SeedEventHandle Push(wt::SimTime t, Fn fn, int32_t priority = 0) {
    auto state = std::make_shared<SeedEventState>();
    SeedEventHandle handle{std::weak_ptr<SeedEventState>(state)};
    heap_.push(Entry{t, priority, next_seq_++, std::move(state),
                     std::move(fn)});
    return handle;
  }
  bool Empty() {
    SkipCancelled();
    return heap_.empty();
  }
  struct Popped {
    wt::SimTime time;
    Fn fn;
  };
  Popped Pop() {
    SkipCancelled();
    Entry& top = const_cast<Entry&>(heap_.top());
    Popped out{top.time, std::move(top.fn)};
    heap_.pop();
    return out;
  }

 private:
  struct Entry {
    wt::SimTime time;
    int32_t priority;
    uint64_t seq;
    std::shared_ptr<SeedEventState> state;
    Fn fn;
  };
  struct EntryGreater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq > b.seq;
    }
  };
  void SkipCancelled() {
    while (!heap_.empty() && heap_.top().state->cancelled) heap_.pop();
  }
  std::priority_queue<Entry, std::vector<Entry>, EntryGreater> heap_;
  uint64_t next_seq_ = 0;
};

// ------------------------------------------------------------------------
// Workloads, templated over the queue type so both implementations run the
// byte-same benchmark loop.
// ------------------------------------------------------------------------

volatile int64_t g_sink = 0;

// Minimal inline PRNG for hold offsets: the bench should measure queue
// cost, not the library RNG's rejection sampling. xorshift64* with a
// power-of-two mask gives exactly uniform offsets in [1, 2^20].
struct HoldRng {
  uint64_t x;
  uint64_t Next() {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    return x * 2685821657736338717ULL;
  }
  int64_t Offset() { return static_cast<int64_t>((Next() & 0xFFFFF) + 1); }
};

// Hold model: fill to `size`, then `holds` iterations of pop-one/push-one
// with uniform offsets. Returns events processed.
template <typename Queue>
int64_t RunHoldModel(int64_t size, int64_t holds) {
  Queue q;
  HoldRng rng{7};
  int64_t fired = 0;
  auto fn = [&fired] { ++fired; };
  wt::SimTime now = wt::SimTime::Zero();
  for (int64_t i = 0; i < size; ++i) {
    q.Push(now + wt::SimTime::Nanos(rng.Offset()), fn);
  }
  for (int64_t i = 0; i < holds; ++i) {
    auto ev = q.Pop();
    now = ev.time;
    ev.fn();
    q.Push(now + wt::SimTime::Nanos(rng.Offset()), fn);
  }
  while (!q.Empty()) q.Pop().fn();
  g_sink = g_sink + fired;
  return fired;
}

// Chain dispatch: one live event rescheduling itself `events` times.
template <typename Queue>
int64_t RunChain(int64_t events) {
  Queue q;
  int64_t fired = 0;
  wt::SimTime now = wt::SimTime::Zero();
  // The loop re-pushes after each pop, mirroring Simulator::Step.
  q.Push(now + wt::SimTime::Nanos(10), [&fired] { ++fired; });
  while (fired < events) {
    auto ev = q.Pop();
    now = ev.time;
    ev.fn();
    q.Push(now + wt::SimTime::Nanos(10), [&fired] { ++fired; });
  }
  while (!q.Empty()) q.Pop().fn();
  g_sink = g_sink + fired;
  return fired;
}

// Schedule/cancel churn: push `batch` events, cancel every other one via
// its handle, pop the survivors; repeat. Exercises the cancellation
// protocol and tombstone (or true-removal) behavior.
template <typename Queue>
int64_t RunCancelChurn(int64_t batches, int64_t batch) {
  Queue q;
  HoldRng rng{11};
  int64_t fired = 0;
  auto fn = [&fired] { ++fired; };
  using Handle = decltype(q.Push(wt::SimTime::Zero(), fn));
  std::vector<Handle> handles;
  handles.reserve(static_cast<size_t>(batch));
  wt::SimTime now = wt::SimTime::Zero();
  for (int64_t b = 0; b < batches; ++b) {
    handles.clear();
    for (int64_t i = 0; i < batch; ++i) {
      handles.push_back(
          q.Push(now + wt::SimTime::Nanos(rng.Offset()), fn));
    }
    for (int64_t i = 0; i < batch; i += 2) {
      handles[static_cast<size_t>(i)].Cancel();
    }
    while (!q.Empty()) {
      auto ev = q.Pop();
      now = ev.time;
      ev.fn();
    }
  }
  g_sink = g_sink + fired;
  return fired;
}

// ------------------------------------------------------------------------
// Timed comparison + JSON emission.
// ------------------------------------------------------------------------

// Best-of-3: on a shared machine, min wall time is the least-noisy
// estimator of the workload's true cost (outliers are always slowdowns).
template <typename WorkFn>
double TimeIt(WorkFn&& work) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t start = wt::obs::WallNanos();
    work();
    double s = wt::obs::WallSecondsSince(start);
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

struct Comparison {
  std::string name;
  int64_t events;
  double seed_seconds;
  double new_seconds;
  double seed_eps() const { return static_cast<double>(events) / seed_seconds; }
  double new_eps() const { return static_cast<double>(events) / new_seconds; }
  double speedup() const { return seed_seconds / new_seconds; }
};

void RunComparisons() {
  std::vector<Comparison> rows;

  {
    const int64_t kHolds = 2'000'000;
    // Small sizes match the repo's real models (tens to hundreds of pending
    // events per Simulator); large ones probe cache behavior at scale.
    for (int64_t size : {16, 64, 256, 4096, 65536}) {
      Comparison c{"hold_model_" + std::to_string(size), size + kHolds, 0, 0};
      c.seed_seconds = TimeIt([&] { RunHoldModel<SeedEventQueue>(size, kHolds); });
      c.new_seconds = TimeIt([&] { RunHoldModel<wt::EventQueue>(size, kHolds); });
      rows.push_back(c);
    }
  }
  {
    const int64_t kEvents = 4'000'000;
    Comparison c{"chain_dispatch", kEvents, 0, 0};
    c.seed_seconds = TimeIt([&] { RunChain<SeedEventQueue>(kEvents); });
    c.new_seconds = TimeIt([&] { RunChain<wt::EventQueue>(kEvents); });
    rows.push_back(c);
  }
  {
    const int64_t kBatches = 200, kBatch = 10'000;
    Comparison c{"schedule_cancel_churn", kBatches * kBatch, 0, 0};
    c.seed_seconds =
        TimeIt([&] { RunCancelChurn<SeedEventQueue>(kBatches, kBatch); });
    c.new_seconds =
        TimeIt([&] { RunCancelChurn<wt::EventQueue>(kBatches, kBatch); });
    rows.push_back(c);
  }

  std::printf("E11: event-queue kernel, seed (shared_ptr + binary heap +\n"
              "std::function) vs current (slot pool + 4-ary indexed heap +\n"
              "InlineFn), same binary, same machine\n\n");
  std::printf("%-24s %-14s %-14s %-9s\n", "workload", "seed ev/s",
              "new ev/s", "speedup");
  for (const Comparison& c : rows) {
    std::printf("%-24s %-14.3g %-14.3g %-9.2f\n", c.name.c_str(), c.seed_eps(),
                c.new_eps(), c.speedup());
  }
  std::printf("\n\n");
}

// --- google-benchmark registrations for the live queue (profiling aid) ---

void BM_HoldModel(benchmark::State& state) {
  const int64_t size = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunHoldModel<wt::EventQueue>(size, size * 4));
  }
  state.SetItemsProcessed(state.iterations() * size * 4);
}
BENCHMARK(BM_HoldModel)->Arg(256)->Arg(4096)->Arg(65536);

void BM_CancelChurn(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunCancelChurn<wt::EventQueue>(4, 10000));
  }
  state.SetItemsProcessed(state.iterations() * 4 * 10000);
}
BENCHMARK(BM_CancelChurn);

}  // namespace

int BenchMain(wt::bench::BenchContext& ctx) {
  RunComparisons();
  benchmark::Initialize(&ctx.argc, ctx.argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
