// Proves the wt::obs "never observed, never paid" contract by counting
// global operator new/delete calls (same pattern as event_queue_alloc_test):
// with metrics and tracing disabled, an AttachDefaultObs'd simulator's
// dispatch loop, trace macros, and *IfEnabled helpers must not touch the
// heap — the PR-2 zero-allocation steady state survives the instrumentation.
//
// tests/CMakeLists.txt builds one binary per test file, so the override is
// confined to this test.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "wt/obs/metrics.h"
#include "wt/obs/trace.h"
#include "wt/sim/simulator.h"
#include "wt/sim/time.h"

// Sanitizers interpose the global allocator themselves; replacing operator
// new under ASan/TSan would bypass their bookkeeping. The functional parts
// of these tests still run there — only the counting assertions are
// skipped (the release CI leg enforces them).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define WT_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define WT_ALLOC_COUNTING 0
#endif
#endif
#ifndef WT_ALLOC_COUNTING
#define WT_ALLOC_COUNTING 1
#endif

namespace {

std::atomic<int64_t> g_allocs{0};
std::atomic<int64_t> g_frees{0};

}  // namespace

#if WT_ALLOC_COUNTING
// Full replacement set. Each overload counts and calls malloc/free directly
// (no delegation between overloads: GCC's -Wmismatched-new-delete flags
// e.g. operator delete[] forwarding to operator delete).
namespace {
void* CountedAlloc(std::size_t size) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void CountedFree(void* p) noexcept {
  g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
#endif  // WT_ALLOC_COUNTING

namespace wt {
namespace {

int64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

#if WT_ALLOC_COUNTING
constexpr bool kCounting = true;
#else
constexpr bool kCounting = false;
#endif

TEST(ObsAllocTest, DisabledInstrumentedSimulatorIsAllocationFree) {
  ASSERT_FALSE(obs::MetricsEnabled());
  ASSERT_FALSE(obs::TraceEmitter::Default().active());

  Simulator sim;
  sim.Reserve(16);
  sim.AttachDefaultObs();  // both sinks off: attaches nothing

  struct Ticker {
    Simulator* sim;
    int64_t remaining;
    void Tick() {
      if (--remaining > 0) {
        sim->Schedule(SimTime::Nanos(10), [this] { Tick(); });
      }
    }
  };
  Ticker t{&sim, 2000};
  sim.Schedule(SimTime::Nanos(10), [&t] { t.Tick(); });
  // Warm-up: first ~1000 ticks may grow pool/heap vectors to steady state.
  sim.RunUntil(SimTime::Nanos(10 * 1000));

  int64_t before = AllocCount();
  sim.Run();
  int64_t after = AllocCount();

  EXPECT_EQ(t.remaining, 0);
  EXPECT_EQ(after - before, 0)
      << "disabled observability allocated " << (after - before)
      << " times across ~1000 events";
}

TEST(ObsAllocTest, DisabledMacrosAndHelpersAreAllocationFree) {
  ASSERT_FALSE(obs::MetricsEnabled());
  ASSERT_FALSE(obs::TraceEmitter::Default().active());

  int64_t before = AllocCount();
  for (int i = 0; i < 10000; ++i) {
    WT_TRACE_SCOPE("test", "span");
    WT_TRACE_SCOPE_ARG("test", "span_arg", "i", i);
    WT_TRACE_INSTANT_ARG("test", "instant", "i", i);
    obs::CountIfEnabled("test.count", 1);
    obs::GaugeSetIfEnabled("test.gauge", i);
    obs::GaugeMaxIfEnabled("test.gauge_max", i);
    obs::LatencyIfEnabled("test.latency", 1.0);
  }
  int64_t after = AllocCount();
  EXPECT_EQ(after - before, 0)
      << "disabled obs sites allocated " << (after - before) << " times";
}

TEST(ObsAllocTest, EnabledRegistrationAllocatesExactlyAsExpected) {
  // Sanity-check the counter itself: registering a new instrument while
  // enabled must allocate, proving the zeros above are real measurements.
  if (!kCounting) GTEST_SKIP() << "allocator counting disabled (sanitizer)";
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  reg.set_enabled(true);
  int64_t before = AllocCount();
  obs::CountIfEnabled("test.enabled_registers", 1);
  int64_t after = AllocCount();
  reg.set_enabled(false);
  EXPECT_GT(after - before, 0);

  // Hot-loop form: a cached instrument pointer is allocation-free even when
  // enabled.
  reg.set_enabled(true);
  obs::Counter* c = reg.GetCounter("test.enabled_registers");
  before = AllocCount();
  for (int i = 0; i < 10000; ++i) c->Add();
  after = AllocCount();
  reg.set_enabled(false);
  EXPECT_EQ(after - before, 0);
  EXPECT_EQ(c->value(), 10001);
}

TEST(ObsAllocTest, ActiveTracingSteadyStateIsAllocationFree) {
  if (!kCounting) GTEST_SKIP() << "allocator counting disabled (sanitizer)";
  obs::TraceEmitter& t = obs::TraceEmitter::Default();
  t.Start(/*capacity_per_thread=*/1 << 12);
  // First event registers this thread's buffer (allocates once); steady
  // state afterwards is append-only into the reserved vector.
  t.Instant("test", "warmup", nullptr, 0);
  int64_t before = AllocCount();
  for (int i = 0; i < 1000; ++i) {
    WT_TRACE_SCOPE_ARG("test", "steady", "i", i);
  }
  t.Instant("test", "steady_instant", nullptr, 0);
  int64_t after = AllocCount();
  t.Stop();
  EXPECT_EQ(after - before, 0)
      << "active tracing allocated " << (after - before)
      << " times in steady state";
}

}  // namespace
}  // namespace wt
