// Proves the queueing-network simulation's request path is allocation-free
// by overriding global operator new/delete in this test binary and counting
// the allocations of whole RunPerfSim calls. Set-up (resource queues, the
// event pool, Zipf tables, result histograms) allocates a bounded number of
// times per run; a request allocates nothing: ResourceQueue keeps callbacks
// in per-server slots and a waiting ring, and perf_sim recycles one buffer
// for a write's live replicas and a slab of write joins. Only high-water
// growth of those remains, so a tenfold longer run may add a few dozen
// allocations, never one per request.
//
// tests/CMakeLists.txt builds one binary per test file, so the override is
// confined to this test.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "wt/sim/distributions.h"
#include "wt/workload/perf_sim.h"

// Sanitizers interpose the global allocator themselves; replacing operator
// new under ASan/TSan would bypass their bookkeeping. The simulations still
// run there — only the counting assertions are skipped (the release CI leg
// enforces them).
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

}  // namespace

#if WT_ALLOC_COUNTING
// Full replacement set. Each overload calls malloc/free directly (no
// delegation between overloads: GCC's -Wmismatched-new-delete flags e.g.
// operator delete[] forwarding to operator delete); the new overloads
// count.
namespace {
void* CountedAlloc(std::size_t size) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void Free(void* p) noexcept { std::free(p); }
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
void operator delete(void* p) noexcept { Free(p); }
void operator delete[](void* p) noexcept { Free(p); }
void operator delete(void* p, std::size_t) noexcept { Free(p); }
void operator delete[](void* p, std::size_t) noexcept { Free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { Free(p); }
#endif  // WT_ALLOC_COUNTING

namespace wt {
namespace {

#if WT_ALLOC_COUNTING
constexpr bool kCounting = true;
#else
constexpr bool kCounting = false;
#endif

struct PerfRunAllocs {
  int64_t allocs = 0;
  int64_t completed = 0;
};

// The shape of scenarios/e9_limpware.json: 4 nodes with 8 cores, 2 disks
// and 1 Gbps NICs, replication 3, a 400 req/s workload of 256 KB requests
// (95% reads, Zipf 0.6), and node 0's NIC limping at `limp` from t = 0. At
// limp 0.01 that NIC serves about 5 requests/s against about 100 arriving,
// so its waiting ring and the write slab grow all run long. Counts the
// allocations of the RunPerfSim call and the destruction of its result.
PerfRunAllocs RunE9Shape(double limp, double duration_s) {
  PerfSimConfig config;
  config.num_nodes = 4;
  config.cores_per_node = 8;
  config.disks_per_node = 2;
  config.nic_gbps = 1.0;
  config.replication = 3;
  config.duration_s = duration_s;
  config.warmup_s = duration_s / 10.0;
  config.seed = 4242;
  std::vector<PerfWorkloadSpec> specs(1);
  specs[0].name = "primary";
  specs[0].arrival_rate = 400.0;
  specs[0].read_fraction = 0.95;
  specs[0].zipf_s = 0.6;
  specs[0].request_bytes = 256.0 * 1024.0;
  specs[0].disk_service_s = std::make_unique<ExponentialDist>(1000.0 / 2.0);
  specs[0].cpu_service_s = std::make_unique<ExponentialDist>(1000.0 / 0.5);
  DegradeEvent limping;
  limping.node = 0;
  limping.resource = DegradeEvent::Resource::kNic;
  limping.perf_factor = limp;
  const std::vector<DegradeEvent> degrades = {limping};

  PerfRunAllocs out;
  const int64_t before = g_allocs.load(std::memory_order_relaxed);
  {
    auto result = RunPerfSim(config, specs, {}, degrades);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (result.ok()) out.completed = result->workloads.at("primary").completed;
  }
  out.allocs = g_allocs.load(std::memory_order_relaxed) - before;
  return out;
}

// The limp factors of E9's grid at both ends: a hundredfold slow NIC and a
// healthy one.
constexpr double kLimpFactors[] = {0.01, 1.0};

TEST(PerfSimAllocTest, E9ShapedRunAllocatesOnlyForSetUp) {
  for (double limp : kLimpFactors) {
    SCOPED_TRACE(testing::Message() << "limp " << limp);
    const PerfRunAllocs run = RunE9Shape(limp, 600.0);
    // 215k-221k requests complete after the warm-up at either limp
    // factor: the slow NIC's backlog drains before the run returns.
    EXPECT_GT(run.completed, 200000);
    if (!kCounting) continue;
    // Set-up allocates, so zero would mean a broken counter.
    EXPECT_GT(run.allocs, 0);
    EXPECT_LT(run.allocs, 1000)
        << run.allocs << " allocations for " << run.completed << " requests";
  }
  if (!kCounting) GTEST_SKIP() << "allocator counting disabled (sanitizer)";
}

TEST(PerfSimAllocTest, TenfoldLongerRunAddsOnlyHighWaterGrowth) {
  // The first run in a process also allocates process-wide statics, so a
  // discarded run goes first.
  (void)RunE9Shape(1.0, 60.0);
  for (double limp : kLimpFactors) {
    SCOPED_TRACE(testing::Message() << "limp " << limp);
    const PerfRunAllocs short_run = RunE9Shape(limp, 60.0);
    const PerfRunAllocs long_run = RunE9Shape(limp, 600.0);
    EXPECT_GT(long_run.completed, 9 * short_run.completed);
    if (!kCounting) continue;
    EXPECT_LE(long_run.allocs, short_run.allocs + 64)
        << "60 s run " << short_run.allocs << " allocations, 600 s run "
        << long_run.allocs;
  }
  if (!kCounting) GTEST_SKIP() << "allocator counting disabled (sanitizer)";
}

}  // namespace
}  // namespace wt
