// Bounds the heap allocations of a sweep's bookkeeping by overriding global
// operator new/delete in this test binary and counting. SweepConfigHash
// renders every point into one buffer, so hashing costs a few allocations
// per call, not several per value; Sweep moves each design point into its
// record instead of copying it, so what remains per point is building the
// point itself.
//
// tests/CMakeLists.txt builds one binary per test file, so the override is
// confined to this test.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "wt/core/orchestrator.h"

// Sanitizers interpose the global allocator themselves; replacing operator
// new under ASan/TSan would bypass their bookkeeping. The sweeps still run
// there — only the counting assertions are skipped (the release CI leg
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

int64_t Allocs() { return g_allocs.load(std::memory_order_relaxed); }

// benchsuite/sweep_fine.json's 1,280 points: 16 node counts x replication
// 1-5 x failures 0-7 x 2 placements, with its three fixed parameters.
DesignSpace SweepFineSpace() {
  std::vector<Value> nodes;
  for (int n = 10; n <= 40; n += 2) nodes.emplace_back(n);
  DesignSpace space;
  EXPECT_TRUE(space.AddDimension("nodes", nodes).ok());
  EXPECT_TRUE(space.AddDimension("replication", {1, 2, 3, 4, 5}).ok());
  EXPECT_TRUE(
      space.AddDimension("failures", {0, 1, 2, 3, 4, 5, 6, 7}).ok());
  EXPECT_TRUE(
      space.AddDimension("placement", {"random", "round_robin"}).ok());
  EXPECT_TRUE(space.AddDimension("placement_samples", {2}).ok());
  EXPECT_TRUE(space.AddDimension("trials", {20}).ok());
  EXPECT_TRUE(space.AddDimension("users", {200}).ok());
  return space;
}

TEST(SweepAllocTest, ConfigHashAllocatesPerCallNotPerPoint) {
  const std::vector<DesignPoint> points = SweepFineSpace().AllPoints();
  ASSERT_EQ(points.size(), 1280u);
  const std::vector<SlaConstraint> where = {
      {"p_any_unavailable", SlaOp::kAtMost, 0.2}};
  const int64_t before = Allocs();
  const std::string hash = SweepConfigHash(points, where);
  const int64_t allocs = Allocs() - before;
  EXPECT_EQ(hash, "5fa688586184d904");
  if (!kCounting) GTEST_SKIP() << "allocator counting disabled (sanitizer)";
  // A handful per call (the buffer, the constraint's text, the hex
  // result), none per point or value.
  EXPECT_LE(allocs, 32);
}

TEST(SweepAllocTest, SweepAllocatesAtMostTenPerPoint) {
  const DesignSpace space = SweepFineSpace();
  const RunFn no_metrics = [](const DesignPoint&,
                              RngStream&) -> Result<MetricMap> {
    return MetricMap{};
  };
  RunOrchestrator orch(SweepOptions{});
  // The first sweep in a process also collects the host facts of the
  // manifest, so a discarded sweep goes first.
  ASSERT_TRUE(orch.Sweep(space, no_metrics, {}, {}).ok());
  int64_t allocs = 0;
  {
    const int64_t before = Allocs();
    auto records = orch.Sweep(space, no_metrics, {}, {});
    allocs = Allocs() - before;
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    ASSERT_EQ(records->size(), 1280u);
  }
  if (!kCounting) GTEST_SKIP() << "allocator counting disabled (sanitizer)";
  // Building a point costs 8: 7 map nodes and a copy of the one dimension
  // name too long for the short-string buffer. Hashing the points and
  // handing them to their records must add nothing per point.
  EXPECT_LE(allocs, 10 * 1280) << allocs << " allocations for 1,280 points";
}

}  // namespace
}  // namespace wt
