// Unit tests for the ScratchPool arena behind the hot-path allocations
// (Conv2d im2col, engine psum tiles). Pins the three properties layer and
// engine code rely on: buffers are actually reused across calls, lanes
// get isolated pools under parallel_map, and concurrent checkouts from
// one pool never alias.

#include "util/scratch_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"

namespace iprune::util {
namespace {

TEST(ScratchPool, ReusesBufferAcrossSequentialCheckouts) {
  ScratchPool pool;
  const float* first_ptr = nullptr;
  {
    auto a = pool.acquire<float>(256);
    a.fill(1.0f);
    first_ptr = a.data();
    EXPECT_EQ(256u, a.size());
    EXPECT_EQ(1u, pool.outstanding());
    EXPECT_EQ(1u, pool.allocations());
    EXPECT_EQ(0u, pool.reuses());
  }
  EXPECT_EQ(0u, pool.outstanding());
  EXPECT_EQ(1u, pool.free_buffers());

  auto b = pool.acquire<float>(256);
  EXPECT_EQ(first_ptr, b.data()) << "same-size re-acquire must recycle";
  EXPECT_EQ(1u, pool.reuses());
  EXPECT_EQ(1u, pool.allocations());
}

TEST(ScratchPool, SmallerRequestReusesLargerBuffer) {
  ScratchPool pool;
  { auto a = pool.acquire<std::int32_t>(1024); (void)a; }
  auto b = pool.acquire<std::int32_t>(100);
  EXPECT_EQ(100u, b.size());
  EXPECT_EQ(1u, pool.reuses());
  EXPECT_EQ(1u, pool.allocations());
}

TEST(ScratchPool, RegrownCheckoutHandsBackPreviousBytes) {
  // Contents are uninitialized, not zeroed: a buffer checked out small
  // and then large again must come back with the lane's own bytes. A pool
  // that sizes its vectors down and up again zero-fills the regrown tail
  // on every such checkout.
  ScratchPool pool;
  {
    auto a = pool.acquire<std::uint32_t>(256);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = 0xA5A5A5A5u ^ static_cast<std::uint32_t>(i);
    }
  }
  { auto small = pool.acquire<std::uint32_t>(16); (void)small; }
  auto b = pool.acquire<std::uint32_t>(256);
  EXPECT_EQ(1u, pool.allocations());
  EXPECT_EQ(2u, pool.reuses());
  for (std::size_t i = 0; i < b.size(); ++i) {
    ASSERT_EQ(0xA5A5A5A5u ^ static_cast<std::uint32_t>(i), b[i])
        << "element " << i;
  }
}

TEST(ScratchPool, BestFitPrefersSmallestAdequateBuffer) {
  ScratchPool pool;
  const std::byte* small_ptr = nullptr;
  const std::byte* big_ptr = nullptr;
  {
    auto big = pool.acquire<std::byte>(4096);
    auto small = pool.acquire<std::byte>(512);
    big_ptr = big.data();
    small_ptr = small.data();
  }
  ASSERT_EQ(2u, pool.free_buffers());
  // A 300-byte request fits both; best-fit must hand back the 512er.
  auto c = pool.acquire<std::byte>(300);
  EXPECT_EQ(small_ptr, c.data());
  // The next request gets the big one even though it is oversized.
  auto d = pool.acquire<std::byte>(300);
  EXPECT_EQ(big_ptr, d.data());
  EXPECT_EQ(2u, pool.reuses());
}

TEST(ScratchPool, ConcurrentCheckoutsNeverAlias) {
  ScratchPool pool;
  // Warm the free list so later checkouts are reuse-path, then hold
  // several live checkouts at once and verify the byte ranges are
  // pairwise disjoint.
  {
    auto w1 = pool.acquire<float>(64);
    auto w2 = pool.acquire<float>(64);
    (void)w1;
    (void)w2;
  }
  auto a = pool.acquire<float>(64);
  auto b = pool.acquire<float>(64);
  auto c = pool.acquire<float>(32);
  EXPECT_EQ(3u, pool.outstanding());
  struct Range {
    const char* lo;
    const char* hi;
  };
  const Range ranges[] = {
      {reinterpret_cast<const char*>(a.data()),
       reinterpret_cast<const char*>(a.data() + a.size())},
      {reinterpret_cast<const char*>(b.data()),
       reinterpret_cast<const char*>(b.data() + b.size())},
      {reinterpret_cast<const char*>(c.data()),
       reinterpret_cast<const char*>(c.data() + c.size())},
  };
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = i + 1; j < 3; ++j) {
      const bool disjoint = ranges[i].hi <= ranges[j].lo ||
                            ranges[j].hi <= ranges[i].lo;
      EXPECT_TRUE(disjoint) << "checkouts " << i << " and " << j << " alias";
    }
  }
  // Writes through one handle must not show through another.
  a.fill(1.0f);
  b.fill(2.0f);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(1.0f, a[i]);
  }
}

TEST(ScratchPool, PerLaneIsolationUnderParallelMap) {
  // Every lane (caller + workers) must see its own ScratchPool::local().
  // With 2 lanes and tasks that hold a live checkout while recording
  // their pool identity, a shared pool would show aliasing or a shared
  // address; lane-local pools show one pool per participating thread.
  runtime::ThreadPool pool(2);
  ASSERT_EQ(2u, pool.lanes());

  std::mutex mu;
  std::set<const ScratchPool*> pools_seen;
  std::set<std::thread::id> threads_seen;
  const auto results =
      runtime::parallel_map(pool, 64, [&](std::size_t index) {
        auto scratch = ScratchPool::local().acquire<std::uint64_t>(128);
        scratch.fill(index);
        // Hold the checkout across a second acquire to exercise reuse
        // bookkeeping inside the lane.
        auto scratch2 = ScratchPool::local().acquire<std::uint64_t>(32);
        scratch2.fill(~index);
        {
          std::lock_guard<std::mutex> lock(mu);
          pools_seen.insert(&ScratchPool::local());
          threads_seen.insert(std::this_thread::get_id());
        }
        // The lane's own writes must be intact (no cross-lane clobber).
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < scratch.size(); ++i) {
          sum += scratch[i];
        }
        return sum;
      });

  ASSERT_EQ(64u, results.size());
  for (std::size_t index = 0; index < results.size(); ++index) {
    EXPECT_EQ(index * 128, results[index]) << "index " << index;
  }
  // One distinct pool per distinct thread that ran tasks.
  EXPECT_EQ(threads_seen.size(), pools_seen.size());
  EXPECT_GE(pools_seen.size(), 1u);
  EXPECT_LE(pools_seen.size(), 2u);
}

TEST(ScratchPool, MoveTransfersOwnership) {
  ScratchPool pool;
  auto a = pool.acquire<float>(16);
  float* ptr = a.data();
  a.fill(3.0f);
  Scratch<float> b = std::move(a);
  EXPECT_EQ(ptr, b.data());
  EXPECT_EQ(16u, b.size());
  EXPECT_EQ(3.0f, b[7]);
  EXPECT_EQ(1u, pool.outstanding()) << "move must not double-count";
  b.release();
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(0u, pool.outstanding());
  EXPECT_EQ(1u, pool.free_buffers());
}

TEST(ScratchPool, TrimAndEvictionBoundTheFreeList) {
  ScratchPool pool;
  {
    std::vector<Scratch<std::byte>> live;
    for (std::size_t i = 0; i < ScratchPool::kMaxFreeBuffers + 8; ++i) {
      live.push_back(pool.acquire<std::byte>(64 * (i + 1)));
    }
  }
  // Returning more buffers than the cap must not grow the list past it.
  EXPECT_LE(pool.free_buffers(), ScratchPool::kMaxFreeBuffers);
  EXPECT_GE(pool.free_buffers(), 1u);
  pool.trim();
  EXPECT_EQ(0u, pool.free_buffers());
  // Pool still works after trim.
  auto again = pool.acquire<float>(8);
  again.fill(0.0f);
  EXPECT_EQ(1u, pool.outstanding());
}

TEST(ScratchPool, ZeroCountCheckoutIsSafe) {
  ScratchPool pool;
  auto a = pool.acquire<float>(0);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(0u, a.size());
  a.release();
  EXPECT_EQ(0u, pool.outstanding());
}

}  // namespace
}  // namespace iprune::util
