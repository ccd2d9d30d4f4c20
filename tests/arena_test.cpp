// Tests for the thread-local bump/free-list arena (support/arena.hpp):
// size-class rounding, LIFO reuse, and large-block passthrough.

#include "support/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

using bgp::support::Arena;

TEST(Arena, ReusesFreedBlockLifo) {
  Arena a;
  void* p = a.allocate(64);
  a.deallocate(p, 64);
  void* q = a.allocate(64);
  EXPECT_EQ(p, q);  // the free list is LIFO: last freed comes back first
  a.deallocate(q, 64);
  EXPECT_EQ(a.liveBlocks(), 0u);
}

TEST(Arena, RoundsUpWithinSizeClass) {
  Arena a;
  // 1 and 64 bytes share class 0, so a freed 64-byte block satisfies a
  // 1-byte request; 65 bytes lands in class 1 and must not.
  void* p = a.allocate(64);
  a.deallocate(p, 64);
  void* q = a.allocate(1);
  EXPECT_EQ(p, q);
  void* r = a.allocate(65);
  EXPECT_NE(p, r);
  a.deallocate(q, 1);
  a.deallocate(r, 65);
  EXPECT_EQ(a.liveBlocks(), 0u);
}

TEST(Arena, LargeBlocksPassThrough) {
  Arena a;
  void* p = a.allocate(Arena::kMaxSmall + 1);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xab, Arena::kMaxSmall + 1);  // must be writable
  EXPECT_EQ(a.liveBlocks(), 0u);     // not tracked by the arena
  EXPECT_EQ(a.reservedBytes(), 0u);  // no chunk was carved
  a.deallocate(p, Arena::kMaxSmall + 1);
}

TEST(Arena, BlocksAreMaxAligned) {
  Arena a;
  for (std::size_t n : {1u, 48u, 64u, 200u, 4096u}) {
    void* p = a.allocate(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % alignof(std::max_align_t),
              0u)
        << "n=" << n;
    a.deallocate(p, n);
  }
}

TEST(Arena, ManyBlocksAreDistinctAndWritable) {
  Arena a;
  constexpr int kCount = 10000;  // > one 256 KiB chunk of 64-byte granules
  std::vector<void*> ps;
  std::set<void*> seen;
  for (int i = 0; i < kCount; ++i) {
    void* p = a.allocate(64);
    std::memset(p, i & 0xff, 64);
    ps.push_back(p);
    EXPECT_TRUE(seen.insert(p).second) << "duplicate block at i=" << i;
  }
  EXPECT_EQ(a.liveBlocks(), static_cast<std::uint64_t>(kCount));
  EXPECT_GT(a.reservedBytes(), Arena::kChunkBytes);
  for (void* p : ps) a.deallocate(p, 64);
  EXPECT_EQ(a.liveBlocks(), 0u);
  // Everything freed: a fresh allocation burst reuses the same chunks.
  const std::size_t reserved = a.reservedBytes();
  for (int i = 0; i < kCount; ++i) ps[i] = a.allocate(64);
  EXPECT_EQ(a.reservedBytes(), reserved);
  for (void* p : ps) a.deallocate(p, 64);
}

TEST(Arena, MixedSizeClassesDoNotCrossContaminate) {
  Arena a;
  void* small = a.allocate(64);
  void* mid = a.allocate(640);
  a.deallocate(small, 64);
  a.deallocate(mid, 640);
  // Each class only recycles its own blocks.
  EXPECT_EQ(a.allocate(640), mid);
  EXPECT_EQ(a.allocate(64), small);
  a.deallocate(small, 64);
  a.deallocate(mid, 640);
  EXPECT_EQ(a.liveBlocks(), 0u);
}
