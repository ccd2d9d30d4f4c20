// Memory-footprint regression gates for paper-scale worlds: an idle
// 65,536-rank VN world and a 16,384-rank world mid-halo must each stay
// under a recorded per-rank budget, and the per-operation records must
// keep their compact layout.  These are the tests that keep the runtime's
// per-rank and per-op state from quietly growing back to where 131,072
// ranks no longer fit in memory (the arena, the SoA rank state, the O(1)
// match table and the compact op lifecycle exist to keep these numbers
// small — see docs/performance.md).

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "arch/machines.hpp"
#include "net/system.hpp"
#include "sim/engine.hpp"
#include "smpi/simulation.hpp"
#include "topo/process_grid.hpp"

#if defined(__unix__)
#include <unistd.h>
#endif

namespace {

constexpr bool kSanitized =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

/// Resident set size in bytes via /proc/self/statm; -1 when unavailable
/// (non-Linux), which skips the test.
long residentBytes() {
#if defined(__unix__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (!f) return -1;
  long totalPages = 0, residentPages = 0;
  const int got = std::fscanf(f, "%ld %ld", &totalPages, &residentPages);
  std::fclose(f);
  if (got != 2) return -1;
  return residentPages * sysconf(_SC_PAGESIZE);
#else
  return -1;
#endif
}

// Layout gates: an OpState fills one 64-byte arena granule, and a pending
// event is a 32-byte slot (half a cache line).
static_assert(sizeof(bgp::smpi::OpState) <= 64,
              "OpState outgrew one arena granule");
static_assert(bgp::sim::Engine::slotBytes() == 32,
              "engine event slot is no longer 32 bytes");

bgp::net::SystemOptions vnOptions() {
  bgp::net::SystemOptions o;
  o.mode = bgp::arch::ExecMode::VN;
  return o;
}

}  // namespace

TEST(MemoryFootprint, IdleWorldStaysUnderPerRankBudget) {
  if (kSanitized)
    GTEST_SKIP() << "sanitizer redzones/shadow inflate RSS; measured only "
                    "in plain builds";
  const long before = residentBytes();
  if (before < 0) GTEST_SKIP() << "/proc/self/statm unavailable";

  constexpr int kRanks = 65536;
  // Recorded budget: the runtime measures ~164 bytes/rank here (thin Rank
  // handles + SoA stats + match-table arrival heads).  The budget
  // leaves ~2x headroom for allocator noise; a regression past it means
  // per-rank state crept back in — reject it, 131,072-rank worlds are
  // the point.
  constexpr double kBudgetBytesPerRank = 320.0;

  auto sim = std::make_unique<bgp::smpi::Simulation>(
      bgp::arch::machineByName("BG/P"), kRanks, vnOptions());
  ASSERT_EQ(sim->nranks(), kRanks);

  const long after = residentBytes();
  ASSERT_GE(after, 0);
  const double perRank =
      static_cast<double>(after - before) / static_cast<double>(kRanks);
  RecordProperty("bytes_per_rank", static_cast<int>(perRank));
  std::printf("[ footprint ] idle %d-rank world: %.0f bytes/rank "
              "(budget %.0f)\n",
              kRanks, perRank, kBudgetBytesPerRank);
  EXPECT_LT(perRank, kBudgetBytesPerRank)
      << "per-rank memory of an idle world regressed past the recorded "
         "budget";
}

TEST(MemoryFootprint, RunningHaloWorldStaysUnderPerRankBudget) {
  if (kSanitized)
    GTEST_SKIP() << "sanitizer redzones/shadow inflate RSS; measured only "
                    "in plain builds";
  const long before = residentBytes();
  if (before < 0) GTEST_SKIP() << "/proc/self/statm unavailable";

  // fig2's two-phase ISEND/IRECV halo on a 128x128 grid: one eager rep
  // (64 words) and one rendezvous rep (1024 words), so the peak holds
  // coroutine frames, OpStates, pending events, ladder buckets and
  // matching nodes all at once.
  constexpr int kSide = 128;
  constexpr int kRanks = kSide * kSide;
  // Recorded budget: the runtime measures ~1,466 bytes/rank here (64-B
  // OpStates, 32-B event slots, a match table of live keys and generated
  // routes; the 128-B OpState / 64-B slot layout before it measured
  // ~2,520, the shared_ptr-based op lifecycle ~4,460).  The budget leaves
  // 1.35x headroom for allocator noise and still rejects the old layout.
  constexpr double kBudgetBytesPerRank = 1980.0;

  const bgp::topo::ProcessGrid2D grid(kSide, kSide);
  auto sim = std::make_unique<bgp::smpi::Simulation>(
      bgp::arch::machineByName("BG/P"), kRanks, vnOptions());
  const bgp::smpi::RunResult result =
      sim->run([&grid](bgp::smpi::Rank& self) -> bgp::sim::Task {
        const auto north = static_cast<int>(grid.north(self.id()));
        const auto south = static_cast<int>(grid.south(self.id()));
        const auto west = static_cast<int>(grid.west(self.id()));
        const auto east = static_cast<int>(grid.east(self.id()));
        for (int rep = 0; rep < 2; ++rep) {
          const int words = rep == 0 ? 64 : 1024;
          const double n1 = words * 4.0;
          const double n2 = 2.0 * n1;
          std::vector<bgp::smpi::Request> ns;
          ns.push_back(self.irecv(south, 10));
          ns.push_back(self.irecv(north, 11));
          ns.push_back(self.isend(north, n1, 10));
          ns.push_back(self.isend(south, n2, 11));
          co_await self.waitAll(std::move(ns));
          std::vector<bgp::smpi::Request> ew;
          ew.push_back(self.irecv(east, 12));
          ew.push_back(self.irecv(west, 13));
          ew.push_back(self.isend(west, n1, 12));
          ew.push_back(self.isend(east, n2, 13));
          co_await self.waitAll(std::move(ew));
        }
      });
  ASSERT_GT(result.makespan, 0.0);

  const long after = residentBytes();  // before teardown: the run's peak
  ASSERT_GE(after, 0);
  const double perRank =
      static_cast<double>(after - before) / static_cast<double>(kRanks);
  RecordProperty("bytes_per_rank", static_cast<int>(perRank));
  std::printf("[ footprint ] running %d-rank halo world: %.0f bytes/rank "
              "(budget %.0f)\n",
              kRanks, perRank, kBudgetBytesPerRank);
  EXPECT_LT(perRank, kBudgetBytesPerRank)
      << "per-rank memory of a running halo world regressed past the "
         "recorded budget";
}
