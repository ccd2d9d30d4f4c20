// Tests for the observability plane (src/obs): per-rank breakdowns,
// critical-path attribution, what-if estimates, deterministic exporters,
// and the Chrome-trace escaping fix.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/machines.hpp"
#include "obs/breakdown.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "smpi/analysis/capture.hpp"
#include "smpi/simulation.hpp"
#include "smpi/trace.hpp"
#include "support/arena.hpp"

namespace bgp::obs {
namespace {

using arch::machineByName;
using smpi::Rank;
using smpi::Simulation;

// The 3-rank oracle workload: a chain with a known compute-only
// critical path.  r0: 1.0 s compute then a small (eager) send to r1;
// r1: 0.5 s compute, the matching recv, then 2.0 s compute; r2: 0.2 s
// of unrelated compute.  The compute-only (zero-network) makespan is
// exactly max(1.0, max(0.5, 1.0) + 2.0, 0.2) = 3.0.
sim::Task oracleProgram(Rank& self) {
  if (self.id() == 0) {
    co_await self.compute(1.0);
    co_await self.send(1, 256.0);
  } else if (self.id() == 1) {
    co_await self.compute(0.5);
    co_await self.recv(0);
    co_await self.compute(2.0);
  } else {
    co_await self.compute(0.2);
  }
}

// A small halo-plus-allreduce workload touching p2p (nonblocking, so
// overlap accounting runs), collectives, and call-site labels.
sim::Task haloProgram(Rank& self) {
  const int n = self.size();
  const int left = (self.id() + n - 1) % n;
  const int right = (self.id() + 1) % n;
  for (int iter = 0; iter < 4; ++iter) {
    std::vector<smpi::Request> ops;
    {
      SiteLabel site(self, "halo-exchange");
      ops.push_back(self.irecv(left));
      ops.push_back(self.irecv(right));
      ops.push_back(self.isend(left, 4096.0));
      ops.push_back(self.isend(right, 4096.0));
    }
    co_await self.compute(1e-5 * (1 + self.id() % 3));
    {
      SiteLabel site(self, "halo-wait");
      co_await self.waitAll(ops);
    }
    {
      SiteLabel site(self, "residual");
      co_await self.allreduce(8.0);
    }
  }
}

TEST(Obs, TracerEscapesHostileNames) {
  smpi::Tracer tracer;  // engine-less: explicit timestamps
  tracer.record(0, "a\"b\\c\nd\te\x01" "f", 0.0, 2e-6);
  tracer.counter(1, "link\"bytes", 1e-6, 42.5);
  std::ostringstream os;
  tracer.writeChromeJson(os);
  const std::string json = os.str();

  // Quotes, backslashes, newlines, tabs, and raw control bytes must all
  // come out escaped (the pre-fix exporter emitted them verbatim).
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd\\te\\u0001f"), std::string::npos)
      << json;
  for (char c : json) EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"value\":42.5"), std::string::npos) << json;
}

TEST(Obs, ProfilingDoesNotPerturbTheRun) {
  smpi::RunResult plain, profiled;
  {
    Simulation sim(machineByName("BG/P"), 8);
    plain = sim.run(haloProgram);
  }
  {
    Simulation sim(machineByName("BG/P"), 8);
    sim.enableProfile();
    profiled = sim.run(haloProgram);
  }
  // Bitwise: the hooks observe, they never schedule.
  EXPECT_EQ(plain.makespan, profiled.makespan);
  EXPECT_EQ(plain.events, profiled.events);
  ASSERT_EQ(plain.finishTimes.size(), profiled.finishTimes.size());
  for (std::size_t r = 0; r < plain.finishTimes.size(); ++r)
    EXPECT_EQ(plain.finishTimes[r], profiled.finishTimes[r]);
}

TEST(Obs, GoldenDeterminism) {
  auto runOnce = []() {
    Simulation sim(machineByName("BG/P"), 8);
    sim.enableProfile();
    sim.run(haloProgram);
    std::ostringstream os;
    writeJson(os, sim.profiler()->profile(), "halo");
    return os.str();
  };
  const std::string a = runOnce();
  const std::string b = runOnce();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\":\"bgp.obs.profile/1\""), std::string::npos);
}

TEST(Obs, OracleCriticalPathAndWhatIfs) {
  Simulation sim(machineByName("BG/P"), 3);
  sim.enableProfile();
  const auto result = sim.run(oracleProgram);
  const RunProfile& p = sim.profiler()->profile();

  ASSERT_TRUE(sim.profiler()->finalized());
  EXPECT_FALSE(p.truncated);
  EXPECT_EQ(p.nranks, 3);
  EXPECT_EQ(p.makespan, result.makespan);

  // Rank 1 drives the makespan: 0.5 + wait-for-message + 2.0.
  EXPECT_GT(result.makespan, 3.0);
  EXPECT_NEAR(p.ranks[0].compute, 1.0, 1e-12);
  EXPECT_NEAR(p.ranks[1].compute, 2.5, 1e-12);
  EXPECT_NEAR(p.ranks[2].compute, 0.2, 1e-12);

  // A complete path's length equals the measured makespan EXACTLY (it
  // is a single difference, not a float sum of segments).
  ASSERT_TRUE(p.critical.complete);
  EXPECT_EQ(p.critical.length, result.makespan);
  // The path runs through r1's trailing compute and r0's leading
  // compute: 3.0 s of the path is compute, the rest is the message.
  EXPECT_NEAR(p.critical.compute, 3.0, 1e-12);

  // Zero-network what-if == the independently known compute-only
  // makespan; zero-compute == the message's measured flight time.
  ASSERT_TRUE(p.whatIf.valid);
  EXPECT_EQ(p.whatIf.measured, result.makespan);
  EXPECT_DOUBLE_EQ(p.whatIf.zeroNetwork, 3.0);
  EXPECT_NEAR(p.whatIf.zeroCompute, result.makespan - 3.0, 1e-12);

  EXPECT_TRUE(selfCheck(p).empty());
}

TEST(Obs, BreakdownSumsToMakespanTimesRanks) {
  Simulation sim(machineByName("BG/P"), 16);
  sim.enableProfile();
  const auto result = sim.run(haloProgram);
  const RunProfile& p = sim.profiler()->profile();

  ASSERT_EQ(p.nranks, 16);
  double sum = 0.0;
  for (const RankBreakdown& r : p.ranks)
    sum += r.compute + r.p2pBlocked + r.collBlocked + r.idle;
  const double expected = result.makespan * 16;
  EXPECT_NEAR(sum, expected, 1e-3 * expected);  // acceptance: 0.1%
  EXPECT_NEAR(p.computeTotal + p.p2pBlockedTotal + p.collBlockedTotal +
                  p.idleTotal,
              expected, 1e-3 * expected);

  // The labeled sites made it into the mpiP-style aggregation.
  bool sawWait = false, sawResidual = false;
  for (const SiteStats& s : p.sites) {
    if (s.site == "halo-wait") sawWait = true;
    if (s.site == "residual" && s.op == "allreduce") sawResidual = true;
  }
  EXPECT_TRUE(sawWait);
  EXPECT_TRUE(sawResidual);

  // Network counters saw the halo traffic.
  EXPECT_GT(p.net.bytesOnLinks + p.net.shmBytes, 0.0);
  EXPECT_FALSE(p.colls.empty());
  EXPECT_TRUE(selfCheck(p).empty());
}

TEST(Obs, SummarizeStatsMatchesSimulationProfile) {
  Simulation sim(machineByName("BG/P"), 8);
  sim.run(haloProgram);
  const Simulation::Profile p = sim.profile();
  std::vector<smpi::RankStats> stats;
  for (int r = 0; r < 8; ++r) stats.push_back(sim.rankStats(r));
  const StatsSummary s = summarizeStats(stats.data(), stats.size());
  EXPECT_EQ(s.sends, p.sends);
  EXPECT_EQ(s.collectives, p.collectives);
  EXPECT_EQ(s.bytesSent, p.bytesSent);
  EXPECT_EQ(s.computeSeconds, p.computeSeconds);
  EXPECT_EQ(s.p2pWaitSeconds, p.p2pWaitSeconds);
  EXPECT_EQ(s.collWaitSeconds, p.collWaitSeconds);
  EXPECT_EQ(s.computeImbalance, p.computeImbalance);
  EXPECT_EQ(s.commFraction, p.commFraction);
}

TEST(Obs, ProfileScopeCapturesConstructedSimulations) {
  ProfileScope scope;
  {
    Simulation sim(machineByName("BG/P"), 4);
    sim.run(haloProgram);
  }
  ASSERT_EQ(scope.profilers().size(), 1u);
  ASSERT_TRUE(scope.profilers()[0]->finalized());
  const RunProfile& p = scope.profilers()[0]->profile();
  EXPECT_EQ(p.nranks, 4);
  EXPECT_TRUE(selfCheck(p).empty());
}

// Profiling records its own happens-before facts: it builds no capture,
// and a capture that runs out of budget under the same Simulation (as a
// CaptureScope with a one-node budget does) leaves the profile whole.
TEST(Obs, ProfileIsIndependentOfCapture) {
  const auto profiledJson = [] {
    Simulation sim(machineByName("BG/P"), 8);
    sim.enableProfile();
    if (!smpi::analysis::CaptureScope::active()) {
      EXPECT_EQ(sim.capture(), nullptr);
    }
    sim.run(haloProgram);
    std::ostringstream os;
    writeJson(os, sim.profiler()->profile(), "halo");
    return os.str();
  };
  const std::string alone = profiledJson();
  std::string underScope;
  {
    smpi::analysis::CaptureScope scope(smpi::analysis::CaptureOptions{1});
    underScope = profiledJson();
    ASSERT_EQ(scope.captures().size(), 1u);
    EXPECT_TRUE(scope.captures()[0]->graph().truncated());
  }
  EXPECT_NE(alone.find("\"truncated\":false"), std::string::npos);
  EXPECT_EQ(underScope, alone);
}

// Each rank sends, then waits for a tag nobody sends: a deadlock.
sim::Task deadlockProgram(Rank& self) {
  const int peer = 1 - self.id();
  co_await self.send(peer, 64.0, /*tag=*/0);
  co_await self.recv(peer, /*tag=*/1);
}

// A profiled run that throws never reaches finalize().  The profiler must
// still hold none of its ops: they belong to the arena of the thread that
// ran the Simulation, while the process-global scope that owns the
// profiler dies on another thread.
TEST(Obs, FailedProfiledRunLeavesEveryArenaBalanced) {
  support::Arena& mainArena = support::threadArena();
  const std::uint64_t mainBefore = mainArena.liveBlocks();
  std::uint64_t workerBefore = 0;
  std::uint64_t workerAfter = 0;
  bool deadlocked = false;
  {
    ProfileScope scope;
    std::thread worker([&] {
      workerBefore = support::threadArena().liveBlocks();
      {
        Simulation sim(machineByName("BG/P"), 2);
        try {
          sim.run(deadlockProgram);
        } catch (const DeadlockError&) {
          deadlocked = true;
        } catch (...) {  // any other failure leaves `deadlocked` false
        }
      }
      workerAfter = support::threadArena().liveBlocks();
    });
    worker.join();
    ASSERT_EQ(scope.profilers().size(), 1u);
    EXPECT_FALSE(scope.profilers()[0]->finalized());
  }
  EXPECT_TRUE(deadlocked);
  EXPECT_EQ(workerAfter, workerBefore);
  EXPECT_EQ(mainArena.liveBlocks(), mainBefore);
}

}  // namespace
}  // namespace bgp::obs
