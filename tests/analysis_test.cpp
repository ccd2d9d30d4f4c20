// Oracle tests for the schedule-independent communication analyzer
// (src/smpi/analysis): seeded defects the passes MUST flag, and clean
// deterministic programs they MUST stay silent on.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "arch/machines.hpp"
#include "smpi/analysis/capture.hpp"
#include "smpi/analysis/passes.hpp"
#include "smpi/analysis/scenarios.hpp"
#include "smpi/simulation.hpp"
#include "support/expect.hpp"

namespace {

using namespace bgp;
using namespace bgp::smpi;
using namespace bgp::smpi::analysis;

Report captureAndAnalyze(int nranks, const RankProgram& program,
                         bool expectThrow = false) {
  CaptureScope scope;
  Simulation sim(arch::makeBGP(), nranks);
  if (expectThrow) {
    EXPECT_ANY_THROW(sim.run(program));
  } else {
    sim.run(program);
  }
  return analyze(*scope.graphs().front());
}

bool hasPass(const Report& report, const std::string& pass) {
  return std::any_of(report.findings.begin(), report.findings.end(),
                     [&](const Finding& f) { return f.pass == pass; });
}

const Finding& findingOf(const Report& report, const std::string& pass) {
  for (const Finding& f : report.findings)
    if (f.pass == pass) return f;
  BGP_FAIL("no finding from pass " + pass);
}

// ---- seeded wildcard race ---------------------------------------------------
//
// Rank 0 posts two ANY_SOURCE receives; ranks 1 and 2 each send one
// message with nothing ordering them.  Whichever arrives first wins —
// the canonical message race.

sim::Task raceProgram(Rank& self) {
  constexpr int kTag = 5;
  if (self.id() == 0) {
    co_await self.recv(kAnySource, kTag);
    co_await self.recv(kAnySource, kTag);
  } else {
    co_await self.send(0, 1024.0, kTag);
  }
}

TEST(WildcardRace, SeededRaceIsFlaggedWithBothCandidates) {
  const Report report = captureAndAnalyze(3, raceProgram);
  ASSERT_TRUE(hasPass(report, "wildcard-race")) << "race not flagged";
  const Finding& f = findingOf(report, "wildcard-race");
  EXPECT_EQ(f.severity, Severity::Error);
  // The candidate-sender set must name both rank 1 and rank 2.
  const auto mentions = [&f](const std::string& needle) {
    return std::any_of(f.evidence.begin(), f.evidence.end(),
                       [&](const std::string& line) {
                         return line.find(needle) != std::string::npos;
                       });
  };
  EXPECT_TRUE(mentions("rank 1")) << "candidate from rank 1 missing";
  EXPECT_TRUE(mentions("rank 2")) << "candidate from rank 2 missing";
  EXPECT_FALSE(f.witness.empty()) << "race finding should carry a witness";
}

// A concrete-source receive is deterministic under the runtime's
// non-overtaking rule even with ANY_TAG: no race may be reported.
sim::Task concreteSourceProgram(Rank& self) {
  if (self.id() == 0) {
    co_await self.recv(1, kAnyTag);
    co_await self.recv(2, kAnyTag);
  } else {
    co_await self.send(0, 512.0, self.id());
  }
}

TEST(WildcardRace, ConcreteSourceAnyTagIsNotARace) {
  const Report report = captureAndAnalyze(3, concreteSourceProgram);
  EXPECT_FALSE(hasPass(report, "wildcard-race"));
}

// ---- rank-divergent collective sequence ------------------------------------
//
// At the second collective, rank 1 calls reduce while everyone else calls
// bcast.  The runtime aborts at the gate; the pass must still localize
// the divergence point from the captured arrivals.

sim::Task divergentCollectiveProgram(Rank& self) {
  co_await self.barrier();
  if (self.id() == 1) {
    co_await self.reduce(1024.0, 0);
  } else {
    co_await self.bcast(1024.0, 0);
  }
}

TEST(CollectiveContract, DivergentSequenceIsLocalized) {
  const Report report =
      captureAndAnalyze(4, divergentCollectiveProgram, /*expectThrow=*/true);
  ASSERT_TRUE(hasPass(report, "collective-contract"));
  const Finding& f = findingOf(report, "collective-contract");
  EXPECT_EQ(f.severity, Severity::Error);
  // Divergence point: collective #1 (the barrier at #0 was uniform).
  EXPECT_NE(f.title.find("#1"), std::string::npos) << f.title;
  EXPECT_FALSE(f.witness.empty());
}

// Root disagreement on an otherwise-uniform bcast: the gate model does
// not abort (it keys on the kind), so only the static pass can see it.
sim::Task divergentRootProgram(Rank& self) {
  co_await self.bcast(2048.0, self.id() == 2 ? 1 : 0);
}

TEST(CollectiveContract, RootDisagreementIsFlagged) {
  const Report report = captureAndAnalyze(4, divergentRootProgram);
  ASSERT_TRUE(hasPass(report, "collective-contract"));
  EXPECT_NE(findingOf(report, "collective-contract").title.find("roots"),
            std::string::npos);
}

// ---- schedule-dependent deadlock -------------------------------------------
//
// Rank 0: recv(ANY) then recv(src=1).  Rank 1 sends late, rank 2 sends
// immediately.  The executed schedule completes (rank 2's message lands
// in the wildcard), but if rank 1's send arrives first it is swallowed by
// the wildcard and recv(src=1) starves — a deadlock the runtime's cycle
// reporter never sees.

sim::Task latentDeadlockProgram(Rank& self) {
  constexpr int kTag = 3;
  if (self.id() == 0) {
    co_await self.recv(kAnySource, kTag);
    co_await self.recv(1, kTag);
  } else if (self.id() == 1) {
    co_await self.compute(1e-3);  // arrive well after rank 2
    co_await self.send(0, 256.0, kTag);
  } else {
    co_await self.send(0, 256.0, kTag);
  }
}

TEST(PotentialDeadlock, CompletingScheduleStillFlagged) {
  const Report report = captureAndAnalyze(3, latentDeadlockProgram);
  ASSERT_TRUE(hasPass(report, "potential-deadlock"));
  const Finding& f = findingOf(report, "potential-deadlock");
  EXPECT_EQ(f.severity, Severity::Error);
  // The starving operation is rank 0's concrete recv from rank 1.
  ASSERT_FALSE(f.evidence.empty());
  EXPECT_NE(f.evidence.front().find("src=1"), std::string::npos)
      << f.evidence.front();
  EXPECT_FALSE(f.witness.empty());
}

// The same exchange with both receives concrete has a unique matching:
// no deadlock, no race.
sim::Task safeExchangeProgram(Rank& self) {
  constexpr int kTag = 3;
  if (self.id() == 0) {
    co_await self.recv(2, kTag);
    co_await self.recv(1, kTag);
  } else if (self.id() == 1) {
    co_await self.compute(1e-3);
    co_await self.send(0, 256.0, kTag);
  } else {
    co_await self.send(0, 256.0, kTag);
  }
}

TEST(PotentialDeadlock, DeterministicExchangeIsClean) {
  const Report report = captureAndAnalyze(3, safeExchangeProgram);
  EXPECT_TRUE(report.clean()) << report.findings.size() << " findings";
}

// ---- tag/count contract lint ------------------------------------------------

sim::Task truncationProgram(Rank& self) {
  if (self.id() == 0) {
    co_await self.recv(1, 7, /*expectedBytes=*/128.0);
  } else if (self.id() == 1) {
    co_await self.send(0, 512.0, 7);  // larger than declared
  }
}

TEST(TagContract, TruncationProneMismatchIsAnError) {
  const Report report = captureAndAnalyze(2, truncationProgram);
  ASSERT_TRUE(hasPass(report, "tag-contract"));
  const Finding& f = findingOf(report, "tag-contract");
  EXPECT_EQ(f.severity, Severity::Error);
  EXPECT_NE(f.title.find("truncation"), std::string::npos);
}

sim::Task tagCollisionProgram(Rank& self) {
  constexpr int kTag = 9;
  if (self.id() == 0) {
    // Two concurrent same-tag sends to rank 1, nothing ordering them.
    Request a = self.isend(1, 100.0, kTag);
    Request b = self.isend(1, 200.0, kTag);
    std::vector<Request> both{std::move(a), std::move(b)};
    co_await self.waitAll(std::move(both));
  } else {
    // A wildcard receive observes whichever payload was staged first.
    co_await self.recv(kAnySource, kTag);
    co_await self.recv(kAnySource, kTag);
  }
}

TEST(TagContract, ConcurrentSameTagSendsToWildcardAreFlagged) {
  const Report report = captureAndAnalyze(2, tagCollisionProgram);
  EXPECT_TRUE(hasPass(report, "tag-contract"));
}

// ---- clean programs stay clean ---------------------------------------------

sim::Task haloRingProgram(Rank& self) {
  const int next = (self.id() + 1) % self.size();
  const int prev = (self.id() + self.size() - 1) % self.size();
  for (int iter = 0; iter < 4; ++iter) {
    Request rn = self.irecv(prev, 20 + iter);
    Request rs = self.irecv(next, 40 + iter);
    Request sn = self.isend(next, 4096.0, 20 + iter);
    Request ss = self.isend(prev, 4096.0, 40 + iter);
    std::vector<Request> ops{std::move(rn), std::move(rs), std::move(sn),
                             std::move(ss)};
    co_await self.waitAll(std::move(ops));
    co_await self.allreduce(8.0);
  }
}

TEST(CleanPrograms, HaloWithAllreduceHasZeroFindings) {
  const Report report = captureAndAnalyze(8, haloRingProgram);
  EXPECT_TRUE(report.clean());
  EXPECT_GT(report.opsAnalyzed, 0u);
}

// ---- infrastructure ---------------------------------------------------------

TEST(CaptureScope, CapturesSimulationsConstructedUnderIt) {
  CaptureScope scope;
  {
    Simulation sim(arch::makeBGP(), 4);
    sim.run([](Rank& self) -> sim::Task { co_await self.barrier(); });
  }
  ASSERT_EQ(scope.graphs().size(), 1u);
  const Report report = analyze(*scope.graphs().front());
  EXPECT_TRUE(report.clean());
  // 4 gate arrivals + 4 wait returns.
  EXPECT_EQ(report.opsAnalyzed, 8u);
}

TEST(CaptureScope, CaptureOffRunsRecordNothing) {
  Simulation sim(arch::makeBGP(), 4);
  CaptureScope laterScope;  // opened after construction: not this run's
  EXPECT_EQ(sim.profiler(), nullptr);
  sim.run([](Rank& self) -> sim::Task { co_await self.barrier(); });
  EXPECT_EQ(sim.profiler(), nullptr);
  EXPECT_TRUE(laterScope.graphs().empty());
}

// The graph is built from the op log when the run ends, and a failed run
// ends too: its issued ops must reach the scope.
TEST(CaptureScope, DeadlockedRunStillHandsOverItsGraph) {
  CaptureScope scope;
  Simulation sim(arch::makeBGP(), 2);
  EXPECT_THROW(sim.run([](Rank& self) -> sim::Task {
                 co_await self.send(1 - self.id(), 64.0, /*tag=*/0);
                 co_await self.recv(1 - self.id(), /*tag=*/1);  // never sent
               }),
               DeadlockError);
  ASSERT_EQ(scope.graphs().size(), 1u);
  const OpGraph& g = *scope.graphs().front();
  EXPECT_FALSE(g.truncated());
  // Per rank: the eager send (staged, never received), its wait, and the
  // receive that never matched.
  ASSERT_EQ(g.nodes().size(), 6u);
  int sends = 0, recvs = 0, waits = 0;
  for (const OpNode& n : g.nodes()) {
    sends += n.kind == OpKind::Send;
    recvs += n.kind == OpKind::Recv;
    waits += n.kind == OpKind::Wait;
    EXPECT_EQ(n.matched, -1);
  }
  EXPECT_EQ(sends, 2);
  EXPECT_EQ(recvs, 2);
  EXPECT_EQ(waits, 2);
}

TEST(CaptureScope, RunFailingAtVerifierFinalizeStillHandsOverItsGraph) {
  CaptureScope scope;
  Simulation sim(arch::makeBGP(), 2);
  sim.enableVerifier();
  EXPECT_THROW(sim.run([](Rank& self) -> sim::Task {
                 if (self.id() == 0) {
                   (void)self.isend(1, 16.0, 2);  // never waited: a leak
                 } else {
                   co_await self.recv(0, 2);
                 }
                 co_await self.barrier();
               }),
               VerifierError);
  ASSERT_EQ(scope.graphs().size(), 1u);
  OpGraph& g = *scope.graphs().front();
  // Send, receive and its wait, two barrier arrivals and their waits.
  EXPECT_EQ(g.nodes().size(), 7u);
  ASSERT_NE(g.gateArrivals(0, 0), nullptr);
  EXPECT_EQ(g.gateArrivals(0, 0)->size(), 2u);
  EXPECT_TRUE(analyze(g).clean());
}

TEST(Scenarios, RegistryHasPaperAndStressGroups) {
  const auto& all = scenarios();
  ASSERT_FALSE(all.empty());
  EXPECT_TRUE(std::any_of(all.begin(), all.end(),
                          [](const Scenario& s) { return s.group == "paper"; }));
  EXPECT_TRUE(std::any_of(all.begin(), all.end(), [](const Scenario& s) {
    return s.group == "stress";
  }));
}

TEST(Scenarios, StressSubcommScenarioAnalyzesClean) {
  const auto& all = scenarios();
  const auto it =
      std::find_if(all.begin(), all.end(),
                   [](const Scenario& s) { return s.name == "stress_subcomm"; });
  ASSERT_NE(it, all.end());
  const ScenarioResult result = runScenario(*it);
  EXPECT_FALSE(result.failed) << result.error;
  ASSERT_FALSE(result.reports.empty());
  EXPECT_TRUE(result.clean());
}

TEST(OpGraph, VectorClocksOrderMatchedSendBeforeWait) {
  CaptureScope scope;
  Simulation sim(arch::makeBGP(), 2);
  sim.run([](Rank& self) -> sim::Task {
    if (self.id() == 0) {
      co_await self.send(1, 64.0, 1);
    } else {
      co_await self.recv(0, 1);
    }
  });
  OpGraph& g = *scope.graphs().front();
  g.computeClocks();
  std::int32_t send = -1, recvWait = -1;
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(g.nodes().size());
       ++i) {
    const OpNode& n = g.node(i);
    if (n.kind == OpKind::Send) send = i;
    if (n.kind == OpKind::Wait && n.world == 1) recvWait = i;
  }
  ASSERT_GE(send, 0);
  ASSERT_GE(recvWait, 0);
  EXPECT_TRUE(g.happensBefore(send, recvWait));
  EXPECT_FALSE(g.happensBefore(recvWait, send));
}

}  // namespace
