// Negative tests for the runtime MPI correctness verifier, the fault
// plane, the watchdog, and rank-failure aggregation: one deliberately
// buggy program per defect class, each asserting that the report names
// the offending rank(s) and operation.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/machines.hpp"
#include "smpi/simulation.hpp"

namespace bgp::smpi {
namespace {

using arch::machineByName;

Simulation makeSim(int nranks) {
  return Simulation(machineByName("BG/P"), nranks);
}

/// Runs `program` with the verifier in fail-fast mode and returns the
/// VerifierError message (fails the test if none is thrown).
template <typename Program>
std::string verifierMessage(int nranks, Program&& program) {
  Simulation sim = makeSim(nranks);
  sim.enableVerifier();
  try {
    sim.run(program);
  } catch (const VerifierError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected VerifierError";
  return {};
}

void expectContains(const std::string& text, const std::string& needle) {
  EXPECT_NE(text.find(needle), std::string::npos)
      << "missing \"" << needle << "\" in:\n" << text;
}

// ---- collective signature checks -------------------------------------------

TEST(Verifier, MismatchedCollectiveKindNamesRanksAndOps) {
  const std::string msg = verifierMessage(2, [](Rank& self) -> sim::Task {
    if (self.id() == 0) {
      co_await self.allreduce(8);
    } else {
      co_await self.barrier();
    }
  });
  expectContains(msg, "collective mismatch");
  expectContains(msg, "rank 0");
  expectContains(msg, "rank 1");
  expectContains(msg, "Allreduce");
  expectContains(msg, "Barrier");
}

TEST(Verifier, RootMismatchDetected) {
  const std::string msg = verifierMessage(2, [](Rank& self) -> sim::Task {
    co_await self.bcast(64, self.id() == 0 ? 0 : 1);
  });
  expectContains(msg, "root mismatch");
  expectContains(msg, "root=0");
  expectContains(msg, "root=1");
}

TEST(Verifier, ReduceOpMismatchDetected) {
  const std::string msg = verifierMessage(2, [](Rank& self) -> sim::Task {
    co_await self.allreduce(8, net::Dtype::Double,
                            self.id() == 0 ? ReduceOp::Sum : ReduceOp::Max);
  });
  expectContains(msg, "reduce-op mismatch");
  expectContains(msg, "op=sum");
  expectContains(msg, "op=max");
}

TEST(Verifier, ElementSizeMismatchDetected) {
  const std::string msg = verifierMessage(2, [](Rank& self) -> sim::Task {
    co_await self.allreduce(
        64, self.id() == 0 ? net::Dtype::Double : net::Dtype::Float);
  });
  expectContains(msg, "element-size mismatch");
}

TEST(Verifier, CollectiveCountMismatchDetected) {
  const std::string msg = verifierMessage(2, [](Rank& self) -> sim::Task {
    co_await self.allreduce(self.id() == 0 ? 64.0 : 128.0);
  });
  expectContains(msg, "count mismatch");
  expectContains(msg, "bytes=64");
  expectContains(msg, "bytes=128");
}

TEST(Verifier, SubCommCollectivesCheckedIndependently) {
  // Different collectives on different sub-communicators are legal ...
  Simulation sim = makeSim(4);
  sim.enableVerifier();
  auto comms = sim.splitWorld({0, 0, 1, 1});
  sim.run([&](Rank& self) -> sim::Task {
    Comm& mine = Simulation::commOf(comms, self.id());
    if (self.id() < 2) {
      co_await self.allreduce(mine, 8);
    } else {
      co_await self.barrier(mine);
    }
  });
  EXPECT_TRUE(sim.verifier()->clean());
}

// ---- point-to-point checks --------------------------------------------------

TEST(Verifier, P2pCountMismatchNamesBothRanks) {
  Simulation sim = makeSim(2);
  sim.enableVerifier();
  try {
    sim.run([](Rank& self) -> sim::Task {
      if (self.id() == 0) {
        co_await self.send(1, 64, 3);
      } else {
        co_await self.recv(0, 3, /*expectedBytes=*/128);
      }
    });
    FAIL() << "expected VerifierError";
  } catch (const VerifierError& e) {
    const std::string msg = e.what();
    expectContains(msg, "p2p count mismatch");
    expectContains(msg, "rank 1 expected 128");
    expectContains(msg, "rank 0 sent 64");
  }
}

TEST(Verifier, MatchingExpectedBytesIsClean) {
  Simulation sim = makeSim(2);
  sim.enableVerifier();
  sim.run([](Rank& self) -> sim::Task {
    if (self.id() == 0) {
      co_await self.send(1, 64, 3);
    } else {
      co_await self.recv(0, 3, /*expectedBytes=*/64);
    }
  });
  EXPECT_TRUE(sim.verifier()->clean());
}

// ---- finalize-time leak checks ---------------------------------------------

TEST(Verifier, OrphanedSendNamesSenderAndDestination) {
  const std::string msg = verifierMessage(2, [](Rank& self) -> sim::Task {
    if (self.id() == 0) co_await self.send(1, 32, 9);
    // rank 1 never receives
    co_return;
  });
  expectContains(msg, "orphaned send");
  expectContains(msg, "rank 0");
  expectContains(msg, "rank 1");
  expectContains(msg, "tag 9");
}

TEST(Verifier, PendingRecvAtFinalizeReported) {
  const std::string msg = verifierMessage(2, [](Rank& self) -> sim::Task {
    if (self.id() == 1) {
      // Posted, never matched, never waited on.
      (void)self.irecv(0, 4);
    }
    co_return;
  });
  expectContains(msg, "pending receive at finalize");
  expectContains(msg, "rank 1");
  expectContains(msg, "tag=4");
}

TEST(Verifier, LeakedRequestReported) {
  const std::string msg = verifierMessage(2, [](Rank& self) -> sim::Task {
    if (self.id() == 0) {
      (void)self.isend(1, 16, 2);  // fire and forget: never waited
    } else {
      co_await self.recv(0, 2);
    }
    co_return;
  });
  expectContains(msg, "leaked request");
  expectContains(msg, "rank 0 send");
  expectContains(msg, "never waited on");
}

TEST(Verifier, UnusedSubCommReported) {
  Simulation sim = makeSim(2);
  sim.enableVerifier();
  auto comms = sim.splitWorld({0, 0});
  (void)comms;
  try {
    sim.run([](Rank&) -> sim::Task { co_return; });
    FAIL() << "expected VerifierError";
  } catch (const VerifierError& e) {
    expectContains(e.what(), "leaked communicator");
    expectContains(e.what(), "comm 1");
  }
}

TEST(Verifier, CollectingModeAccumulatesInsteadOfThrowing) {
  Simulation sim = makeSim(2);
  VerifierOptions vo;
  vo.failFast = false;
  sim.enableVerifier(vo);
  sim.run([](Rank& self) -> sim::Task {
    if (self.id() == 0) co_await self.send(1, 32, 9);  // orphaned
    co_return;
  });
  ASSERT_FALSE(sim.verifier()->clean());
  EXPECT_EQ(sim.verifier()->defects().size(), 1u);
  expectContains(sim.verifier()->defects()[0], "orphaned send");
}

// One collecting-mode program that yields every leak kind, plus a p2p
// count mismatch.  The expected list was generated by the verifier that
// kept every request alive until finalize; the record-based leak check
// must reproduce it byte for byte, order included.
TEST(Verifier, LeakReportParity) {
  Simulation sim = makeSim(4);
  VerifierOptions vo;
  vo.failFast = false;
  sim.enableVerifier(vo);
  const std::vector<Comm*> comms = sim.splitWorld({0, 0, 1, 1});
  Comm& pair01 = *comms[0];  // comms[1] (ranks 2, 3) is never used
  sim.run([&pair01](Rank& self) -> sim::Task {
    switch (self.id()) {
      case 0:
        (void)self.isend(1, 16, 1);  // unwaited eager send, received
        co_await self.send(1, 16, 3);
        co_await self.compute(1e-5);
        co_await self.send(1, 16, 4);      // completes rank 1's waitAny loser
        (void)self.isend(2, 16, 6);        // unwaited and never received
        co_await self.send(3, 32, 9);      // waited, never received
        (void)self.isend(pair01, 1, 8, 20);  // unwaited, on a sub-comm
        co_await self.barrier(pair01);
        break;
      case 1: {
        co_await self.recv(0, 1);
        std::vector<Request> either;
        either.push_back(self.irecv(0, 3));
        either.push_back(self.irecv(0, 4));
        (void)co_await self.waitAny(std::move(either));  // loser never re-waited
        co_await self.recv(pair01, 0, 20);
        co_await self.recv(2, 8, /*expectedBytes=*/32);  // count mismatch
        (void)self.irecv(3, 7);  // never matched
        co_await self.barrier(pair01);
        break;
      }
      case 2:
        (void)self.irecv(3, 2);  // completes, never waited
        co_await self.send(1, 64, 8);
        (void)self.irecv(kAnySource, 99);  // never matched
        break;
      case 3:
        co_await self.send(2, 16, 2);
        (void)self.isend(0, 4096, 5);  // rendezvous, never received
        (void)self.irecv(1, kAnyTag);  // never matched
        break;
    }
  });
  const std::vector<std::string> expected = {
      "p2p count mismatch: rank 1 expected 32 B (tag 8) but rank 2 sent 64 B",
      "orphaned send: rank 3 sent 4096 B (tag 5) to rank 0 but it was never received",
      "pending receive at finalize: rank 1 posted recv(src=rank 3, tag=7) that never matched",
      "orphaned send: rank 0 sent 16 B (tag 6) to rank 2 but it was never received",
      "pending receive at finalize: rank 2 posted recv(src=ANY_SOURCE, tag=99) that never matched",
      "orphaned send: rank 0 sent 32 B (tag 9) to rank 3 but it was never received",
      "pending receive at finalize: rank 3 posted recv(src=rank 1, tag=ANY_TAG) that never matched",
      "leaked communicator: comm 2 (size 2) was created but never used",
      "leaked request: rank 0 send(peer=1, tag=1, comm 0) completed but was never waited on",
      "leaked request: rank 2 recv(peer=3, tag=2, comm 0) completed but was never waited on",
      "leaked request: rank 1 recv(peer=0, tag=4, comm 0) completed but was never waited on",
      "leaked request: rank 0 send(peer=2, tag=6, comm 0) completed but was never waited on",
      "leaked request: rank 0 send(peer=1, tag=20, comm 1) completed but was never waited on",
  };
  EXPECT_EQ(sim.verifier()->defects(), expected);
}

/// Live arena blocks a 32x32 two-rep halo (one eager, one rendezvous
/// exchange) leaves on this thread after run(), with or without the
/// verifier.
std::uint64_t liveBlocksAfterHalo(bool verified) {
  const std::uint64_t before = support::threadArena().liveBlocks();
  Simulation sim = makeSim(1024);
  if (verified) sim.enableVerifier();
  sim.run([](Rank& self) -> sim::Task {
    const int row = self.id() / 32, col = self.id() % 32;
    const int north = ((row + 31) % 32) * 32 + col;
    const int south = ((row + 1) % 32) * 32 + col;
    const int west = row * 32 + (col + 31) % 32;
    const int east = row * 32 + (col + 1) % 32;
    for (int rep = 0; rep < 2; ++rep) {
      const double bytes = rep == 0 ? 256.0 : 4096.0;
      co_await self.compute(1e-6);
      std::vector<Request> ns;
      ns.push_back(self.irecv(south, 10));
      ns.push_back(self.irecv(north, 11));
      ns.push_back(self.isend(north, bytes, 10));
      ns.push_back(self.isend(south, bytes, 11));
      co_await self.waitAll(std::move(ns));
      std::vector<Request> ew;
      ew.push_back(self.irecv(east, 12));
      ew.push_back(self.irecv(west, 13));
      ew.push_back(self.isend(west, bytes, 12));
      ew.push_back(self.isend(east, bytes, 13));
      co_await self.waitAll(std::move(ew));
    }
  });
  EXPECT_TRUE(!verified || sim.verifier()->clean());
  return support::threadArena().liveBlocks() - before;
}

TEST(Verifier, HoldsNoCompletedOps) {
#if BGP_ARENA_PASSTHROUGH
  GTEST_SKIP() << "the arena forwards to operator new under ASan";
#else
  EXPECT_EQ(liveBlocksAfterHalo(true), liveBlocksAfterHalo(false));
#endif
}

TEST(Verifier, CleanProgramStaysClean) {
  Simulation sim = makeSim(4);
  sim.enableVerifier();
  sim.run([](Rank& self) -> sim::Task {
    const int right = (self.id() + 1) % self.size();
    const int left = (self.id() + self.size() - 1) % self.size();
    co_await self.sendrecv(right, 1024, left);
    co_await self.allreduce(8);
    co_await self.barrier();
  });
  EXPECT_TRUE(sim.verifier()->clean());
}

// ---- deadlock wait-chain reporter ------------------------------------------

TEST(Verifier, DeadlockReportsBlockingCycle) {
  // 0 waits on 1, 1 waits on 2, 2 waits on 0: a 3-cycle of receives.
  Simulation sim = makeSim(3);
  try {
    sim.run([](Rank& self) -> sim::Task {
      co_await self.recv((self.id() + 1) % 3, 0);
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    expectContains(msg, "blocking cycle");
    expectContains(msg, "rank 0: recv(src=1");
    expectContains(msg, "rank 1: recv(src=2");
    expectContains(msg, "rank 2: recv(src=0");
  }
}

TEST(Verifier, DeadlockCycleThroughCollective) {
  // Rank 0 waits in a recv that rank 1 will never serve because rank 1 is
  // stuck in a collective that rank 0 never joins.
  Simulation sim = makeSim(2);
  try {
    sim.run([](Rank& self) -> sim::Task {
      if (self.id() == 0) {
        co_await self.recv(1, 0);
      } else {
        co_await self.barrier();
      }
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    expectContains(msg, "blocking cycle");
    expectContains(msg, "collective(#0");
  }
}

// ---- watchdog ---------------------------------------------------------------

TEST(Verifier, WatchdogEventBudgetAborts) {
  Simulation sim = makeSim(2);
  sim.setWatchdog(/*maxEvents=*/100, /*maxSimSeconds=*/0.0);
  try {
    sim.run([](Rank& self) -> sim::Task {
      // Endless ping-pong: would run forever without the watchdog.
      for (;;) {
        if (self.id() == 0) {
          co_await self.send(1, 8);
          co_await self.recv(1);
        } else {
          co_await self.recv(0);
          co_await self.send(0, 8);
        }
      }
    });
    FAIL() << "expected WatchdogError";
  } catch (const WatchdogError& e) {
    expectContains(e.what(), "event budget exhausted");
  }
}

TEST(Verifier, WatchdogSimTimeBudgetAborts) {
  Simulation sim = makeSim(1);
  sim.setWatchdog(/*maxEvents=*/0, /*maxSimSeconds=*/1.0);
  try {
    sim.run([](Rank& self) -> sim::Task {
      co_await self.compute(10.0);  // beyond the simulated-time budget
    });
    FAIL() << "expected WatchdogError";
  } catch (const WatchdogError& e) {
    expectContains(e.what(), "simulated-time budget exhausted");
  }
}

TEST(Verifier, WatchdogOffByDefault) {
  Simulation sim = makeSim(1);
  const auto result = sim.run([](Rank& self) -> sim::Task {
    co_await self.compute(100.0);
  });
  EXPECT_DOUBLE_EQ(result.makespan, 100.0);
}

// ---- rank-failure aggregation ----------------------------------------------

TEST(Verifier, SingleRankFailureRethrowsOriginalType) {
  Simulation sim = makeSim(2);
  EXPECT_THROW(sim.run([](Rank& self) -> sim::Task {
                 if (self.id() == 1) throw std::invalid_argument("rank bug");
                 co_return;
               }),
               std::invalid_argument);
}

TEST(Verifier, MultipleRankFailuresAggregated) {
  Simulation sim = makeSim(4);
  try {
    sim.run([](Rank& self) -> sim::Task {
      if (self.id() == 1) throw std::runtime_error("boom one");
      if (self.id() == 3) throw std::runtime_error("boom three");
      co_return;
    });
    FAIL() << "expected RankFailures";
  } catch (const RankFailures& e) {
    EXPECT_EQ(e.ranks(), (std::vector<int>{1, 3}));
    expectContains(e.what(), "rank 1: boom one");
    expectContains(e.what(), "rank 3: boom three");
  }
}

// ---- fault plane ------------------------------------------------------------

double haloMakespan(const sim::FaultConfig* faults, std::uint64_t seed = 1) {
  Simulation sim(machineByName("BG/P"), 32, {}, seed);
  if (faults != nullptr) sim.setFaults(*faults);
  const auto result = sim.run([](Rank& self) -> sim::Task {
    const int right = (self.id() + 1) % self.size();
    const int left = (self.id() + self.size() - 1) % self.size();
    for (int step = 0; step < 4; ++step) {
      co_await self.compute(1e-4);
      co_await self.sendrecv(right, 512 * 1024, left);
      co_await self.allreduce(8);
    }
  });
  return result.makespan;
}

TEST(Faults, ZeroConfigIsByteIdentical) {
  sim::FaultConfig none;
  EXPECT_EQ(haloMakespan(nullptr), haloMakespan(&none));
}

TEST(Faults, DegradedLinksSlowLargeMessages) {
  sim::FaultConfig fc;
  fc.linkDegradeFraction = 1.0;  // every link at half bandwidth
  fc.linkDegradeFactor = 0.5;
  const double clean = haloMakespan(nullptr);
  const double degraded = haloMakespan(&fc);
  EXPECT_GT(degraded, clean * 1.2);  // 512 KiB messages are BW-dominated
  EXPECT_LT(degraded, clean * 2.5);
}

TEST(Faults, LinkOutagesDelayButComplete) {
  sim::FaultConfig fc;
  fc.linkOutagesPerSecond = 2000.0;
  fc.linkOutageMeanSeconds = 1e-4;
  const double clean = haloMakespan(nullptr);
  const double outaged = haloMakespan(&fc);
  EXPECT_GE(outaged, clean);  // never faster, always completes
}

TEST(Faults, StragglersScaleComputeExactly) {
  sim::FaultConfig fc;
  fc.stragglerFraction = 1.0;  // every node a straggler
  fc.stragglerSlowdown = 2.0;
  Simulation clean(machineByName("BG/P"), 4);
  Simulation slow(machineByName("BG/P"), 4);
  slow.setFaults(fc);
  auto program = [](Rank& self) -> sim::Task {
    co_await self.compute(1.0);
  };
  EXPECT_DOUBLE_EQ(clean.run(program).makespan, 1.0);
  EXPECT_DOUBLE_EQ(slow.run(program).makespan, 2.0);
}

TEST(Faults, FailStopRaisesFaultError) {
  sim::FaultConfig fc;
  fc.failStopsPerNodeSecond = 1000.0;  // mean time to failure 1 ms
  Simulation sim(machineByName("BG/P"), 1);
  sim.setFaults(fc);
  try {
    sim.run([](Rank& self) -> sim::Task {
      for (int i = 0; i < 1000; ++i) co_await self.compute(1e-3);
    });
    FAIL() << "expected FaultError";
  } catch (const sim::FaultError& e) {
    expectContains(e.what(), "rank 0 fail-stopped");
  }
}

TEST(Faults, FailStopAcrossRanksAggregates) {
  sim::FaultConfig fc;
  fc.failStopsPerNodeSecond = 1000.0;
  Simulation sim(machineByName("BG/P"), 8);
  sim.setFaults(fc);
  try {
    sim.run([](Rank& self) -> sim::Task {
      for (int i = 0; i < 1000; ++i) co_await self.compute(1e-3);
    });
    FAIL() << "expected RankFailures";
  } catch (const RankFailures& e) {
    EXPECT_GE(e.ranks().size(), 2u);
    expectContains(e.what(), "fail-stopped");
  }
}

TEST(Faults, SameSeedReproducesExactly) {
  sim::FaultConfig fc;
  fc.seed = 99;
  fc.linkDegradeFraction = 0.3;
  fc.linkOutagesPerSecond = 100.0;
  fc.stragglerFraction = 0.25;
  fc.osNoiseFraction = 0.01;
  EXPECT_EQ(haloMakespan(&fc), haloMakespan(&fc));
}

TEST(Faults, DifferentSeedsDiffer) {
  sim::FaultConfig a;
  a.seed = 1;
  a.linkDegradeFraction = 0.3;
  a.stragglerFraction = 0.25;
  sim::FaultConfig b = a;
  b.seed = 2;
  EXPECT_NE(haloMakespan(&a), haloMakespan(&b));
}

TEST(Faults, RejectsNonsenseConfig) {
  sim::FaultConfig fc;
  fc.linkDegradeFraction = 1.5;  // not a fraction
  Simulation sim = makeSim(2);
  EXPECT_THROW(sim.setFaults(fc), PreconditionError);
}

}  // namespace
}  // namespace bgp::smpi
