// Tests for the simulated MPI runtime: matching semantics, protocol
// behaviour, collectives, communicators, modes, and determinism.

#include <gtest/gtest.h>

#include <vector>

#include "arch/machines.hpp"
#include "smpi/simulation.hpp"

namespace bgp::smpi {
namespace {

using arch::machineByName;

net::SystemOptions vnOpts() {
  net::SystemOptions o;
  o.mode = arch::ExecMode::VN;
  return o;
}

TEST(Smpi, SingleRankComputeAdvancesClock) {
  Simulation sim(machineByName("BG/P"), 1);
  auto result = sim.run([](Rank& self) -> sim::Task {
    co_await self.compute(0.25);
    co_await self.compute(0.50);
  });
  EXPECT_NEAR(result.makespan, 0.75, 1e-12);
}

TEST(Smpi, WorkComputeUsesNodeModel) {
  Simulation sim(machineByName("BG/P"), 4);
  auto result = sim.run([](Rank& self) -> sim::Task {
    co_await self.compute(arch::Work{3.4e9, 0, 1.0});  // 1 s at peak
  });
  EXPECT_NEAR(result.makespan, 1.0, 1e-9);
}

TEST(Smpi, PingPongCompletesWithPlausibleLatency) {
  net::SystemOptions o = vnOpts();
  o.mappingOrder = "XYZT";  // force ranks 0 and 1 onto different nodes
  Simulation sim(machineByName("BG/P"), 8, o);
  double elapsed = 0;
  auto result = sim.run([&](Rank& self) -> sim::Task {
    const int reps = 100;
    if (self.id() >= 2) co_return;
    if (self.id() == 0) {
      const double t0 = self.now();
      for (int i = 0; i < reps; ++i) {
        co_await self.send(1, 8);
        co_await self.recv(1);
      }
      elapsed = (self.now() - t0) / (2 * reps);
    } else {
      for (int i = 0; i < reps; ++i) {
        co_await self.recv(0);
        co_await self.send(0, 8);
      }
    }
  });
  (void)result;
  // ~3 us one-way small-message latency on BG/P.
  EXPECT_GT(elapsed, 1.5e-6);
  EXPECT_LT(elapsed, 6e-6);
}

TEST(Smpi, LargeMessageBandwidthApproachesLink) {
  Simulation sim(machineByName("BG/P"), 2, vnOpts());
  double seconds = 0;
  const double bytes = 64 * 1024 * 1024;
  sim.run([&](Rank& self) -> sim::Task {
    if (self.id() == 0) {
      const double t0 = self.now();
      co_await self.send(1, bytes);
      co_await self.recv(1);  // ack: round trip complete
      seconds = self.now() - t0;
    } else {
      co_await self.recv(0);
      co_await self.send(0, 8);
    }
  });
  // Ranks 0,1 share a node under TXYZ VN mapping -> shm path; check the
  // observed bandwidth is in the shm ballpark.
  const double bw = bytes / seconds;
  EXPECT_GT(bw, 1e9);
}

TEST(Smpi, InterNodeBandwidthMatchesTorusLink) {
  net::SystemOptions o = vnOpts();
  o.mappingOrder = "XYZT";  // consecutive ranks on different nodes
  Simulation sim(machineByName("BG/P"), 8, o);
  double seconds = 0;
  const double bytes = 64 * 1024 * 1024;
  sim.run([&](Rank& self) -> sim::Task {
    if (self.id() == 0) {
      const double t0 = self.now();
      co_await self.send(1, bytes);
      seconds = self.now() - t0;
    } else if (self.id() == 1) {
      co_await self.recv(0);
    }
    co_return;
  });
  const double linkBw = 0.425e9 * 0.88;
  // Sender completes once injected; injection is paced by the link.
  EXPECT_NEAR(bytes / seconds, linkBw, 0.15 * linkBw);
}

TEST(Smpi, MessagesMatchInFifoOrder) {
  Simulation sim(machineByName("BG/P"), 2);
  std::vector<double> sizes;
  sim.run([&](Rank& self) -> sim::Task {
    if (self.id() == 0) {
      co_await self.send(1, 100, /*tag=*/7);
      co_await self.send(1, 200, /*tag=*/7);
    } else {
      const RecvInfo a = co_await self.recv(0, 7);
      const RecvInfo b = co_await self.recv(0, 7);
      sizes = {a.bytes, b.bytes};
    }
  });
  EXPECT_EQ(sizes, (std::vector<double>{100, 200}));
}

TEST(Smpi, TagsSelectMessages) {
  Simulation sim(machineByName("BG/P"), 2);
  std::vector<double> sizes;
  sim.run([&](Rank& self) -> sim::Task {
    if (self.id() == 0) {
      co_await self.send(1, 111, /*tag=*/1);
      co_await self.send(1, 222, /*tag=*/2);
    } else {
      const RecvInfo b = co_await self.recv(0, 2);  // out of arrival order
      const RecvInfo a = co_await self.recv(0, 1);
      sizes = {b.bytes, a.bytes};
    }
  });
  EXPECT_EQ(sizes, (std::vector<double>{222, 111}));
}

TEST(Smpi, AnySourceReceives) {
  Simulation sim(machineByName("BG/P"), 3);
  int gotFrom = -1;
  sim.run([&](Rank& self) -> sim::Task {
    if (self.id() == 2) {
      const RecvInfo info = co_await self.recv(kAnySource, kAnyTag);
      gotFrom = info.source;
    } else if (self.id() == 0) {
      co_await self.send(2, 64, 5);
    }
    co_return;
  });
  EXPECT_EQ(gotFrom, 0);
}

TEST(Smpi, AnySourceSimultaneousArrivalsMatchFifo) {
  // Four VN-mode ranks share one node, so sends from ranks 1..3 to rank 0
  // traverse the identical shared-memory path and arrive at the same
  // simulated instant.  The engine breaks the tie FIFO by event-insertion
  // order — send initiation order — so ANY_SOURCE receives must observe
  // sources 1, 2, 3 on every run.  This pins the determinism audited for
  // wildcard matching: simultaneous arrivals never reorder.
  Simulation sim(machineByName("BG/P"), 4, vnOpts());
  std::vector<int> sources;
  sim.run([&](Rank& self) -> sim::Task {
    if (self.id() == 0) {
      for (int i = 0; i < 3; ++i) {
        const RecvInfo info = co_await self.recv(kAnySource, kAnyTag);
        sources.push_back(info.source);
      }
    } else {
      co_await self.send(0, 64, 5);
    }
  });
  EXPECT_EQ(sources, (std::vector<int>{1, 2, 3}));
}

TEST(Smpi, AnyTagDrainsStagedMessagesFifo) {
  // Messages staged before the receiver posts are drained in arrival
  // order: a single sender's tags come back in the order they were sent,
  // even though every ANY_TAG wildcard could match any of them.
  Simulation sim(machineByName("BG/P"), 2, vnOpts());
  std::vector<int> tags;
  sim.run([&](Rank& self) -> sim::Task {
    if (self.id() == 1) {
      std::vector<Request> sends;
      for (int tag : {7, 8, 9}) sends.push_back(self.isend(0, 64, tag));
      co_await self.waitAll(std::move(sends));
    } else {
      co_await self.compute(1e-3);  // let all three messages stage
      for (int i = 0; i < 3; ++i) {
        const RecvInfo info = co_await self.recv(kAnySource, kAnyTag);
        tags.push_back(info.tag);
      }
    }
  });
  EXPECT_EQ(tags, (std::vector<int>{7, 8, 9}));
}

TEST(Smpi, RendezvousWaitsForReceiver) {
  // A rendezvous-size blocking send cannot complete before the receiver
  // posts; with a late receiver the sender finishes ~ at the recv time.
  Simulation sim(machineByName("BG/P"), 2, vnOpts());
  double sendDone = 0;
  sim.run([&](Rank& self) -> sim::Task {
    if (self.id() == 0) {
      co_await self.send(1, 1e6);  // >> eager threshold (1200 B)
      sendDone = self.now();
    } else {
      co_await self.compute(0.5);  // receiver busy half a second
      co_await self.recv(0);
    }
  });
  EXPECT_GT(sendDone, 0.5);
}

TEST(Smpi, EagerSendCompletesBeforeReceiverPosts) {
  Simulation sim(machineByName("BG/P"), 2, vnOpts());
  double sendDone = 0;
  sim.run([&](Rank& self) -> sim::Task {
    if (self.id() == 0) {
      co_await self.send(1, 8);  // eager
      sendDone = self.now();
    } else {
      co_await self.compute(0.5);
      co_await self.recv(0);
    }
  });
  EXPECT_LT(sendDone, 0.01);
}

TEST(Smpi, IsendOverlapsCompute) {
  net::SystemOptions o = vnOpts();
  o.mappingOrder = "XYZT";
  Simulation sim(machineByName("BG/P"), 2, o);
  double overlapped = 0;
  const double bytes = 37.4e6;  // ~0.1 s on the 374 MB/s link
  sim.run([&](Rank& self) -> sim::Task {
    if (self.id() == 0) {
      const double t0 = self.now();
      Request r = self.isend(1, bytes);
      co_await self.compute(0.1);  // overlap with the transfer
      co_await self.wait(r);
      overlapped = self.now() - t0;
    } else {
      Request r = self.irecv(0);
      co_await self.compute(0.1);
      co_await self.wait(r);
    }
  });
  // With overlap, total is ~max(compute, transfer), not the sum.
  EXPECT_LT(overlapped, 0.15);
}

TEST(Smpi, SendrecvExchanges) {
  Simulation sim(machineByName("BG/P"), 2);
  int completions = 0;
  sim.run([&](Rank& self) -> sim::Task {
    const int other = 1 - self.id();
    co_await self.sendrecv(other, 4096, other);
    ++completions;
  });
  EXPECT_EQ(completions, 2);
}

TEST(Smpi, DeadlockDetected) {
  Simulation sim(machineByName("BG/P"), 2);
  EXPECT_THROW(sim.run([](Rank& self) -> sim::Task {
                 co_await self.recv(1 - self.id());  // nobody sends
               }),
               DeadlockError);
}

TEST(Smpi, DeadlockMessageNamesBlockedOp) {
  Simulation sim(machineByName("BG/P"), 2);
  try {
    sim.run([](Rank& self) -> sim::Task {
      if (self.id() == 0) co_await self.recv(1);
    });
    FAIL() << "expected deadlock";
  } catch (const DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("recv"), std::string::npos);
  }
}

TEST(Smpi, RankExceptionPropagates) {
  Simulation sim(machineByName("BG/P"), 2);
  EXPECT_THROW(sim.run([](Rank& self) -> sim::Task {
                 if (self.id() == 1) throw std::runtime_error("app failure");
                 co_return;
               }),
               std::runtime_error);
}

TEST(Smpi, RunTwiceRejected) {
  Simulation sim(machineByName("BG/P"), 1);
  auto noop = [](Rank&) -> sim::Task { co_return; };
  sim.run(noop);
  EXPECT_THROW(sim.run(noop), PreconditionError);
}

// ---- collectives ---------------------------------------------------------------

TEST(Smpi, BarrierSynchronizesRanks) {
  Simulation sim(machineByName("BG/P"), 8);
  std::vector<double> after(8);
  sim.run([&](Rank& self) -> sim::Task {
    co_await self.compute(0.01 * self.id());  // staggered arrivals
    co_await self.barrier();
    after[static_cast<std::size_t>(self.id())] = self.now();
  });
  for (int i = 1; i < 8; ++i) EXPECT_NEAR(after[0], after[static_cast<std::size_t>(i)], 1e-12);
  EXPECT_GT(after[0], 0.07);  // gated on the slowest rank
}

TEST(Smpi, AllreduceCostsMicroseconds) {
  Simulation sim(machineByName("BG/P"), 64);
  double t = 0;
  sim.run([&](Rank& self) -> sim::Task {
    const double t0 = self.now();
    co_await self.allreduce(8);
    if (self.id() == 0) t = self.now() - t0;
  });
  EXPECT_GT(t, 1e-6);
  EXPECT_LT(t, 50e-6);
}

TEST(Smpi, CollectiveMismatchDetected) {
  Simulation sim(machineByName("BG/P"), 2);
  EXPECT_THROW(sim.run([](Rank& self) -> sim::Task {
                 if (self.id() == 0) {
                   co_await self.barrier();
                 } else {
                   co_await self.allreduce(8);
                 }
               }),
               PreconditionError);
}

TEST(Smpi, BackToBackCollectivesKeepOrder) {
  Simulation sim(machineByName("BG/P"), 16);
  int done = 0;
  sim.run([&](Rank& self) -> sim::Task {
    for (int i = 0; i < 5; ++i) {
      co_await self.allreduce(8);
      co_await self.barrier();
    }
    ++done;
  });
  EXPECT_EQ(done, 16);
}

TEST(Smpi, CollectiveCostQueryMatchesSimulatedCost) {
  Simulation sim(machineByName("BG/P"), 128);
  double simulated = 0, analytic = 0;
  sim.run([&](Rank& self) -> sim::Task {
    analytic = self.collectiveCost(net::CollKind::Allreduce, 1024);
    co_await self.barrier();  // align everyone
    const double t0 = self.now();
    co_await self.allreduce(1024);
    if (self.id() == 0) simulated = self.now() - t0;
  });
  EXPECT_NEAR(simulated, analytic, 1e-12);
}

// ---- sub-communicators -----------------------------------------------------------

TEST(Smpi, SplitWorldRowsWork) {
  Simulation sim(machineByName("BG/P"), 8);
  std::vector<int> colors = {0, 0, 0, 0, 1, 1, 1, 1};
  auto comms = sim.splitWorld(colors);
  ASSERT_EQ(comms.size(), 2u);
  EXPECT_EQ(comms[0]->size(), 4);
  EXPECT_EQ(comms[0]->commRankOf(2), 2);
  EXPECT_EQ(comms[1]->commRankOf(5), 1);
  EXPECT_EQ(comms[1]->commRankOf(2), -1);

  int reduced = 0;
  sim.run([&](Rank& self) -> sim::Task {
    Comm& mine = Simulation::commOf(comms, self.id());
    co_await self.allreduce(mine, 8);
    ++reduced;
  });
  EXPECT_EQ(reduced, 8);
}

TEST(Smpi, SubCommP2PUsesCommRanks) {
  Simulation sim(machineByName("BG/P"), 4);
  auto comms = sim.splitWorld({0, 1, 0, 1});  // comm0 = {0,2}, comm1 = {1,3}
  double got = 0;
  sim.run([&](Rank& self) -> sim::Task {
    Comm& mine = Simulation::commOf(comms, self.id());
    if (self.id() == 0) {
      co_await self.send(mine, 1, 777);  // comm rank 1 == world rank 2
    } else if (self.id() == 2) {
      const RecvInfo info = co_await self.recv(mine, 0);
      got = info.bytes;
    }
    co_return;
  });
  EXPECT_DOUBLE_EQ(got, 777);
}

TEST(Smpi, NegativeColorExcluded) {
  Simulation sim(machineByName("BG/P"), 4);
  auto comms = sim.splitWorld({0, -1, 0, -1});
  ASSERT_EQ(comms.size(), 1u);
  EXPECT_EQ(comms[0]->size(), 2);
}

// ---- modes & memory ---------------------------------------------------------------

TEST(Smpi, MemoryLimitEnforcedPerMode) {
  net::SystemOptions vn = vnOpts();
  Simulation simVn(machineByName("BG/P"), 4, vn);
  // 512 MiB/task in VN mode on a 2 GiB node: 600 MiB must throw.
  EXPECT_THROW(simVn.requireMemoryPerTask(600.0 * 1024 * 1024),
               OutOfMemoryError);

  net::SystemOptions dual = vnOpts();
  dual.mode = arch::ExecMode::DUAL;
  Simulation simDual(machineByName("BG/P"), 4, dual);
  EXPECT_NO_THROW(simDual.requireMemoryPerTask(600.0 * 1024 * 1024));
}

TEST(Smpi, DeterministicAcrossRuns) {
  auto once = [] {
    Simulation sim(machineByName("BG/P"), 32);
    auto program = [](Rank& self) -> sim::Task {
      for (int i = 0; i < 3; ++i) {
        const int peer = (self.id() + 1) % self.size();
        const int from =
            (self.id() + self.size() - 1) % self.size();
        co_await self.sendrecv(peer, 4096, from);
        co_await self.allreduce(8);
      }
    };
    return sim.run(program).makespan;
  };
  EXPECT_DOUBLE_EQ(once(), once());
}

TEST(Smpi, RngStreamsPerRankDiffer) {
  Simulation sim(machineByName("BG/P"), 2);
  std::vector<std::uint64_t> draws(2);
  sim.run([&](Rank& self) -> sim::Task {
    draws[static_cast<std::size_t>(self.id())] = self.rng()();
    co_return;
  });
  EXPECT_NE(draws[0], draws[1]);
}

TEST(Smpi, WaitAnyReturnsFirstCompletion) {
  net::SystemOptions o = vnOpts();
  o.mappingOrder = "XYZT";
  Simulation sim(machineByName("BG/P"), 8, o);
  std::size_t firstIndex = 999;
  double firstTime = 0;
  sim.run([&](Rank& self) -> sim::Task {
    if (self.id() == 0) {
      // Two outstanding receives; rank 2 answers much sooner than rank 1.
      std::vector<Request> rs;
      rs.push_back(self.irecv(1, 10));
      rs.push_back(self.irecv(2, 20));
      const std::size_t idx = co_await self.waitAny(rs);
      firstIndex = idx;
      firstTime = self.now();
      co_await self.wait(rs[1 - idx]);  // the other one still completes
    } else if (self.id() == 1) {
      co_await self.compute(1.0);
      co_await self.send(0, 64, 10);
    } else if (self.id() == 2) {
      co_await self.send(0, 64, 20);
    }
    co_return;
  });
  EXPECT_EQ(firstIndex, 1u);     // rank 2's message lands first
  EXPECT_LT(firstTime, 0.1);     // long before rank 1's 1-second compute
}

TEST(Smpi, WaitAnyReadyImmediatelyWhenOneDone) {
  Simulation sim(machineByName("BG/P"), 2);
  std::size_t idx = 999;
  sim.run([&](Rank& self) -> sim::Task {
    if (self.id() == 0) {
      co_await self.send(1, 8);
    } else {
      Request r = self.irecv(0);
      co_await self.compute(0.5);  // message arrives meanwhile
      std::vector<Request> rs{r};
      idx = co_await self.waitAny(rs);
    }
  });
  EXPECT_EQ(idx, 0u);
}

TEST(Smpi, WaitAnyLosersCompleteAfterResumeAndCanBeReawaited) {
  // The waitAny awaiter is registered on every request while suspended
  // and must unregister from the losers when it resumes: they complete
  // later, after its frame slot has been reused by other awaiters, and
  // are then awaited again (ready and blocking).
  Simulation sim(machineByName("BG/P"), 3);
  std::size_t first = 999, second = 999;
  bool losersPendingAtResume = false;  // and no longer carry its waiter
  bool lateLoserDoneAtRewait = true;
  double lastTime = 0;
  const RunResult result = sim.run([&](Rank& self) -> sim::Task {
    if (self.id() == 0) {
      Request a = self.irecv(1, 0);
      Request b = self.irecv(2, 0);
      Request c = self.irecv(1, 1);
      std::vector<Request> all{a, b, c};
      first = co_await self.waitAny(all);
      losersPendingAtResume = !b->complete && !c->complete &&
                              b->pendingWaiters() == 0 &&
                              c->pendingWaiters() == 0;
      co_await self.compute(1e-3);  // b lands meanwhile, c much later
      lateLoserDoneAtRewait = c->complete;
      std::vector<Request> losers{b, c};
      second = co_await self.waitAny(losers);  // ready: b already done
      co_await self.wait(c);                   // blocks until c lands
      lastTime = self.now();
    } else if (self.id() == 1) {
      co_await self.send(0, 8, 0);
      co_await self.compute(5e-3);
      co_await self.send(0, 8, 1);
    } else {
      co_await self.compute(2e-4);
      co_await self.send(0, 8, 0);
    }
  });
  EXPECT_EQ(first, 0u);
  EXPECT_TRUE(losersPendingAtResume);
  EXPECT_FALSE(lateLoserDoneAtRewait);
  EXPECT_EQ(second, 0u);
  EXPECT_GT(lastTime, 5e-3);
  EXPECT_EQ(result.makespan, lastTime);
}

TEST(Smpi, WaitAnyRejectsEmpty) {
  Simulation sim(machineByName("BG/P"), 1);
  EXPECT_THROW(sim.run([](Rank& self) -> sim::Task {
                 co_await self.waitAny({});
               }),
               PreconditionError);
}

TEST(Smpi, SendToOutOfRangeRankRejected) {
  // Both ranks hit the same precondition, so the failures arrive
  // aggregated; the report still carries the original message.
  Simulation sim(machineByName("BG/P"), 2);
  try {
    sim.run([](Rank& self) -> sim::Task {
      co_await self.send(5, 8);  // only 2 ranks
    });
    FAIL() << "expected RankFailures";
  } catch (const RankFailures& e) {
    EXPECT_EQ(e.ranks(), (std::vector<int>{0, 1}));
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
}

TEST(Smpi, NegativeTagRejected) {
  Simulation sim(machineByName("BG/P"), 2);
  try {
    sim.run([](Rank& self) -> sim::Task {
      co_await self.send(1 - self.id(), 8, -3);
    });
    FAIL() << "expected RankFailures";
  } catch (const RankFailures& e) {
    EXPECT_EQ(e.ranks(), (std::vector<int>{0, 1}));
    EXPECT_NE(std::string(e.what()).find("non-negative"), std::string::npos);
  }
}

TEST(Smpi, OsNoiseJittersXtComputeOnly) {
  // Identical compute calls: bit-identical on BG/P (CNK), jittered on the
  // CNL-based XT — and deterministically so.
  auto spread = [](const char* machine) {
    Simulation sim(machineByName(machine), 8);
    std::vector<double> finish(8);
    sim.run([&](Rank& self) -> sim::Task {
      co_await self.compute(1.0);
      finish[static_cast<std::size_t>(self.id())] = self.now();
    });
    double lo = 1e300, hi = 0;
    for (double f : finish) {
      lo = std::min(lo, f);
      hi = std::max(hi, f);
    }
    return hi - lo;
  };
  EXPECT_DOUBLE_EQ(spread("BG/P"), 0.0);
  const double xtSpread = spread("XT4/QC");
  EXPECT_GT(xtSpread, 0.001);
  EXPECT_LT(xtSpread, 0.05);
  EXPECT_DOUBLE_EQ(spread("XT4/QC"), xtSpread);  // deterministic
}

TEST(Smpi, NoiseAmplifiedByBarriers) {
  // Classic OS-noise amplification: N barrier-separated compute steps cost
  // ~N * (mean + tail) because each step waits for the unluckiest rank.
  Simulation sim(machineByName("XT4/QC"), 64);
  double elapsed = 0;
  const int steps = 20;
  sim.run([&](Rank& self) -> sim::Task {
    for (int s = 0; s < steps; ++s) {
      co_await self.compute(0.1);
      co_await self.barrier();
    }
    if (self.id() == 0) elapsed = self.now();
  });
  const double ideal = steps * 0.1;
  // Mean noise alone would cost ~1%; the max-of-64 draw per step costs
  // nearly the full 2% tail.
  EXPECT_GT(elapsed, ideal * 1.015);
  EXPECT_LT(elapsed, ideal * 1.03);
}

TEST(Smpi, ManyRanksRingCompletes) {
  // Scale sanity: a 4096-rank ring exchange finishes and stays ordered.
  Simulation sim(machineByName("BG/P"), 4096);
  int done = 0;
  sim.run([&](Rank& self) -> sim::Task {
    const int next = (self.id() + 1) % self.size();
    const int prev = (self.id() + self.size() - 1) % self.size();
    co_await self.sendrecv(next, 1024, prev);
    ++done;
  });
  EXPECT_EQ(done, 4096);
}

}  // namespace
}  // namespace bgp::smpi
