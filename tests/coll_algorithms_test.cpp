// Tests for the event-level algorithmic collectives and awaited-Task
// composition, including cross-validation against the analytic
// CollectiveModel.

#include <gtest/gtest.h>

#include "arch/machines.hpp"
#include "sim/task.hpp"
#include "smpi/coll_algorithms.hpp"
#include "smpi/simulation.hpp"

namespace bgp::smpi {
namespace {

using arch::machineByName;

// ---- awaited Task composition --------------------------------------------------

sim::Task inner(Rank& self, int& counter) {
  ++counter;
  co_await self.compute(0.5);
  ++counter;
}

TEST(TaskComposition, ComposesAndResumesCaller) {
  Simulation sim(machineByName("BG/P"), 1);
  int counter = 0;
  double after = -1;
  sim.run([&](Rank& self) -> sim::Task {
    co_await inner(self, counter);
    after = self.now();
    ++counter;
  });
  EXPECT_EQ(counter, 3);
  EXPECT_DOUBLE_EQ(after, 0.5);
}

sim::Task throwing(Rank& self) {
  co_await self.compute(0.1);
  throw std::runtime_error("subtask failure");
}

TEST(TaskComposition, ExceptionsPropagateToCaller) {
  Simulation sim(machineByName("BG/P"), 1);
  EXPECT_THROW(sim.run([&](Rank& self) -> sim::Task {
                 co_await throwing(self);
               }),
               std::runtime_error);
}

TEST(TaskComposition, NestedComposition) {
  Simulation sim(machineByName("BG/P"), 1);
  double t = -1;
  auto level2 = [](Rank& self) -> sim::Task {
    co_await self.compute(0.25);
  };
  auto level1 = [&](Rank& self) -> sim::Task {
    co_await level2(self);
    co_await level2(self);
  };
  sim.run([&](Rank& self) -> sim::Task {
    co_await level1(self);
    t = self.now();
  });
  EXPECT_DOUBLE_EQ(t, 0.5);
}

// ---- algorithm completion across sizes -------------------------------------------

class AlgoSizes : public ::testing::TestWithParam<int> {};

TEST_P(AlgoSizes, AllAlgorithmsComplete) {
  const int p = GetParam();
  Simulation sim(machineByName("XT4/QC"), p);
  int finished = 0;
  sim.run([&](Rank& self) -> sim::Task {
    Comm& world = self.sim().world();
    co_await algo::bcastBinomial(self, world, 4096, 0);
    co_await algo::reduceBinomial(self, world, 4096, 0);
    co_await algo::allreduceRecursiveDoubling(self, world, 4096);
    co_await algo::allgatherRing(self, world, 512);
    co_await algo::alltoallPairwise(self, world, 256);
    co_await algo::barrierDissemination(self, world);
    ++finished;
  });
  EXPECT_EQ(finished, p);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AlgoSizes,
                         ::testing::Values(2, 3, 4, 7, 8, 16, 33, 64));

TEST(Algo, RabenseifnerRequiresPow2) {
  // Every rank trips the same precondition, so the failures arrive as one
  // aggregated RankFailures report.
  Simulation sim(machineByName("XT4/QC"), 6);
  try {
    sim.run([](Rank& self) -> sim::Task {
      co_await algo::allreduceRabenseifner(self, self.sim().world(), 4096);
    });
    FAIL() << "expected RankFailures";
  } catch (const RankFailures& e) {
    EXPECT_EQ(static_cast<int>(e.ranks().size()), 6);
    EXPECT_NE(std::string(e.what()).find("power-of-two"), std::string::npos);
  }
}

TEST(Algo, RabenseifnerCompletesPow2) {
  Simulation sim(machineByName("XT4/QC"), 32);
  int done = 0;
  sim.run([&](Rank& self) -> sim::Task {
    co_await algo::allreduceRabenseifner(self, self.sim().world(), 65536);
    ++done;
  });
  EXPECT_EQ(done, 32);
}

TEST(Algo, NonRootBcastWorks) {
  Simulation sim(machineByName("XT4/QC"), 16);
  int done = 0;
  sim.run([&](Rank& self) -> sim::Task {
    co_await algo::bcastBinomial(self, self.sim().world(), 8192, 5);
    co_await algo::reduceBinomial(self, self.sim().world(), 8192, 11);
    ++done;
  });
  EXPECT_EQ(done, 16);
}

TEST(Algo, WorksOnSubCommunicators) {
  Simulation sim(machineByName("XT4/QC"), 16);
  auto comms = sim.splitWorld({0, 0, 0, 0, 0, 0, 0, 0,
                               1, 1, 1, 1, 1, 1, 1, 1});
  int done = 0;
  sim.run([&](Rank& self) -> sim::Task {
    Comm& mine = Simulation::commOf(comms, self.id());
    co_await algo::allreduceRecursiveDoubling(self, mine, 4096);
    co_await algo::alltoallPairwise(self, mine, 1024);
    ++done;
  });
  EXPECT_EQ(done, 16);
}

// ---- timing properties -------------------------------------------------------------

double timeAlgo(const char* machine, int p,
                const std::function<sim::Task(Rank&, Comm&)>& makeAlgo) {
  Simulation sim(arch::machineByName(machine), p);
  double elapsed = 0;
  sim.run([&](Rank& self) -> sim::Task {
    co_await self.barrier();
    const double t0 = self.now();
    co_await makeAlgo(self, self.sim().world());
    co_await self.barrier();
    if (self.id() == 0) elapsed = self.now() - t0;
  });
  return elapsed;
}

TEST(Algo, BcastGrowsLogarithmically) {
  const double t8 = timeAlgo("XT4/QC", 8, [](Rank& s, Comm& c) {
    return algo::bcastBinomial(s, c, 1024, 0);
  });
  const double t64 = timeAlgo("XT4/QC", 64, [](Rank& s, Comm& c) {
    return algo::bcastBinomial(s, c, 1024, 0);
  });
  // 8x ranks => ~2x rounds, nowhere near 8x time.
  EXPECT_LT(t64, 3.5 * t8);
  EXPECT_GT(t64, t8);
}

TEST(Algo, RabenseifnerBeatsRecursiveDoublingForLargeVectors) {
  // The whole point of Rabenseifner: 2*bytes moved instead of lg(p)*bytes.
  const double bytes = 4 * 1024 * 1024;
  const double rd = timeAlgo("XT4/QC", 32, [&](Rank& s, Comm& c) {
    return algo::allreduceRecursiveDoubling(s, c, bytes);
  });
  const double rab = timeAlgo("XT4/QC", 32, [&](Rank& s, Comm& c) {
    return algo::allreduceRabenseifner(s, c, bytes);
  });
  EXPECT_LT(rab, 0.8 * rd);
}

TEST(Algo, CrossValidatesAnalyticModel) {
  // The analytic CollectiveModel must agree with the event-level
  // algorithms within a modest factor on the torus-algorithm machine.
  struct Case {
    net::CollKind kind;
    double bytes;
    std::function<sim::Task(Rank&, Comm&)> make;
  };
  const std::vector<Case> cases = {
      {net::CollKind::Bcast, 32768,
       [](Rank& s, Comm& c) { return algo::bcastBinomial(s, c, 32768, 0); }},
      {net::CollKind::Allreduce, 32768,
       [](Rank& s, Comm& c) {
         return algo::allreduceRecursiveDoubling(s, c, 32768);
       }},
      {net::CollKind::Allgather, 4096,
       [](Rank& s, Comm& c) { return algo::allgatherRing(s, c, 4096); }},
      {net::CollKind::Alltoall, 2048,
       [](Rank& s, Comm& c) { return algo::alltoallPairwise(s, c, 2048); }},
  };
  for (int p : {16, 64}) {
    net::System sys(machineByName("XT4/QC"), p);
    for (const auto& c : cases) {
      const double analytic =
          sys.collectives().cost(c.kind, p, c.bytes, net::Dtype::Byte);
      const double simulated = timeAlgo("XT4/QC", p, c.make);
      EXPECT_LT(simulated / analytic, 5.0)
          << toString(c.kind) << " p=" << p;
      EXPECT_GT(simulated / analytic, 0.2)
          << toString(c.kind) << " p=" << p;
    }
  }
}

TEST(Algo, Deterministic) {
  auto once = [] {
    return timeAlgo("XT4/QC", 32, [](Rank& s, Comm& c) {
      return algo::alltoallPairwise(s, c, 8192);
    });
  };
  EXPECT_DOUBLE_EQ(once(), once());
}

// ---- profiling instrumentation -----------------------------------------------------

TEST(Profile, CountsSendsAndBytes) {
  Simulation sim(machineByName("BG/P"), 2);
  sim.run([&](Rank& self) -> sim::Task {
    if (self.id() == 0) {
      for (int i = 0; i < 5; ++i) co_await self.send(1, 1000);
    } else {
      for (int i = 0; i < 5; ++i) co_await self.recv(0);
    }
  });
  EXPECT_EQ(sim.rankStats(0).sends, 5u);
  EXPECT_DOUBLE_EQ(sim.rankStats(0).bytesSent, 5000);
  EXPECT_EQ(sim.rankStats(1).recvs, 5u);
  EXPECT_EQ(sim.rankStats(1).sends, 0u);
}

TEST(Profile, TracksComputeAndWaitTime) {
  Simulation sim(machineByName("BG/P"), 2);
  sim.run([&](Rank& self) -> sim::Task {
    if (self.id() == 0) {
      co_await self.compute(2.0);
      co_await self.send(1, 8);
    } else {
      co_await self.recv(0);  // waits ~2 s for the sender
    }
  });
  EXPECT_DOUBLE_EQ(sim.rankStats(0).computeSeconds, 2.0);
  EXPECT_GT(sim.rankStats(1).p2pWaitSeconds, 1.9);
  EXPECT_DOUBLE_EQ(sim.rankStats(1).computeSeconds, 0.0);
}

TEST(Profile, CountsCollectivesAndWait) {
  Simulation sim(machineByName("BG/P"), 4);
  sim.run([&](Rank& self) -> sim::Task {
    co_await self.compute(0.001 * self.id());
    for (int i = 0; i < 3; ++i) co_await self.allreduce(64);
  });
  for (int r = 0; r < 4; ++r)
    EXPECT_EQ(sim.rankStats(r).collectives, 3u) << r;
  // Rank 0 arrives earliest, so it waits the longest.
  EXPECT_GT(sim.rankStats(0).collWaitSeconds,
            sim.rankStats(3).collWaitSeconds);
}

TEST(Profile, AggregateSummary) {
  Simulation sim(machineByName("BG/P"), 4);
  sim.run([&](Rank& self) -> sim::Task {
    co_await self.compute(self.id() == 3 ? 2.0 : 1.0);  // imbalanced
    co_await self.barrier();
  });
  const auto p = sim.profile();
  EXPECT_DOUBLE_EQ(p.computeSeconds, 5.0);
  EXPECT_NEAR(p.computeImbalance, 2.0 / 1.25, 1e-9);
  EXPECT_GT(p.commFraction, 0.0);
  EXPECT_LT(p.commFraction, 1.0);
  EXPECT_EQ(p.collectives, 4u);
}

}  // namespace
}  // namespace bgp::smpi
