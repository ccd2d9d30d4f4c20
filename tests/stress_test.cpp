// Stress/robustness tests: adaptive routing properties and randomized
// ("fuzz") simulated-MPI programs.  The fuzz programs are generated from a
// shared seed so every rank derives the same communication plan — any
// mismatch in the runtime's matching or collective gating would deadlock
// or throw, and any nondeterminism would break the replay equality.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <ostream>
#include <string>

#include "arch/exec_mode.hpp"
#include "arch/machines.hpp"
#include "net/torus_network.hpp"
#include "smpi/simulation.hpp"
#include "support/rng.hpp"

namespace bgp {
namespace arch {
// gtest finds this by ADL when it prints a MachineModeMatrix parameter.
inline void PrintTo(ExecMode mode, std::ostream* os) { *os << toString(mode); }
}  // namespace arch

namespace {

using arch::machineByName;

// ---- adaptive routing ----------------------------------------------------------

TEST(AdaptiveRouting, RouteOrderedReachesDestination) {
  const topo::Torus3D t(4, 5, 3);
  const std::array<std::array<int, 3>, 3> orders = {
      {{0, 1, 2}, {2, 1, 0}, {1, 0, 2}}};
  for (topo::NodeId a = 0; a < t.count(); a += 7) {
    for (topo::NodeId b = 0; b < t.count(); b += 5) {
      for (const auto& order : orders) {
        const auto links = t.routeOrdered(a, b, order);
        EXPECT_EQ(static_cast<int>(links.size()), t.hopDistance(a, b));
      }
    }
  }
}

TEST(AdaptiveRouting, RejectsBadAxisOrder) {
  const topo::Torus3D t(2, 2, 2);
  EXPECT_THROW(t.routeOrdered(0, 1, {0, 0, 1}), PreconditionError);
  EXPECT_THROW(t.routeOrdered(0, 1, {0, 1, 3}), PreconditionError);
}

TEST(AdaptiveRouting, AvoidsCongestedLink) {
  net::TorusParams params;
  params.linkBandwidth = 1e9;
  params.hopLatency = 1e-7;
  params.swLatency = 1e-6;
  params.adaptiveRouting = true;
  net::TorusNetwork net(topo::Torus3D(4, 4, 4), params);
  const auto& t = net.torus();
  const auto src = t.nodeAt({0, 0, 0});
  const auto dst = t.nodeAt({1, 1, 0});  // 2 hops, XY or YX order
  // Congest the XYZ route's first link (X+ out of the source).
  net.transfer(src, t.nodeAt({1, 0, 0}), 1e7, 0.0);
  // An adaptive message should dodge via Y first and arrive quickly.
  const auto tr = net.transfer(src, dst, 1e4, 0.0);
  EXPECT_LT(tr.arrival, 1e-4);

  // The deterministic router eats the queueing delay.
  params.adaptiveRouting = false;
  net::TorusNetwork fixed(topo::Torus3D(4, 4, 4), params);
  fixed.transfer(src, t.nodeAt({1, 0, 0}), 1e7, 0.0);
  const auto trFixed = fixed.transfer(src, dst, 1e4, 0.0);
  EXPECT_GT(trFixed.arrival, 5e-3);
}

TEST(AdaptiveRouting, NeverSlowerThanDeterministicSingleFlow) {
  // With no competing traffic both routers give identical timing.
  for (bool adaptive : {false, true}) {
    net::TorusParams params;
    params.adaptiveRouting = adaptive;
    net::TorusNetwork net(topo::Torus3D(4, 4, 4), params);
    const auto tr = net.transfer(0, 21, 1e6, 0.0);
    static double baseline = 0;
    if (!adaptive) {
      baseline = tr.arrival;
    } else {
      EXPECT_DOUBLE_EQ(tr.arrival, baseline);
    }
  }
}

TEST(AdaptiveRouting, ReducesHaloContention) {
  // End-to-end: a congested many-pairs exchange finishes no later with
  // adaptive routing enabled.
  auto run = [](bool adaptive) {
    net::SystemOptions o;
    o.mappingOrder = "ZYXT";  // a mapping with long, overlapping routes
    o.adaptiveRouting = adaptive;
    smpi::Simulation sim(machineByName("BG/P"), 256, o);
    double makespan = 0;
    sim.run([&](smpi::Rank& self) -> sim::Task {
      const int peer = (self.id() + 64) % self.size();
      const int from = (self.id() + self.size() - 64) % self.size();
      co_await self.sendrecv(peer, 262144, from);
      co_return;
    });
    (void)makespan;
    return sim.engine().now();
  };
  EXPECT_LE(run(true), run(false) * 1.001);
}

// ---- randomized programs ---------------------------------------------------------

/// Builds a deterministic random "program plan" every rank agrees on.
struct FuzzPlan {
  enum class Op { RingExchange, PairExchange, Allreduce, Bcast, Barrier,
                  Compute };
  struct Round {
    Op op;
    double bytes;
    std::vector<int> permutation;  // for PairExchange
  };
  std::vector<Round> rounds;

  static FuzzPlan make(std::uint64_t seed, int nranks, int nrounds) {
    Rng rng(seed);
    FuzzPlan plan;
    for (int i = 0; i < nrounds; ++i) {
      Round r;
      const auto pick = rng.below(6);
      r.op = static_cast<Op>(pick);
      r.bytes = std::pow(10.0, rng.uniform(0.5, 6.0));  // 3 B .. 1 MB
      if (r.op == Op::PairExchange) {
        // Random involution: shuffle, then pair adjacent entries.
        r.permutation.resize(static_cast<std::size_t>(nranks));
        std::iota(r.permutation.begin(), r.permutation.end(), 0);
        for (std::size_t k = r.permutation.size(); k > 1; --k)
          std::swap(r.permutation[k - 1], r.permutation[rng.below(k)]);
      }
      plan.rounds.push_back(std::move(r));
    }
    return plan;
  }
};

sim::Task fuzzProgram(smpi::Rank& self, const FuzzPlan& plan) {
  for (std::size_t i = 0; i < plan.rounds.size(); ++i) {
    const auto& round = plan.rounds[i];
    const int tag = static_cast<int>(i) + 1;
    switch (round.op) {
      case FuzzPlan::Op::RingExchange: {
        const int next = (self.id() + 1) % self.size();
        const int prev = (self.id() + self.size() - 1) % self.size();
        co_await self.sendrecv(next, round.bytes, prev, tag, tag);
        break;
      }
      case FuzzPlan::Op::PairExchange: {
        // Pair adjacent entries of the shared shuffle.
        const auto& perm = round.permutation;
        int partner = self.id();
        for (std::size_t k = 0; k + 1 < perm.size(); k += 2) {
          if (perm[k] == self.id()) partner = perm[k + 1];
          if (perm[k + 1] == self.id()) partner = perm[k];
        }
        if (partner != self.id()) {
          co_await self.sendrecv(partner, round.bytes, partner, tag, tag);
        }
        break;
      }
      case FuzzPlan::Op::Allreduce:
        co_await self.allreduce(round.bytes);
        break;
      case FuzzPlan::Op::Bcast:
        co_await self.bcast(round.bytes);
        break;
      case FuzzPlan::Op::Barrier:
        co_await self.barrier();
        break;
      case FuzzPlan::Op::Compute:
        co_await self.compute(round.bytes * 1e-9);
        break;
    }
  }
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, RandomProgramsCompleteDeterministically) {
  const std::uint64_t seed = GetParam();
  const int nranks = 32;
  const auto plan = FuzzPlan::make(seed, nranks, 40);
  auto runOnce = [&] {
    smpi::Simulation sim(machineByName(seed % 2 ? "BG/P" : "XT4/QC"),
                         nranks);
    const auto result = sim.run(
        [&](smpi::Rank& self) -> sim::Task { return fuzzProgram(self, plan); });
    return result.makespan;
  };
  const double first = runOnce();
  EXPECT_GT(first, 0.0);
  EXPECT_DOUBLE_EQ(first, runOnce());  // bit-identical replay
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

TEST(Fuzz, RandomProgramInterleavedWithSubCommTraffic) {
  // World-level fuzz rounds interleaved with sub-communicator collectives
  // and neighbor traffic: exercises the matching tables of several comms
  // at once.
  const int nranks = 64;
  smpi::Simulation sim(machineByName("BG/P"), nranks);
  std::vector<int> colors(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i)
    colors[static_cast<std::size_t>(i)] = i % 4;
  auto comms = sim.splitWorld(colors);
  const auto plan = FuzzPlan::make(4242, nranks, 20);
  int done = 0;
  sim.run([&](smpi::Rank& self) -> sim::Task {
    smpi::Comm& mine = smpi::Simulation::commOf(comms, self.id());
    for (std::size_t i = 0; i < plan.rounds.size(); ++i) {
      const double bytes = plan.rounds[i].bytes;
      co_await self.allreduce(mine, bytes);
      const int me = mine.commRankOf(self.id());
      const int next = (me + 1) % mine.size();
      const int prev = (me + mine.size() - 1) % mine.size();
      co_await self.sendrecv(mine, next, bytes, prev, 500, 500);
      if (i % 4 == 0) co_await self.barrier();  // world-level sync
    }
    ++done;
  });
  EXPECT_EQ(done, nranks);
}

// ---- fault fuzz ------------------------------------------------------------------

/// Derives a random-but-reproducible fault schedule from a seed: every
/// knob drawn from its plausible range, fail-stops excluded (a correct
/// program cannot survive losing a rank; FailStop* tests cover that).
sim::FaultConfig fuzzFaults(std::uint64_t seed) {
  Rng rng(seed ^ 0xFA017);
  sim::FaultConfig fc;
  fc.seed = seed;
  fc.linkDegradeFraction = rng.uniform(0.0, 0.3);
  fc.linkDegradeFactor = rng.uniform(0.25, 0.9);
  fc.linkOutagesPerSecond = rng.uniform(0.0, 50.0);
  fc.linkOutageMeanSeconds = rng.uniform(1e-5, 1e-3);
  fc.stragglerFraction = rng.uniform(0.0, 0.3);
  fc.stragglerSlowdown = rng.uniform(1.1, 3.0);
  fc.osNoiseFraction = rng.uniform(0.0, 0.02);
  return fc;
}

class FaultFuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultFuzzSeeds, FaultedProgramsCompleteCleanAndDeterministic) {
  // A correct halo+allreduce program under a random fault schedule must
  // (a) still complete, (b) never trip the verifier — faults perturb
  // timing, never MPI semantics — and (c) replay bit-identically.
  const std::uint64_t seed = GetParam();
  const int nranks = 32;
  const auto faults = fuzzFaults(seed);
  const auto plan = FuzzPlan::make(seed * 2 + 1, nranks, 24);
  auto runOnce = [&] {
    smpi::Simulation sim(machineByName("BG/P"), nranks);
    sim.setFaults(faults);
    smpi::VerifierOptions vo;
    vo.failFast = false;  // collect: assert emptiness explicitly
    smpi::Verifier& verifier = sim.enableVerifier(vo);
    const auto result = sim.run(
        [&](smpi::Rank& self) -> sim::Task { return fuzzProgram(self, plan); });
    EXPECT_TRUE(verifier.clean())
        << "verifier tripped under faults, seed " << seed << ": "
        << verifier.defects().front();
    return result.makespan;
  };
  const double first = runOnce();
  EXPECT_GT(first, 0.0);
  EXPECT_DOUBLE_EQ(first, runOnce());  // per-seed determinism
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzzSeeds,
                         ::testing::Values(7, 11, 23, 42, 99, 123, 456,
                                           789));

// ---- machine x mode matrix ---------------------------------------------------------

// The machine is a std::string, not a const char*, and the mode prints by
// name: the printed parameter is part of each test's ctest name, and a
// pointer would print as an address that moves from run to run.
class MachineModeMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, arch::ExecMode>> {
};

TEST_P(MachineModeMatrix, StencilProgramRunsEverywhere) {
  const auto [machine, mode] = GetParam();
  const auto cfg = machineByName(machine);
  if (mode == arch::ExecMode::DUAL && cfg.maxTasksPerNode < 2)
    GTEST_SKIP() << machine << " has no DUAL mode";
  net::SystemOptions o;
  o.mode = mode;
  smpi::Simulation sim(cfg, 64, o);
  int done = 0;
  sim.run([&](smpi::Rank& self) -> sim::Task {
    for (int step = 0; step < 3; ++step) {
      const int next = (self.id() + 1) % self.size();
      const int prev = (self.id() + self.size() - 1) % self.size();
      co_await self.sendrecv(next, 8192, prev);
      co_await self.compute(arch::Work{1e7, 1e6, 0.5});
      co_await self.allreduce(8);
    }
    ++done;
  });
  EXPECT_EQ(done, 64);
}

INSTANTIATE_TEST_SUITE_P(
    AllMachines, MachineModeMatrix,
    ::testing::Combine(::testing::Values("BG/P", "BG/L", "XT3", "XT4/DC",
                                         "XT4/QC"),
                       ::testing::Values(arch::ExecMode::SMP,
                                         arch::ExecMode::DUAL,
                                         arch::ExecMode::VN)));

}  // namespace
}  // namespace bgp
