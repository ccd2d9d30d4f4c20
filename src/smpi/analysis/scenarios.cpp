#include "smpi/analysis/scenarios.hpp"

#include <utility>

#include "apps/cam.hpp"
#include "apps/gyro.hpp"
#include "apps/md.hpp"
#include "apps/pop.hpp"
#include "apps/s3d.hpp"
#include "arch/machines.hpp"
#include "hpcc/comm_tests.hpp"
#include "hpcc/hpcc_sim.hpp"
#include "microbench/halo.hpp"
#include "microbench/imb.hpp"
#include "smpi/analysis/capture.hpp"
#include "smpi/analysis/passes.hpp"
#include "smpi/coll_algorithms.hpp"
#include "smpi/simulation.hpp"

namespace bgp::smpi::analysis {
namespace {

microbench::HaloConfig haloConfig(microbench::HaloProtocol protocol) {
  microbench::HaloConfig c;
  c.machine = arch::makeBGP();
  c.nranks = 16;
  c.gridRows = 4;
  c.gridCols = 4;
  c.protocol = protocol;
  c.reps = 2;
  return c;
}

/// One pass over every event-level collective algorithm; 16 ranks covers
/// the power-of-two paths (Rabenseifner), 12 the fold-in pre/post steps.
sim::Task collAlgoProgram(Rank& self, Comm& world, bool powerOfTwo) {
  co_await algo::bcastBinomial(self, world, 4096.0, 0);
  co_await algo::reduceBinomial(self, world, 4096.0, 0);
  co_await algo::allreduceRecursiveDoubling(self, world, 2048.0);
  if (powerOfTwo) co_await algo::allreduceRabenseifner(self, world, 65536.0);
  co_await algo::allgatherRing(self, world, 1024.0);
  co_await algo::alltoallPairwise(self, world, 512.0);
  co_await algo::barrierDissemination(self, world);
}

void runCollAlgos(int nranks, bool powerOfTwo) {
  Simulation sim(arch::makeBGP(), nranks);
  sim.run([&](Rank& self) {
    return collAlgoProgram(self, sim.world(), powerOfTwo);
  });
}

/// Sub-communicator stress: row/column splits with per-group collectives
/// and intra-group ring traffic, then a world barrier — the GYRO/HPL
/// communicator shape, minus the physics.
sim::Task subCommProgram(Rank& self, Simulation& sim,
                         const std::vector<Comm*>& rows,
                         const std::vector<Comm*>& cols) {
  Comm& row = Simulation::commOf(rows, self.id());
  Comm& col = Simulation::commOf(cols, self.id());
  const int rowRank = row.commRankOf(self.id());
  const int next = (rowRank + 1) % row.size();
  const int prev = (rowRank + row.size() - 1) % row.size();
  for (int iter = 0; iter < 3; ++iter) {
    co_await self.sendrecv(row, next, 2048.0, prev, 7 + iter, 7 + iter);
    co_await self.allreduce(row, 1024.0);
    co_await self.bcast(col, 4096.0, 0);
  }
  co_await self.barrier(sim.world());
}

void runSubCommStress() {
  Simulation sim(arch::makeBGP(), 16);
  std::vector<int> rowColor(16), colColor(16);
  for (int w = 0; w < 16; ++w) {
    rowColor[static_cast<std::size_t>(w)] = w / 4;
    colColor[static_cast<std::size_t>(w)] = w % 4;
  }
  const auto rows = sim.splitWorld(rowColor);
  const auto cols = sim.splitWorld(colColor);
  sim.run([&](Rank& self) { return subCommProgram(self, sim, rows, cols); });
}

/// Deterministic mixed-traffic fuzz, the shape of tests/stress_test.cpp's
/// FuzzPlan: ring exchanges, shuffled pair exchanges, collectives, and
/// compute, all driven by one shared seed.
sim::Task fuzzProgram(Rank& self, std::uint64_t seed, int rounds) {
  std::uint64_t state = seed;
  const auto nextRand = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < rounds; ++i) {
    const int tag = i + 1;
    const double bytes = static_cast<double>(64 + nextRand() % 8192);
    switch (nextRand() % 5) {
      case 0: {
        const int next = (self.id() + 1) % self.size();
        const int prev = (self.id() + self.size() - 1) % self.size();
        co_await self.sendrecv(next, bytes, prev, tag, tag);
        break;
      }
      case 1: {
        // XOR pairing on the low bit of a shared random mask.
        const int partner =
            self.id() ^ (1 << (nextRand() % 4));
        if (partner < self.size())
          co_await self.sendrecv(partner, bytes, partner, tag, tag);
        break;
      }
      case 2:
        co_await self.allreduce(bytes);
        break;
      case 3:
        co_await self.bcast(bytes, 0);
        break;
      default:
        co_await self.barrier();
        break;
    }
  }
}

void runFuzz(std::uint64_t seed) {
  Simulation sim(arch::makeBGP(), 16);
  sim.run([&](Rank& self) { return fuzzProgram(self, seed, 24); });
}

std::vector<Scenario> build() {
  std::vector<Scenario> all;
  const auto add = [&all](std::string name, std::string group,
                          std::string what, std::function<void()> run,
                          bool expectsCapture = true) {
    all.push_back({std::move(name), std::move(group), std::move(what),
                   std::move(run), expectsCapture});
  };

  // ---- paper figure/table scenarios ------------------------------------
  add("fig1_pingpong_ring", "paper",
      "HPCC ping-pong + natural/random ring (Table 2 comm tests)",
      [] { hpcc::runCommTests(arch::makeBGP(), 16); });
  add("fig2_halo_isend", "paper", "HALO exchange, isend/irecv protocol",
      [] { microbench::runHalo(
               haloConfig(microbench::HaloProtocol::IsendIrecv), 64); });
  add("fig2_halo_sendrecv", "paper", "HALO exchange, sendrecv protocol",
      [] { microbench::runHalo(
               haloConfig(microbench::HaloProtocol::Sendrecv), 64); });
  add("fig2_halo_persistent", "paper", "HALO exchange, persistent requests",
      [] { microbench::runHalo(
               haloConfig(microbench::HaloProtocol::Persistent), 64); });
  add("fig2_halo_bsend", "paper", "HALO exchange, buffered sends",
      [] { microbench::runHalo(
               haloConfig(microbench::HaloProtocol::Bsend), 64); });
  add("fig3_imb_collectives", "paper",
      "IMB Allreduce/Bcast/Barrier latency (Figure 3)", [] {
        microbench::ImbConfig c;
        c.machine = arch::makeBGP();
        c.nranks = 16;
        c.reps = 2;
        microbench::imbAllreduce(c, 4096.0);
        microbench::imbBcast(c, 4096.0);
        microbench::imbBarrier(c);
      });
  add("coll_algorithms", "paper",
      "event-level collective algorithms, pow2 and fold-in paths", [] {
        runCollAlgos(16, true);
        runCollAlgos(12, false);
      });
  add("fig4_pop", "paper", "POP ocean model, one simulated day", [] {
        apps::PopConfig c;
        c.machine = arch::makeBGP();
        c.nranks = 16;
        apps::runPop(c);
      });
  // CAM, GYRO, and MD are closed-form analytic proxies (no event-level
  // Simulation), so they register with expectsCapture=false: running them
  // keeps the registry one-to-one with the paper's figures and guards
  // against someone later porting them to event-level MPI without
  // analyzer coverage.
  add("fig5_cam", "paper", "CAM T42L26 atmosphere, pure MPI (analytic)", [] {
        apps::CamConfig c;
        c.machine = arch::makeBGP();
        c.problem = apps::camT42();
        c.ncores = 64;
        apps::runCam(c);
      },
      /*expectsCapture=*/false);
  add("fig6_s3d", "paper", "S3D combustion, weak-scaled block", [] {
        apps::S3dConfig c;
        c.machine = arch::makeBGP();
        c.nranks = 8;
        c.pointsPerRankEdge = 10;
        c.steps = 2;
        apps::runS3d(c);
      });
  add("fig7_gyro", "paper", "GYRO B1-std strong scaling (analytic)", [] {
        apps::GyroConfig c;
        c.machine = arch::makeBGP();
        c.problem = apps::gyroB1Std();
        c.nranks = 32;
        apps::runGyro(c);
      },
      /*expectsCapture=*/false);
  add("fig8_md", "paper", "LAMMPS molecular dynamics (analytic)", [] {
        apps::MdConfig c;
        c.machine = arch::makeBGP();
        c.code = apps::MdCode::LAMMPS;
        c.nranks = 32;
        apps::runMd(c);
      },
      /*expectsCapture=*/false);
  add("table2_hpcc", "paper", "HPCC PTRANS / FFT / RandomAccess", [] {
        hpcc::runPtransSimulation(arch::makeBGP(), 256, 2, 2);
        hpcc::runFftSimulation(arch::makeBGP(), 1 << 12, 8);
        hpcc::runRaSimulation(arch::makeBGP(), 1 << 14, 8);
      });

  // ---- stress programs --------------------------------------------------
  add("stress_subcomm", "stress",
      "row/column sub-communicator traffic with world barrier",
      [] { runSubCommStress(); });
  add("stress_fuzz_a", "stress", "seeded mixed-traffic fuzz (seed 0xA11CE)",
      [] { runFuzz(0xA11CE); });
  add("stress_fuzz_b", "stress", "seeded mixed-traffic fuzz (seed 0xB0B)",
      [] { runFuzz(0xB0B); });
  return all;
}

}  // namespace

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> all = build();
  return all;
}

ScenarioResult runScenario(const Scenario& scenario) {
  ScenarioResult result;
  result.name = scenario.name;
  CaptureScope scope;
  try {
    scenario.run();
  } catch (const std::exception& e) {
    result.failed = true;
    result.error = e.what();
  }
  for (const auto& graph : scope.graphs())
    result.reports.push_back(analyze(*graph));
  return result;
}

}  // namespace bgp::smpi::analysis
