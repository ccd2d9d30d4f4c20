#include "hpcc/hpl_sim.hpp"

#include "kernels/lu.hpp"
#include "smpi/coll_algorithms.hpp"
#include "smpi/simulation.hpp"
#include "support/expect.hpp"
#include "support/units.hpp"

namespace bgp::hpcc {

HplSimResult runHplSimulation(const HplSimConfig& config) {
  BGP_REQUIRE(config.n > 0 && config.nb > 0);
  BGP_REQUIRE(config.gridP >= 1 && config.gridQ >= 1);
  const int nranks = config.gridP * config.gridQ;

  smpi::Simulation sim(config.machine, nranks);

  // Row and column communicators of the process grid (rank = row*Q + col).
  std::vector<int> rowColor(static_cast<std::size_t>(nranks));
  std::vector<int> colColor(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    rowColor[static_cast<std::size_t>(r)] = r / config.gridQ;
    colColor[static_cast<std::size_t>(r)] = r % config.gridQ;
  }
  auto rowComms = sim.splitWorld(rowColor);
  auto colComms = sim.splitWorld(colColor);

  const double nD = static_cast<double>(config.n);
  const double nb = config.nb;
  const double p = config.gridP;
  const double q = config.gridQ;
  const auto panels = static_cast<std::int64_t>(config.n / config.nb);
  const double dgemmEff = config.machine.dgemmEfficiency;

  double makespan = 0.0;
  std::uint64_t events = 0;

  sim.run([&](smpi::Rank& self) -> sim::Task {
    smpi::Comm& myRow = smpi::Simulation::commOf(rowComms, self.id());
    smpi::Comm& myCol = smpi::Simulation::commOf(colComms, self.id());
    const int myGridCol = self.id() % config.gridQ;

    co_await self.barrier();
    const double t0 = self.now();

    for (std::int64_t k = 0; k < panels; ++k) {
      const double rem = nD - static_cast<double>(k) * nb;
      const double mLoc = rem / p;
      const double nLoc = rem / q;
      const int ownerCol = static_cast<int>(k % config.gridQ);

      // --- panel factorization on the owner grid column -------------------
      if (myGridCol == ownerCol) {
        // Rank-1 updates over the local panel rows, ~45% of DGEMM speed,
        // plus one fused pivot reduction per panel column charged in-gate.
        const double pivotCost =
            nb * self.collectiveCost(myCol, net::CollKind::Allreduce, 16);
        co_await self.compute(
            arch::Work{mLoc * nb * nb, mLoc * nb * 8.0, 0.45 * dgemmEff});
        co_await self.compute(pivotCost);
        co_await self.allreduce(myCol, 16);  // gate the column
      }

      // --- panel broadcast along each grid row ------------------------------
      const double panelBytes = mLoc * nb * 8.0;
      co_await smpi::algo::bcastBinomial(self, myRow, panelBytes, ownerCol);

      // --- U exchange along the column ---------------------------------------
      const double swapBytes = nLoc * nb * 8.0;
      co_await smpi::algo::allgatherRing(self, myCol, swapBytes / p);

      // --- trailing update -----------------------------------------------------
      co_await self.compute(arch::Work{2.0 * mLoc * nLoc * nb,
                                       mLoc * nLoc * 8.0 * 0.05, dgemmEff});
    }

    co_await self.barrier();
    if (self.id() == 0) makespan = self.now() - t0;
    co_return;
  });
  events = sim.engine().eventsProcessed();

  HplSimResult result;
  result.seconds = makespan;
  result.gflops = kernels::hplFlops(nD) / makespan / units::GFlops;
  result.efficiency =
      result.gflops * units::GFlops /
      (static_cast<double>(nranks) * config.machine.peakFlopsPerCore());
  result.events = events;
  return result;
}

}  // namespace bgp::hpcc
