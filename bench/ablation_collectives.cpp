// Ablation: analytic collective cost model vs event-level algorithmic
// collectives.  The analytic model (net/collective_model) is what the
// figure harnesses and application proxies charge; the algorithms
// (smpi/coll_algorithms) route every message through the contended torus.
// This binary puts the two side by side on the torus-algorithm machine
// (XT4/QC, which has no collective hardware) so the approximation error
// is visible — and shows the classical algorithm tradeoffs themselves
// (recursive doubling vs Rabenseifner, binomial vs ring).

#include <iostream>

#include "arch/machines.hpp"
#include "bench/bench_common.hpp"
#include "smpi/coll_algorithms.hpp"
#include "smpi/simulation.hpp"

namespace {

using namespace bgp;

double timeAlgo(
    int p, const std::function<sim::Task(smpi::Rank&, smpi::Comm&)>& fn) {
  smpi::Simulation sim(arch::machineByName("XT4/QC"), p);
  double elapsed = 0;
  sim.run([&](smpi::Rank& self) -> sim::Task {
    co_await self.barrier();
    const double t0 = self.now();
    co_await fn(self, self.sim().world());
    co_await self.barrier();
    if (self.id() == 0) elapsed = self.now() - t0;
  });
  return elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bgp;
  const auto opts = bench::BenchOptions::parse(argc, argv);
  const int maxP = opts.full ? 512 : 128;

  {
    core::Figure fig("Allreduce 32 KiB: analytic model vs algorithms",
                     "processes", "us");
    auto& model = fig.addSeries("analytic model");
    auto& rd = fig.addSeries("recursive doubling");
    auto& rab = fig.addSeries("Rabenseifner");
    for (int p = 16; p <= maxP; p *= 2) {
      net::System sys(arch::machineByName("XT4/QC"), p);
      model.points.push_back(
          {static_cast<double>(p),
           sys.collectives().cost(net::CollKind::Allreduce, p, 32768,
                                  net::Dtype::Byte) *
               1e6});
      rd.points.push_back({static_cast<double>(p),
                           timeAlgo(p,
                                    [](smpi::Rank& s, smpi::Comm& c) {
                                      return smpi::algo::
                                          allreduceRecursiveDoubling(s, c,
                                                                     32768);
                                    }) *
                               1e6});
      rab.points.push_back({static_cast<double>(p),
                            timeAlgo(p,
                                     [](smpi::Rank& s, smpi::Comm& c) {
                                       return smpi::algo::
                                           allreduceRabenseifner(s, c, 32768);
                                     }) *
                                1e6});
    }
    bench::emit(fig, opts, "%.1f");
  }
  {
    core::Figure fig("Allreduce 4 MiB: the long-vector algorithm choice",
                     "processes", "ms");
    auto& rd = fig.addSeries("recursive doubling");
    auto& rab = fig.addSeries("Rabenseifner");
    for (int p = 16; p <= maxP; p *= 2) {
      const double mb = 4.0 * 1024 * 1024;
      rd.points.push_back({static_cast<double>(p),
                           timeAlgo(p,
                                    [mb](smpi::Rank& s, smpi::Comm& c) {
                                      return smpi::algo::
                                          allreduceRecursiveDoubling(s, c, mb);
                                    }) *
                               1e3});
      rab.points.push_back({static_cast<double>(p),
                            timeAlgo(p,
                                     [mb](smpi::Rank& s, smpi::Comm& c) {
                                       return smpi::algo::
                                           allreduceRabenseifner(s, c, mb);
                                     }) *
                                1e3});
    }
    bench::emit(fig, opts, "%.2f");
    bench::note("Rabenseifner moves ~2x the payload regardless of p; "
                "recursive doubling moves lg(p)x — the crossover every MPI "
                "library encodes.");
  }
  {
    core::Figure fig("Bcast 32 KiB / Alltoall 2 KiB: model vs algorithm",
                     "processes", "us");
    auto& bModel = fig.addSeries("bcast model");
    auto& bAlgo = fig.addSeries("bcast binomial");
    auto& aModel = fig.addSeries("alltoall model");
    auto& aAlgo = fig.addSeries("alltoall pairwise");
    for (int p = 16; p <= maxP; p *= 2) {
      net::System sys(arch::machineByName("XT4/QC"), p);
      bModel.points.push_back(
          {static_cast<double>(p),
           sys.collectives().cost(net::CollKind::Bcast, p, 32768,
                                  net::Dtype::Byte) *
               1e6});
      bAlgo.points.push_back({static_cast<double>(p),
                              timeAlgo(p,
                                       [](smpi::Rank& s, smpi::Comm& c) {
                                         return smpi::algo::bcastBinomial(
                                             s, c, 32768, 0);
                                       }) *
                                  1e6});
      aModel.points.push_back(
          {static_cast<double>(p),
           sys.collectives().cost(net::CollKind::Alltoall, p, 2048,
                                  net::Dtype::Byte) *
               1e6});
      aAlgo.points.push_back({static_cast<double>(p),
                              timeAlgo(p,
                                       [](smpi::Rank& s, smpi::Comm& c) {
                                         return smpi::algo::alltoallPairwise(
                                             s, c, 2048);
                                       }) *
                                  1e6});
    }
    bench::emit(fig, opts, "%.1f");
    bench::note("The analytic model tracks the event-level algorithms "
                "within a small factor across the sweep — the accuracy "
                "contract tests/coll_algorithms_test.cpp enforces.");
  }
  return 0;
}
