// Paper-scale world sweep: how far can one smpi::Simulation go?
//
// The paper's headline results run at 8,192-163,840 cores on the 40-rack
// ANL BG/P; this harness sweeps simulated world sizes 1k -> 131k ranks
// (VN mode) over three scenario families and records, per point,
//
//   * simulated makespan, printed at full double precision (%.17g) so the
//     overlap with the pre-optimization simulator (1k-4k ranks) can be
//     diffed byte-for-byte — the memory/matching work must not move a
//     single timing;
//   * host wall-clock and events/sec (the throughput trajectory);
//   * peak RSS and bytes/rank.  Each scenario runs in a forked child so
//     ru_maxrss isolates that one world, not the sweep's high-water mark.
//
// Scenario families (all on the BG/P machine model, VN mode):
//   halo      2-phase ISEND/IRECV halo exchange (fig2's protocol) on a
//             near-square virtual grid — p2p matching at scale.
//   allreduce alternating 8 B latency and 64 KiB bandwidth allreduces —
//             collective gating at scale.
//   hplpanel  an HPL panel step proxy: panel bcast + pivot allreduce +
//             trailing-update compute per iteration — the mix HPL
//             prediction at paper scale exercises.
//
// Flags: --full (sweep to 131,072 ranks; default stops at 8,192),
//        --ranks=N (single scale), --no-fork (in-process, for debugging;
//        RSS column reports the whole process), --golden (in-process; print
//        only the deterministic columns — scenario, ranks, %.17g makespan,
//        events — and stop: the bench_golden_scale_ranks ctest diffs this
//        against tests/golden/bench/scale_ranks.txt).

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "arch/machines.hpp"
#include "bench/bench_common.hpp"
#include "obs/breakdown.hpp"
#include "smpi/simulation.hpp"
#include "support/table.hpp"
#include "topo/process_grid.hpp"

namespace {

using WallClock = std::chrono::steady_clock;

double seconds(WallClock::time_point a, WallClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

bgp::net::SystemOptions vnOpts() {
  bgp::net::SystemOptions o;
  o.mode = bgp::arch::ExecMode::VN;
  return o;
}

struct ScenarioResult {
  double makespan = 0.0;
  std::uint64_t events = 0;
  double wall = 0.0;          // host seconds inside run()
  // Per-rank time breakdown, aggregated by obs::summarizeStats over the
  // runtime's own counters (the old hand-rolled accounting is gone).
  bgp::obs::StatsSummary stats;
};

bgp::obs::StatsSummary summarize(const bgp::smpi::Simulation& sim,
                                 int nranks) {
  return bgp::obs::summarizeStats(&sim.rankStats(0),
                                  static_cast<std::size_t>(nranks));
}

// ---- scenario family: halo ------------------------------------------------
// The fig2 exchange (ISEND/IRECV, two phases, N north/west + 2N south/east
// words) written directly against the runtime.

ScenarioResult runHaloWorld(int nranks, int words, int reps) {
  const int rows = 1 << (static_cast<int>(std::log2(nranks)) / 2);
  bgp::smpi::Simulation sim(bgp::arch::machineByName("BG/P"), nranks,
                            vnOpts());
  const bgp::topo::ProcessGrid2D grid(rows, nranks / rows);
  const double n1 = words * 4.0;
  const double n2 = 2.0 * n1;
  const bgp::arch::Work pack{0.0, 2.0 * (n1 + n2), 1.0};
  const auto t0 = WallClock::now();
  const auto r = sim.run([&](bgp::smpi::Rank& self) -> bgp::sim::Task {
    const auto north = static_cast<int>(grid.north(self.id()));
    const auto south = static_cast<int>(grid.south(self.id()));
    const auto west = static_cast<int>(grid.west(self.id()));
    const auto east = static_cast<int>(grid.east(self.id()));
    co_await self.barrier();
    for (int rep = 0; rep < reps; ++rep) {
      co_await self.compute(pack);
      std::vector<bgp::smpi::Request> ops;
      ops.push_back(self.irecv(south, 10));
      ops.push_back(self.irecv(north, 11));
      ops.push_back(self.isend(north, n1, 10));
      ops.push_back(self.isend(south, n2, 11));
      co_await self.waitAll(std::move(ops));
      std::vector<bgp::smpi::Request> ops2;
      ops2.push_back(self.irecv(east, 12));
      ops2.push_back(self.irecv(west, 13));
      ops2.push_back(self.isend(west, n1, 12));
      ops2.push_back(self.isend(east, n2, 13));
      co_await self.waitAll(std::move(ops2));
    }
  });
  const auto t1 = WallClock::now();
  return ScenarioResult{r.makespan, r.events, seconds(t0, t1),
                        summarize(sim, nranks)};
}

// ---- scenario family: allreduce -------------------------------------------

ScenarioResult runAllreduceWorld(int nranks, int reps) {
  bgp::smpi::Simulation sim(bgp::arch::machineByName("BG/P"), nranks,
                            vnOpts());
  const auto t0 = WallClock::now();
  const auto r = sim.run([&](bgp::smpi::Rank& self) -> bgp::sim::Task {
    for (int rep = 0; rep < reps; ++rep) {
      co_await self.allreduce(8.0);       // pivot-style latency allreduce
      co_await self.allreduce(65536.0);   // bandwidth allreduce
    }
  });
  const auto t1 = WallClock::now();
  return ScenarioResult{r.makespan, r.events, seconds(t0, t1),
                        summarize(sim, nranks)};
}

// ---- scenario family: HPL panel proxy -------------------------------------
// One panel step per iteration: broadcast the 96 KiB panel chunk, agree on
// the pivot with an 8 B allreduce, then charge the trailing-update flops.
// (The full HPL simulation splits row/column communicators; the proxy keeps
// the collective/compute mix while staying world-sized, which is what the
// scale sweep is probing.)

ScenarioResult runHplPanelWorld(int nranks, int iters) {
  bgp::smpi::Simulation sim(bgp::arch::machineByName("BG/P"), nranks,
                            vnOpts());
  const bgp::arch::Work update{2.0e6, 3.0e5, 1.0};  // trailing dgemm slice
  const auto t0 = WallClock::now();
  const auto r = sim.run([&](bgp::smpi::Rank& self) -> bgp::sim::Task {
    for (int it = 0; it < iters; ++it) {
      co_await self.allreduce(8.0);       // pivot selection
      co_await self.bcast(98304.0, 0);    // panel broadcast
      co_await self.compute(update);
    }
  });
  const auto t1 = WallClock::now();
  return ScenarioResult{r.makespan, r.events, seconds(t0, t1),
                        summarize(sim, nranks)};
}

ScenarioResult runScenario(const std::string& family, int nranks) {
  if (family == "halo") return runHaloWorld(nranks, 512, 2);
  if (family == "allreduce") return runAllreduceWorld(nranks, 8);
  if (family == "hplpanel") return runHplPanelWorld(nranks, 8);
  std::fprintf(stderr, "unknown scenario family: %s\n", family.c_str());
  std::exit(2);
}

// ---- forked execution (peak-RSS isolation) ---------------------------------

struct Point {
  std::string family;
  int nranks = 0;
  ScenarioResult r;
  long maxRssKiB = 0;  // 0 when forking is disabled
};

long selfMaxRssKiB() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// Runs one scenario in a forked child and collects its peak RSS from
/// wait4().  The child writes its ScenarioResult to `outPath` and never
/// returns.  Falls back to in-process execution with --no-fork.
Point measurePoint(const std::string& family, int nranks,
                   const std::string& outPath, bool useFork) {
  Point p;
  p.family = family;
  p.nranks = nranks;
  if (!useFork) {
    p.r = runScenario(family, nranks);
    // Whole-process peak: an upper bound only, since it accumulates over
    // every scenario already run in this process.
    p.maxRssKiB = selfMaxRssKiB();
    return p;
  }
  const pid_t pid = fork();
  if (pid == 0) {
    const ScenarioResult r = runScenario(family, nranks);
    std::ofstream out(outPath);
    out.precision(17);
    out << r.makespan << ' ' << r.events << ' ' << r.wall << ' '
        << r.stats.computeSeconds << ' ' << r.stats.p2pWaitSeconds << ' '
        << r.stats.collWaitSeconds << ' ' << r.stats.commFraction << ' '
        << r.stats.computeImbalance << '\n';
    out.close();
    _exit(out ? 0 : 1);
  }
  if (pid < 0) {  // fork failed (sandboxes): degrade to in-process
    p.r = runScenario(family, nranks);
    return p;
  }
  int status = 0;
  struct rusage ru{};
  wait4(pid, &status, 0, &ru);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "scale_ranks: child (%s, %d ranks) failed\n",
                 family.c_str(), nranks);
    std::exit(1);
  }
  std::ifstream in(outPath);
  in >> p.r.makespan >> p.r.events >> p.r.wall >> p.r.stats.computeSeconds >>
      p.r.stats.p2pWaitSeconds >> p.r.stats.collWaitSeconds >>
      p.r.stats.commFraction >> p.r.stats.computeImbalance;
  p.maxRssKiB = ru.ru_maxrss;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bgp;
  const auto opts = bench::BenchOptions::parse(argc, argv);
  const Cli cli(argc, argv);
  const bool golden = cli.getBool("golden");
  const bool useFork = !golden && !cli.getBool("no-fork");
  const std::string scratch =
      cli.get("scratch", "scale_ranks_child.tmp");

  printBanner(std::cout, "Rank-scale sweep (PR 3 harness)");

  std::vector<int> scales;
  if (cli.getInt("ranks", 0) > 0) {
    scales = {static_cast<int>(cli.getInt("ranks", 0))};
  } else {
    for (int n = 1024; n <= (opts.full ? 131072 : 8192); n *= 2)
      scales.push_back(n);
  }
  const std::vector<std::string> families = {"halo", "allreduce",
                                             "hplpanel"};

  if (golden) {
    Table t({"scenario", "ranks", "makespan (s)", "events"});
    for (int nranks : scales) {
      for (const auto& family : families) {
        const ScenarioResult r = runScenario(family, nranks);
        char mk[64];
        std::snprintf(mk, sizeof mk, "%.17g", r.makespan);
        t.addRow({family, std::to_string(nranks), mk,
                  std::to_string(r.events)});
      }
    }
    t.print(std::cout);
    return 0;
  }
  Table t({"scenario", "ranks", "makespan (s)", "events", "events/sec",
           "wall (s)", "peak RSS (MiB)", "bytes/rank", "comm frac",
           "imbalance"});
  for (int nranks : scales) {
    for (const auto& family : families) {
      const Point p = measurePoint(family, nranks, scratch, useFork);
      char mk[64], ev[32], eps[32], wl[32], rss[32], bpr[32], cf[32],
          im[32];
      std::snprintf(mk, sizeof mk, "%.17g", p.r.makespan);
      std::snprintf(ev, sizeof ev, "%llu",
                    static_cast<unsigned long long>(p.r.events));
      std::snprintf(eps, sizeof eps, "%.3g",
                    p.r.wall > 0 ? static_cast<double>(p.r.events) / p.r.wall
                                 : 0.0);
      std::snprintf(wl, sizeof wl, "%.2f", p.r.wall);
      std::snprintf(rss, sizeof rss, "%.0f", p.maxRssKiB / 1024.0);
      std::snprintf(bpr, sizeof bpr, "%.0f",
                    p.maxRssKiB * 1024.0 / std::max(1, p.nranks));
      std::snprintf(cf, sizeof cf, "%.3f", p.r.stats.commFraction);
      std::snprintf(im, sizeof im, "%.3f", p.r.stats.computeImbalance);
      t.addRow({family, std::to_string(nranks), mk, ev, eps, wl, rss,
                bpr, cf, im});
    }
  }
  t.print(std::cout);
  bench::note("makespans printed at %.17g: the 1k-4k rows must be "
              "byte-identical across simulator revisions");
  if (useFork) std::remove(scratch.c_str());
  return 0;
}
