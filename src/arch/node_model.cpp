#include "arch/node_model.hpp"

#include <algorithm>

#include "support/expect.hpp"

namespace bgp::arch {

double NodeModel::threadSpeedup(int threads) const {
  BGP_REQUIRE(threads >= 1);
  if (threads == 1) return 1.0;
  return 1.0 + (threads - 1) * machine_.ompEfficiency;
}

double NodeModel::time(const Work& w, int threads, int tasksOnNode,
                       double slowdown) const {
  BGP_REQUIRE(threads >= 1 && tasksOnNode >= 1);
  BGP_REQUIRE_MSG(slowdown >= 1.0, "slowdown factor below 1");
  BGP_REQUIRE_MSG(w.flops >= 0 && w.memBytes >= 0, "negative work");
  BGP_REQUIRE_MSG(w.flopEfficiency > 0 && w.flopEfficiency <= 1.0,
                  "flop efficiency must be in (0, 1]");
  const int activeCores =
      std::min(threads * tasksOnNode, machine_.coresPerNode);

  const double flopRate = machine_.peakFlopsPerCore() * w.flopEfficiency *
                          threadSpeedup(threads);
  const double computeTime = w.flops > 0 ? w.flops / flopRate : 0.0;

  // The node's streaming bandwidth is divided among active tasks; threads
  // within a task stream cooperatively, so a task's share scales with its
  // thread count.
  const double nodeBW = machine_.memBandwidth(activeCores);
  const double taskShare =
      nodeBW * (static_cast<double>(threads) / activeCores);
  const double memTime = w.memBytes > 0 ? w.memBytes / taskShare : 0.0;

  return std::max(computeTime, memTime) * slowdown;
}

double NodeModel::flopRate(const Work& w, int threads, int tasksOnNode) const {
  if (w.flops <= 0) return 0.0;
  const double t = time(w, threads, tasksOnNode);
  return t > 0 ? w.flops / t : 0.0;
}

}  // namespace bgp::arch
