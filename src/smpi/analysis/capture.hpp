#pragma once
// Capture mode: turns a Simulation's run into an analysis::OpGraph.
//
// There is one recorder per run, the profiler's op log (obs/profiler.hpp).
// When the run ends — whether run() returns or throws — Simulation hands
// that log to buildOpGraph, before Profiler::finalize releases it, and the
// graph lands in the CaptureScope that was live when the Simulation was
// constructed.  A CaptureScope is how tools/smpilint wraps existing
// scenario entry points (runHalo, runPop, runCommTests, ...) without
// changing their signatures: the scope outlives the Simulations and keeps
// their op-graphs.
//
// A Simulation built under a CaptureScope records into the profiler of
// its ProfileScope or of enableProfile() when it has one; otherwise it
// gets a profiler of its own with the scope's maxOps as budget.  Either
// way the profiler only observes, so capturing changes no simulated bit.
// A graph is capped at CaptureOptions::maxOps nodes; past that, or when
// the op log itself was truncated, the graph is marked truncated —
// reported, never silent.

#include <cstdint>
#include <memory>
#include <vector>

#include "smpi/analysis/op_graph.hpp"

namespace bgp::obs {
class Profiler;
}

namespace bgp::smpi {
class Comm;
}

namespace bgp::smpi::analysis {

struct CaptureOptions {
  /// Graph node budget (and the op budget of a profiler the capture
  /// creates).  Sized for lint-scale scenario runs, not 131k-rank
  /// production sweeps.
  std::size_t maxOps = 4u << 20;
};

/// Thread-local RAII capture scope: while alive, every Simulation
/// constructed on this thread leaves its op-graph in the scope.  Scopes
/// nest (the innermost wins); Simulations built on other threads (e.g.
/// inside core::sweep) are not captured.
class CaptureScope {
 public:
  explicit CaptureScope(CaptureOptions options = {});
  ~CaptureScope();
  CaptureScope(const CaptureScope&) = delete;
  CaptureScope& operator=(const CaptureScope&) = delete;

  /// The innermost live scope on this thread, or null.
  static CaptureScope* active();

  const CaptureOptions& options() const { return options_; }

  /// Called by Simulation's constructor; returns the (empty) graph the new
  /// Simulation's run fills.
  OpGraph& attach(int nranks);

  /// One graph per Simulation constructed under the scope, in
  /// construction order (empty for one that never ran).  Valid until the
  /// scope is destroyed.
  const std::vector<std::unique_ptr<OpGraph>>& graphs() const {
    return graphs_;
  }

 private:
  CaptureOptions options_;
  CaptureScope* prev_;
  std::vector<std::unique_ptr<OpGraph>> graphs_;
};

/// Builds `graph` from `log`, the op log of a run over `comms` (indexed by
/// communicator id), in one dependency order of the log (see OpGraph).
void buildOpGraph(const obs::Profiler& log,
                  const std::vector<const Comm*>& comms, OpGraph& graph);

}  // namespace bgp::smpi::analysis
