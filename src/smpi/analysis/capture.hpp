#pragma once
// Capture mode: records a Simulation's run as an analysis::OpGraph.
//
// A Simulation constructed while a CaptureScope is live on its thread
// attaches the scope's recorder (CaptureScope::attach) as one of its
// smpi::Observers.  The recorder appends one node per send issue, receive
// post, gate arrival and wait return as each fires, so the graph is
// complete whether run() returns or throws, and its node order — the
// execution order — is a topological order (see OpGraph).  A CaptureScope
// is how tools/smpilint wraps existing scenario entry points (runHalo,
// runPop, runCommTests, ...) without changing their signatures: the scope
// outlives the Simulations and keeps their op-graphs.
//
// The recorder only observes, so capturing changes no simulated bit, and
// it needs no profiler.  A graph is capped at CaptureOptions::maxOps
// nodes; past that it is marked truncated and records nothing more —
// reported, never silent.

#include <cstdint>
#include <memory>
#include <vector>

#include "smpi/analysis/op_graph.hpp"

namespace bgp::smpi {
class Observer;
class Simulation;
}  // namespace bgp::smpi

namespace bgp::smpi::analysis {

struct CaptureOptions {
  /// Graph node budget.  Sized for lint-scale scenario runs, not 131k-rank
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
  virtual ~CaptureScope();
  CaptureScope(const CaptureScope&) = delete;
  CaptureScope& operator=(const CaptureScope&) = delete;

  /// The innermost live scope on this thread, or null.
  static CaptureScope* active();

  const CaptureOptions& options() const { return options_; }

  /// Called by Simulation's constructor, after the Simulation joined any
  /// live obs::ProfileScope; returns the observer the Simulation owns and
  /// notifies.  By default, the recorder of a new graph in graphs().
  virtual std::unique_ptr<Observer> attach(Simulation& sim);

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

}  // namespace bgp::smpi::analysis
