#pragma once
// Capture mode: records a Simulation's communication ops into an
// analysis::OpGraph as the run executes.
//
// Two ways to turn it on:
//  * Simulation::enableCapture() — for programs that own their
//    Simulation (tests, custom drivers);
//  * CaptureScope — an RAII scope that captures EVERY Simulation
//    constructed on the current thread while it is alive.  This is how
//    tools/smpilint wraps existing scenario entry points (runHalo,
//    runPop, runCommTests, ...) without changing their signatures: the
//    scope outlives the Simulations and keeps their op-graphs.
//
// Capture is strictly observational: hooks fire from existing runtime
// code paths behind a null check and never schedule events, so a
// capture-off run is byte-identical to a build without this module, and
// a capture-on run produces the same simulated timings as capture-off.
//
// Cost when on: one OpNode per send/recv/collective-arrival/wait plus a
// 4-byte op-id -> node entry per op.  Ops are recognised by their
// per-Simulation id, so the capture keeps no op alive.  A run that
// exceeds CaptureOptions::maxOps stops recording and marks the graph
// truncated — reported, never silent.

#include <cstdint>
#include <memory>
#include <vector>

#include "smpi/analysis/op_graph.hpp"
#include "smpi/types.hpp"

namespace bgp::smpi {
class Comm;
}

namespace bgp::smpi::analysis {

struct CaptureOptions {
  /// Stop recording past this many graph nodes (the graph is marked
  /// truncated).  Sized for lint-scale scenario runs, not 131k-rank
  /// production sweeps.
  std::size_t maxOps = 4u << 20;
};

class Capture {
 public:
  Capture(int nranks, CaptureOptions options);

  // ---- runtime hooks (called by Simulation/Rank when enabled) ----------
  /// A send was issued or a receive posted.
  void onP2p(const Comm& comm, const OpState& op, bool isSend,
             sim::SimTime now);
  void onCollective(const Comm& comm, std::uint64_t seq, int commRank,
                    net::CollKind kind, int root, ReduceOp rop,
                    net::Dtype dt, double bytes, sim::SimTime now);
  /// A send was matched to a receive (eager delivery, RTS arrival, or a
  /// receive finding a staged message).
  void onMatch(const OpState& sendOp, const OpState& recvOp);
  /// A wait/waitAll (or, with one op, a waitAny) returned `ops` to world
  /// rank `world`.
  void onWait(int world, const std::vector<Request>& ops, sim::SimTime now);

  // ---- results ---------------------------------------------------------
  OpGraph& graph() { return graph_; }
  const OpGraph& graph() const { return graph_; }

 private:
  bool full();
  void noteComm(const Comm& comm);
  std::int32_t addWaitNode(int world, sim::SimTime now);
  /// Node id of a p2p op, or -1 (unknown op / capture was full).
  std::int32_t nodeOf(const OpState& op) const;

  CaptureOptions options_;
  OpGraph graph_;
  std::vector<int> rankSeq_;  // next program-order index per world rank
  std::vector<std::int32_t> nodeOfOp_;  // p2p op id -> node id, -1 = none
};

/// Thread-local RAII capture scope: while alive, every Simulation
/// constructed on this thread records into a Capture owned by the scope.
/// Scopes nest (the innermost wins); Simulations built on other threads
/// (e.g. inside core::sweep) are not captured.
class CaptureScope {
 public:
  explicit CaptureScope(CaptureOptions options = {});
  ~CaptureScope();
  CaptureScope(const CaptureScope&) = delete;
  CaptureScope& operator=(const CaptureScope&) = delete;

  /// The innermost live scope on this thread, or null.
  static CaptureScope* active();

  /// Called by Simulation's constructor; returns the Capture the new
  /// Simulation must record into.
  Capture& attach(int nranks);

  /// One Capture per Simulation constructed under the scope, in
  /// construction order.  Valid until the scope is destroyed.
  const std::vector<std::unique_ptr<Capture>>& captures() const {
    return captures_;
  }
  std::vector<std::unique_ptr<Capture>> takeCaptures() {
    return std::move(captures_);
  }

 private:
  CaptureOptions options_;
  CaptureScope* prev_;
  std::vector<std::unique_ptr<Capture>> captures_;
};

}  // namespace bgp::smpi::analysis
