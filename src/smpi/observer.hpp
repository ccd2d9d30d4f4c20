#pragma once
// The one interface through which a Simulation reports its events.
//
// A Simulation keeps a list of attached observers: the verifier (always
// first, so a fail-fast defect throws before anyone else records the
// event), the profiler, and the op-graph recorder of an
// analysis::CaptureScope.  Each of its note points is one loop over that
// list.  Hooks never schedule events, so attaching an observer cannot
// move a simulated bit, and they fire in execution order: a wait returns
// after every completion, match and gate arrival it depends on.

#include <cstddef>
#include <vector>

#include "smpi/comm.hpp"
#include "smpi/types.hpp"

namespace bgp::smpi {

class Observer {
 public:
  Observer() = default;
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;
  virtual ~Observer() = default;

  /// A send or receive was created on the communicator; `expectedBytes`
  /// is a receive's declared size (< 0 = none).
  virtual void onIssue(const Comm&, const OpState&, double /*expectedBytes*/,
                       sim::SimTime /*now*/) {}
  /// Message (src -> dst, tag, bytes) of `sendOp` matched `recvOp`.
  virtual void onMatch(const Comm&, int /*src*/, int /*dst*/, int /*tag*/,
                       double /*bytes*/, double /*expectedBytes*/,
                       const OpState& /*sendOp*/, const OpState& /*recvOp*/) {}
  /// A comm rank arrived at the gate calling `sig` with `bytes`;
  /// `gate.arrived` counts the members before it (0: the opener).
  virtual void onGateArrive(const Comm&, const Comm::CollGate&,
                            int /*commRank*/, const CollSig&,
                            double /*bytes*/, sim::SimTime /*now*/) {}
  /// The gate's last member arrived; every member resumes at `done` =
  /// gate.lastArrival + duration.
  virtual void onGateDone(const Comm&, const Comm::CollGate&,
                          int /*lastRank*/, double /*duration*/,
                          sim::SimTime /*done*/) {}
  /// The rank suspended on a wait (only called when it actually blocks).
  virtual void onBlock(int /*worldRank*/, sim::SimTime /*now*/) {}
  /// A waitAny returned ops[fired], or (fired == ops.size()) a
  /// wait/waitAll returned `ops`; called whether or not the rank blocked.
  virtual void onWaitDone(int /*worldRank*/, const std::vector<Request>&,
                          std::size_t /*fired*/, sim::SimTime /*now*/) {}
  virtual void onCompute(int /*worldRank*/, sim::SimTime /*now*/,
                         double /*seconds*/) {}
  /// A send/receive is about to finish() (gates report via onGateDone).
  virtual void onComplete(const OpState&, sim::SimTime /*now*/) {}
};

}  // namespace bgp::smpi
