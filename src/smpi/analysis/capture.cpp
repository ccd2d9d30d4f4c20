#include "smpi/analysis/capture.hpp"

#include <utility>

#include "smpi/comm.hpp"
#include "smpi/observer.hpp"
#include "smpi/simulation.hpp"

namespace bgp::smpi::analysis {

namespace {

thread_local CaptureScope* tlsActiveScope = nullptr;

/// Appends the op-graph of one run as its hooks fire.
class GraphRecorder final : public Observer {
 public:
  GraphRecorder(OpGraph& graph, int nranks)
      : graph_(graph), rankSeq_(static_cast<std::size_t>(nranks), 0) {}

  void onIssue(const Comm& comm, const OpState& op, double expectedBytes,
               sim::SimTime) override {
    if (graph_.truncated()) return;
    OpNode n;
    n.peer = op.peer;
    n.tag = op.tag;
    if (op.kind == OpState::Kind::Send) {
      n.kind = OpKind::Send;
      n.bytes = op.bytes;
    } else {
      n.kind = OpKind::Recv;
      n.expectedBytes = expectedBytes;
    }
    const std::int32_t id = add(&comm, op.ownerWorld, std::move(n));
    if (id < 0) return;
    if (op.id >= nodeOfOp_.size()) nodeOfOp_.resize(op.id + 1, -1);
    nodeOfOp_[op.id] = id;
  }

  void onMatch(const Comm&, int, int, int, double, double,
               const OpState& sendOp, const OpState& recvOp) override {
    if (graph_.truncated()) return;
    const std::int32_t s = nodeOf(sendOp);
    const std::int32_t r = nodeOf(recvOp);
    if (s < 0 || r < 0) return;
    graph_.node(s).matched = r;
    graph_.node(r).matched = s;
  }

  void onGateArrive(const Comm& comm, const Comm::CollGate& gate,
                    int commRank, const CollSig& sig, double bytes,
                    sim::SimTime) override {
    if (graph_.truncated()) return;
    const std::uint64_t seq = gate.op->collSeq;
    OpNode n;
    n.kind = OpKind::Coll;
    n.collSeq = seq;
    n.sig = sig;
    // The opener's bytes: CollGate::bytes holds the largest so far.
    n.bytes = gate.arrived == 0
                  ? bytes
                  : graph_.node(graph_.gateArrivals(comm.id(), seq)->front())
                        .bytes;
    const std::int32_t id = add(&comm, comm.worldRank(commRank), std::move(n));
    if (id >= 0) graph_.addGateArrival(comm.id(), seq, id);
  }

  void onWaitDone(int worldRank, const std::vector<Request>& ops,
                  std::size_t fired, sim::SimTime) override {
    if (graph_.truncated()) return;
    OpNode n;
    n.kind = OpKind::Wait;
    const std::int32_t id = add(nullptr, worldRank, std::move(n));
    if (id < 0) return;
    const auto addTarget = [&](const OpState& op) {
      if (op.kind != OpState::Kind::Collective) {
        if (const std::int32_t t = nodeOf(op); t >= 0) graph_.addWaited(id, t);
        return;
      }
      // A gate returns to each member at its own arrival.
      if (const auto* arrivals = graph_.gateArrivals(op.commId, op.collSeq))
        for (const std::int32_t a : *arrivals)
          if (graph_.node(a).world == worldRank) {
            graph_.addWaited(id, a);
            return;
          }
    };
    // A waitAny returns only the op that fired.
    if (fired < ops.size()) {
      addTarget(*ops[fired]);
    } else {
      for (const Request& op : ops) addTarget(*op);
    }
  }

 private:
  /// The node of p2p op `op`, or -1 if it was not recorded.
  std::int32_t nodeOf(const OpState& op) const {
    return op.id < nodeOfOp_.size() ? nodeOfOp_[op.id] : -1;
  }

  /// Appends `n` as `world`'s next node on `comm` (null for a wait);
  /// returns its id, or -1 once the budget is hit.
  std::int32_t add(const Comm* comm, int world, OpNode n) {
    n.world = world;
    n.rankSeq = rankSeq_[static_cast<std::size_t>(world)];
    if (comm) {
      n.commId = comm->id();
      n.commRank = comm->commRankOf(world);
    }
    const std::int32_t id = graph_.add(std::move(n));
    if (id < 0) return id;
    ++rankSeq_[static_cast<std::size_t>(world)];
    if (comm && graph_.comm(comm->id()) == nullptr) {
      CommInfo info;
      info.size = comm->size();
      for (int cr = 0; cr < comm->size(); ++cr)
        info.worldOfCommRank.push_back(comm->worldRank(cr));
      graph_.noteComm(comm->id(), std::move(info));
    }
    return id;
  }

  OpGraph& graph_;
  std::vector<int> rankSeq_;             // per world rank
  std::vector<std::int32_t> nodeOfOp_;  // by op id; -1: none (gates too)
};

}  // namespace

CaptureScope::CaptureScope(CaptureOptions options)
    : options_(options), prev_(tlsActiveScope) {
  tlsActiveScope = this;
}

CaptureScope::~CaptureScope() { tlsActiveScope = prev_; }

CaptureScope* CaptureScope::active() { return tlsActiveScope; }

std::unique_ptr<Observer> CaptureScope::attach(Simulation& sim) {
  graphs_.push_back(std::make_unique<OpGraph>(sim.nranks(), options_.maxOps));
  return std::make_unique<GraphRecorder>(*graphs_.back(), sim.nranks());
}

}  // namespace bgp::smpi::analysis
