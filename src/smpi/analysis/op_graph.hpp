#pragma once
// The communication op-graph: the schedule-independent record of one
// simulated run that the static analysis passes reason over.
//
// A capture-enabled Simulation (see capture.hpp) appends one node per
// runtime event — send issue, receive post, collective arrival, wait
// return — in the order the event engine executed them.  Because the
// engine's execution order is one linearization of the program's
// happens-before partial order, that creation order is a valid
// topological order of the graph, and vector clocks can be computed in a
// single forward pass.
//
// Happens-before edges (computeClocks):
//  * program order: consecutive nodes of the same rank;
//  * message edges: a send's issue happens-before the wait that returns
//    its matched receive;
//  * collective edges: every member's arrival at a gate happens-before
//    every member's wait-return on that gate (collectives are treated as
//    full synchronizations — conservative for rooted operations, see
//    docs/static-analysis.md).
//
// The passes (passes.hpp) never look at simulated timestamps except for
// diagnostics: everything is decided on the partial order, which is what
// makes the verdicts hold for all feasible schedules, not just the one
// the engine happened to execute.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/collective_model.hpp"
#include "sim/engine.hpp"
#include "smpi/types.hpp"

namespace bgp::smpi::analysis {

enum class OpKind : std::uint8_t { Send, Recv, Coll, Wait };

const char* toString(OpKind kind);

/// One captured runtime event.  Fields that do not apply to a kind keep
/// their defaults (e.g. collKind on a Send).
struct OpNode {
  OpKind kind = OpKind::Send;
  int world = -1;     // issuing world rank
  int rankSeq = -1;   // per-rank program-order index (0-based)
  int commId = -1;
  int commRank = -1;  // issuer's rank within the communicator
  int peer = -1;      // Send: dst comm rank; Recv: wanted src (may be ANY)
  int tag = -1;       // Send: tag; Recv: wanted tag (may be ANY)
  double bytes = 0.0;
  double expectedBytes = -1.0;  // Recv only; < 0 = undeclared

  // Collective arrivals.
  net::CollKind collKind{};
  std::uint64_t collSeq = 0;
  int collRoot = -1;
  ReduceOp collRop = ReduceOp::None;
  net::Dtype collDt = net::Dtype::Byte;

  // Cross links (node ids; -1 = none).
  std::int32_t matched = -1;   // Send <-> Recv partner, set on both sides
  std::int32_t waitedAt = -1;  // first Wait node that consumed this op
  std::vector<std::int32_t> waited;  // Wait only: the ops it returned

  sim::SimTime time = 0.0;  // issue time in the executed schedule (diag)
};

/// Communicator membership, recorded once per communicator so findings
/// can name world ranks and the collective pass knows who must take part.
struct CommInfo {
  int size = 0;
  std::vector<int> worldOfCommRank;
};

class OpGraph {
 public:
  explicit OpGraph(int nranks) : nranks_(nranks) {}

  int nranks() const { return nranks_; }
  const std::vector<OpNode>& nodes() const { return nodes_; }
  const OpNode& node(std::int32_t id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }
  OpNode& node(std::int32_t id) { return nodes_[static_cast<std::size_t>(id)]; }

  /// Appends a node (creation order must be the engine's execution
  /// order); returns its id.
  std::int32_t add(OpNode n);

  /// Arrival node ids of collective gate (commId, collSeq), arrival order.
  const std::vector<std::int32_t>* gateArrivals(int commId,
                                               std::uint64_t seq) const;
  void addGateArrival(int commId, std::uint64_t seq, std::int32_t nodeId);
  /// All gates, keyed (commId, collSeq), ascending.
  const std::map<std::pair<int, std::uint64_t>, std::vector<std::int32_t>>&
  gates() const {
    return gates_;
  }

  void noteComm(int commId, CommInfo info);
  const CommInfo* comm(int commId) const;
  const std::map<int, CommInfo>& comms() const { return comms_; }

  /// True once the capture hit its op budget and stopped recording; the
  /// graph is then a prefix of the run and verdicts only cover it.
  bool truncated() const { return truncated_; }
  void markTruncated() { truncated_ = true; }

  // ---- happens-before --------------------------------------------------
  /// Computes vector clocks over all nodes (idempotent; O(nodes x ranks)).
  void computeClocks();
  bool clocksComputed() const { return !clocks_.empty(); }

  /// Strict happens-before under the captured partial order.  Requires
  /// computeClocks().  hb(a, a) is false; concurrent nodes are those with
  /// !hb(a, b) && !hb(b, a).
  bool happensBefore(std::int32_t a, std::int32_t b) const;

  /// "a happened by then" helper: true when `wait` is a valid node id and
  /// happensBefore(wait, b).  A -1 wait id (op never waited) yields false.
  bool waitedBefore(std::int32_t wait, std::int32_t b) const {
    return wait >= 0 && happensBefore(wait, b);
  }

  /// Short human id, e.g. "rank 3 op#7 recv(src=ANY, tag=5, comm 0)".
  std::string describe(std::int32_t id) const;

 private:
  const std::uint32_t* clockRow(std::int32_t id) const {
    return clocks_.data() +
           static_cast<std::size_t>(id) * static_cast<std::size_t>(nranks_);
  }

  int nranks_;
  bool truncated_ = false;
  std::vector<OpNode> nodes_;
  std::map<std::pair<int, std::uint64_t>, std::vector<std::int32_t>> gates_;
  std::map<int, CommInfo> comms_;
  std::vector<std::uint32_t> clocks_;  // nodes x nranks, row-major
};

}  // namespace bgp::smpi::analysis
