#include "smpi/analysis/op_graph.hpp"

#include <algorithm>
#include <sstream>

#include "support/expect.hpp"

namespace bgp::smpi::analysis {

const char* toString(OpKind kind) {
  switch (kind) {
    case OpKind::Send: return "send";
    case OpKind::Recv: return "recv";
    case OpKind::Coll: return "collective";
    case OpKind::Wait: return "wait";
  }
  BGP_UNREACHABLE();
}

std::int32_t OpGraph::add(OpNode n) {
  BGP_REQUIRE(n.world >= 0 && n.world < nranks_);
  BGP_CHECK_MSG(clocks_.empty(), "op-graph frozen after computeClocks()");
  if (nodes_.size() >= maxNodes_) {
    truncated_ = true;
    return -1;
  }
  const auto id = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(std::move(n));
  waitedBegin_.push_back(static_cast<std::uint32_t>(waited_.size()));
  return id;
}

void OpGraph::addWaited(std::int32_t id, std::int32_t target) {
  BGP_CHECK_MSG(static_cast<std::size_t>(id) + 1 == nodes_.size(),
                "wait lists are appended for the last node only");
  waited_.push_back(target);
  OpNode& t = nodes_[static_cast<std::size_t>(target)];
  if (t.waitedAt < 0) t.waitedAt = id;
}

const std::vector<std::int32_t>* OpGraph::gateArrivals(
    int commId, std::uint64_t seq) const {
  const auto it = gates_.find({commId, seq});
  return it == gates_.end() ? nullptr : &it->second;
}

void OpGraph::addGateArrival(int commId, std::uint64_t seq,
                             std::int32_t nodeId, bool opener) {
  auto& arrivals = gates_[{commId, seq}];
  arrivals.insert(opener ? arrivals.begin() : arrivals.end(), nodeId);
}

void OpGraph::noteComm(int commId, CommInfo info) {
  comms_.emplace(commId, std::move(info));
}

const CommInfo* OpGraph::comm(int commId) const {
  const auto it = comms_.find(commId);
  return it == comms_.end() ? nullptr : &it->second;
}

void OpGraph::computeClocks() {
  if (!clocks_.empty()) return;
  const auto R = static_cast<std::size_t>(nranks_);
  const std::size_t N = nodes_.size();
  clocks_.assign(N * R, 0);

  // Running clock of each rank's program-order chain.
  std::vector<std::uint32_t> rankClock(R * R, 0);
  const auto rankRow = [&](int world) {
    return rankClock.data() + static_cast<std::size_t>(world) * R;
  };
  const auto join = [&](std::uint32_t* into, const std::uint32_t* from) {
    for (std::size_t k = 0; k < R; ++k) into[k] = std::max(into[k], from[k]);
  };

  for (std::size_t i = 0; i < N; ++i) {
    const OpNode& n = nodes_[i];
    std::uint32_t* vc = clocks_.data() + i * R;
    std::copy_n(rankRow(n.world), R, vc);
    if (n.kind == OpKind::Wait) {
      // A wait-return learns of everything its completed ops imply: the
      // matched sender's issue for receives, every member's arrival for
      // collectives.  All those nodes were created earlier (the engine
      // completed the ops before resuming this rank), so their rows are
      // final.
      for (const std::int32_t opId : waited(static_cast<std::int32_t>(i))) {
        const OpNode& op = nodes_[static_cast<std::size_t>(opId)];
        if (op.kind == OpKind::Recv && op.matched >= 0) {
          join(vc, clockRow(op.matched));
        } else if (op.kind == OpKind::Coll) {
          if (const auto* arrivals = gateArrivals(op.commId, op.collSeq))
            for (const std::int32_t a : *arrivals) join(vc, clockRow(a));
        }
      }
    }
    vc[static_cast<std::size_t>(n.world)] += 1;
    std::copy_n(vc, R, rankRow(n.world));
  }
}

bool OpGraph::happensBefore(std::int32_t a, std::int32_t b) const {
  BGP_REQUIRE_MSG(!clocks_.empty(), "call computeClocks() first");
  if (a == b) return false;
  const OpNode& na = nodes_[static_cast<std::size_t>(a)];
  const std::uint32_t counterA =
      clockRow(a)[static_cast<std::size_t>(na.world)];
  return clockRow(b)[static_cast<std::size_t>(na.world)] >= counterA;
}

std::string OpGraph::describe(std::int32_t id) const {
  const OpNode& n = nodes_[static_cast<std::size_t>(id)];
  std::ostringstream os;
  os << "rank " << n.world << " op#" << n.rankSeq << " ";
  switch (n.kind) {
    case OpKind::Send:
      os << "send(dst=" << n.peer << ", tag=" << n.tag
         << ", bytes=" << n.bytes;
      break;
    case OpKind::Recv:
      os << "recv(src="
         << (n.peer == kAnySource ? std::string("ANY")
                                  : std::to_string(n.peer))
         << ", tag="
         << (n.tag == kAnyTag ? std::string("ANY") : std::to_string(n.tag));
      if (n.expectedBytes >= 0) os << ", expect=" << n.expectedBytes;
      break;
    case OpKind::Coll:
      os << net::toString(n.sig.kind) << "(#" << n.collSeq;
      if (n.sig.root >= 0) os << ", root=" << n.sig.root;
      break;
    case OpKind::Wait: {
      const std::size_t count = waited(id).size();
      os << "wait(" << count << " op" << (count == 1 ? "" : "s");
      break;
    }
  }
  os << ", comm " << n.commId << ")";
  return os.str();
}

}  // namespace bgp::smpi::analysis
