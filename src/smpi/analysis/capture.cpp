#include "smpi/analysis/capture.hpp"

#include "smpi/comm.hpp"
#include "support/expect.hpp"

namespace bgp::smpi::analysis {

Capture::Capture(int nranks, CaptureOptions options)
    : options_(options),
      graph_(nranks),
      rankSeq_(static_cast<std::size_t>(nranks), 0) {
  BGP_REQUIRE(nranks > 0);
}

bool Capture::full() {
  if (graph_.nodes().size() < options_.maxOps) return false;
  graph_.markTruncated();
  return true;
}

void Capture::noteComm(const Comm& comm) {
  if (graph_.comm(comm.id()) != nullptr) return;
  CommInfo info;
  info.size = comm.size();
  info.worldOfCommRank.reserve(static_cast<std::size_t>(comm.size()));
  for (int r = 0; r < comm.size(); ++r)
    info.worldOfCommRank.push_back(comm.worldRank(r));
  graph_.noteComm(comm.id(), std::move(info));
}

std::int32_t Capture::nodeOf(const OpState& op) const {
  return op.id < nodeOfOp_.size() ? nodeOfOp_[op.id] : -1;
}

void Capture::onP2p(const Comm& comm, const OpState& op, bool isSend,
                    sim::SimTime now) {
  if (full()) return;
  noteComm(comm);
  OpNode n;
  n.kind = isSend ? OpKind::Send : OpKind::Recv;
  n.world = op.ownerWorld;
  n.rankSeq = rankSeq_[static_cast<std::size_t>(n.world)]++;
  n.commId = comm.id();
  n.commRank = comm.commRankOf(n.world);
  n.peer = op.peer;  // Recv: may be kAnySource
  n.tag = op.tag;    // Recv: may be kAnyTag
  n.bytes = op.bytes;                  // Recv: 0
  n.expectedBytes = op.expectedBytes;  // Send: -1
  n.time = now;
  if (op.id >= nodeOfOp_.size()) nodeOfOp_.resize(op.id + 1, -1);
  nodeOfOp_[op.id] = graph_.add(std::move(n));
}

void Capture::onCollective(const Comm& comm, std::uint64_t seq, int commRank,
                           net::CollKind kind, int root, ReduceOp rop,
                           net::Dtype dt, double bytes, sim::SimTime now) {
  if (full()) return;
  noteComm(comm);
  OpNode n;
  n.kind = OpKind::Coll;
  n.world = comm.worldRank(commRank);
  n.rankSeq = rankSeq_[static_cast<std::size_t>(n.world)]++;
  n.commId = comm.id();
  n.commRank = commRank;
  n.collKind = kind;
  n.collSeq = seq;
  n.collRoot = root;
  n.collRop = rop;
  n.collDt = dt;
  n.bytes = bytes;
  n.time = now;
  const auto id = graph_.add(std::move(n));
  graph_.addGateArrival(comm.id(), seq, id);
}

void Capture::onMatch(const OpState& sendOp, const OpState& recvOp) {
  const std::int32_t s = nodeOf(sendOp);
  const std::int32_t r = nodeOf(recvOp);
  if (s < 0 || r < 0) return;  // one side recorded after the budget hit
  graph_.node(s).matched = r;
  graph_.node(r).matched = s;
}

std::int32_t Capture::addWaitNode(int world, sim::SimTime now) {
  OpNode n;
  n.kind = OpKind::Wait;
  n.world = world;
  n.rankSeq = rankSeq_[static_cast<std::size_t>(world)]++;
  n.time = now;
  return graph_.add(std::move(n));
}

void Capture::onWait(int world, const std::vector<Request>& ops,
                     sim::SimTime now) {
  if (full()) return;
  const std::int32_t wid = addWaitNode(world, now);
  OpNode& w = graph_.node(wid);
  for (const Request& op : ops) {
    std::int32_t id = -1;
    if (op->what[0] == 'c') {  // "collective": shared gate op, no own node
      if (const auto* arrivals =
              graph_.gateArrivals(op->commId, op->collSeq)) {
        for (const std::int32_t a : *arrivals)
          if (graph_.node(a).world == world) {
            id = a;
            break;
          }
      }
    } else {
      id = nodeOf(*op);
    }
    if (id < 0) continue;
    w.waited.push_back(id);
    OpNode& target = graph_.node(id);
    if (target.waitedAt < 0) target.waitedAt = wid;
  }
}

// ---- CaptureScope ---------------------------------------------------------

namespace {
thread_local CaptureScope* tlsActiveScope = nullptr;
}  // namespace

CaptureScope::CaptureScope(CaptureOptions options)
    : options_(options), prev_(tlsActiveScope) {
  tlsActiveScope = this;
}

CaptureScope::~CaptureScope() { tlsActiveScope = prev_; }

CaptureScope* CaptureScope::active() { return tlsActiveScope; }

Capture& CaptureScope::attach(int nranks) {
  captures_.push_back(std::make_unique<Capture>(nranks, options_));
  return *captures_.back();
}

}  // namespace bgp::smpi::analysis
