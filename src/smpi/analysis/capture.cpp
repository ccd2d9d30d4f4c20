#include "smpi/analysis/capture.hpp"

#include <span>

#include "obs/profiler.hpp"
#include "smpi/comm.hpp"
#include "support/expect.hpp"

namespace bgp::smpi::analysis {

namespace {
thread_local CaptureScope* tlsActiveScope = nullptr;
}  // namespace

CaptureScope::CaptureScope(CaptureOptions options)
    : options_(options), prev_(tlsActiveScope) {
  tlsActiveScope = this;
}

CaptureScope::~CaptureScope() { tlsActiveScope = prev_; }

CaptureScope* CaptureScope::active() { return tlsActiveScope; }

OpGraph& CaptureScope::attach(int nranks) {
  BGP_REQUIRE(nranks > 0);
  graphs_.push_back(std::make_unique<OpGraph>(nranks, options_.maxOps));
  return *graphs_.back();
}

void buildOpGraph(const obs::Profiler& log,
                  const std::vector<const Comm*>& comms, OpGraph& graph) {
  using Log = obs::Profiler;
  BGP_REQUIRE(graph.nodes().empty());
  if (log.truncated()) graph.markTruncated();

  std::size_t events = 0;  // one node per item but computes
  log.sweep([&](int, const Log::Item& it) {
    events += it.kind != Log::Item::Kind::Compute;
    return true;
  });
  graph.reserve(events);
  std::vector<std::int32_t> nodeOfOp(log.opCount(), -1);  // p2p ops only
  std::vector<int> rankSeq(static_cast<std::size_t>(graph.nranks()), 0);
  const auto arrivalsOf = [&](const Log::OpRec& gate) {
    const Log::GateRec& g = log.gate(gate);
    return graph.gateArrivals(g.commId, g.seq);
  };
  // A wait-return comes after the matched send of every receive it
  // returned and after every arrival at every gate it returned.
  const auto ready = [&](const Log::OpRec* r) {
    if (!r || r->kind == Log::OpRec::Kind::Send) return true;
    if (r->kind == Log::OpRec::Kind::Recv)
      return !log.rec(r->partner) || nodeOfOp[r->partner] >= 0;
    const auto* arrivals = arrivalsOf(*r);
    return arrivals &&
           static_cast<int>(arrivals->size()) == log.gate(*r).nranks;
  };
  // The node a wait by `world` returns for op `id`: a p2p op's own, or the
  // rank's gate arrival; -1 for an op the log did not record.
  const auto target = [&](const Log::OpRec* r, Log::OpId id, int world) {
    if (r && r->kind != Log::OpRec::Kind::Gate) return nodeOfOp[id];
    if (r)
      for (const std::int32_t a : *arrivalsOf(*r))
        if (graph.node(a).world == world) return a;
    return std::int32_t{-1};
  };

  const bool complete = log.sweep([&](int world, const Log::Item& it) {
    if (it.kind == Log::Item::Kind::Compute) return true;
    const Log::OpRec* r = log.rec(it.op);
    std::span<const Log::OpId> waited;
    const Comm* comm = nullptr;
    OpNode n;
    n.world = world;
    n.rankSeq = rankSeq[static_cast<std::size_t>(world)];
    if (it.kind == Log::Item::Kind::Block) {
      waited = it.any ? std::span(&it.op, 1) : log.waited(world, it);
      for (const Log::OpId op : waited)
        if (!ready(log.rec(op))) return false;
      n.kind = OpKind::Wait;
    } else if (r->kind == Log::OpRec::Kind::Gate) {
      comm = comms[static_cast<std::size_t>(log.gate(*r).commId)];
      n.kind = OpKind::Coll;
      n.collSeq = log.gate(*r).seq;
      n.sig = it.sig;
      n.bytes = r->bytes;
    } else {
      comm = comms[static_cast<std::size_t>(it.commId)];
      n.tag = it.tag;
      if (r->kind == Log::OpRec::Kind::Send) {
        n.kind = OpKind::Send;
        n.peer = comm->commRankOf(r->peerOrGate);
        n.bytes = r->bytes;
      } else {
        n.kind = OpKind::Recv;
        n.peer = r->peerOrGate;
        n.expectedBytes = r->bytes;
      }
    }
    if (comm) {
      n.commId = comm->id();
      n.commRank = comm->commRankOf(world);
    }

    const std::int32_t id = graph.add(std::move(n));
    if (id < 0) return false;  // budget hit: the graph is marked truncated
    ++rankSeq[static_cast<std::size_t>(world)];
    if (comm && graph.comm(comm->id()) == nullptr) {
      CommInfo info;
      info.size = comm->size();
      for (int cr = 0; cr < comm->size(); ++cr)
        info.worldOfCommRank.push_back(comm->worldRank(cr));
      graph.noteComm(comm->id(), std::move(info));
    }
    if (it.kind == Log::Item::Kind::Block) {
      for (const Log::OpId op : waited) {
        const std::int32_t t = target(log.rec(op), op, world);
        if (t >= 0) graph.addWaited(id, t);
      }
    } else if (r->kind == Log::OpRec::Kind::Gate) {
      const Log::GateRec& g = log.gate(*r);
      graph.addGateArrival(g.commId, g.seq, id, world == r->world);
    } else {
      nodeOfOp[it.op] = id;
      if (log.rec(r->partner) && nodeOfOp[r->partner] >= 0) {
        graph.node(id).matched = nodeOfOp[r->partner];
        graph.node(nodeOfOp[r->partner]).matched = id;
      }
    }
    return true;
  });
  if (!complete) graph.markTruncated();
}

}  // namespace bgp::smpi::analysis
