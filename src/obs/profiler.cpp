#include "obs/profiler.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "obs/breakdown.hpp"
#include "smpi/comm.hpp"
#include "smpi/rank.hpp"
#include "smpi/simulation.hpp"
#include "support/expect.hpp"

namespace bgp::obs {

const char* toString(PathKind kind) {
  switch (kind) {
    case PathKind::Compute: return "compute";
    case PathKind::Serialization: return "serialization";
    case PathKind::Latency: return "latency";
    case PathKind::Queueing: return "queueing";
    case PathKind::Unattributed: return "unattributed";
  }
  return "?";
}

const char* Profiler::collName(net::CollKind kind) {
  switch (kind) {
    case net::CollKind::Barrier: return "barrier";
    case net::CollKind::Bcast: return "bcast";
    case net::CollKind::Reduce: return "reduce";
    case net::CollKind::Allreduce: return "allreduce";
    case net::CollKind::Allgather: return "allgather";
    case net::CollKind::Gather: return "gather";
    case net::CollKind::Scatter: return "scatter";
    case net::CollKind::Alltoall: return "alltoall";
    case net::CollKind::Alltoallv: return "alltoallv";
  }
  return "collective";
}

Profiler::Profiler(smpi::Simulation& sim, ProfileOptions options)
    : sim_(&sim),
      options_(options),
      eagerThresh_(sim.system().eagerThreshold()),
      detailed_(options.maxOps != 0) {
  const auto n = static_cast<std::size_t>(sim.nranks());
  ranks_.resize(n);
  spans_.resize(n);
  siteNames_.emplace_back();
  siteIndex_.emplace(std::string(), 0);
  siteAggs_.resize(kOpSlots);
  hist_.assign(kHistBins, 0.0);
  histBinSeconds_ = 1e-6;
  sim.system().torusNetwork().attachObserver(this);
}

Profiler::~Profiler() = default;

std::uint32_t Profiler::opSlot(const smpi::OpState& op) {
  const LiveOp* r = live(op.id);
  if (r && r->kind == LiveOp::Kind::Gate) return collSlot(r->coll);
  return kindSlot(op.kind);
}

std::uint32_t Profiler::kindSlot(smpi::OpState::Kind kind) {
  switch (kind) {
    case smpi::OpState::Kind::Send: return kSendSlot;
    case smpi::OpState::Kind::Recv: return kRecvSlot;
    case smpi::OpState::Kind::Collective: return kCollectiveSlot;
  }
  return kCollectiveSlot;
}

Profiler::LiveOp& Profiler::addLive(std::uint64_t id, LiveOp::Kind kind) {
  const std::uint64_t c = id / kChunkOps;
  if (c >= chunks_.size()) {
    // Ids arrive in creation order, so the last chunk is now full.
    if (!chunks_.empty() && chunks_.back() && chunks_.back()->live == 0)
      chunks_.back().reset();
    chunks_.resize(c + 1);
    chunks_[c] = std::make_unique<Chunk>();
  }
  Chunk& chunk = *chunks_[c];
  ++chunk.live;
  LiveOp& op = chunk.ops[id % kChunkOps];
  op.kind = kind;
  return op;
}

void Profiler::retire(std::uint64_t id, LiveOp& op) {
  op.kind = LiveOp::Kind::None;
  const std::uint64_t c = id / kChunkOps;
  if (--chunks_[c]->live == 0 && c + 1 < chunks_.size()) chunks_[c].reset();
}

void Profiler::noteWaited(const smpi::OpState& op) {
  LiveOp* r = live(op.id);
  if (!r) return;
  if (r->kind == LiveOp::Kind::Gate) {
    // Every member waits on the gate once.
    if (++r->waits == static_cast<std::uint32_t>(r->nranks)) retire(op.id, *r);
    return;
  }
  // A returned op has completed; a send still hands its facts to the
  // receive it matches.
  r->waited = true;
  if (r->kind == LiveOp::Kind::Recv || r->matched) retire(op.id, *r);
}

void Profiler::histAdd(sim::SimTime t, double bytes) {
  if (t < 0) t = 0;
  // Bit-pattern safety: a pathological timestamp would demand an absurd
  // fold count; drop it rather than loop.
  if (t / histBinSeconds_ > 1e15) return;
  auto idx = static_cast<std::size_t>(t / histBinSeconds_);
  while (idx >= hist_.size()) {
    // Outgrew the bins: double the width by folding adjacent pairs.
    const std::size_t half = hist_.size() / 2;
    for (std::size_t i = 0; i < half; ++i)
      hist_[i] = hist_[2 * i] + hist_[2 * i + 1];
    std::fill(hist_.begin() + static_cast<std::ptrdiff_t>(half), hist_.end(),
              0.0);
    histBinSeconds_ *= 2.0;
    idx = static_cast<std::size_t>(t / histBinSeconds_);
  }
  hist_[idx] += bytes;
}

// ---- runtime hooks ----------------------------------------------------------
//
// The what-if clocks evaluate, in causal order, the max-plus recurrence of
// a replay that keeps the recorded dependencies and zeroes one cost class:
// a compute advances its rank by its span (zn) or by 0.0 (zc); an issue
// takes its rank's clocks; a p2p op completes its measured span (zc) or
// 0.0 (zn) after its replayed cause — the send's replayed issue (eager),
// else the later of the send's and the receive's; a gate is done its
// duration (zc) or 0.0 (zn) after its latest replayed arrival; a wait
// lifts its rank to the latest replayed completion it returned.

void Profiler::onIssue(const smpi::Comm& comm, const smpi::OpState& op,
                       double, sim::SimTime now) {
  const int rank = op.ownerWorld;
  const bool isSend = op.kind == smpi::OpState::Kind::Send;
  SiteAgg& agg = siteAgg(rank, isSend ? kSendSlot : kRecvSlot);
  ++agg.count;
  agg.bytes += op.bytes;
  if (!detailed()) return;
  LiveOp& r =
      addLive(op.id, isSend ? LiveOp::Kind::Send : LiveOp::Kind::Recv);
  const RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  r.issue = now;
  r.world = rank;
  r.zn = rs.zn;
  r.zc = rs.zc;
  if (isSend) {
    r.bytes = op.bytes;
    r.peer = comm.worldRank(op.peer);
  }
}

void Profiler::onComplete(const smpi::OpState& op, sim::SimTime now) {
  LiveOp* r = live(op.id);
  if (r && r->completion < 0) r->completion = now;
}

void Profiler::onMatch(const smpi::Comm&, int, int, int, double, double,
                       const smpi::OpState& sendOp,
                       const smpi::OpState& recvOp) {
  LiveOp* s = live(sendOp.id);
  LiveOp* r = live(recvOp.id);
  if (!s || !r) return;  // counters only
  s->matched = r->matched = true;
  s->partnerIssue = r->issue;
  r->partnerIssue = s->issue;
  r->peer = s->world;
  r->bytes = s->bytes;
  if (s->bytes <= eagerThresh_) {
    r->zn = s->zn;
    r->zc = s->zc;
  } else {
    r->zn = s->zn = std::max(s->zn, r->zn);
    r->zc = s->zc = std::max(s->zc, r->zc);
  }
  if (s->waited) retire(sendOp.id, *s);
}

void Profiler::onGateArrive(const smpi::Comm& comm,
                            const smpi::Comm::CollGate& gate, int commRank,
                            const smpi::CollSig& sig, double bytes,
                            sim::SimTime now) {
  const smpi::OpState& op = *gate.op;
  const int rank = comm.worldRank(commRank);
  SiteAgg& agg = siteAgg(rank, collSlot(sig.kind));
  ++agg.count;
  agg.bytes += bytes;
  if (!detailed()) return;
  LiveOp* g = live(op.id);
  if (!g) {  // the gate's first arrival
    g = &addLive(op.id, LiveOp::Kind::Gate);
    g->issue = now;
    g->nranks = comm.size();
    g->full = comm.id() == 0;
    g->coll = sig.kind;
    g->dt = sig.dt;
  }
  const RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  g->zn = std::max(g->zn, rs.zn);
  g->zc = std::max(g->zc, rs.zc);
}

void Profiler::onGateDone(const smpi::Comm& comm,
                          const smpi::Comm::CollGate& gate, int lastRank,
                          double duration, sim::SimTime done) {
  const net::CollKind kind = gate.sig.kind;
  CollAgg& agg = collAggs_[kind];
  ++agg.gates;
  agg.bytes += gate.bytes;
  agg.costSeconds += duration;
  const net::CollectiveModel& model = sim_->system().collectives();
  const bool full = comm.id() == 0;
  if (model.usesTreeNetwork(kind, full)) {
    ++agg.treeGates;
  } else if (model.usesBarrierNetwork(kind, full)) {
    ++agg.barrierGates;
  } else {
    ++agg.torusGates;
  }
  LiveOp* g = live(gate.op->id);
  if (!g) return;  // counters only
  g->lastArrival = gate.lastArrival;
  g->world = comm.worldRank(lastRank);
  g->duration = duration;
  g->completion = done;
}

void Profiler::onCompute(int rank, sim::SimTime now, double seconds) {
  if (!detailed()) return;
  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  const sim::SimTime end = now + seconds;
  rs.zn += end - now;
  rs.zc += 0.0;
  if (end > now)
    spans_[static_cast<std::size_t>(rank)].emplace_back(now, end);
}

void Profiler::onBlock(int rank, sim::SimTime now) {
  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  rs.blockBegin = now;
  rs.blocked = true;
}

// Closes the open block (if any) on `rank`, computes overlap for the
// waited ops, picks the releasing op, advances the what-if clocks, records
// the block, and retires what the wait consumed.
void Profiler::onWaitDone(int rank, const std::vector<smpi::Request>& ops,
                          std::size_t fired, sim::SimTime now) {
  // The releasing op: the one a waitAny returned, else the one that
  // completed last (ties: the later list position — the engine resumed
  // us off its waiter last).  A retired op completed before an earlier
  // wait returned, so it never releases a block of positive width.
  const bool any = fired < ops.size();
  const smpi::OpState* release = any ? ops[fired].get() : nullptr;
  sim::SimTime best = -1.0;
  for (std::size_t i = 0; !any && i < ops.size(); ++i) {
    const LiveOp* r = live(ops[i]->id);
    if (r && r->completion >= 0 && r->completion >= best) {
      best = r->completion;
      release = ops[i].get();
    }
  }

  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  const sim::SimTime begin = rs.blocked ? rs.blockBegin : now;  // 0-wide
  rs.blocked = false;

  // Overlap actually achieved: for each waited op, the stretch between
  // its issue and the earlier of (block start, its completion) is time
  // the op progressed while the rank did other work.  Counted once per
  // op even across waitAny revisits.
  for (const auto& op : ops) {
    LiveOp* r = live(op->id);
    if (!r || r->completion < 0 || r->overlapCounted) continue;
    r->overlapCounted = true;
    const double ov = std::min(begin, r->completion) - r->issue;
    if (ov > 0) rs.overlap += ov;
  }

  const double dur = now - begin;
  if (dur > 0)
    siteAgg(rank, release ? opSlot(*release) : kindSlot(ops.front()->kind))
        .blockedSeconds += dur;

  if (detailed()) {
    foldWhatIf(rs, ops, fired);
    if (now > begin)
      spans_[static_cast<std::size_t>(rank)].push_back(
          resolveBlock(begin, now, release));
  }

  // Only the op a waitAny returned counts as waited.
  if (any) {
    noteWaited(*ops[fired]);
  } else {
    for (const auto& op : ops) noteWaited(*op);
  }
}

void Profiler::foldWhatIf(RankState& rs, const std::vector<smpi::Request>& ops,
                          std::size_t fired) {
  double untilZn = rs.zn;
  double untilZc = rs.zc;
  const auto fold = [&](const smpi::OpState& op) {
    // A retired op was returned by an earlier wait, which already lifted
    // this rank's clocks past its replayed completion.
    const LiveOp* r = live(op.id);
    if (!r) return;
    if (r->completion < 0) {  // a gate that never completed
      whatIfOk_ = false;
      return;
    }
    if (r->kind == LiveOp::Kind::Gate) {
      untilZn = std::max(untilZn, r->zn + 0.0);
      untilZc = std::max(untilZc, r->zc + r->duration);
      return;
    }
    const bool isSend = r->kind == LiveOp::Kind::Send;
    if (!isSend && !r->matched) {  // unmatched receive: cannot replay
      whatIfOk_ = false;
      return;
    }
    // A send completed before its match was eager: a rendezvous send
    // completes only after its receive posted.
    const bool eager = r->bytes <= eagerThresh_ || !r->matched;
    const sim::SimTime sendIssue = isSend ? r->issue : r->partnerIssue;
    const sim::SimTime recvIssue = isSend ? r->partnerIssue : r->issue;
    const double cause = eager ? sendIssue : std::max(sendIssue, recvIssue);
    const double span = std::max(0.0, r->completion - cause);
    untilZn = std::max(untilZn, r->zn + 0.0);
    untilZc = std::max(untilZc, r->zc + span);
  };
  // A waitAny is resolved against the op that actually fired.
  if (fired < ops.size()) {
    fold(*ops[fired]);
  } else {
    for (const auto& op : ops) fold(*op);
  }
  rs.zn = untilZn;
  rs.zc = untilZc;
}

Profiler::Span Profiler::resolveBlock(sim::SimTime begin, sim::SimTime end,
                                      const smpi::OpState* release) {
  Span s(begin, end);
  // The op that released a block of positive width is still live and has
  // completed; a receive has also matched.
  const LiveOp* self = release ? live(release->id) : nullptr;
  BGP_CHECK(self && self->completion >= 0 &&
            (self->kind != LiveOp::Kind::Recv || self->matched));
  if (self->kind == LiveOp::Kind::Gate) {
    s.kind = Span::Kind::Gate;
    s.cause = self->lastArrival;
    s.lastWorld = self->world;
    s.nranks = self->nranks;
    s.full = self->full;
    s.coll = self->coll;
    s.dt = self->dt;
    return s;
  }
  // Point-to-point: the causing issue is the matched partner's, if any.
  // An eager send may return before its match; unmatched, it resolves to
  // the same cause and costs (its destination is the receiver).
  const bool relIsSend = self->kind == LiveOp::Kind::Send;
  s.kind = relIsSend ? Span::Kind::Send : Span::Kind::Recv;
  s.matched = self->matched;
  s.bytes = self->bytes;
  sim::SimTime sendIssue, recvPost;
  if (relIsSend) {
    sendIssue = self->issue;
    s.sendWorld = self->world;
    s.recvWorld = self->peer;
    recvPost = self->matched ? self->partnerIssue : sendIssue;
  } else {
    sendIssue = self->partnerIssue;
    s.sendWorld = self->peer;
    recvPost = self->issue;
    s.recvWorld = self->world;
  }
  const bool eager = s.bytes <= eagerThresh_;
  // A rendezvous is gated on the receiver when it posted late.
  s.causeIsRecv = !(eager || !s.matched || sendIssue >= recvPost);
  s.cause = s.causeIsRecv ? recvPost : sendIssue;
  return s;
}

// ---- net::TorusNetwork::LinkObserver ----------------------------------------

void Profiler::onLinkClaim(topo::LinkId link, sim::SimTime claim,
                           double serSeconds, double bytes,
                           double queuedSeconds) {
  const auto li = static_cast<std::size_t>(link);
  if (li >= linkBusy_.size()) {
    const auto n = static_cast<std::size_t>(
        sim_->system().torusNetwork().torus().linkCount());
    linkBytes_.resize(n, 0.0);
    linkBusy_.resize(n, 0.0);
    linkQueue_.resize(n, 0.0);
    linkClaims_.resize(n, 0);
  }
  linkBytes_[li] += bytes;
  linkBusy_[li] += serSeconds;
  if (queuedSeconds > 0) linkQueue_[li] += queuedSeconds;
  ++linkClaims_[li];
  histAdd(claim, bytes);
}

void Profiler::onShmTransfer(double bytes, sim::SimTime start) {
  (void)start;
  shmBytes_ += bytes;
  ++shmTransfers_;
}

// ---- labels -----------------------------------------------------------------

std::string Profiler::setSite(int rank, std::string label) {
  std::uint32_t& cur = ranks_[static_cast<std::size_t>(rank)].site;
  std::string prev = siteNames_[cur];
  const auto [it, added] = siteIndex_.try_emplace(
      std::move(label), static_cast<std::uint32_t>(siteNames_.size()));
  if (added) {
    siteNames_.push_back(it->first);
    siteAggs_.resize(siteAggs_.size() + kOpSlots);
  }
  cur = it->second;
  return prev;
}

// ---- finalize ---------------------------------------------------------------

void Profiler::finalize(const smpi::RunResult& result) {
  BGP_REQUIRE_MSG(!finalized_, "Profiler::finalize called twice");
  RunProfile& p = profile_;
  const int n = sim_->nranks();
  p.nranks = n;
  p.makespan = result.makespan;
  p.truncated = !detailed_;
  p.engine.events = result.events;
  p.engine.peakPending = sim_->engine().peakPending();

  // Per-rank breakdown.  compute/blocked come from the runtime's own
  // RankStats counters (exact in a counters-only profile too);
  // idle absorbs the remainder so each rank's row sums to the makespan.
  p.ranks.assign(static_cast<std::size_t>(n), RankBreakdown{});
  for (int r = 0; r < n; ++r) {
    const smpi::RankStats& s = sim_->rankStats(r);
    RankBreakdown& b = p.ranks[static_cast<std::size_t>(r)];
    b.compute = s.computeSeconds;
    b.p2pBlocked = s.p2pWaitSeconds;
    b.collBlocked = s.collWaitSeconds;
    b.idle = std::max(
        0.0, p.makespan - (b.compute + b.p2pBlocked + b.collBlocked));
    b.overlap = ranks_[static_cast<std::size_t>(r)].overlap;
    b.finish = result.finishTimes[static_cast<std::size_t>(r)];
    p.computeTotal += b.compute;
    p.p2pBlockedTotal += b.p2pBlocked;
    p.collBlockedTotal += b.collBlocked;
    p.idleTotal += b.idle;
    p.overlapTotal += b.overlap;
  }
  const StatsSummary sum =
      summarizeStats(&sim_->rankStats(0), static_cast<std::size_t>(n));
  p.sends = sum.sends;
  p.recvs = sum.recvs;
  p.collectives = sum.collectives;
  p.bytesSent = sum.bytesSent;
  p.computeImbalance = sum.computeImbalance;
  p.commFraction = sum.commFraction;

  // Sites, hottest first (deterministic tie-break on the key).
  for (std::size_t i = 0; i < siteAggs_.size(); ++i) {
    const SiteAgg& agg = siteAggs_[i];
    if (!agg.used) continue;
    const auto slot = static_cast<std::uint32_t>(i % kOpSlots);
    const char* op =
        slot == kSendSlot         ? "send"
        : slot == kRecvSlot       ? "recv"
        : slot == kCollectiveSlot ? "collective"
                                  : collName(static_cast<net::CollKind>(
                                        slot - kFirstCollSlot));
    p.sites.push_back(SiteStats{siteNames_[i / kOpSlots], op, agg.count,
                                agg.bytes, agg.blockedSeconds});
  }
  std::sort(p.sites.begin(), p.sites.end(),
            [](const SiteStats& a, const SiteStats& b) {
              if (a.blockedSeconds != b.blockedSeconds)
                return a.blockedSeconds > b.blockedSeconds;
              if (a.site != b.site) return a.site < b.site;
              return a.op < b.op;
            });

  // Collectives, sorted by kind name.
  for (const auto& [kind, agg] : collAggs_)
    p.colls.push_back(CollStats{collName(kind), agg.gates, agg.bytes,
                                agg.costSeconds, agg.treeGates,
                                agg.barrierGates, agg.torusGates});
  std::sort(p.colls.begin(), p.colls.end(),
            [](const CollStats& a, const CollStats& b) {
              return a.kind < b.kind;
            });

  // Network counters.
  const net::TorusNetwork& torus = sim_->system().torusNetwork();
  NetStats& net = p.net;
  net.linkCount = torus.torus().linkCount();
  net.shmBytes = shmBytes_;
  net.shmTransfers = shmTransfers_;
  std::vector<std::int32_t> used;
  for (std::size_t i = 0; i < linkClaims_.size(); ++i) {
    if (linkClaims_[i] == 0) continue;
    used.push_back(static_cast<std::int32_t>(i));
    net.bytesOnLinks += linkBytes_[i];
    net.linkClaims += linkClaims_[i];
  }
  net.linksUsed = static_cast<std::int64_t>(used.size());
  if (!used.empty() && p.makespan > 0) {
    double sumUtil = 0.0;
    for (const std::int32_t li : used) {
      const double u = linkBusy_[static_cast<std::size_t>(li)] / p.makespan;
      sumUtil += u;
      net.peakUtilization = std::max(net.peakUtilization, u);
    }
    net.meanUtilization = sumUtil / static_cast<double>(used.size());
  }
  std::sort(used.begin(), used.end(), [this](std::int32_t a, std::int32_t b) {
    const double ba = linkBusy_[static_cast<std::size_t>(a)];
    const double bb = linkBusy_[static_cast<std::size_t>(b)];
    if (ba != bb) return ba > bb;
    return a < b;
  });
  static constexpr const char* kDirNames[topo::kNumDirs] = {"x+", "x-", "y+",
                                                            "y-", "z+", "z-"};
  const int topK = std::max(0, options_.topK);
  for (std::size_t i = 0; i < used.size() && i < static_cast<std::size_t>(topK);
       ++i) {
    const std::int32_t li = used[i];
    const auto node = static_cast<topo::NodeId>(li / topo::kNumDirs);
    const topo::Coord3 c = torus.torus().coordOf(node);
    LinkStats ls;
    ls.link = li;
    ls.x = c.x;
    ls.y = c.y;
    ls.z = c.z;
    ls.dir = kDirNames[li % topo::kNumDirs];
    ls.claims = linkClaims_[static_cast<std::size_t>(li)];
    ls.bytes = linkBytes_[static_cast<std::size_t>(li)];
    ls.busySeconds = linkBusy_[static_cast<std::size_t>(li)];
    ls.queueSeconds = linkQueue_[static_cast<std::size_t>(li)];
    ls.utilization = p.makespan > 0 ? ls.busySeconds / p.makespan : 0.0;
    net.hotLinks.push_back(std::move(ls));
  }
  net.histBinSeconds = histBinSeconds_;
  std::size_t lastBin = hist_.size();
  while (lastBin > 0 && hist_[lastBin - 1] == 0.0) --lastBin;
  net.histBytes.assign(hist_.begin(),
                       hist_.begin() + static_cast<std::ptrdiff_t>(lastBin));

  // Critical path + what-ifs need every op recorded, so a counters-only
  // profile has neither.
  if (detailed_) {
    computeCriticalPath(result);
    WhatIf& w = p.whatIf;
    w.measured = result.makespan;
    if (whatIfOk_) {
      w.valid = true;
      w.zeroNetwork = ranks_.front().zn;
      w.zeroCompute = ranks_.front().zc;
      for (const RankState& rs : ranks_) {
        w.zeroNetwork = std::max(w.zeroNetwork, rs.zn);
        w.zeroCompute = std::max(w.zeroCompute, rs.zc);
      }
    }
  }

  // Release the detailed state; the RunProfile survives.
  sim_->system().torusNetwork().attachObserver(nullptr);
  std::vector<std::unique_ptr<Chunk>>().swap(chunks_);
  std::vector<RankState>().swap(ranks_);
  std::vector<std::vector<Span>>().swap(spans_);
  siteNames_.clear();
  siteIndex_.clear();
  siteAggs_.clear();
  collAggs_.clear();
  linkBytes_.clear();
  linkBusy_.clear();
  linkQueue_.clear();
  linkClaims_.clear();
  hist_.clear();
  finalized_ = true;
  sim_ = nullptr;
}

// ---- ProfileScope -----------------------------------------------------------

namespace {
std::atomic<ProfileScope*> gActiveProfileScope{nullptr};
}  // namespace

ProfileScope::ProfileScope(ProfileOptions options) : options_(options) {
  prev_ = gActiveProfileScope.exchange(this);
}

ProfileScope::~ProfileScope() { gActiveProfileScope.store(prev_); }

ProfileScope* ProfileScope::active() { return gActiveProfileScope.load(); }

Profiler& ProfileScope::attach(smpi::Simulation& sim) {
  const std::lock_guard<std::mutex> lock(mu_);
  profilers_.push_back(std::make_unique<Profiler>(sim, options_));
  return *profilers_.back();
}

// ---- SiteLabel --------------------------------------------------------------

SiteLabel::SiteLabel(smpi::Rank& rank, std::string label) {
  Profiler* prof = rank.sim().profiler();
  if (!prof) return;
  prof_ = prof;
  rank_ = rank.id();
  prev_ = prof->setSite(rank_, std::move(label));
}

SiteLabel::~SiteLabel() {
  if (prof_) prof_->setSite(rank_, std::move(prev_));
}

}  // namespace bgp::obs
