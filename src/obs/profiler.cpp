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
    : sim_(&sim), options_(options) {
  const auto n = static_cast<std::size_t>(sim.nranks());
  items_.resize(n);
  waitOps_.resize(n);
  open_.assign(n, OpenBlock{});
  overlap_.assign(n, 0.0);
  siteNames_.emplace_back();
  siteIndex_.emplace(std::string(), 0);
  siteOf_.assign(n, 0);
  siteAggs_.resize(kOpSlots);
  hist_.assign(std::max<std::size_t>(options_.histBins, 2), 0.0);
  histBinSeconds_ = 1e-6;
  sim.system().torusNetwork().attachObserver(this);
}

Profiler::~Profiler() = default;

std::uint32_t Profiler::opSlot(const smpi::OpState& op) const {
  const OpRec* r = rec(op.id);
  if (r && r->kind == OpRec::Kind::Gate)
    return collSlot(gates_[r->gate()].kind);
  return whatSlot(op.what);  // "send" / "recv" / "collective"
}

std::uint32_t Profiler::whatSlot(std::string_view what) {
  return what == "send" ? kSendSlot
         : what == "recv" ? kRecvSlot
                          : kCollectiveSlot;
}

Profiler::OpRec* Profiler::addRec(std::uint64_t id) {
  if (id >= kNoOp) {
    truncated_ = true;
    return nullptr;
  }
  if (id >= ops_.size()) ops_.resize(id + 1);
  return &ops_[id];
}

void Profiler::checkBudget() {
  if (truncated_) return;
  if (ops_.size() >= options_.maxOps || itemCount_ >= options_.maxOps * 4)
    truncated_ = true;
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

void Profiler::onP2pIssue(const smpi::Comm& comm, const smpi::OpState& op,
                          bool isSend, sim::SimTime now) {
  const int rank = op.ownerWorld;
  SiteAgg& agg = siteAgg(rank, isSend ? kSendSlot : kRecvSlot);
  ++agg.count;
  agg.bytes += op.bytes;
  if (!detailed()) return;
  OpRec* r = addRec(op.id);
  if (!r) return;
  r->issue = now;
  r->bytes = op.bytes;
  r->world = rank;
  r->kind = isSend ? OpRec::Kind::Send : OpRec::Kind::Recv;
  if (isSend) r->peerOrGate = comm.worldRank(op.peer);
  items_[static_cast<std::size_t>(rank)].push_back(
      Item{now, now, static_cast<OpId>(op.id), 0, 0, Item::Kind::Issue,
           false});
  ++itemCount_;
  checkBudget();
}

void Profiler::onComplete(const smpi::OpState& op, sim::SimTime now) {
  OpRec* r = rec(op.id);
  if (r && r->completion < 0) r->completion = now;
}

void Profiler::onMatch(const smpi::OpState& sendOp,
                       const smpi::OpState& recvOp) {
  OpRec* s = rec(sendOp.id);
  OpRec* r = rec(recvOp.id);
  if (!s || !r) return;  // one side issued after the budget hit
  s->partner = static_cast<OpId>(recvOp.id);
  r->partner = static_cast<OpId>(sendOp.id);
}

void Profiler::onCollArrival(const smpi::Comm& comm, const smpi::OpState& op,
                             net::CollKind kind, double bytes, int commRank,
                             sim::SimTime now) {
  const int rank = comm.worldRank(commRank);
  SiteAgg& agg = siteAgg(rank, collSlot(kind));
  ++agg.count;
  agg.bytes += bytes;
  if (!detailed()) return;
  if (!recorded(op.id)) {  // the gate's first arrival
    OpRec* r = addRec(op.id);
    if (!r) return;
    r->issue = now;
    r->bytes = bytes;
    r->world = rank;
    r->kind = OpRec::Kind::Gate;
    r->peerOrGate = static_cast<std::int32_t>(gates_.size());
    GateRec g;
    g.nranks = comm.size();
    g.fullPartition = comm.id() == 0;
    g.kind = kind;
    gates_.push_back(g);
  }
  items_[static_cast<std::size_t>(rank)].push_back(
      Item{now, now, static_cast<OpId>(op.id), 0, 0, Item::Kind::Issue,
           false});
  ++itemCount_;
  checkBudget();
}

void Profiler::onCollComplete(const smpi::Comm& comm, const smpi::OpState& op,
                              net::CollKind kind, double bytes, net::Dtype dt,
                              int lastWorld, sim::SimTime lastArrival,
                              double duration, sim::SimTime done) {
  CollAgg& agg = collAggs_[kind];
  ++agg.gates;
  agg.bytes += bytes;
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
  if (!detailed()) return;
  OpRec* r = rec(op.id);
  if (!r) return;
  GateRec& g = gates_[r->gate()];
  g.dt = dt;
  g.bytes = bytes;
  g.lastWorld = lastWorld;
  g.lastArrival = lastArrival;
  g.duration = duration;
  g.done = done;
  r->completion = done;
}

void Profiler::onCompute(int rank, sim::SimTime now, double seconds) {
  if (!detailed()) return;
  items_[static_cast<std::size_t>(rank)].push_back(
      Item{now, now + seconds, kNoOp, 0, 0, Item::Kind::Compute, false});
  ++itemCount_;
  checkBudget();
}

void Profiler::onBlockBegin(int rank, sim::SimTime now) {
  open_[static_cast<std::size_t>(rank)] = OpenBlock{now, true};
}

// Closes the open block (if any) on `rank`, computes overlap for the
// waited ops, picks the releasing op, and appends the Block item.
void Profiler::onWaitDone(int rank, const std::vector<smpi::Request>& ops,
                          std::size_t fired, sim::SimTime now) {
  // The releasing op: the one a waitAny returned, else the one that
  // completed last (ties: the later list position — the engine resumed
  // us off its waiter last).
  const bool any = fired < ops.size();
  const smpi::OpState* release = any ? ops[fired].get() : nullptr;
  sim::SimTime best = -1.0;
  for (std::size_t i = 0; !any && i < ops.size(); ++i) {
    const OpRec* r = rec(ops[i]->id);
    if (r && r->completion >= 0 && r->completion >= best) {
      best = r->completion;
      release = ops[i].get();
    }
  }

  OpenBlock& ob = open_[static_cast<std::size_t>(rank)];
  const sim::SimTime begin = ob.open ? ob.begin : now;  // ready-at-await: 0-wide
  ob.open = false;

  // Overlap actually achieved: for each waited op, the stretch between
  // its issue and the earlier of (block start, its completion) is time
  // the op progressed while the rank did other work.  Counted once per
  // op even across waitAny revisits.
  for (const auto& op : ops) {
    OpRec* r = rec(op->id);
    if (!r || r->completion < 0 || r->overlapCounted) continue;
    r->overlapCounted = true;
    const double ov = std::min(begin, r->completion) - r->issue;
    if (ov > 0) overlap_[static_cast<std::size_t>(rank)] += ov;
  }

  const double dur = now - begin;
  if (dur > 0)
    siteAgg(rank, release ? opSlot(*release) : whatSlot(ops.front()->what))
        .blockedSeconds += dur;

  if (!detailed()) return;
  auto& wl = waitOps_[static_cast<std::size_t>(rank)];
  Item item;
  item.kind = Item::Kind::Block;
  item.begin = begin;
  item.end = now;
  item.op = release ? static_cast<OpId>(release->id) : kNoOp;
  item.firstWait = static_cast<std::uint32_t>(wl.size());
  item.waitCount = static_cast<std::uint32_t>(ops.size());
  item.any = any;
  for (const auto& op : ops) wl.push_back(static_cast<OpId>(op->id));
  items_[static_cast<std::size_t>(rank)].push_back(item);
  itemCount_ += 1 + ops.size();
  checkBudget();
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
  std::uint32_t& cur = siteOf_[static_cast<std::size_t>(rank)];
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
  p.truncated = truncated_;
  p.engine.events = result.events;
  p.engine.peakPending = sim_->engine().peakPending();

  // Per-rank breakdown.  compute/blocked come from the runtime's own
  // RankStats counters (exact even if detailed recording truncated);
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
    b.overlap = overlap_[static_cast<std::size_t>(r)];
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

  // Critical path + what-ifs need the full op record, unavailable once
  // truncated.
  if (!p.truncated) {
    computeCriticalPath(result);
    computeWhatIf(result);
  }

  // Release the detailed state; only the assembled RunProfile survives.
  sim_->system().torusNetwork().attachObserver(nullptr);
  std::vector<OpRec>().swap(ops_);
  std::vector<GateRec>().swap(gates_);
  items_.clear();
  waitOps_.clear();
  open_.clear();
  overlap_.clear();
  siteNames_.clear();
  siteIndex_.clear();
  siteOf_.clear();
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
