// Critical-path extraction and logical-zeroing what-if replays — the
// finalize-time stages of obs::Profiler that reason over the recorded
// per-rank timelines plus the happens-before facts the profiler recorded
// alongside them (message matches, send destinations, each gate's last
// arrival).
//
// The path walk runs BACKWARD from the makespan: at (rank, t) it finds
// the recorded item covering t.  Compute spans are attributed directly;
// a blocking wait hops to the rank/time that released it — the matched
// sender's issue for receives (plus the receiver's post for rendezvous),
// the last gate arrival for collectives — and the blocked span is split
// into latency / serialization / queueing using the network model's own
// closed forms.  Spans the walk cannot explain are reported as
// "unattributed", never silently dropped, so the per-kind totals always
// sum to the path length and the length equals the makespan exactly
// (it is a single difference, not a float sum).
//
// The what-if replays keep the recorded dependency structure and
// per-rank program order but zero one cost class: zeroNetwork keeps
// compute and zeroes every transfer/collective span (the "infinitely
// fast network" bound); zeroCompute keeps each network span at its
// MEASURED duration — contention frozen as executed — and zeroes
// compute.  Both are lower-bound estimates, not re-simulations.

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "obs/profiler.hpp"
#include "smpi/simulation.hpp"

namespace bgp::obs {

void Profiler::computeCriticalPath(const smpi::RunResult& result) {
  CriticalPath& cp = profile_.critical;
  net::System& sys = sim_->system();
  const net::TorusNetwork& torus = sys.torusNetwork();
  const net::TorusParams& tp = torus.params();
  const double eagerThresh = sys.eagerThreshold();

  // Start on the rank that finished last.
  int rank = 0;
  for (int r = 1; r < profile_.nranks; ++r)
    if (result.finishTimes[static_cast<std::size_t>(r)] >
        result.finishTimes[static_cast<std::size_t>(rank)])
      rank = r;
  double t = result.finishTimes[static_cast<std::size_t>(rank)];
  const double start = t;

  std::vector<PathSegment> segs;  // built backward, reversed at the end
  const auto emit = [&](int rk, double b, double e, PathKind k,
                        std::string what) {
    if (!(e - b > 0)) return;
    segs.push_back(PathSegment{rk, b, e, k, std::move(what)});
  };

  bool complete = true;
  while (t > 0.0) {
    if (segs.size() >= kMaxPathSegments) {
      complete = false;
      break;
    }
    // Last item on `rank` beginning before t, skipping zero-width
    // entries (issues, ready-at-await waits): they consume no time and
    // hopping through one would teleport to a dependency that did not
    // constrain this instant.
    const auto& list = items_[static_cast<std::size_t>(rank)];
    const auto firstAfter = std::lower_bound(
        list.begin(), list.end(), t,
        [](const Item& it, double tt) { return it.begin < tt; });
    const Item* item = nullptr;
    for (auto it = firstAfter; it != list.begin();) {
      --it;
      if (it->kind != Item::Kind::Issue && it->end > it->begin) {
        item = &*it;
        break;
      }
    }
    if (!item) {
      emit(rank, 0.0, t, PathKind::Unattributed, "before first recorded op");
      t = 0.0;
      break;
    }
    if (item->end < t) {
      // Gap between the item and t (host-side zero-cost code, or the
      // finishing rank's tail).
      emit(rank, item->end, t, PathKind::Unattributed, "gap");
      t = item->end;
      continue;
    }

    if (item->kind == Item::Kind::Compute) {
      emit(rank, item->begin, t, PathKind::Compute, "compute");
      t = item->begin;
      continue;
    }

    // Blocking wait.  Resolve the releasing op.
    const OpRec* self = rec(item->op);
    if (!self) {
      emit(rank, item->begin, t, PathKind::Unattributed, "unknown release");
      t = item->begin;
      continue;
    }

    if (self->kind == OpRec::Kind::Gate) {
      const GateRec& g = gates_[self->gate()];
      if (g.done < 0 || g.lastArrival >= t) {
        emit(rank, item->begin, t, PathKind::Unattributed, "collective");
        t = item->begin;
        continue;
      }
      const char* name = collName(g.sig.kind);
      // The gate's span from its last arrival splits into the model's
      // zero-byte latency floor and the payload-dependent remainder.
      double lat = sys.collectives().cost(g.sig.kind, g.nranks, 0.0,
                                          g.sig.dt, g.commId == 0);
      const double span = t - g.lastArrival;
      lat = std::min(std::max(lat, 0.0), span);
      emit(rank, g.lastArrival + lat, t, PathKind::Serialization, name);
      emit(rank, g.lastArrival, g.lastArrival + lat, PathKind::Latency, name);
      rank = g.lastWorld;
      t = g.lastArrival;
      continue;
    }

    // Point-to-point: the causing issue is the matched partner's (if
    // any).
    const bool relIsSend = self->kind == OpRec::Kind::Send;
    double sendIssue = 0.0, recvPost = 0.0;
    int sendWorld = -1, recvWorld = -1;
    double bytes = 0.0;
    const OpRec* partner = rec(self->partner);
    const bool matched = partner != nullptr;
    if (matched) {
      const OpRec& snd = relIsSend ? *self : *partner;
      const OpRec& rcv = relIsSend ? *partner : *self;
      sendIssue = snd.issue;
      sendWorld = snd.world;
      recvPost = rcv.issue;
      recvWorld = rcv.world;
      bytes = snd.bytes;
    } else if (relIsSend) {
      // Eager send completed at injection without a receiver yet.
      sendIssue = self->issue;
      sendWorld = self->world;
      bytes = self->bytes;
      recvWorld = self->peerOrGate;
      recvPost = sendIssue;
    } else {
      emit(rank, item->begin, t, PathKind::Unattributed, "recv (unmatched)");
      t = item->begin;
      continue;
    }

    const bool eager = bytes <= eagerThresh;
    double cause;
    int causeRank;
    if (eager || !matched || sendIssue >= recvPost) {
      cause = sendIssue;
      causeRank = sendWorld;
    } else {
      cause = recvPost;  // rendezvous gated on the late receiver
      causeRank = recvWorld;
    }
    if (cause >= t || cause < 0) {
      emit(rank, item->begin, t, PathKind::Unattributed,
           relIsSend ? "send" : "recv");
      t = item->begin;
      continue;
    }

    const std::string what =
        (relIsSend ? std::string("send dst=") + std::to_string(recvWorld)
                   : std::string("recv src=") + std::to_string(sendWorld));
    const double span = t - cause;
    const topo::NodeId sn = sys.nodeOf(sendWorld);
    const topo::NodeId dn = sys.nodeOf(recvWorld);
    double ser, lat;
    if (sn == dn) {
      ser = bytes / tp.shmBandwidth;
      lat = tp.shmLatency;
    } else {
      ser = bytes / tp.linkBandwidth;
      if (relIsSend && eager) {
        // An eager send completes at injection: one software overhead,
        // no hop traversal on its own clock.
        lat = tp.swLatency;
      } else {
        lat = 2.0 * tp.swLatency +
              static_cast<double>(torus.torus().hopDistance(sn, dn)) *
                  tp.hopLatency;
      }
      if (!eager && matched) {
        // Rendezvous control round-trip (RTS + CTS at 64 bytes each).
        lat += torus.latencyEstimate(sn, dn, 64.0) +
               torus.latencyEstimate(dn, sn, 64.0);
      }
    }
    double queue = span - ser - lat;
    if (queue < 0) {
      // The model's floor exceeds the observed span (partner was already
      // underway when the block began): scale both down proportionally.
      const double floor = ser + lat;
      const double scale = floor > 0 ? span / floor : 0.0;
      ser *= scale;
      lat *= scale;
      queue = 0.0;
    }
    emit(rank, cause + lat + queue, t, PathKind::Serialization, what);
    emit(rank, cause + lat, cause + lat + queue, PathKind::Queueing, what);
    emit(rank, cause, cause + lat, PathKind::Latency, what);
    rank = causeRank;
    t = cause;
  }

  cp.complete = complete && t <= 0.0;
  cp.length = start - std::max(0.0, t);
  std::reverse(segs.begin(), segs.end());
  for (const PathSegment& s : segs) {
    const double d = s.end - s.begin;
    switch (s.kind) {
      case PathKind::Compute: cp.compute += d; break;
      case PathKind::Serialization: cp.serialization += d; break;
      case PathKind::Latency: cp.latency += d; break;
      case PathKind::Queueing: cp.queueing += d; break;
      case PathKind::Unattributed: cp.unattributed += d; break;
    }
  }
  cp.segments = std::move(segs);
}

double Profiler::replay(bool zeroNetwork, bool zeroCompute) const {
  const double eagerThresh = sim_->system().eagerThreshold();
  const int n = profile_.nranks;

  struct GateReplay {
    int expected = 0;
    double duration = -1.0;  // < 0: the gate never completed
    int arrived = 0;
    double maxArrival = 0.0;
    double done = -1.0;
  };
  std::vector<GateReplay> gatesR(gates_.size());
  for (std::size_t i = 0; i < gates_.size(); ++i)
    gatesR[i] = GateReplay{gates_[i].nranks, gates_[i].duration, 0, 0.0, -1.0};
  // The replay state of a completed gate op, or null.
  const auto gateOf = [&](OpId op) -> GateReplay* {
    const OpRec* r = rec(op);
    if (!r || r->kind != OpRec::Kind::Gate) return nullptr;
    GateReplay& g = gatesR[r->gate()];
    return g.duration < 0 ? nullptr : &g;
  };

  // Replayed issue time per op id (p2p issues only), -1 = not yet.
  std::vector<double> newIssue(ops_.size(), -1.0);

  // A p2p op completes a measured span after its cause: the send's issue
  // (eager, or unmatched fire-and-forget), else the later of the send's
  // and the receive's issue (rendezvous).  The replay keeps the span and
  // moves the cause to the replayed issue times.
  const auto completionOf = [&](OpId op, double& out) {
    const OpRec* self = rec(op);
    if (!self) return false;
    if (self->kind == OpRec::Kind::Gate) {
      const GateReplay* g = gateOf(op);
      if (!g || g->done < 0) return false;
      out = g->done;
      return true;
    }
    if (self->completion < 0) return false;  // never completed: never waited
    const bool isSend = self->kind == OpRec::Kind::Send;
    const OpId sendOp = isSend ? op : self->partner;
    if (sendOp == kNoOp) return false;  // unmatched recv: cannot replay
    const OpId recvOp = isSend ? self->partner : op;
    const OpRec& snd = ops_[sendOp];
    const bool eager = snd.bytes <= eagerThresh || recvOp == kNoOp;
    const double cause =
        eager ? snd.issue : std::max(snd.issue, ops_[recvOp].issue);
    const double span = std::max(0.0, self->completion - cause);
    double replayedCause;
    if (eager) {
      if (newIssue[sendOp] < 0) return false;
      replayedCause = newIssue[sendOp];
    } else {
      const double si = newIssue[sendOp];
      const double ri = newIssue[recvOp];
      if (si < 0 || ri < 0) return false;
      replayedCause = std::max(si, ri);
    }
    out = replayedCause + (zeroNetwork ? 0.0 : span);
    return true;
  };

  // A rank parks at a Block whose ops are not yet resolvable.
  std::vector<double> clock(static_cast<std::size_t>(n), 0.0);
  const bool resolved = sweep([&](int r, const Item& it) {
    double& now = clock[static_cast<std::size_t>(r)];
    if (it.kind == Item::Kind::Compute) {
      now += zeroCompute ? 0.0 : (it.end - it.begin);
    } else if (it.kind == Item::Kind::Issue) {
      if (GateReplay* g = gateOf(it.op)) {
        ++g->arrived;
        g->maxArrival = std::max(g->maxArrival, now);
        if (g->arrived >= g->expected)
          g->done = g->maxArrival + (zeroNetwork ? 0.0 : g->duration);
      } else if (ops_[it.op].kind != OpRec::Kind::Gate) {
        newIssue[it.op] = now;
      }
    } else {  // Block
      double until = now;
      if (it.any) {
        // Approximation: the replay resolves a waitAny against the op
        // that actually fired in the executed schedule.
        double c;
        if (it.op == kNoOp || !completionOf(it.op, c)) return false;
        until = std::max(until, c);
      } else {
        for (const OpId op : waited(r, it)) {
          double c;
          if (!completionOf(op, c)) return false;
          until = std::max(until, c);
        }
      }
      now = until;
    }
    return true;
  });
  if (!resolved) return -1.0;  // a dependency never resolved
  return *std::max_element(clock.begin(), clock.end());
}

void Profiler::computeWhatIf(const smpi::RunResult& result) {
  WhatIf& w = profile_.whatIf;
  w.measured = result.makespan;
  const double zn = replay(/*zeroNetwork=*/true, /*zeroCompute=*/false);
  const double zc = replay(/*zeroNetwork=*/false, /*zeroCompute=*/true);
  if (zn >= 0 && zc >= 0) {
    w.valid = true;
    w.zeroNetwork = zn;
    w.zeroCompute = zc;
  }
}

}  // namespace bgp::obs
