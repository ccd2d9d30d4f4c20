// Critical-path extraction — the finalize-time stage of obs::Profiler
// that walks the per-rank spans the hooks recorded: each rank's compute
// and block spans of positive width, every block carrying the
// happens-before facts of its releaser (the matched partner's issue and
// world, the payload, or the releasing gate's last arrival), resolved when
// the wait returned.
//
// The path walk runs BACKWARD from the makespan: at (rank, t) it finds
// the span covering t.  Compute spans are attributed directly; a blocking
// wait hops to the rank/time that released it — the matched sender's
// issue for receives (plus the receiver's post for rendezvous), the last
// gate arrival for collectives — and the blocked span is split into
// latency / serialization / queueing using the network model's own closed
// forms.  Spans the walk cannot explain are reported as "unattributed",
// never silently dropped, so the per-kind totals always sum to the path
// length and the length equals the makespan exactly (it is a single
// difference, not a float sum).
//
// The what-ifs are evaluated online, by the hooks in profiler.cpp.

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
    // Last span on `rank` beginning before t.  Zero-width items (issues,
    // ready-at-await waits) were never recorded: they consume no time and
    // hopping through one would teleport to a dependency that did not
    // constrain this instant.
    const auto& list = spans_[static_cast<std::size_t>(rank)];
    const auto firstAfter = std::lower_bound(
        list.begin(), list.end(), t,
        [](const Span& it, double tt) { return it.begin < tt; });
    if (firstAfter == list.begin()) {
      emit(rank, 0.0, t, PathKind::Unattributed, "before first recorded op");
      t = 0.0;
      break;
    }
    const Span& item = *(firstAfter - 1);
    if (item.end < t) {
      // Gap between the item and t (host-side zero-cost code, or the
      // finishing rank's tail).
      emit(rank, item.end, t, PathKind::Unattributed, "gap");
      t = item.end;
      continue;
    }

    switch (item.kind) {
      case Span::Kind::Compute:
        emit(rank, item.begin, t, PathKind::Compute, "compute");
        t = item.begin;
        continue;
      case Span::Kind::Gate: {
        if (item.cause >= t) {
          emit(rank, item.begin, t, PathKind::Unattributed, "collective");
          t = item.begin;
          continue;
        }
        const char* name = collName(item.coll);
        // The gate's span from its last arrival splits into the model's
        // zero-byte latency floor and the payload-dependent remainder.
        const double lastArrival = item.cause;
        double lat = sys.collectives().cost(item.coll, item.nranks, 0.0,
                                            item.dt, item.full);
        const double span = t - lastArrival;
        lat = std::min(std::max(lat, 0.0), span);
        emit(rank, lastArrival + lat, t, PathKind::Serialization, name);
        emit(rank, lastArrival, lastArrival + lat, PathKind::Latency, name);
        rank = item.lastWorld;
        t = lastArrival;
        continue;
      }
      case Span::Kind::Send:
      case Span::Kind::Recv:
        break;
    }

    // Point-to-point, released by a send or a matched receive.
    const bool relIsSend = item.kind == Span::Kind::Send;
    const bool matched = item.matched;
    const double bytes = item.bytes;
    const int sendWorld = item.sendWorld;
    const int recvWorld = item.recvWorld;
    const bool eager = bytes <= eagerThresh_;
    const double cause = item.cause;
    const int causeRank = item.causeIsRecv ? recvWorld : sendWorld;
    if (cause >= t || cause < 0) {
      emit(rank, item.begin, t, PathKind::Unattributed,
           relIsSend ? "send" : "recv");
      t = item.begin;
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

}  // namespace bgp::obs
