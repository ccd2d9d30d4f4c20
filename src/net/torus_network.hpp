#pragma once
// Timed 3-D torus network with per-directed-link contention.
//
// Messages follow dimension-ordered (X, then Y, then Z) routes, the routing
// the BG/P and SeaStar tori use.  Timing is cut-through: a message claims
// each link along its route in sequence; each claim waits for the link's
// previous occupancy to drain (`nextFree`), holds the link for the
// serialization time bytes/linkBW, and advances the head by one hop
// latency.  Serialization appears once in the end-to-end time (pipelining),
// but every link on the route is occupied for the full serialization time —
// which is exactly why process mappings that fold many logical neighbor
// pairs onto the same physical links slow large halos down (Fig. 2c,d)
// while small, latency-dominated halos don't care.

#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "topo/torus.hpp"

namespace bgp::sim {
class FaultPlane;
}

namespace bgp::net {

struct TorusParams {
  double linkBandwidth = 400e6;  // effective bytes/s per directed link
  double hopLatency = 0.1e-6;    // s per hop
  double swLatency = 1.5e-6;     // per-message software overhead, one side
  double shmBandwidth = 3e9;     // same-node task-to-task bytes/s
  double shmLatency = 0.8e-6;
  bool modelContention = true;   // ablation: ideal (contention-free) links
  /// Minimal adaptive routing: each message picks the less congested of
  /// the XYZ- and ZYX-ordered minimal routes (both BG/P and SeaStar route
  /// adaptively in hardware; deterministic dimension order is the
  /// conservative default for reproducible orderings).
  bool adaptiveRouting = false;
};

class TorusNetwork {
 public:
  TorusNetwork(topo::Torus3D torus, TorusParams params);

  /// Passive per-link observer (the observability plane's counter tap).
  /// Callbacks fire from committed transfers only — adaptive-routing
  /// probes and latencyEstimate never report — and must not mutate
  /// network or engine state: an attached observer cannot change timing.
  class LinkObserver {
   public:
    virtual ~LinkObserver() = default;
    /// A committed message claimed `link` at `claim`, occupying it for
    /// `serSeconds`.  `queuedSeconds` is the contention delay this claim
    /// suffered (time between the message head reaching the link and the
    /// link coming free).
    virtual void onLinkClaim(topo::LinkId link, sim::SimTime claim,
                             double serSeconds, double bytes,
                             double queuedSeconds) = 0;
    /// A same-node transfer used the shared-memory path (no links).
    virtual void onShmTransfer(double bytes, sim::SimTime start) = 0;
  };

  struct Transfer {
    sim::SimTime injected;  // when the sender's last byte left the NIC
    sim::SimTime arrival;   // when the receiver has the full message
  };

  /// Sends `bytes` from node `src` to node `dst` starting at `start`,
  /// claiming link capacity along the route.  Same-node transfers use the
  /// shared-memory path and touch no links.
  Transfer transfer(topo::NodeId src, topo::NodeId dst, double bytes,
                    sim::SimTime start);

  /// Contention-free latency estimate for a message (used for rendezvous
  /// control traffic and analytic models); does not claim capacity.
  sim::SimTime latencyEstimate(topo::NodeId src, topo::NodeId dst,
                               double bytes) const;

  /// Clears all link occupancy (between benchmark repetitions).
  void reset();

  /// Attaches a fault-injection plane (owned by the caller, may be null).
  /// Degraded links serialize at their reduced bandwidth — the slowest
  /// link on a route paces the whole cut-through pipeline — and a claim
  /// landing inside a link outage retries past the window with
  /// exponential backoff.  With adaptive routing enabled, the route probe
  /// sees the same penalties, so messages dodge dead links naturally.
  void attachFaults(sim::FaultPlane* faults) { faults_ = faults; }
  const sim::FaultPlane* faults() const { return faults_; }

  /// Attaches a link observer (owned by the caller, may be null).
  /// Purely observational; survives reset().
  void attachObserver(LinkObserver* observer) { observer_ = observer; }
  LinkObserver* observer() const { return observer_; }

  const topo::Torus3D& torus() const { return torus_; }
  TorusParams& params() { return params_; }
  const TorusParams& params() const { return params_; }

  /// Aggregate bandwidth across the worst-case bisection, bytes/s.
  double bisectionBandwidth() const;

  /// Total bytes-on-wire scheduled so far (diagnostics).
  double bytesRouted() const { return bytesRouted_; }

  /// Routing counters kept for the perf harness's `net.route_cache_*`
  /// metrics.  Routes are generated per message (there is no cache), so
  /// hits read 0 and misses count the routes generated.
  std::uint64_t routeCacheHits() const { return 0; }
  std::uint64_t routeCacheMisses() const { return routesGenerated_; }

 private:
  struct Walk {
    sim::SimTime firstClaim;  // when the first link was claimed
    sim::SimTime head;        // when the message head reaches the far end
    double serMax;            // serialization time on the slowest link
  };
  /// Walks `links[0..count)`; claims capacity only when `commit` is true.
  Walk walk(const topo::LinkId* links, std::size_t count, double bytes,
            sim::SimTime start, bool commit);

  /// Generates the (src,dst) route for axis order `order` (0 = XYZ,
  /// 1 = ZYX) into that order's scratch buffer.  Routes are pure geometry
  /// and cost a few adds per hop, so they are recomputed per message: a
  /// cache of them held more memory than the messages it routed.
  const topo::LinkId* route(topo::NodeId src, topo::NodeId dst, int order,
                            std::size_t& hops);

  topo::Torus3D torus_;
  TorusParams params_;
  std::vector<sim::SimTime> nextFree_;  // per directed link (flat, link id
                                        // indexed — the busy-time array)
  sim::FaultPlane* faults_ = nullptr;   // not owned; null = perfect machine
  LinkObserver* observer_ = nullptr;    // not owned; null = no observation
  double bytesRouted_ = 0.0;
  /// Per-order scratch routes (maxHops() links each), so the adaptive
  /// path can hold both candidates at once.
  std::vector<topo::LinkId> scratch_[2];
  std::uint64_t routesGenerated_ = 0;
};

}  // namespace bgp::net
