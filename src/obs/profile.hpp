#pragma once
// The observability plane's result model: everything a profiled run
// distills into once Profiler::finalize has run — per-rank time
// breakdowns, mpiP-style site aggregates, network link counters, the
// executed run's critical path, and logical-zeroing what-if estimates.
// Pure data; produced by obs::Profiler, consumed by obs/report.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace bgp::obs {

/// Where one rank's simulated time went.  compute + p2pBlocked +
/// collBlocked + idle == the run's makespan for every rank by
/// construction (idle absorbs the remainder: time after the rank's
/// coroutine finished plus any zero-cost host-side code).  `overlap` is
/// informational and not part of the sum: simulated time during which an
/// already-issued nonblocking operation made progress while the rank was
/// doing something else (communication/computation overlap actually
/// achieved, the quantity Fig. 2's isend/irecv protocol buys).
struct RankBreakdown {
  double compute = 0.0;
  double p2pBlocked = 0.0;
  double collBlocked = 0.0;
  double idle = 0.0;
  double overlap = 0.0;
  double finish = 0.0;  // this rank's coroutine finish time
};

/// mpiP-style aggregate: one row per (call-site label, operation kind).
/// Unlabeled code aggregates under site "".
struct SiteStats {
  std::string site;
  std::string op;  // "send", "recv", or a collective kind name
  std::uint64_t count = 0;
  double bytes = 0.0;
  double blockedSeconds = 0.0;  // time ranks spent blocked at this site
};

/// Per-collective-kind totals, with the gate count split by which
/// network the analytic model charged (BG/P tree / barrier wires vs.
/// torus algorithms).
struct CollStats {
  std::string kind;
  std::uint64_t gates = 0;
  double bytes = 0.0;        // max-per-rank payload, summed over gates
  double costSeconds = 0.0;  // sum of modeled gate durations
  std::uint64_t treeGates = 0;
  std::uint64_t barrierGates = 0;
  std::uint64_t torusGates = 0;
};

/// One directed torus link's counters (hot-link report rows).
struct LinkStats {
  std::int32_t link = -1;
  int x = 0, y = 0, z = 0;  // source node coordinates
  std::string dir;          // "x+", "x-", ...
  std::uint64_t claims = 0;
  double bytes = 0.0;
  double busySeconds = 0.0;   // summed serialization occupancy
  double queueSeconds = 0.0;  // summed contention-induced claim delay
  double utilization = 0.0;   // busySeconds / makespan
};

struct NetStats {
  double bytesOnLinks = 0.0;  // per-link-claim sum (counts every hop)
  double shmBytes = 0.0;
  std::uint64_t linkClaims = 0;
  std::uint64_t shmTransfers = 0;
  std::int64_t linksUsed = 0;
  std::int64_t linkCount = 0;
  double peakUtilization = 0.0;
  double meanUtilization = 0.0;  // over used links only
  std::vector<LinkStats> hotLinks;  // top-K by busy time, descending
  /// Time-binned traffic histogram: histBytes[i] is the bytes claimed on
  /// links in [i, i+1) * histBinSeconds.  Bin width auto-doubles to keep
  /// the bin count bounded, so it is run-length dependent.
  double histBinSeconds = 0.0;
  std::vector<double> histBytes;
};

enum class PathKind : std::uint8_t {
  Compute,        // the rank was executing modeled work
  Serialization,  // payload bytes draining at link (or shm) bandwidth
  Latency,        // hop/software/protocol latency floors
  Queueing,       // contention: waiting for links claimed by other traffic
  Unattributed,   // walk could not explain this span (reported, not hidden)
};

const char* toString(PathKind kind);

struct PathSegment {
  int rank = -1;
  double begin = 0.0;
  double end = 0.0;
  PathKind kind = PathKind::Unattributed;
  std::string what;  // op description, e.g. "allreduce" or "recv src=3"
};

/// The executed run's critical path: a backward walk from the makespan
/// to t=0 hopping ranks along the happens-before edge that released each
/// blocking wait.  When `complete`, length equals the measured makespan
/// exactly (it is computed as a single difference, not a float sum).
struct CriticalPath {
  bool complete = false;
  double length = 0.0;
  double compute = 0.0;
  double serialization = 0.0;
  double latency = 0.0;
  double queueing = 0.0;
  double unattributed = 0.0;
  std::vector<PathSegment> segments;  // chronological
};

/// Logical-zeroing what-if estimates: the recorded dependency structure
/// replayed with one cost class set to zero.  zeroNetwork keeps compute
/// durations and zeroes every transfer/collective span; zeroCompute does
/// the reverse (network spans stay at their *measured* durations, i.e.
/// contention is frozen as executed — see docs/observability.md).
struct WhatIf {
  bool valid = false;
  double measured = 0.0;
  double zeroNetwork = 0.0;
  double zeroCompute = 0.0;
};

struct EngineStats {
  std::uint64_t events = 0;
  std::uint64_t peakPending = 0;  // high-water mark of the event queue
};

/// Everything one profiled Simulation produced.
struct RunProfile {
  int nranks = 0;
  double makespan = 0.0;
  /// A counters-only profile (ProfileOptions::maxOps == 0): breakdowns
  /// and counters are exact, but there is no critical path or what-if.
  bool truncated = false;
  EngineStats engine;

  std::vector<RankBreakdown> ranks;
  double computeTotal = 0.0;
  double p2pBlockedTotal = 0.0;
  double collBlockedTotal = 0.0;
  double idleTotal = 0.0;
  double overlapTotal = 0.0;
  double computeImbalance = 1.0;  // max/mean per-rank compute
  double commFraction = 0.0;      // blocked / (compute + blocked)

  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t collectives = 0;  // per-rank arrivals, not gates
  double bytesSent = 0.0;

  std::vector<SiteStats> sites;  // sorted by blocked time, descending
  std::vector<CollStats> colls;  // sorted by kind name
  NetStats net;
  CriticalPath critical;
  WhatIf whatIf;
};

}  // namespace bgp::obs
