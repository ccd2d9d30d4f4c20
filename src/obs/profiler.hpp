#pragma once
// The profiling plane: zero-cost-when-off observation of one Simulation.
// Like the verifier, it is one of the Simulation's smpi::Observers: its
// hooks run only while it is attached and never schedule events, so a
// profile-off run is byte-identical to a build without this module, and a
// profile-on run produces identical simulated timings.
//
// Ways to turn it on:
//  * Simulation::enableProfile() — programs that own their Simulation;
//  * ProfileScope — RAII scope that profiles EVERY Simulation
//    constructed while it is alive, process-wide (the bench harness runs
//    scenarios on a thread pool, and --profile must see all of them);
//  * tools/bgpprof — wraps the scenario registry in a ProfileScope.
//
// What the profiler keeps (docs/observability.md has the memory table):
//  * per rank: the open block, the overlap total, the current call-site
//    label, two what-if clocks, and the rank's compute and block spans of
//    positive width — the only items the critical-path walk stops on —
//    each block with its releaser resolved when the wait returned;
//  * per in-flight op: issue, completion, world, bytes, the matched
//    partner's facts and the replayed issue, in fixed-size chunks keyed by
//    op id.  A chunk is freed once every op in it has completed, been
//    waited on and, for sends, been matched; an op that is never waited on
//    pins its chunk (memory, never correctness).
// It keeps no record of finished ops.  The what-ifs are evaluated online:
// each hook advances the same max-plus recurrence a replay of the whole
// run would, in causal order, with the same arithmetic.
// Everything is keyed by the per-Simulation op id, so the profiler keeps
// no op alive.  It registers no completion waiter either: Simulation
// reports each send/receive completion through onComplete, so an op's
// awaiter keeps the OpState's inline waiter slot.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/collective_model.hpp"
#include "net/torus_network.hpp"
#include "obs/profile.hpp"
#include "smpi/observer.hpp"
#include "smpi/types.hpp"

namespace bgp::smpi {
class Rank;
class Simulation;
}  // namespace bgp::smpi

namespace bgp::obs {

struct ProfileOptions {
  /// Whether to record detail, decided once for the whole run: 0 keeps
  /// counters only (breakdowns, sites, collectives, links; the profile
  /// reads `truncated`, with no critical path or what-ifs), and any other
  /// value records every op.  Only zero versus nonzero matters.
  std::size_t maxOps = 1u << 20;
  /// Hot links reported (top-K by busy time).
  int topK = 10;
};

class Profiler final : public smpi::Observer,
                       public net::TorusNetwork::LinkObserver {
 public:
  /// Attaches to `sim` (wires itself as the torus network's link
  /// observer).  `sim` must outlive every hook call; finalize() severs
  /// the connection, after which profile() remains valid.
  Profiler(smpi::Simulation& sim, ProfileOptions options);
  ~Profiler() override;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // ---- smpi::Observer --------------------------------------------------
  void onIssue(const smpi::Comm& comm, const smpi::OpState& op,
               double expectedBytes, sim::SimTime now) override;
  void onComplete(const smpi::OpState& op, sim::SimTime now) override;
  void onMatch(const smpi::Comm& comm, int src, int dst, int tag,
               double bytes, double expectedBytes,
               const smpi::OpState& sendOp,
               const smpi::OpState& recvOp) override;
  void onGateArrive(const smpi::Comm& comm, const smpi::Comm::CollGate& gate,
                    int commRank, const smpi::CollSig& sig, double bytes,
                    sim::SimTime now) override;
  void onGateDone(const smpi::Comm& comm, const smpi::Comm::CollGate& gate,
                  int lastRank, double duration, sim::SimTime done) override;
  void onCompute(int rank, sim::SimTime now, double seconds) override;
  void onBlock(int rank, sim::SimTime now) override;
  /// A ready-at-await wait is a zero-width block, which still matters to
  /// the what-if clocks.
  void onWaitDone(int rank, const std::vector<smpi::Request>& ops,
                  std::size_t fired, sim::SimTime now) override;

  // ---- net::TorusNetwork::LinkObserver ---------------------------------
  void onLinkClaim(topo::LinkId link, sim::SimTime claim, double serSeconds,
                   double bytes, double queuedSeconds) override;
  void onShmTransfer(double bytes, sim::SimTime start) override;

  // ---- call-site labels ------------------------------------------------
  /// Sets `rank`'s current mpiP-style call-site label ("" = unlabeled);
  /// returns the previous label.  Prefer the SiteLabel RAII guard.
  std::string setSite(int rank, std::string label);

  /// Assembles the RunProfile.  Called by Simulation::run() on success
  /// (while the Simulation is still alive); releases all detailed state.
  void finalize(const smpi::RunResult& result);
  bool finalized() const { return finalized_; }
  const RunProfile& profile() const { return profile_; }

 private:
  struct SiteAgg {
    std::uint64_t count = 0;
    double bytes = 0.0;
    double blockedSeconds = 0.0;
    bool used = false;
  };
  /// The op half of a (site, op) aggregation key: send, recv, an
  /// unresolved "collective", then one slot per net::CollKind.
  enum OpSlot : std::uint32_t { kSendSlot, kRecvSlot, kCollectiveSlot,
                                kFirstCollSlot };
  static constexpr std::uint32_t kOpSlots =
      kFirstCollSlot + static_cast<std::uint32_t>(net::CollKind::Alltoallv) +
      1;

  struct CollAgg {
    std::uint64_t gates = 0;
    double bytes = 0.0;
    double costSeconds = 0.0;
    std::uint64_t treeGates = 0;
    std::uint64_t barrierGates = 0;
    std::uint64_t torusGates = 0;
  };

  /// Traffic histogram bin count; the bin width doubles (folding pairs)
  /// whenever the run outgrows it.
  static constexpr std::size_t kHistBins = 512;
  /// Safety cap on critical-path segments; a walk that exceeds it stops
  /// and reports the path incomplete.
  static constexpr std::size_t kMaxPathSegments = 1u << 16;

  /// An in-flight op: what the hooks, the what-if clocks and the
  /// critical-path resolution read until the op retires.
  struct LiveOp {
    enum class Kind : std::uint8_t { None, Send, Recv, Gate };
    sim::SimTime issue = 0.0;        // Gate: the first arrival
    sim::SimTime completion = -1.0;  // < 0: not yet (Gate: done)
    union {
      double bytes = 0.0;        // Send: payload; Recv: the matched send's
      sim::SimTime lastArrival;  // Gate
    };
    union {
      sim::SimTime partnerIssue = 0.0;  // p2p: the matched partner's issue
      double duration;                  // Gate: the modeled cost
    };
    /// Replayed times with the network (zn) or compute (zc) zeroed.  p2p:
    /// the op's replayed issue, after its match the replayed cause of its
    /// completion; Gate: the latest replayed arrival.
    double zn = 0.0;
    double zc = 0.0;
    int world = -1;  // p2p: the issuing world rank; Gate: the last arrival's
    union {
      int peer = -1;  // Send: destination world rank; Recv: matched source's
      int nranks;     // Gate: member count
    };
    Kind kind = Kind::None;  // None: free, or retired
    bool matched : 1 = false;
    bool waited : 1 = false;
    bool overlapCounted : 1 = false;
    bool full : 1 = false;  // Gate: on the world communicator
    net::CollKind coll{};   // Gate: the opener's signature
    net::Dtype dt{};
    std::uint32_t waits = 0;  // Gate: member waits that returned it
  };
  static_assert(sizeof(LiveOp) == 64);
  static constexpr std::size_t kChunkOps = 256;
  struct Chunk {
    LiveOp ops[kChunkOps];
    std::uint32_t live = 0;  // recorded and not yet retired
  };

  /// A compute or block span of positive width on one rank: the walk's
  /// unit.  A block carries its releaser as resolved at onWaitDone.
  struct Span {
    enum class Kind : std::uint8_t {
      Compute,
      Gate,  // released by a gate
      Send,  // released by a send
      Recv,  // released by a matched receive
    };
    Span(sim::SimTime b, sim::SimTime e) : begin(b), end(e) {}
    sim::SimTime begin;
    sim::SimTime end;
    sim::SimTime cause = 0.0;  // p2p: the causing issue; Gate: last arrival
    double bytes = 0.0;        // p2p: payload
    union {
      int sendWorld = -1;  // p2p
      int lastWorld;       // Gate: the member the gate waited for
    };
    union {
      int recvWorld = -1;  // p2p
      int nranks;          // Gate
    };
    Kind kind = Kind::Compute;
    bool matched = false;      // p2p: the partner was matched
    bool causeIsRecv = false;  // p2p: a rendezvous gated on the receiver
    bool full = false;         // Gate: on the world communicator
    net::CollKind coll{};      // Gate
    net::Dtype dt{};
  };
  static_assert(sizeof(Span) <= 48);

  /// Per-rank state.
  struct RankState {
    sim::SimTime blockBegin = 0.0;  // of the open block
    double overlap = 0.0;           // seconds
    double zn = 0.0;                // what-if clocks (see LiveOp::zn)
    double zc = 0.0;
    std::uint32_t site = 0;  // current call-site label index
    bool blocked = false;    // a block is open
  };

  /// Records every op, or counters only (ProfileOptions::maxOps == 0).
  bool detailed() const { return detailed_; }
  /// The in-flight record of op `id`, or null (never recorded, retired).
  LiveOp* live(std::uint64_t id) {
    const std::uint64_t c = id / kChunkOps;
    if (c >= chunks_.size() || !chunks_[c]) return nullptr;
    LiveOp& op = chunks_[c]->ops[id % kChunkOps];
    return op.kind == LiveOp::Kind::None ? nullptr : &op;
  }
  /// Starts the in-flight record of op `id` (ids arrive in creation
  /// order).
  LiveOp& addLive(std::uint64_t id, LiveOp::Kind kind);
  /// Drops op `id`'s record; frees its chunk once the chunk is full and
  /// holds no live op.
  void retire(std::uint64_t id, LiveOp& op);
  /// `op` was returned by a wait: retires it once nothing can read it.
  void noteWaited(const smpi::OpState& op);
  /// Folds the replayed completions of the ops a wait returned into the
  /// rank's what-if clocks.
  void foldWhatIf(RankState& rs, const std::vector<smpi::Request>& ops,
                  std::size_t fired);
  /// The block span [begin, end) released by `release`.
  Span resolveBlock(sim::SimTime begin, sim::SimTime end,
                    const smpi::OpState* release);
  /// `rank`'s aggregate for its current site label and op `slot`.
  SiteAgg& siteAgg(int rank, std::uint32_t slot) {
    SiteAgg& agg =
        siteAggs_[ranks_[static_cast<std::size_t>(rank)].site * kOpSlots +
                  slot];
    agg.used = true;
    return agg;
  }
  static std::uint32_t collSlot(net::CollKind kind) {
    return kFirstCollSlot + static_cast<std::uint32_t>(kind);
  }
  /// The aggregation slot of a waited op (a recorded gate's kind, else
  /// its OpState::Kind), and of an OpState::Kind alone.
  std::uint32_t opSlot(const smpi::OpState& op);
  static std::uint32_t kindSlot(smpi::OpState::Kind kind);
  void histAdd(sim::SimTime t, double bytes);
  /// Stable lowercase collective-kind name ("allreduce", ...).
  static const char* collName(net::CollKind kind);

  /// Finalize stage (critical_path.cpp): the backward walk over spans_.
  void computeCriticalPath(const smpi::RunResult& result);

  smpi::Simulation* sim_;  // null after finalize()
  ProfileOptions options_;
  double eagerThresh_;
  const bool detailed_;
  bool finalized_ = false;
  bool whatIfOk_ = true;  // every wait's replayed completions resolved

  std::vector<std::unique_ptr<Chunk>> chunks_;  // by id / kChunkOps
  std::vector<RankState> ranks_;
  std::vector<std::vector<Span>> spans_;  // per rank, program order

  // Site labels are interned once per label change; each rank holds its
  // current label's index, so aggregating an op builds no string key.
  std::vector<std::string> siteNames_;  // by site index; [0] = ""
  std::map<std::string, std::uint32_t> siteIndex_;
  std::vector<SiteAgg> siteAggs_;       // [site * kOpSlots + slot]
  std::map<net::CollKind, CollAgg> collAggs_;

  // Link counters, sized lazily from the torus on first claim.
  std::vector<double> linkBytes_;
  std::vector<double> linkBusy_;
  std::vector<double> linkQueue_;
  std::vector<std::uint64_t> linkClaims_;
  double shmBytes_ = 0.0;
  std::uint64_t shmTransfers_ = 0;

  std::vector<double> hist_;
  double histBinSeconds_;

  RunProfile profile_;
};

/// Process-global RAII profile scope: while alive, every Simulation
/// constructed anywhere in the process records into a Profiler owned by
/// the scope (the bench harness builds Simulations on pool threads, so a
/// thread-local scope would miss them).  Scopes nest, innermost wins;
/// construct and destroy scopes from one thread at a time.
class ProfileScope {
 public:
  explicit ProfileScope(ProfileOptions options = {});
  ~ProfileScope();
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

  /// The innermost live scope, or null.
  static ProfileScope* active();

  /// Called by Simulation's constructor (thread-safe); returns the
  /// Profiler the new Simulation must record into.
  Profiler& attach(smpi::Simulation& sim);

  /// One Profiler per Simulation constructed under the scope.  The
  /// construction order is thread-schedule dependent under the bench
  /// pool; exporters sort by profile content, not by this order.
  const std::vector<std::unique_ptr<Profiler>>& profilers() const {
    return profilers_;
  }

 private:
  ProfileOptions options_;
  ProfileScope* prev_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Profiler>> profilers_;
};

/// RAII call-site label, the mpiP aggregation key:
///   { obs::SiteLabel site(self, "halo-exchange"); co_await ...; }
/// A no-op when the rank's Simulation is not being profiled.
class SiteLabel {
 public:
  SiteLabel(smpi::Rank& rank, std::string label);
  SiteLabel(const SiteLabel&) = delete;
  SiteLabel& operator=(const SiteLabel&) = delete;
  ~SiteLabel();

 private:
  Profiler* prof_ = nullptr;
  int rank_ = -1;
  std::string prev_;
};

}  // namespace bgp::obs
