#pragma once
// The profiling plane: null-guard zero-cost observation of one
// Simulation.  Like the verifier, its hooks are called from Simulation's
// per-event notification points behind a null check and never schedule
// events, so a profile-off run is byte-identical to a build without this
// module, and a profile-on run produces identical simulated timings.
//
// Ways to turn it on:
//  * Simulation::enableProfile() — programs that own their Simulation;
//  * ProfileScope — RAII scope that profiles EVERY Simulation
//    constructed while it is alive, process-wide (the bench harness runs
//    scenarios on a thread pool, and --profile must see all of them);
//  * tools/bgpprof — wraps the scenario registry in a ProfileScope;
//  * analysis::CaptureScope — a Simulation built under one and under no
//    ProfileScope gets a profiler of its own, whose op log becomes the
//    scope's op-graph.
//
// The profiler is the one per-op record of a run.  Its op log (OpRec per
// op id, Item per issue/compute/wait, GateRec per gate) holds the facts
// the critical path and what-ifs read (matches, send destinations, each
// gate's last arrival) and those the smpilint passes read (tags, comms,
// receive wildcards and declared sizes, collective signatures).  Keyed by
// the per-Simulation op id, it keeps no op alive.  It registers no
// completion waiter either:
// Simulation reports each send/receive completion through onComplete, so
// an op's awaiter keeps the OpState's inline waiter slot.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "net/collective_model.hpp"
#include "net/torus_network.hpp"
#include "obs/profile.hpp"
#include "smpi/types.hpp"

namespace bgp::smpi {
class Comm;
class Rank;
class Simulation;
}  // namespace bgp::smpi

namespace bgp::obs {

struct ProfileOptions {
  /// Stop detailed (per-op / per-item) recording past this many ops; the
  /// profile is marked truncated and loses the critical path and
  /// what-ifs, but breakdowns and counters stay exact.
  std::size_t maxOps = 1u << 20;
  /// Hot links reported (top-K by busy time).
  int topK = 10;
};

class Profiler final : public net::TorusNetwork::LinkObserver {
 public:
  /// Attaches to `sim` (wires itself as the torus network's link
  /// observer).  `sim` must outlive every hook call; finalize() severs
  /// the connection, after which only profile() remains valid.
  Profiler(smpi::Simulation& sim, ProfileOptions options);
  ~Profiler() override;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // ---- runtime hooks (called by Simulation/Rank when enabled) ----------
  void onP2pIssue(const smpi::Comm& comm, const smpi::OpState& op,
                  double expectedBytes, sim::SimTime now);
  /// A send/receive completed at `now`.
  void onComplete(const smpi::OpState& op, sim::SimTime now);
  /// A send was matched to a receive.
  void onMatch(const smpi::OpState& sendOp, const smpi::OpState& recvOp);
  /// Comm rank `commRank` arrived at the gate whose shared op is `op`,
  /// calling `sig` with `bytes`.
  void onCollArrival(const smpi::Comm& comm, const smpi::OpState& op,
                     const smpi::CollSig& sig, double bytes, int commRank,
                     sim::SimTime now);
  /// The gate's last member (world rank `lastWorld`) arrived; `sig` is the
  /// opener's, `bytes` the modeled payload, `duration` the modeled cost,
  /// and `done` = lastArrival + duration is when every member resumes.
  void onCollComplete(const smpi::Comm& comm, const smpi::OpState& op,
                      const smpi::CollSig& sig, double bytes, int lastWorld,
                      sim::SimTime lastArrival, double duration,
                      sim::SimTime done);
  void onCompute(int rank, sim::SimTime now, double seconds);
  /// The rank suspended on a wait (only called when it actually blocks).
  void onBlockBegin(int rank, sim::SimTime now);
  /// A waitAny returned ops[fired], or (fired == ops.size()) a
  /// wait/waitAll returned `ops`.  Called from await_resume whether or
  /// not the rank suspended (a ready-at-await wait is a zero-width
  /// block, which still matters to the what-if dependency replay).
  void onWaitDone(int rank, const std::vector<smpi::Request>& ops,
                  std::size_t fired, sim::SimTime now);

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

  // ---- the op log (read at finalize and by analysis::buildOpGraph) -----
  /// Op ids as the log stores them.  Ids past the 32-bit range end
  /// detailed recording like the maxOps budget does.
  using OpId = std::uint32_t;
  /// "No op" in an op-id field.
  static constexpr OpId kNoOp = ~OpId{0};

  /// One recorded timeline item.  Per rank, items append in program order
  /// (a rank is sequential), which the critical-path walk, the what-if
  /// replay and the op-graph all rely on.
  struct Item {
    enum class Kind : std::uint8_t { Compute, Block, Issue };
    Item() {}  // NOLINT: `= default` is deleted by the union holding `sig`
    sim::SimTime begin = 0.0;
    union {
      sim::SimTime end = 0.0;  // Compute/Block
      smpi::CollSig sig;       // Issue of a gate arrival: the arrival's
    };
    OpId op = kNoOp;  // Issue: the op; Block: releaser
    union {
      std::uint32_t firstWait = 0;  // Block: slice into waitOps_
      std::int32_t tag;             // Issue of a send/receive
    };
    union {
      std::uint32_t waitCount = 0;  // Block
      std::int32_t commId;          // Issue of a send/receive
    };
    Kind kind = Kind::Issue;
    bool any = false;  // Block came from a waitAny
  };
  static_assert(sizeof(Item) <= 32);

  /// One op, indexed by its id in ops_.
  struct OpRec {
    sim::SimTime issue = 0.0;
    sim::SimTime completion = -1.0;  // < 0: never completed / still open
    /// Send: payload; Recv: declared size (< 0: none); Gate: the opener's.
    double bytes = 0.0;
    OpId partner = kNoOp;  // p2p: the matched op, if recorded
    int world = -1;        // issuing world rank (Gate: the opener)
    /// Send: destination world rank; Recv: wanted source comm rank (or
    /// smpi::kAnySource); Gate: index into gates_.
    std::int32_t peerOrGate = -1;
    // None: an id the profiler did not record (budget hit first).
    enum class Kind : std::uint8_t { None, Send, Recv, Gate } kind =
        Kind::None;
    bool overlapCounted = false;
    std::size_t gate() const { return static_cast<std::size_t>(peerOrGate); }
  };
  static_assert(sizeof(OpRec) <= 40);

  struct GateRec {
    int nranks = 0;
    int commId = -1;        // 0: the world, the full partition
    std::uint64_t seq = 0;  // the gate's collective number on commId
    smpi::CollSig sig;      // the opener's
    double bytes = 0.0;
    int lastWorld = -1;  // the member the gate waited for
    sim::SimTime lastArrival = -1.0;
    double duration = -1.0;  // < 0: gate never completed
    sim::SimTime done = -1.0;
  };

  /// True once detailed recording stopped: the log then holds the run's
  /// events up to some instant of the executed schedule.
  bool truncated() const { return truncated_; }
  std::size_t opCount() const { return ops_.size(); }
  /// The record of op `id`, or null if it was not recorded.
  const OpRec* rec(std::uint64_t id) const {
    return recorded(id) ? &ops_[id] : nullptr;
  }
  const GateRec& gate(const OpRec& r) const { return gates_[r.gate()]; }
  /// Every op a Block item waited on (for a waitAny, also those that did
  /// not fire).
  std::span<const OpId> waited(int rank, const Item& block) const {
    return std::span<const OpId>(waitOps_[static_cast<std::size_t>(rank)])
        .subspan(block.firstWait, block.waitCount);
  }

  /// Visits every rank's items in program order, interleaved in an order
  /// that respects the recorded dependencies: `step(rank, item)` returns
  /// false to park the rank at an item whose dependencies are not visited
  /// yet, to be offered again on the next pass.  False if one stays parked.
  template <class Step>
  bool sweep(Step&& step) const {
    const std::size_t n = items_.size();
    std::vector<std::size_t> idx(n, 0);
    for (bool progress = true; progress;) {
      progress = false;
      for (std::size_t r = 0; r < n; ++r) {
        const auto& list = items_[r];
        while (idx[r] < list.size() &&
               step(static_cast<int>(r), list[idx[r]])) {
          ++idx[r];
          progress = true;
        }
      }
    }
    for (std::size_t r = 0; r < n; ++r)
      if (idx[r] != items_[r].size()) return false;
    return true;
  }

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

  /// Detailed recording is on until the op/item budget trips.
  bool detailed() const { return !truncated_; }
  bool recorded(std::uint64_t id) const {
    return id < ops_.size() && ops_[id].kind != OpRec::Kind::None;
  }
  OpRec* rec(std::uint64_t id) { return recorded(id) ? &ops_[id] : nullptr; }
  /// Adds the record of op `id` (ids arrive in creation order), or ends
  /// detailed recording and returns null when `id` does not fit an OpId.
  OpRec* addRec(std::uint64_t id);
  void checkBudget();
  /// `rank`'s aggregate for its current site label and op `slot`.
  SiteAgg& siteAgg(int rank, std::uint32_t slot) {
    SiteAgg& agg = siteAggs_[siteOf_[static_cast<std::size_t>(rank)] *
                                 kOpSlots +
                             slot];
    agg.used = true;
    return agg;
  }
  static std::uint32_t collSlot(net::CollKind kind) {
    return kFirstCollSlot + static_cast<std::uint32_t>(kind);
  }
  /// The aggregation slot of a waited op (a recorded gate's kind, else
  /// its OpState::Kind), and of an OpState::Kind alone.
  std::uint32_t opSlot(const smpi::OpState& op) const;
  static std::uint32_t kindSlot(smpi::OpState::Kind kind);
  void histAdd(sim::SimTime t, double bytes);
  /// Stable lowercase collective-kind name ("allreduce", ...).
  static const char* collName(net::CollKind kind);

  // ---- finalize stages (critical_path.cpp) -----------------------------
  void computeCriticalPath(const smpi::RunResult& result);
  void computeWhatIf(const smpi::RunResult& result);
  /// Replays the recorded dependency structure with one cost class
  /// zeroed; returns the replayed makespan, or a negative value when a
  /// dependency could not be resolved.
  double replay(bool zeroNetwork, bool zeroCompute) const;

  smpi::Simulation* sim_;  // null after finalize()
  ProfileOptions options_;
  bool truncated_ = false;
  bool finalized_ = false;

  std::vector<OpRec> ops_;      // by op id
  std::vector<GateRec> gates_;  // by OpRec::gate()
  std::vector<std::vector<Item>> items_;    // per rank
  std::vector<std::vector<OpId>> waitOps_;  // per rank
  std::size_t itemCount_ = 0;

  struct OpenBlock {
    sim::SimTime begin = 0.0;
    bool open = false;
  };
  std::vector<OpenBlock> open_;       // per rank
  std::vector<double> overlap_;       // per rank, seconds
  // Site labels are interned once per label change; each rank holds its
  // current label's index, so aggregating an op builds no string key.
  std::vector<std::string> siteNames_;  // by site index; [0] = ""
  std::map<std::string, std::uint32_t> siteIndex_;
  std::vector<std::uint32_t> siteOf_;   // per rank current site index
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
