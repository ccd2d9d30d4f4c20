#pragma once
// The simulation runtime: owns the engine, the machine System, the world
// communicator, and the per-rank coroutines.  See DESIGN.md §4.

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "net/system.hpp"
#include "obs/breakdown.hpp"
#include "obs/profiler.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/task.hpp"
#include "smpi/comm.hpp"
#include "smpi/rank.hpp"
#include "smpi/types.hpp"
#include "smpi/verifier.hpp"

namespace bgp::smpi {

namespace analysis {
class OpGraph;
}

/// A rank program: invoked once per rank to create its coroutine.
using RankProgram = std::function<sim::Task(Rank&)>;

class Simulation {
 public:
  Simulation(arch::MachineConfig machine, std::int64_t nranks,
             net::SystemOptions options = {}, std::uint64_t seed = 0x5eed);

  /// Runs `program` on every rank to completion; may be called once.
  /// Throws DeadlockError (with a wait-chain cycle report) if ranks block
  /// forever.  If exactly one rank program raised, its exception is
  /// rethrown unchanged; if several did, a RankFailures aggregates them.
  RunResult run(const RankProgram& program);

  net::System& system() { return *system_; }
  const net::System& system() const { return *system_; }
  sim::Engine& engine() { return engine_; }
  Comm& world() { return *world_; }
  int nranks() const { return static_cast<int>(nranks_); }

  /// Creates sub-communicators grouping world ranks by color (>= 0); a
  /// color of -1 leaves that rank out of every sub-communicator.  Returns
  /// pointers valid for the Simulation's lifetime, ordered by color.
  std::vector<Comm*> splitWorld(const std::vector<int>& colorPerWorldRank);

  /// The sub-communicator in `comms` containing `worldRank`.
  static Comm& commOf(const std::vector<Comm*>& comms, int worldRank);

  /// Throws OutOfMemoryError if a per-task allocation of `bytes` exceeds
  /// the execution mode's memory per task.
  void requireMemoryPerTask(double bytes) const;

  /// Per-rank activity counters (valid during and after run()).
  const RankStats& rankStats(int worldRank) const;

  /// Aggregated profile across all ranks.
  using Profile = obs::StatsSummary;
  Profile profile() const;

  double computeTime(const arch::Work& w) const {
    return system_->computeTime(w);
  }

  // ---- fault injection -----------------------------------------------------
  /// Installs a deterministic fault plane (call before run()).  A config
  /// with every knob at zero is a no-op and leaves all timing byte-exact.
  void setFaults(const sim::FaultConfig& config);
  const sim::FaultPlane* faults() const { return faults_.get(); }

  /// Compute time for `w` on `worldRank`'s node, including any straggler
  /// slowdown from the fault plane.
  double computeTimeFor(const arch::Work& w, int worldRank) const;
  /// Straggler multiplier for `worldRank` (1.0 without faults).
  double slowdownFor(int worldRank) const;
  /// Extra OS-noise fraction contributed by the fault plane.
  double faultNoise() const;
  /// Throws sim::FaultError if `worldRank`'s node fail-stopped before now.
  void checkAlive(int worldRank) const;

  // ---- correctness verifier ------------------------------------------------
  /// Enables the runtime MPI correctness verifier (call before run()).
  Verifier& enableVerifier(VerifierOptions options = {});
  Verifier* verifier() { return verifier_.get(); }

  // ---- observability plane ---------------------------------------------------
  /// Enables profiling for this Simulation (call before run()).
  /// Simulations constructed under an obs::ProfileScope are profiled
  /// automatically without this call, and so are those constructed under
  /// an analysis::CaptureScope, whose op-graph run() builds from the
  /// profiler's op log.  The profile is assembled by run() and read via
  /// profiler()->profile().
  obs::Profiler& enableProfile(obs::ProfileOptions options = {});
  obs::Profiler* profiler() { return profiler_; }

  /// Aborts run() with WatchdogError once either budget is exceeded
  /// (0 = unlimited); forwards to sim::Engine::setWatchdog.
  void setWatchdog(std::uint64_t maxEvents, sim::SimTime maxSimSeconds) {
    engine_.setWatchdog(maxEvents, maxSimSeconds);
  }

  // ---- runtime internals used by Rank/awaitables ---------------------------
  Request startSend(int worldSrc, Comm& comm, int dstCommRank, double bytes,
                    int tag);
  Request postRecv(int worldDst, Comm& comm, int srcWanted, int tagWanted,
                   double expectedBytes = -1.0);
  Request joinCollective(Comm& comm, int commRank, net::CollKind kind,
                         double bytes, net::Dtype dt, int root = -1,
                         ReduceOp rop = ReduceOp::None);

  // Hot per-rank runtime state lives in SoA arrays sized once at startup
  // (not in Rank): the Rank objects stay thin handles, and the fields the
  // engine touches on every block/unblock pack densely instead of being
  // strewn across 131k Rank objects.
  RankStats& statsOf(int worldRank) {
    return stats_[static_cast<std::size_t>(worldRank)];
  }
  const char*& blockedOnOf(int worldRank) {
    return blockedOnByRank_[static_cast<std::size_t>(worldRank)];
  }
  const std::vector<Request>*& pendingOpsOf(int worldRank) {
    return pendingOpsByRank_[static_cast<std::size_t>(worldRank)];
  }

 private:
  friend class AwaitOps;
  friend class AwaitAny;
  friend class AwaitCompute;

  /// run() up to the profile: the rank programs, the failure and
  /// deadlock checks and the verifier's finalize.
  RunResult execute(const RankProgram& program);
  /// World first, then the sub-communicators in creation (id) order.
  std::vector<const Comm*> comms() const;

  /// A fresh op carrying the next per-Simulation id.
  Request newOp(OpState::Kind kind, int ownerWorld, int commId);

  // ---- observer notifications ---------------------------------------------
  // One point per event kind; each forwards to whichever of the verifier
  // and profiler are attached.  None schedules events.
  /// `expectedBytes`: a receive's declared size (< 0 = none).
  void noteIssue(const Comm& comm, const OpState& op,
                 double expectedBytes = -1.0);
  /// `sendOp` is null for a staged eager message unless the profiler,
  /// which records matches, is attached.
  void noteMatch(const Comm& comm, int src, int dst, int tag, double bytes,
                 double expectedBytes, const Request& sendOp,
                 const OpState& recvOp);
  void noteGateArrive(const Comm& comm, const Comm::CollGate& gate,
                      int commRank, const CollSig& sig, double bytes);
  void noteGateDone(const Comm& comm, const Comm::CollGate& gate,
                    int lastRank, double duration, sim::SimTime done);
  void noteBlock(int worldRank);
  /// A waitAny returned ops[fired], or (fired == ops.size()) a
  /// wait/waitAll returned `ops`.
  void noteWaitDone(int worldRank, const std::vector<Request>& ops,
                    std::size_t fired);
  void noteCompute(int worldRank, double seconds);
  /// A send/receive is about to finish() (gates report via noteGateDone).
  void noteComplete(const OpState& op);

  void deliverEager(Comm& comm, const Request& sendOp);
  void arriveRts(Comm& comm, const Request& sendOp);
  /// Notes the match of message (src -> dst, tag, bytes) with `recvOp`
  /// and writes the message's RecvInfo into it.
  void matchRecv(const Comm& comm, int src, int dst, int tag, double bytes,
                 double expectedBytes, const Request& sendOp,
                 OpState& recvOp);
  void startRendezvousData(Comm& comm, int src, int dst,
                           const Request& sendOp, const Request& recvOp);
  /// "rank 3: recv(src=1, tag=7, comm 0)" for wait-chain reports.
  static std::string describeOp(const OpState& op);
  /// Appends a wait-for-graph cycle (if one exists) to deadlock reports.
  std::string deadlockCycleReport() const;

  arch::MachineConfig machine_;
  std::int64_t nranks_;
  sim::Engine engine_;
  std::unique_ptr<net::System> system_;
  std::unique_ptr<Comm> world_;
  std::deque<std::unique_ptr<Comm>> subComms_;
  int nextCommId_ = 1;
  std::uint64_t nextOpId_ = 0;
  std::vector<Rank> ranks_;  // thin handles; sized once in the constructor
  // SoA per-rank state (see statsOf/blockedOnOf/pendingOpsOf).
  std::vector<RankStats> stats_;
  std::vector<const char*> blockedOnByRank_;
  std::vector<const std::vector<Request>*> pendingOpsByRank_;
  std::unique_ptr<sim::FaultPlane> faults_;
  std::unique_ptr<Verifier> verifier_;
  // Raw pointer: either ownedProfiler_ (enableProfile, or a CaptureScope
  // without a ProfileScope) or a Profiler owned by the active
  // ProfileScope, which outlives the Simulation.
  obs::Profiler* profiler_ = nullptr;
  std::unique_ptr<obs::Profiler> ownedProfiler_;
  // The graph slot of the analysis::CaptureScope live at construction
  // (the scope outlives the Simulation), filled from the profiler's op
  // log when run() returns or throws; null when no scope was live.
  analysis::OpGraph* opGraph_ = nullptr;
  bool ran_ = false;
};

}  // namespace bgp::smpi
