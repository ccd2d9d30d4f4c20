#pragma once
// The per-process handle a simulated MPI program runs against.
//
// A rank program is a coroutine `sim::Task program(Rank& self)`; every MPI
// call is a `co_await` on one of the awaitables below.  Blocking calls are
// sugar over the nonblocking ones: `co_await self.send(...)` is
// isend + wait.  All of MPI's semantics that the paper's benchmarks rely
// on are honoured: FIFO matching per (source, tag), ANY_SOURCE/ANY_TAG
// wildcards, eager vs. rendezvous protocol by message size, and collective
// operations that gate on the last arrival.

#include <coroutine>
#include <vector>

#include "arch/node_model.hpp"
#include "net/collective_model.hpp"
#include "sim/task.hpp"
#include "smpi/comm.hpp"
#include "smpi/types.hpp"
#include "support/rng.hpp"

namespace bgp::smpi {

class Simulation;
class Rank;

/// Per-rank activity counters, filled by the runtime as the program runs
/// (the simulator's stand-in for the IBM HPC Toolkit profiling the paper
/// references).  Query via Rank::stats() or Simulation::profile().
struct RankStats {
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t collectives = 0;
  double bytesSent = 0.0;
  double computeSeconds = 0.0;   // simulated busy time
  double p2pWaitSeconds = 0.0;   // blocked on sends/recvs/waits
  double collWaitSeconds = 0.0;  // blocked in collectives
};

/// Awaits completion of one or more operations; resumes when all are done.
/// `await_resume` returns the RecvInfo of the first operation (meaningful
/// for receives).  While suspended, the awaiter (which lives in the
/// coroutine frame) is itself the waiter registered on each pending op.
class AwaitOps {
 public:
  AwaitOps(Simulation& sim, Rank& rank, std::vector<Request> ops);

  bool await_ready() const;
  void await_suspend(std::coroutine_handle<> h);
  RecvInfo await_resume() const;

 private:
  static void onOpComplete(void* self, OpState& op);

  Simulation* sim_;
  Rank* rank_;
  std::vector<Request> ops_;
  std::size_t remaining_ = 0;
  std::coroutine_handle<> h_;
  double blockStart_ = 0.0;
  bool collective_ = false;
};

/// Awaits the FIRST completion among several operations (MPI_Waitany);
/// `await_resume` returns the index of the completed operation.  The
/// other requests stay live and can be awaited again later: the awaiter
/// is registered on every request while suspended and unregisters from
/// the losers when it resumes.
class AwaitAny {
 public:
  AwaitAny(Simulation& sim, Rank& rank, std::vector<Request> ops);

  bool await_ready();
  void await_suspend(std::coroutine_handle<> h);
  std::size_t await_resume();

 private:
  static void onOpComplete(void* self, OpState& op);

  Simulation* sim_;
  Rank* rank_;
  std::vector<Request> ops_;
  std::coroutine_handle<> h_;  // set iff suspended, i.e. registered
  double blockStart_ = 0.0;
  std::size_t index_ = 0;
  bool fired_ = false;
};

/// Awaits a pure time delay (compute block).
class AwaitCompute {
 public:
  AwaitCompute(Simulation& sim, Rank& rank, double seconds);
  bool await_ready() const { return seconds_ <= 0.0; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const {}

 private:
  Simulation* sim_;
  Rank* rank_;
  double seconds_;
};

class Rank {
 public:
  int id() const { return id_; }
  int size() const;
  sim::SimTime now() const;
  Rng& rng() { return rng_; }
  Simulation& sim() { return *sim_; }

  // ---- compute -------------------------------------------------------------
  /// Simulated busy time of `seconds`.
  AwaitCompute compute(double seconds);
  /// Simulated execution of `w` under the current mode's thread/task split.
  AwaitCompute compute(const arch::Work& w);

  // ---- point-to-point (world communicator) ----------------------------------
  /// Receives may declare the payload size they expect (`expectedBytes`,
  /// < 0 = unchecked); with the verifier enabled, a sender whose size
  /// disagrees is reported as a p2p count mismatch.
  Request isend(int dst, double bytes, int tag = 0);
  Request irecv(int src = kAnySource, int tag = kAnyTag,
                double expectedBytes = -1.0);
  AwaitOps send(int dst, double bytes, int tag = 0);
  AwaitOps recv(int src = kAnySource, int tag = kAnyTag,
                double expectedBytes = -1.0);
  /// MPI_Sendrecv: both directions concurrently; resumes when both finish.
  AwaitOps sendrecv(int dst, double sendBytes, int src, int sendTag = 0,
                    int recvTag = kAnyTag);

  // ---- point-to-point (explicit communicator; ranks are comm ranks) ---------
  Request isend(Comm& comm, int dst, double bytes, int tag = 0);
  Request irecv(Comm& comm, int src = kAnySource, int tag = kAnyTag,
                double expectedBytes = -1.0);
  AwaitOps send(Comm& comm, int dst, double bytes, int tag = 0);
  AwaitOps recv(Comm& comm, int src = kAnySource, int tag = kAnyTag,
                double expectedBytes = -1.0);
  AwaitOps sendrecv(Comm& comm, int dst, double sendBytes, int src,
                    int sendTag = 0, int recvTag = kAnyTag);

  // ---- completion ------------------------------------------------------------
  AwaitOps wait(Request r);
  AwaitOps waitAll(std::vector<Request> rs);
  AwaitAny waitAny(std::vector<Request> rs);

  // ---- collectives (world unless a Comm is given) ----------------------------
  AwaitOps barrier();
  AwaitOps bcast(double bytes, int root = 0);
  AwaitOps reduce(double bytes, int root = 0,
                  net::Dtype dt = net::Dtype::Double,
                  ReduceOp op = ReduceOp::Sum);
  AwaitOps allreduce(double bytes, net::Dtype dt = net::Dtype::Double,
                     ReduceOp op = ReduceOp::Sum);
  AwaitOps allgather(double bytesPerRank);
  AwaitOps alltoall(double bytesPerPair);
  AwaitOps gather(double bytes, int root = 0);
  AwaitOps scatter(double bytes, int root = 0);

  AwaitOps barrier(Comm& comm);
  AwaitOps bcast(Comm& comm, double bytes, int root = 0);
  AwaitOps reduce(Comm& comm, double bytes, int root = 0,
                  net::Dtype dt = net::Dtype::Double,
                  ReduceOp op = ReduceOp::Sum);
  AwaitOps allreduce(Comm& comm, double bytes,
                     net::Dtype dt = net::Dtype::Double,
                     ReduceOp op = ReduceOp::Sum);
  AwaitOps allgather(Comm& comm, double bytesPerRank);
  AwaitOps alltoall(Comm& comm, double bytesPerPair);

  /// Analytic cost of one collective at world size — used by application
  /// models that charge `iters * cost` inside a single gate instead of
  /// simulating thousands of identical iterations event-by-event.
  double collectiveCost(net::CollKind kind, double bytes,
                        net::Dtype dt = net::Dtype::Double) const;
  double collectiveCost(Comm& comm, net::CollKind kind, double bytes,
                        net::Dtype dt = net::Dtype::Double) const;

  /// What this rank is currently blocked on (deadlock diagnostics).
  const char* blockedOn() const;

  /// The request list this rank is suspended on, or null when running —
  /// the wait-chain deadlock reporter walks these to build the wait-for
  /// graph.  Valid only while the rank is blocked.
  const std::vector<Request>* pendingOps() const;

  /// Activity counters accumulated so far.
  const RankStats& stats() const;

  /// Applies the machine's OS-noise jitter to a compute interval (no-op
  /// on the noiseless CNK/Catamount microkernels).
  double noisy(double seconds);

 private:
  friend class Simulation;
  friend class AwaitOps;
  friend class AwaitAny;
  friend class AwaitCompute;

  // A Rank is a thin handle: the runtime state the engine mutates on
  // every block/unblock (stats, blockedOn, pendingOps) lives in the
  // Simulation's SoA arrays, keyed by id_ — 48 bytes per rank here
  // instead of ~128, and the hot fields pack contiguously.
  Simulation* sim_ = nullptr;
  int id_ = -1;
  Rng rng_;
};

}  // namespace bgp::smpi
