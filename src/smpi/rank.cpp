#include "smpi/rank.hpp"

#include "smpi/simulation.hpp"

namespace bgp::smpi {

// ---- AwaitOps ---------------------------------------------------------------

AwaitOps::AwaitOps(Simulation& sim, Rank& rank, std::vector<Request> ops)
    : sim_(&sim), rank_(&rank), ops_(std::move(ops)) {
  BGP_REQUIRE_MSG(!ops_.empty(), "awaiting zero operations");
  for (const auto& op : ops_) BGP_CHECK(op != nullptr);
}

bool AwaitOps::await_ready() const {
  for (const auto& op : ops_)
    if (!op->complete) return false;
  return true;
}

void AwaitOps::await_suspend(std::coroutine_handle<> h) {
  remaining_ = 0;
  for (const auto& op : ops_)
    if (!op->complete) ++remaining_;
  if (remaining_ == 0) {
    // Completed between construction and await; resume immediately.
    sim_->engine().schedule(sim_->engine().now(), h);
    return;
  }
  rank_->sim_->blockedOnOf(rank_->id_) = toString(ops_.front()->kind);
  rank_->sim_->pendingOpsOf(rank_->id_) = &ops_;
  h_ = h;
  blockStart_ = sim_->engine().now();
  collective_ = ops_.front()->kind == OpState::Kind::Collective;
  sim_->noteBlock(rank_->id_);
  for (const auto& op : ops_)
    if (!op->complete) op->onComplete(Waiter{&AwaitOps::onOpComplete, this});
}

void AwaitOps::onOpComplete(void* self, OpState&) {
  auto& a = *static_cast<AwaitOps*>(self);
  BGP_CHECK(a.remaining_ > 0);
  if (--a.remaining_ != 0) return;
  Simulation& sim = *a.sim_;
  const int id = a.rank_->id_;
  sim.blockedOnOf(id) = nullptr;
  sim.pendingOpsOf(id) = nullptr;
  const double waited = sim.engine().now() - a.blockStart_;
  if (a.collective_) {
    sim.statsOf(id).collWaitSeconds += waited;
  } else {
    sim.statsOf(id).p2pWaitSeconds += waited;
  }
  sim.engine().schedule(sim.engine().now(), a.h_);
}

RecvInfo AwaitOps::await_resume() const {
  sim_->noteWaitDone(rank_->id_, ops_, ops_.size());
  return ops_.front()->info();
}

// ---- AwaitAny ---------------------------------------------------------------

AwaitAny::AwaitAny(Simulation& sim, Rank& rank, std::vector<Request> ops)
    : sim_(&sim), rank_(&rank), ops_(std::move(ops)) {
  BGP_REQUIRE_MSG(!ops_.empty(), "waitAny on zero operations");
  for (const auto& op : ops_) BGP_CHECK(op != nullptr);
}

bool AwaitAny::await_ready() {
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i]->complete) {
      fired_ = true;
      index_ = i;
      return true;
    }
  }
  return false;
}

void AwaitAny::await_suspend(std::coroutine_handle<> h) {
  sim_->blockedOnOf(rank_->id_) = "waitany";
  sim_->pendingOpsOf(rank_->id_) = &ops_;
  h_ = h;
  blockStart_ = sim_->engine().now();
  sim_->noteBlock(rank_->id_);
  for (const auto& op : ops_)
    op->onComplete(Waiter{&AwaitAny::onOpComplete, this});
}

void AwaitAny::onOpComplete(void* self, OpState& op) {
  auto& a = *static_cast<AwaitAny*>(self);
  // Later completions before the resume runs are inert; await_resume
  // unregisters from whatever is still pending.
  if (a.fired_) return;
  a.fired_ = true;
  // The lowest index holding this op: duplicate entries fire in
  // registration order, so the first one would have won.
  while (a.ops_[a.index_].get() != &op) ++a.index_;
  Simulation& sim = *a.sim_;
  const int id = a.rank_->id_;
  sim.blockedOnOf(id) = nullptr;
  sim.pendingOpsOf(id) = nullptr;
  sim.statsOf(id).p2pWaitSeconds += sim.engine().now() - a.blockStart_;
  sim.engine().schedule(sim.engine().now(), a.h_);
}

std::size_t AwaitAny::await_resume() {
  BGP_CHECK(fired_);
  if (h_) {
    // The awaiter dies with this co_await expression: drop its waiter from
    // every request that has not completed yet.
    for (const auto& op : ops_)
      if (!op->complete)
        op->removeWaiter(Waiter{&AwaitAny::onOpComplete, this});
  }
  // Only the fired request counts as waited (MPI_Waitany semantics); the
  // others stay live and must be waited on again.
  sim_->noteWaitDone(rank_->id_, ops_, index_);
  return index_;
}

// ---- AwaitCompute -----------------------------------------------------------

AwaitCompute::AwaitCompute(Simulation& sim, Rank& rank, double seconds)
    : sim_(&sim), rank_(&rank), seconds_(seconds) {
  BGP_REQUIRE_MSG(seconds >= 0.0, "negative compute time");
}

void AwaitCompute::await_suspend(std::coroutine_handle<> h) {
  sim_->blockedOnOf(rank_->id_) = "compute";
  sim_->statsOf(rank_->id_).computeSeconds += seconds_;
  sim_->noteCompute(rank_->id_, seconds_);
  sim_->engine().scheduleCallback(sim_->engine().now() + seconds_,
                                  [this, h] {
                                    sim_->blockedOnOf(rank_->id_) = nullptr;
                                    h.resume();
                                  });
}

// ---- Rank -------------------------------------------------------------------

const char* Rank::blockedOn() const { return sim_->blockedOnOf(id_); }

const std::vector<Request>* Rank::pendingOps() const {
  return sim_->pendingOpsOf(id_);
}

const RankStats& Rank::stats() const { return sim_->statsOf(id_); }

int Rank::size() const { return sim_->nranks(); }

sim::SimTime Rank::now() const { return sim_->engine().now(); }

AwaitCompute Rank::compute(double seconds) {
  sim_->checkAlive(id_);
  return AwaitCompute(*sim_, *this,
                      noisy(seconds * sim_->slowdownFor(id_)));
}

AwaitCompute Rank::compute(const arch::Work& w) {
  sim_->checkAlive(id_);
  return AwaitCompute(*sim_, *this, noisy(sim_->computeTimeFor(w, id_)));
}

double Rank::noisy(double seconds) {
  const double f =
      sim_->system().machine().osNoiseFraction + sim_->faultNoise();
  if (f <= 0.0 || seconds <= 0.0) return seconds;
  // Mean-(1+f) multiplicative jitter, deterministic per rank stream.
  return seconds * (1.0 + f * 2.0 * rng_.uniform());
}

Request Rank::isend(int dst, double bytes, int tag) {
  return isend(sim_->world(), dst, bytes, tag);
}

Request Rank::irecv(int src, int tag, double expectedBytes) {
  return irecv(sim_->world(), src, tag, expectedBytes);
}

Request Rank::isend(Comm& comm, int dst, double bytes, int tag) {
  ++sim_->statsOf(id_).sends;
  sim_->statsOf(id_).bytesSent += bytes;
  return sim_->startSend(id_, comm, dst, bytes, tag);
}

Request Rank::irecv(Comm& comm, int src, int tag, double expectedBytes) {
  ++sim_->statsOf(id_).recvs;
  return sim_->postRecv(id_, comm, src, tag, expectedBytes);
}

AwaitOps Rank::send(int dst, double bytes, int tag) {
  return wait(isend(dst, bytes, tag));
}

AwaitOps Rank::recv(int src, int tag, double expectedBytes) {
  return wait(irecv(src, tag, expectedBytes));
}

AwaitOps Rank::send(Comm& comm, int dst, double bytes, int tag) {
  return wait(isend(comm, dst, bytes, tag));
}

AwaitOps Rank::recv(Comm& comm, int src, int tag, double expectedBytes) {
  return wait(irecv(comm, src, tag, expectedBytes));
}

AwaitOps Rank::sendrecv(int dst, double sendBytes, int src, int sendTag,
                        int recvTag) {
  return sendrecv(sim_->world(), dst, sendBytes, src, sendTag, recvTag);
}

AwaitOps Rank::sendrecv(Comm& comm, int dst, double sendBytes, int src,
                        int sendTag, int recvTag) {
  // Post the receive before the send, as a correct MPI_Sendrecv must.
  Request r = irecv(comm, src, recvTag);
  Request s = isend(comm, dst, sendBytes, sendTag);
  return waitAll({std::move(r), std::move(s)});
}

AwaitOps Rank::wait(Request r) {
  return AwaitOps(*sim_, *this, {std::move(r)});
}

AwaitOps Rank::waitAll(std::vector<Request> rs) {
  return AwaitOps(*sim_, *this, std::move(rs));
}

AwaitAny Rank::waitAny(std::vector<Request> rs) {
  return AwaitAny(*sim_, *this, std::move(rs));
}

AwaitOps Rank::barrier() { return barrier(sim_->world()); }
AwaitOps Rank::bcast(double bytes, int root) {
  return bcast(sim_->world(), bytes, root);
}
AwaitOps Rank::reduce(double bytes, int root, net::Dtype dt, ReduceOp op) {
  return reduce(sim_->world(), bytes, root, dt, op);
}
AwaitOps Rank::allreduce(double bytes, net::Dtype dt, ReduceOp op) {
  return allreduce(sim_->world(), bytes, dt, op);
}
AwaitOps Rank::allgather(double bytesPerRank) {
  return allgather(sim_->world(), bytesPerRank);
}
AwaitOps Rank::alltoall(double bytesPerPair) {
  return alltoall(sim_->world(), bytesPerPair);
}
AwaitOps Rank::gather(double bytes, int root) {
  ++sim_->statsOf(id_).collectives;
  return AwaitOps(*sim_, *this,
                  {sim_->joinCollective(sim_->world(),
                                        sim_->world().commRankOf(id_),
                                        net::CollKind::Gather, bytes,
                                        net::Dtype::Byte, root)});
}
AwaitOps Rank::scatter(double bytes, int root) {
  ++sim_->statsOf(id_).collectives;
  return AwaitOps(*sim_, *this,
                  {sim_->joinCollective(sim_->world(),
                                        sim_->world().commRankOf(id_),
                                        net::CollKind::Scatter, bytes,
                                        net::Dtype::Byte, root)});
}

AwaitOps Rank::barrier(Comm& comm) {
  ++sim_->statsOf(id_).collectives;
  return AwaitOps(
      *sim_, *this,
      {sim_->joinCollective(comm, comm.commRankOf(id_),
                            net::CollKind::Barrier, 0, net::Dtype::Byte)});
}
AwaitOps Rank::bcast(Comm& comm, double bytes, int root) {
  ++sim_->statsOf(id_).collectives;
  // Timing is root-independent in the analytic model, but the verifier
  // still checks that all ranks agree on the root.
  return AwaitOps(
      *sim_, *this,
      {sim_->joinCollective(comm, comm.commRankOf(id_), net::CollKind::Bcast,
                            bytes, net::Dtype::Byte, root)});
}
AwaitOps Rank::reduce(Comm& comm, double bytes, int root, net::Dtype dt,
                      ReduceOp op) {
  ++sim_->statsOf(id_).collectives;
  return AwaitOps(*sim_, *this,
                  {sim_->joinCollective(comm, comm.commRankOf(id_),
                                        net::CollKind::Reduce, bytes, dt,
                                        root, op)});
}
AwaitOps Rank::allreduce(Comm& comm, double bytes, net::Dtype dt,
                         ReduceOp op) {
  ++sim_->statsOf(id_).collectives;
  return AwaitOps(*sim_, *this,
                  {sim_->joinCollective(comm, comm.commRankOf(id_),
                                        net::CollKind::Allreduce, bytes, dt,
                                        -1, op)});
}
AwaitOps Rank::allgather(Comm& comm, double bytesPerRank) {
  ++sim_->statsOf(id_).collectives;
  return AwaitOps(
      *sim_, *this,
      {sim_->joinCollective(comm, comm.commRankOf(id_),
                            net::CollKind::Allgather, bytesPerRank,
                            net::Dtype::Byte)});
}
AwaitOps Rank::alltoall(Comm& comm, double bytesPerPair) {
  ++sim_->statsOf(id_).collectives;
  return AwaitOps(
      *sim_, *this,
      {sim_->joinCollective(comm, comm.commRankOf(id_),
                            net::CollKind::Alltoall, bytesPerPair,
                            net::Dtype::Byte)});
}

double Rank::collectiveCost(net::CollKind kind, double bytes,
                            net::Dtype dt) const {
  return sim_->system().collectiveCost(kind, bytes, dt);
}

double Rank::collectiveCost(Comm& comm, net::CollKind kind, double bytes,
                            net::Dtype dt) const {
  return sim_->system().collectives().cost(kind, comm.size(), bytes, dt);
}

}  // namespace bgp::smpi
