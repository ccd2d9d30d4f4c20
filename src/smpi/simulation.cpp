#include "smpi/simulation.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>

#include "smpi/analysis/capture.hpp"
#include "support/expect.hpp"

namespace bgp::smpi {

Simulation::Simulation(arch::MachineConfig machine, std::int64_t nranks,
                       net::SystemOptions options, std::uint64_t seed)
    : machine_(std::move(machine)), nranks_(nranks) {
  BGP_REQUIRE_MSG(nranks >= 1, "need at least one rank");
  system_ = std::make_unique<net::System>(machine_, nranks, options);
  std::vector<int> all(static_cast<std::size_t>(nranks));
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  world_.reset(new Comm(0, std::move(all), static_cast<int>(nranks)));
  const auto n = static_cast<std::size_t>(nranks);
  stats_.assign(n, RankStats{});
  blockedOnByRank_.assign(n, nullptr);
  pendingOpsByRank_.assign(n, nullptr);
  ranks_.reserve(n);
  std::uint64_t sm = seed;
  for (std::int64_t i = 0; i < nranks; ++i) {
    ranks_.emplace_back();
    ranks_.back().sim_ = this;
    ranks_.back().id_ = static_cast<int>(i);
    ranks_.back().rng_.reseed(splitmix64(sm));
  }
  if (auto* pscope = obs::ProfileScope::active())
    profiler_ = &pscope->attach(*this);
  if (auto* cscope = analysis::CaptureScope::active()) {
    opGraph_ = &cscope->attach(static_cast<int>(nranks));
    if (!profiler_) {
      obs::ProfileOptions po;
      po.maxOps = cscope->options().maxOps;
      enableProfile(po);
    }
  }
}

void Simulation::setFaults(const sim::FaultConfig& config) {
  BGP_REQUIRE_MSG(!ran_, "setFaults must be called before run()");
  if (!config.any()) {  // all knobs zero: byte-identical to a perfect machine
    system_->torusNetwork().attachFaults(nullptr);
    faults_.reset();
    return;
  }
  const topo::Torus3D& torus = system_->torusNetwork().torus();
  faults_ = std::make_unique<sim::FaultPlane>(
      config, static_cast<std::size_t>(torus.linkCount()),
      static_cast<std::size_t>(torus.count()));
  system_->torusNetwork().attachFaults(faults_.get());
}

double Simulation::slowdownFor(int worldRank) const {
  if (!faults_) return 1.0;
  return faults_->nodeSlowdown(
      static_cast<std::size_t>(system_->nodeOf(worldRank)));
}

double Simulation::computeTimeFor(const arch::Work& w, int worldRank) const {
  return system_->computeTime(w, slowdownFor(worldRank));
}

double Simulation::faultNoise() const {
  return faults_ ? faults_->osNoiseFraction() : 0.0;
}

void Simulation::checkAlive(int worldRank) const {
  if (!faults_) return;
  const topo::NodeId node = system_->nodeOf(worldRank);
  const sim::SimTime failAt =
      faults_->failStopTime(static_cast<std::size_t>(node));
  if (engine_.now() >= failAt) {
    std::ostringstream os;
    os << "rank " << worldRank << " fail-stopped: node " << node
       << " failed at t=" << failAt << " s";
    throw sim::FaultError(os.str());
  }
}

Verifier& Simulation::enableVerifier(VerifierOptions options) {
  BGP_REQUIRE_MSG(!ran_, "enableVerifier must be called before run()");
  verifier_ = std::make_unique<Verifier>(options);
  return *verifier_;
}

obs::Profiler& Simulation::enableProfile(obs::ProfileOptions options) {
  BGP_REQUIRE_MSG(!ran_, "enableProfile must be called before run()");
  ownedProfiler_ = std::make_unique<obs::Profiler>(*this, options);
  profiler_ = ownedProfiler_.get();
  return *profiler_;
}

RunResult Simulation::run(const RankProgram& program) {
  BGP_REQUIRE_MSG(!ran_, "Simulation::run may be called once");
  ran_ = true;
  // The op-graph is built while the op log is whole: before finalize()
  // releases it, and also when the run throws, since the ops a failed
  // run issued are what its diagnosis needs.
  const auto buildGraph = [this] {
    if (opGraph_) analysis::buildOpGraph(*profiler_, comms(), *opGraph_);
  };
  RunResult result;
  try {
    result = execute(program);
  } catch (...) {
    buildGraph();
    throw;
  }
  buildGraph();
  if (profiler_ && !profiler_->finalized()) profiler_->finalize(result);
  return result;
}

std::vector<const Comm*> Simulation::comms() const {
  std::vector<const Comm*> all;
  all.push_back(world_.get());
  for (const auto& c : subComms_) all.push_back(c.get());
  return all;
}

RunResult Simulation::execute(const RankProgram& program) {
  std::vector<sim::Task> tasks;
  tasks.reserve(static_cast<std::size_t>(nranks_));
  std::vector<double> finish(static_cast<std::size_t>(nranks_), -1.0);
  for (std::int64_t i = 0; i < nranks_; ++i) {
    tasks.push_back(program(ranks_[static_cast<std::size_t>(i)]));
    auto& task = tasks.back();
    BGP_REQUIRE_MSG(task.valid(), "rank program returned an invalid task");
    task.setOnDone(
        [this, &finish, i] { finish[static_cast<std::size_t>(i)] = engine_.now(); });
    engine_.schedule(0.0, task.handle());
  }
  engine_.run();

  // Rank failures take priority over the deadlock report: a crashed rank is
  // usually *why* its peers are still blocked.  One failure rethrows the
  // original exception (callers keep precise types to catch); two or more
  // are aggregated so no rank's bug is masked by another's.
  std::vector<std::pair<int, std::exception_ptr>> failures;
  for (std::int64_t i = 0; i < nranks_; ++i) {
    try {
      tasks[static_cast<std::size_t>(i)].rethrowIfFailed();
    } catch (...) {
      failures.emplace_back(static_cast<int>(i), std::current_exception());
    }
  }
  if (failures.size() == 1) std::rethrow_exception(failures.front().second);
  if (failures.size() > 1) {
    std::ostringstream os;
    os << failures.size() << " ranks failed:";
    std::vector<int> failedRanks;
    failedRanks.reserve(failures.size());
    for (const auto& [rank, eptr] : failures) {
      failedRanks.push_back(rank);
      os << "\n  rank " << rank << ": ";
      try {
        std::rethrow_exception(eptr);
      } catch (const std::exception& e) {
        os << e.what();
      } catch (...) {
        os << "unknown exception";
      }
    }
    throw RankFailures(os.str(), std::move(failedRanks));
  }

  std::vector<int> blocked;
  for (std::int64_t i = 0; i < nranks_; ++i)
    if (finish[static_cast<std::size_t>(i)] < 0)
      blocked.push_back(static_cast<int>(i));
  if (!blocked.empty()) {
    std::ostringstream os;
    os << "deadlock: " << blocked.size() << "/" << nranks_
       << " ranks blocked;";
    for (std::size_t i = 0; i < blocked.size() && i < 8; ++i) {
      const Rank& r = ranks_[static_cast<std::size_t>(blocked[i])];
      os << " rank " << blocked[i] << " on "
         << (r.blockedOn() ? r.blockedOn() : "?") << ";";
    }
    os << deadlockCycleReport();
    throw DeadlockError(os.str());
  }

  if (verifier_) verifier_->finalize(comms());

  RunResult result;
  result.finishTimes = std::move(finish);
  result.makespan =
      *std::max_element(result.finishTimes.begin(), result.finishTimes.end());
  result.events = engine_.eventsProcessed();
  return result;
}

std::vector<Comm*> Simulation::splitWorld(
    const std::vector<int>& colorPerWorldRank) {
  BGP_REQUIRE_MSG(
      colorPerWorldRank.size() == static_cast<std::size_t>(nranks_),
      "need one color per world rank");
  std::map<int, std::vector<int>> byColor;
  for (std::size_t w = 0; w < colorPerWorldRank.size(); ++w) {
    const int color = colorPerWorldRank[w];
    if (color < 0) continue;  // MPI_UNDEFINED
    byColor[color].push_back(static_cast<int>(w));
  }
  std::vector<Comm*> result;
  result.reserve(byColor.size());
  for (auto& [color, members] : byColor) {
    subComms_.emplace_back(new Comm(nextCommId_++, std::move(members),
                                    static_cast<int>(nranks_)));
    result.push_back(subComms_.back().get());
  }
  return result;
}

Comm& Simulation::commOf(const std::vector<Comm*>& comms, int worldRank) {
  for (Comm* c : comms)
    if (c->contains(worldRank)) return *c;
  BGP_FAIL("world rank belongs to no sub-communicator");
}

void Simulation::requireMemoryPerTask(double bytes) const {
  const double limit = system_->memPerTaskBytes();
  if (bytes > limit) {
    std::ostringstream os;
    os << machine_.name << " " << arch::toString(system_->options().mode)
       << " mode: task needs " << bytes / (1024.0 * 1024.0) << " MiB but has "
       << limit / (1024.0 * 1024.0) << " MiB";
    throw OutOfMemoryError(os.str());
  }
}

const RankStats& Simulation::rankStats(int worldRank) const {
  BGP_REQUIRE(worldRank >= 0 && worldRank < nranks_);
  return stats_[static_cast<std::size_t>(worldRank)];
}

Simulation::Profile Simulation::profile() const {
  return obs::summarizeStats(stats_.data(), stats_.size());
}

std::string Simulation::describeOp(const OpState& op) {
  std::ostringstream os;
  os << toString(op.kind) << "(";
  if (op.kind == OpState::Kind::Collective) {
    os << "#" << op.collSeq;
  } else if (op.kind == OpState::Kind::Send) {
    os << "dst=" << op.peer << ", tag=" << op.tag;
  } else {
    os << "src="
       << (op.peer == kAnySource ? std::string("ANY")
                                 : std::to_string(op.peer))
       << ", tag="
       << (op.tag == kAnyTag ? std::string("ANY") : std::to_string(op.tag));
  }
  os << ", comm " << op.commId << ")";
  return os.str();
}

std::string Simulation::deadlockCycleReport() const {
  // Wait-for graph: each blocked rank gets one outgoing edge, derived from
  // the first incomplete operation it is awaiting.  A recv waits for its
  // (non-wildcard) source, a rendezvous send for its destination, and a
  // collective for the first member that has not reached its gate yet.
  auto commById = [this](int id) -> const Comm* {
    if (id == 0) return world_.get();
    for (const auto& c : subComms_)
      if (c->id() == id) return c.get();
    return nullptr;
  };

  const auto n = static_cast<std::size_t>(nranks_);
  std::vector<int> succ(n, -1);
  std::vector<const OpState*> via(n, nullptr);
  for (std::size_t i = 0; i < n; ++i) {
    const auto* pending = ranks_[i].pendingOps();
    if (!pending) continue;
    for (const Request& op : *pending) {
      if (!op || op->complete) continue;
      const Comm* comm = commById(op->commId);
      if (!comm) continue;
      int next = -1;
      if (op->kind == OpState::Kind::Collective) {
        for (int cr = 0; cr < comm->size(); ++cr) {
          const int w = comm->worldRank(cr);
          if (w != static_cast<int>(i) &&
              comm->nextCollSeq_[static_cast<std::size_t>(cr)] <=
                  op->collSeq) {
            next = w;
            break;
          }
        }
      } else if (op->peer >= 0) {
        next = comm->worldRank(op->peer);
      }
      if (next >= 0 && next != static_cast<int>(i)) {
        succ[i] = next;
        via[i] = op.get();
        break;
      }
    }
  }

  // Follow successor chains; the first revisit of an in-progress node
  // closes a cycle.
  std::vector<int> color(n, 0);  // 0 = new, 1 = on current chain, 2 = done
  for (std::size_t start = 0; start < n; ++start) {
    if (color[start] != 0) continue;
    std::vector<int> path;
    std::unordered_map<int, std::size_t> posInPath;
    int cur = static_cast<int>(start);
    while (cur >= 0 && color[static_cast<std::size_t>(cur)] == 0) {
      color[static_cast<std::size_t>(cur)] = 1;
      posInPath[cur] = path.size();
      path.push_back(cur);
      cur = succ[static_cast<std::size_t>(cur)];
    }
    if (cur >= 0 && color[static_cast<std::size_t>(cur)] == 1) {
      std::ostringstream os;
      os << " blocking cycle:";
      for (std::size_t k = posInPath[cur]; k < path.size(); ++k)
        os << " rank " << path[k] << ": "
           << describeOp(*via[static_cast<std::size_t>(path[k])]) << " ->";
      os << " rank " << cur;
      return os.str();
    }
    for (int p : path) color[static_cast<std::size_t>(p)] = 2;
  }
  return {};
}

Request Simulation::newOp(OpState::Kind kind, int ownerWorld, int commId) {
  Request op = makeOpState();
  op->id = nextOpId_++;
  op->kind = kind;
  op->ownerWorld = ownerWorld;
  op->commId = commId;
  return op;
}

// ---- observer notifications -------------------------------------------------

void Simulation::noteIssue(const Comm& comm, const OpState& op,
                           double expectedBytes) {
  if (verifier_) verifier_->onP2p(op);
  if (profiler_) profiler_->onP2pIssue(comm, op, expectedBytes, engine_.now());
}

void Simulation::noteMatch(const Comm& comm, int src, int dst, int tag,
                           double bytes, double expectedBytes,
                           const Request& sendOp, const OpState& recvOp) {
  if (verifier_)
    verifier_->onRecvMatched(comm, src, dst, tag, expectedBytes, bytes);
  if (sendOp && profiler_) profiler_->onMatch(*sendOp, recvOp);
}

void Simulation::noteGateArrive(const Comm& comm, const Comm::CollGate& gate,
                                int commRank, const CollSig& sig,
                                double bytes) {
  if (verifier_) verifier_->onCollective(comm, gate, commRank, sig, bytes);
  if (profiler_)
    profiler_->onCollArrival(comm, *gate.op, sig, bytes, commRank,
                             engine_.now());
}

void Simulation::noteGateDone(const Comm& comm, const Comm::CollGate& gate,
                              int lastRank, double duration,
                              sim::SimTime done) {
  if (profiler_)
    profiler_->onCollComplete(comm, *gate.op, gate.sig, gate.bytes,
                              comm.worldRank(lastRank), gate.lastArrival,
                              duration, done);
}

void Simulation::noteBlock(int worldRank) {
  if (profiler_) profiler_->onBlockBegin(worldRank, engine_.now());
}

void Simulation::noteWaitDone(int worldRank, const std::vector<Request>& ops,
                              std::size_t fired) {
  const sim::SimTime now = engine_.now();
  if (verifier_) verifier_->onWaitDone(ops, fired);
  if (profiler_) profiler_->onWaitDone(worldRank, ops, fired, now);
}

void Simulation::noteCompute(int worldRank, double seconds) {
  if (profiler_) profiler_->onCompute(worldRank, engine_.now(), seconds);
}

void Simulation::noteComplete(const OpState& op) {
  if (profiler_) profiler_->onComplete(op, engine_.now());
}

// ---- point-to-point -----------------------------------------------------------
//
// The event callbacks capture at most the Simulation, the communicator and
// one op (SmallFn's 24 inline bytes): a message's source, tag and size are
// read back from the send op, and a receive's RecvInfo is written into its
// op when it matches.

Request Simulation::startSend(int worldSrc, Comm& comm, int dstCommRank,
                              double bytes, int tag) {
  BGP_REQUIRE(bytes >= 0);
  BGP_REQUIRE_MSG(tag >= 0, "tags must be non-negative");
  BGP_REQUIRE_MSG(comm.commRankOf(worldSrc) >= 0,
                  "sender not in communicator");
  BGP_REQUIRE_MSG(dstCommRank >= 0 && dstCommRank < comm.size(),
                  "destination rank out of range");
  checkAlive(worldSrc);
  Request op = newOp(OpState::Kind::Send, worldSrc, comm.id());
  op->peer = dstCommRank;
  op->tag = tag;
  op->bytes = bytes;
  noteIssue(comm, *op);

  const int worldDst = comm.worldRank(dstCommRank);
  const topo::NodeId srcNode = system_->nodeOf(worldSrc);
  const topo::NodeId dstNode = system_->nodeOf(worldDst);

  if (bytes <= system_->eagerThreshold()) {
    const auto tr = system_->torusNetwork().transfer(srcNode, dstNode, bytes,
                                                     engine_.now());
    engine_.scheduleCallback(tr.injected, [this, op] {
      noteComplete(*op);
      op->finish();
    });
    engine_.scheduleCallback(tr.arrival, [this, &comm, op] {
      deliverEager(comm, op);
    });
  } else {
    // Rendezvous: a small ready-to-send control message travels first; the
    // payload only moves once the receiver has posted a matching receive.
    const double rtsLat =
        system_->torusNetwork().latencyEstimate(srcNode, dstNode, 64);
    engine_.scheduleCallback(engine_.now() + rtsLat,
                             [this, &comm, op] { arriveRts(comm, op); });
  }
  return op;
}

void Simulation::deliverEager(Comm& comm, const Request& sendOp) {
  const int src = comm.commRankOf(sendOp->ownerWorld);
  const int dst = sendOp->peer;
  double expectedBytes = -1.0;
  if (Request op = comm.match_.takePostedMatch(dst, src, sendOp->tag,
                                               &expectedBytes)) {
    matchRecv(comm, src, dst, sendOp->tag, sendOp->bytes, expectedBytes,
              sendOp, *op);
    noteComplete(*op);
    op->finish();
    return;
  }
  // Unless the profiler records matches, a staged eager message holds no
  // reference to its send, which completed at injection.
  comm.match_.addStaged(
      dst, MatchTable::Staged{src, sendOp->tag, sendOp->bytes, false,
                              profiler_ ? sendOp : nullptr, engine_.now()});
}

void Simulation::arriveRts(Comm& comm, const Request& sendOp) {
  const int src = comm.commRankOf(sendOp->ownerWorld);
  const int dst = sendOp->peer;
  double expectedBytes = -1.0;
  if (Request recvOp = comm.match_.takePostedMatch(dst, src, sendOp->tag,
                                                   &expectedBytes)) {
    matchRecv(comm, src, dst, sendOp->tag, sendOp->bytes, expectedBytes,
              sendOp, *recvOp);
    startRendezvousData(comm, src, dst, sendOp, recvOp);
    return;
  }
  comm.match_.addStaged(
      dst, MatchTable::Staged{src, sendOp->tag, sendOp->bytes, true, sendOp,
                              engine_.now()});
}

void Simulation::matchRecv(const Comm& comm, int src, int dst, int tag,
                           double bytes, double expectedBytes,
                           const Request& sendOp, OpState& recvOp) {
  noteMatch(comm, src, dst, tag, bytes, expectedBytes, sendOp, recvOp);
  recvOp.peer = src;
  recvOp.tag = tag;
  recvOp.bytes = bytes;
}

void Simulation::startRendezvousData(Comm& comm, int src, int dst,
                                     const Request& sendOp,
                                     const Request& recvOp) {
  const topo::NodeId srcNode = system_->nodeOf(comm.worldRank(src));
  const topo::NodeId dstNode = system_->nodeOf(comm.worldRank(dst));
  // Clear-to-send travels back, then the payload moves.
  const double ctsLat =
      system_->torusNetwork().latencyEstimate(dstNode, srcNode, 64);
  const sim::SimTime dataStart = engine_.now() + ctsLat;
  const auto tr = system_->torusNetwork().transfer(srcNode, dstNode,
                                                   sendOp->bytes, dataStart);
  engine_.scheduleCallback(tr.injected, [this, sendOp] {
    noteComplete(*sendOp);
    sendOp->finish();
  });
  engine_.scheduleCallback(tr.arrival, [this, recvOp] {
    noteComplete(*recvOp);
    recvOp->finish();
  });
}

Request Simulation::postRecv(int worldDst, Comm& comm, int srcWanted,
                             int tagWanted, double expectedBytes) {
  const int dst = comm.commRankOf(worldDst);
  BGP_REQUIRE_MSG(dst >= 0, "receiver not in communicator");
  BGP_REQUIRE_MSG(srcWanted == kAnySource ||
                      (srcWanted >= 0 && srcWanted < comm.size()),
                  "source rank out of range");
  checkAlive(worldDst);
  Request op = newOp(OpState::Kind::Recv, worldDst, comm.id());
  op->peer = srcWanted;
  op->tag = tagWanted;
  noteIssue(comm, *op, expectedBytes);

  MatchTable::Staged msg;
  if (comm.match_.takeStagedMatch(dst, srcWanted, tagWanted, msg)) {
    matchRecv(comm, msg.src, dst, msg.tag, msg.bytes, expectedBytes,
              msg.sendOp, *op);
    if (msg.rendezvous) {
      startRendezvousData(comm, msg.src, dst, msg.sendOp, op);
    } else {
      noteComplete(*op);
      op->finish();
    }
    return op;
  }
  comm.match_.addPosted(dst, srcWanted, tagWanted, op, expectedBytes);
  return op;
}

Request Simulation::joinCollective(Comm& comm, int commRank,
                                   net::CollKind kind, double bytes,
                                   net::Dtype dt, int root, ReduceOp rop) {
  BGP_REQUIRE(commRank >= 0 && commRank < comm.size());
  checkAlive(comm.worldRank(commRank));
  const std::uint64_t seq =
      comm.nextCollSeq_[static_cast<std::size_t>(commRank)]++;
  const CollSig sig{root, kind, rop, dt};
  auto& gate = comm.colls_[seq];
  if (gate.arrived == 0) {
    gate.sig = sig;
    gate.firstBytes = bytes;
    gate.firstRank = commRank;
    // One OpState for the whole gate: every member awaits the same op,
    // and the waiter registration order *is* the arrival order, so
    // a single finish() resumes the members in exactly the sequence the
    // seed's per-rank fan-out produced — at the same simulated time.
    gate.op = newOp(OpState::Kind::Collective, comm.worldRank(commRank),
                    comm.id());
    gate.op->collSeq = seq;
  }
  // Before the gate's contract check below: a divergent arrival must land
  // in the op log so the collective-contract pass can localize it even
  // though the runtime aborts the run.
  noteGateArrive(comm, gate, commRank, sig, bytes);
  BGP_REQUIRE_MSG(gate.sig.kind == kind,
                  "collective mismatch: ranks disagree on operation " +
                      net::toString(gate.sig.kind) + " vs " +
                      net::toString(kind));
  gate.bytes = std::max(gate.bytes, bytes);
  gate.op->bytes = gate.bytes;
  ++gate.arrived;
  gate.lastArrival = std::max(gate.lastArrival, engine_.now());
  Request op = gate.op;

  if (gate.arrived == comm.size()) {
    // The BG/P tree/barrier networks only serve the full partition; sub-
    // communicator collectives run torus algorithms (comm id 0 = world).
    const double duration = system_->collectives().cost(
        kind, comm.size(), gate.bytes, gate.sig.dt, comm.id() == 0);
    const sim::SimTime done = gate.lastArrival + duration;
    engine_.scheduleCallback(done, [op] { op->finish(); });
    noteGateDone(comm, gate, commRank, duration, done);
    comm.colls_.erase(seq);
  }
  return op;
}

}  // namespace bgp::smpi
