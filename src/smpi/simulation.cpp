#include "smpi/simulation.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <string_view>
#include <unordered_map>

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
  if (auto* scope = analysis::CaptureScope::active())
    capture_ = &scope->attach(static_cast<int>(nranks));
  if (auto* pscope = obs::ProfileScope::active())
    profiler_ = &pscope->attach(*this);
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

analysis::Capture& Simulation::enableCapture(analysis::CaptureOptions options) {
  BGP_REQUIRE_MSG(!ran_, "enableCapture must be called before run()");
  ownedCapture_ = std::make_unique<analysis::Capture>(
      static_cast<int>(nranks_), options);
  capture_ = ownedCapture_.get();
  return *capture_;
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

  if (verifier_) {
    std::vector<const Comm*> comms;
    comms.push_back(world_.get());
    for (const auto& c : subComms_) comms.push_back(c.get());
    verifier_->finalize(comms);
  }

  RunResult result;
  result.finishTimes = std::move(finish);
  result.makespan =
      *std::max_element(result.finishTimes.begin(), result.finishTimes.end());
  result.events = engine_.eventsProcessed();
  if (profiler_ && !profiler_->finalized()) profiler_->finalize(result);
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
  const std::string_view what = op.what;
  os << what << "(";
  if (what == "collective") {
    os << "#" << op.collSeq;
  } else if (what == "send") {
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
      if (std::string_view(op->what) == "collective") {
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

Request Simulation::newOp(const char* what, int ownerWorld, int commId) {
  Request op = makeOpState();
  op->id = nextOpId_++;
  op->what = what;
  op->ownerWorld = ownerWorld;
  op->commId = commId;
  return op;
}

// ---- observer notifications -------------------------------------------------

void Simulation::noteIssue(const Comm& comm, const Request& op, bool isSend) {
  if (verifier_) verifier_->onP2p(*op, isSend);
  if (capture_) capture_->onP2p(comm, *op, isSend, engine_.now());
  if (profiler_) profiler_->onP2pIssue(comm, *op, isSend, engine_.now());
}

void Simulation::noteMatch(const Comm& comm, int src, int dst, int tag,
                           double bytes, const Request& sendOp,
                           const OpState& recvOp) {
  if (verifier_)
    verifier_->onRecvMatched(comm, src, dst, tag, recvOp.expectedBytes,
                             bytes);
  if (!sendOp) return;
  if (capture_) capture_->onMatch(*sendOp, recvOp);
  if (profiler_) profiler_->onMatch(*sendOp, recvOp);
}

void Simulation::noteGateArrive(const Comm& comm, std::uint64_t seq,
                                int commRank, net::CollKind kind, int root,
                                ReduceOp rop, net::Dtype dt, double bytes,
                                const OpState& gateOp) {
  if (verifier_)
    verifier_->onCollective(comm, seq, commRank, kind, root, rop, dt, bytes);
  if (capture_)
    capture_->onCollective(comm, seq, commRank, kind, root, rop, dt, bytes,
                           engine_.now());
  if (profiler_)
    profiler_->onCollArrival(comm, gateOp, kind, bytes, commRank,
                             engine_.now());
}

void Simulation::noteGateDone(const Comm& comm, const Comm::CollGate& gate,
                              int lastRank, double duration,
                              sim::SimTime done) {
  if (profiler_)
    profiler_->onCollComplete(comm, *gate.op, gate.kind, gate.bytes, gate.dt,
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
  if (capture_) {
    if (fired < ops.size()) {
      capture_->onWait(worldRank, {ops[fired]}, now);
    } else {
      capture_->onWait(worldRank, ops, now);
    }
  }
  if (profiler_) profiler_->onWaitDone(worldRank, ops, fired, now);
}

void Simulation::noteCompute(int worldRank, double seconds) {
  if (profiler_) profiler_->onCompute(worldRank, engine_.now(), seconds);
}

void Simulation::noteComplete(const OpState& op) {
  if (profiler_) profiler_->onComplete(op, engine_.now());
}

// ---- point-to-point -----------------------------------------------------------

Request Simulation::startSend(int worldSrc, Comm& comm, int dstCommRank,
                              double bytes, int tag) {
  BGP_REQUIRE(bytes >= 0);
  BGP_REQUIRE_MSG(tag >= 0, "tags must be non-negative");
  const int srcCommRank = comm.commRankOf(worldSrc);
  BGP_REQUIRE_MSG(srcCommRank >= 0, "sender not in communicator");
  BGP_REQUIRE_MSG(dstCommRank >= 0 && dstCommRank < comm.size(),
                  "destination rank out of range");
  checkAlive(worldSrc);
  Request op = newOp("send", worldSrc, comm.id());
  op->peer = dstCommRank;
  op->tag = tag;
  op->bytes = bytes;
  noteIssue(comm, op, /*isSend=*/true);

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
    // Unless an observer records matches (capture, profiler), the arrival
    // callback holds no reference to the send, so the op is freed at
    // injection.
    Request matchOp = capture_ || profiler_ ? op : nullptr;
    engine_.scheduleCallback(
        tr.arrival,
        [this, &comm, srcCommRank, dstCommRank, tag, bytes, matchOp] {
          deliverEager(comm, srcCommRank, dstCommRank, tag, bytes, matchOp);
        });
  } else {
    // Rendezvous: a small ready-to-send control message travels first; the
    // payload only moves once the receiver has posted a matching receive.
    const double rtsLat =
        system_->torusNetwork().latencyEstimate(srcNode, dstNode, 64);
    engine_.scheduleCallback(
        engine_.now() + rtsLat,
        [this, &comm, srcCommRank, dstCommRank, tag, bytes, op] {
          arriveRts(comm, srcCommRank, dstCommRank, tag, bytes, op);
        });
  }
  return op;
}

void Simulation::deliverEager(Comm& comm, int src, int dst, int tag,
                              double bytes, Request sendOp) {
  if (Request op = comm.match_.takePostedMatch(dst, src, tag)) {
    noteMatch(comm, src, dst, tag, bytes, sendOp, *op);
    op->info = RecvInfo{src, tag, bytes};
    noteComplete(*op);
    op->finish();
    return;
  }
  comm.match_.addStaged(
      dst, MatchTable::Staged{src, tag, bytes, false, std::move(sendOp),
                              engine_.now()});
}

void Simulation::arriveRts(Comm& comm, int src, int dst, int tag,
                           double bytes, Request sendOp) {
  if (Request recvOp = comm.match_.takePostedMatch(dst, src, tag)) {
    noteMatch(comm, src, dst, tag, bytes, sendOp, *recvOp);
    startRendezvousData(comm, src, dst, tag, bytes, sendOp, recvOp);
    return;
  }
  comm.match_.addStaged(
      dst, MatchTable::Staged{src, tag, bytes, true, std::move(sendOp),
                              engine_.now()});
}

void Simulation::startRendezvousData(Comm& comm, int src, int dst, int tag,
                                     double bytes, const Request& sendOp,
                                     const Request& recvOp) {
  const topo::NodeId srcNode = system_->nodeOf(comm.worldRank(src));
  const topo::NodeId dstNode = system_->nodeOf(comm.worldRank(dst));
  // Clear-to-send travels back, then the payload moves.
  const double ctsLat =
      system_->torusNetwork().latencyEstimate(dstNode, srcNode, 64);
  const sim::SimTime dataStart = engine_.now() + ctsLat;
  const auto tr =
      system_->torusNetwork().transfer(srcNode, dstNode, bytes, dataStart);
  engine_.scheduleCallback(tr.injected, [this, sendOp] {
    noteComplete(*sendOp);
    sendOp->finish();
  });
  engine_.scheduleCallback(tr.arrival, [this, recvOp, src, tag, bytes] {
    recvOp->info = RecvInfo{src, tag, bytes};
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
  Request op = newOp("recv", worldDst, comm.id());
  op->peer = srcWanted;
  op->tag = tagWanted;
  op->expectedBytes = expectedBytes;
  noteIssue(comm, op, /*isSend=*/false);

  MatchTable::Staged msg;
  if (comm.match_.takeStagedMatch(dst, srcWanted, tagWanted, msg)) {
    noteMatch(comm, msg.src, dst, msg.tag, msg.bytes, msg.sendOp, *op);
    if (msg.rendezvous) {
      startRendezvousData(comm, msg.src, dst, msg.tag, msg.bytes, msg.sendOp,
                          op);
    } else {
      op->info = RecvInfo{msg.src, msg.tag, msg.bytes};
      noteComplete(*op);
      op->finish();
    }
    return op;
  }
  comm.match_.addPosted(dst, srcWanted, tagWanted, op);
  return op;
}

Request Simulation::joinCollective(Comm& comm, int commRank,
                                   net::CollKind kind, double bytes,
                                   net::Dtype dt, int root, ReduceOp rop) {
  BGP_REQUIRE(commRank >= 0 && commRank < comm.size());
  checkAlive(comm.worldRank(commRank));
  const std::uint64_t seq =
      comm.nextCollSeq_[static_cast<std::size_t>(commRank)]++;
  auto& gate = comm.colls_[seq];
  if (gate.arrived == 0) {
    gate.kind = kind;
    gate.dt = dt;
    gate.root = root;
    gate.rop = rop;
    gate.firstRank = commRank;
    // One OpState for the whole gate: every member awaits the same op,
    // and the waiter registration order *is* the arrival order, so
    // a single finish() resumes the members in exactly the sequence the
    // seed's per-rank fan-out produced — at the same simulated time.
    gate.op = newOp("collective", comm.worldRank(commRank), comm.id());
    gate.op->collSeq = seq;
  }
  // Before the gate's contract check below: a divergent arrival must land
  // in the op-graph so the collective-contract pass can localize it even
  // though the runtime aborts the run.
  noteGateArrive(comm, seq, commRank, kind, root, rop, dt, bytes, *gate.op);
  BGP_REQUIRE_MSG(gate.kind == kind,
                  "collective mismatch: ranks disagree on operation " +
                      net::toString(gate.kind) + " vs " +
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
        kind, comm.size(), gate.bytes, gate.dt, comm.id() == 0);
    const sim::SimTime done = gate.lastArrival + duration;
    engine_.scheduleCallback(done, [op] { op->finish(); });
    noteGateDone(comm, gate, commRank, duration, done);
    comm.colls_.erase(seq);
  }
  return op;
}

}  // namespace bgp::smpi
