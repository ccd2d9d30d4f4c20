// Tests for the observability plane (src/obs): per-rank breakdowns,
// critical-path attribution, what-if estimates (and their replay oracle
// over a test-recorded op log), deterministic exporters, the profile's
// independence of capture, and the Chrome-trace escaping fix.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/machines.hpp"
#include "core/evaluation.hpp"
#include "obs/breakdown.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "smpi/analysis/capture.hpp"
#include "smpi/analysis/scenarios.hpp"
#include "smpi/simulation.hpp"
#include "smpi/trace.hpp"
#include "support/arena.hpp"
#include "topo/process_grid.hpp"

namespace bgp::obs {
namespace {

using arch::machineByName;
using smpi::Rank;
using smpi::Simulation;

// The 3-rank oracle workload: a chain with a known compute-only
// critical path.  r0: 1.0 s compute then a small (eager) send to r1;
// r1: 0.5 s compute, the matching recv, then 2.0 s compute; r2: 0.2 s
// of unrelated compute.  The compute-only (zero-network) makespan is
// exactly max(1.0, max(0.5, 1.0) + 2.0, 0.2) = 3.0.
sim::Task oracleProgram(Rank& self) {
  if (self.id() == 0) {
    co_await self.compute(1.0);
    co_await self.send(1, 256.0);
  } else if (self.id() == 1) {
    co_await self.compute(0.5);
    co_await self.recv(0);
    co_await self.compute(2.0);
  } else {
    co_await self.compute(0.2);
  }
}

// A small halo-plus-allreduce workload touching p2p (nonblocking, so
// overlap accounting runs), collectives, and call-site labels.
sim::Task haloProgram(Rank& self) {
  const int n = self.size();
  const int left = (self.id() + n - 1) % n;
  const int right = (self.id() + 1) % n;
  for (int iter = 0; iter < 4; ++iter) {
    std::vector<smpi::Request> ops;
    {
      SiteLabel site(self, "halo-exchange");
      ops.push_back(self.irecv(left));
      ops.push_back(self.irecv(right));
      ops.push_back(self.isend(left, 4096.0));
      ops.push_back(self.isend(right, 4096.0));
    }
    co_await self.compute(1e-5 * (1 + self.id() % 3));
    {
      SiteLabel site(self, "halo-wait");
      co_await self.waitAll(ops);
    }
    {
      SiteLabel site(self, "residual");
      co_await self.allreduce(8.0);
    }
  }
}

TEST(Obs, TracerEscapesHostileNames) {
  smpi::Tracer tracer;  // engine-less: explicit timestamps
  tracer.record(0, "a\"b\\c\nd\te\x01" "f", 0.0, 2e-6);
  tracer.counter(1, "link\"bytes", 1e-6, 42.5);
  std::ostringstream os;
  tracer.writeChromeJson(os);
  const std::string json = os.str();

  // Quotes, backslashes, newlines, tabs, and raw control bytes must all
  // come out escaped (the pre-fix exporter emitted them verbatim).
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd\\te\\u0001f"), std::string::npos)
      << json;
  for (char c : json) EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"value\":42.5"), std::string::npos) << json;
}

TEST(Obs, ProfilingDoesNotPerturbTheRun) {
  smpi::RunResult plain, profiled;
  {
    Simulation sim(machineByName("BG/P"), 8);
    plain = sim.run(haloProgram);
  }
  {
    Simulation sim(machineByName("BG/P"), 8);
    sim.enableProfile();
    profiled = sim.run(haloProgram);
  }
  // Bitwise: the hooks observe, they never schedule.
  EXPECT_EQ(plain.makespan, profiled.makespan);
  EXPECT_EQ(plain.events, profiled.events);
  ASSERT_EQ(plain.finishTimes.size(), profiled.finishTimes.size());
  for (std::size_t r = 0; r < plain.finishTimes.size(); ++r)
    EXPECT_EQ(plain.finishTimes[r], profiled.finishTimes[r]);
}

/// The profile's (site, op) table of haloProgram on 8 ranks, one row per
/// line: "site|op|count|bytes|blockedSeconds" (%.17g).
std::string siteTable(std::size_t maxOps) {
  Simulation sim(machineByName("BG/P"), 8);
  ProfileOptions po;
  po.maxOps = maxOps;
  sim.enableProfile(po);
  sim.run(haloProgram);
  std::string out;
  char buf[256];
  for (const SiteStats& s : sim.profiler()->profile().sites) {
    std::snprintf(buf, sizeof buf, "%s|%s|%llu|%.17g|%.17g\n",
                  s.site.c_str(), s.op.c_str(),
                  static_cast<unsigned long long>(s.count), s.bytes,
                  s.blockedSeconds);
    out += buf;
  }
  return out;
}

// Expected tables were generated by the profiler that keyed its site
// aggregates by (label, op) strings; the counters-only run, which records
// no op, resolves every wait by its kind alone.
TEST(Obs, SiteAggregatesByLabelAndOp) {
  EXPECT_EQ(siteTable(ProfileOptions{}.maxOps),
            "residual|allreduce|32|256|0.00025683182887700513\n"
            "halo-wait|recv|0|0|0.00012996791443850266\n"
            "halo-wait|send|0|0|0.00011756791443850264\n"
            "halo-exchange|recv|64|0|0\n"
            "halo-exchange|send|64|262144|0\n");
  EXPECT_EQ(siteTable(0),
            "residual|collective|0|0|0.00025683182887700513\n"
            "halo-wait|recv|0|0|0.00024753582887700523\n"
            "halo-exchange|recv|64|0|0\n"
            "halo-exchange|send|64|262144|0\n"
            "residual|allreduce|32|256|0\n");
}

// A 32x32 VN halo, 70 reps of fig2's two-phase ISEND/IRECV exchange at 64
// and then 1,024 words (one eager, one rendezvous): 1,146,880 p2p ops,
// past 2^20.  The profile is whole: a complete critical path, both
// what-ifs, and a clean self-check.
TEST(Obs, ProfileOfARunPastTwoToTheTwentyOpsIsWhole) {
  constexpr int kSide = 32;
  const topo::ProcessGrid2D grid(kSide, kSide);
  net::SystemOptions vn;
  vn.mode = arch::ExecMode::VN;
  Simulation sim(machineByName("BG/P"), kSide * kSide, vn);
  sim.enableProfile();
  const smpi::RunResult result = sim.run([&grid](Rank& self) -> sim::Task {
    const auto north = static_cast<int>(grid.north(self.id()));
    const auto south = static_cast<int>(grid.south(self.id()));
    const auto west = static_cast<int>(grid.west(self.id()));
    const auto east = static_cast<int>(grid.east(self.id()));
    co_await self.barrier();
    for (int rep = 0; rep < 70; ++rep) {
      for (const int words : {64, 1024}) {
        const double n1 = words * 4.0;
        const double n2 = 2.0 * n1;
        co_await self.compute(arch::Work{0.0, 2.0 * (n1 + n2), 1.0});
        std::vector<smpi::Request> ns;
        ns.push_back(self.irecv(south, 10));
        ns.push_back(self.irecv(north, 11));
        ns.push_back(self.isend(north, n1, 10));
        ns.push_back(self.isend(south, n2, 11));
        co_await self.waitAll(std::move(ns));
        std::vector<smpi::Request> ew;
        ew.push_back(self.irecv(east, 12));
        ew.push_back(self.irecv(west, 13));
        ew.push_back(self.isend(west, n1, 12));
        ew.push_back(self.isend(east, n2, 13));
        co_await self.waitAll(std::move(ew));
      }
    }
  });
  const RunProfile& p = sim.profiler()->profile();
  EXPECT_EQ(result.events, 1865729u);
  EXPECT_FALSE(p.truncated);
  EXPECT_TRUE(p.critical.complete);
  EXPECT_EQ(p.critical.segments.size(), 1034u);
  EXPECT_EQ(p.critical.length, p.makespan);
  EXPECT_TRUE(p.whatIf.valid);
  EXPECT_TRUE(selfCheck(p).empty());
}

TEST(Obs, GoldenDeterminism) {
  auto runOnce = []() {
    Simulation sim(machineByName("BG/P"), 8);
    sim.enableProfile();
    sim.run(haloProgram);
    std::ostringstream os;
    writeJson(os, sim.profiler()->profile(), "halo");
    return os.str();
  };
  const std::string a = runOnce();
  const std::string b = runOnce();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\":\"bgp.obs.profile/1\""), std::string::npos);
}

TEST(Obs, OracleCriticalPathAndWhatIfs) {
  Simulation sim(machineByName("BG/P"), 3);
  sim.enableProfile();
  const auto result = sim.run(oracleProgram);
  const RunProfile& p = sim.profiler()->profile();

  ASSERT_TRUE(sim.profiler()->finalized());
  EXPECT_FALSE(p.truncated);
  EXPECT_EQ(p.nranks, 3);
  EXPECT_EQ(p.makespan, result.makespan);

  // Rank 1 drives the makespan: 0.5 + wait-for-message + 2.0.
  EXPECT_GT(result.makespan, 3.0);
  EXPECT_NEAR(p.ranks[0].compute, 1.0, 1e-12);
  EXPECT_NEAR(p.ranks[1].compute, 2.5, 1e-12);
  EXPECT_NEAR(p.ranks[2].compute, 0.2, 1e-12);

  // A complete path's length equals the measured makespan EXACTLY (it
  // is a single difference, not a float sum of segments).
  ASSERT_TRUE(p.critical.complete);
  EXPECT_EQ(p.critical.length, result.makespan);
  // The path runs through r1's trailing compute and r0's leading
  // compute: 3.0 s of the path is compute, the rest is the message.
  EXPECT_NEAR(p.critical.compute, 3.0, 1e-12);

  // Zero-network what-if == the independently known compute-only
  // makespan; zero-compute == the message's measured flight time.
  ASSERT_TRUE(p.whatIf.valid);
  EXPECT_EQ(p.whatIf.measured, result.makespan);
  EXPECT_DOUBLE_EQ(p.whatIf.zeroNetwork, 3.0);
  EXPECT_NEAR(p.whatIf.zeroCompute, result.makespan - 3.0, 1e-12);

  EXPECT_TRUE(selfCheck(p).empty());
}

TEST(Obs, BreakdownSumsToMakespanTimesRanks) {
  Simulation sim(machineByName("BG/P"), 16);
  sim.enableProfile();
  const auto result = sim.run(haloProgram);
  const RunProfile& p = sim.profiler()->profile();

  ASSERT_EQ(p.nranks, 16);
  double sum = 0.0;
  for (const RankBreakdown& r : p.ranks)
    sum += r.compute + r.p2pBlocked + r.collBlocked + r.idle;
  const double expected = result.makespan * 16;
  EXPECT_NEAR(sum, expected, 1e-3 * expected);  // acceptance: 0.1%
  EXPECT_NEAR(p.computeTotal + p.p2pBlockedTotal + p.collBlockedTotal +
                  p.idleTotal,
              expected, 1e-3 * expected);

  // The labeled sites made it into the mpiP-style aggregation.
  bool sawWait = false, sawResidual = false;
  for (const SiteStats& s : p.sites) {
    if (s.site == "halo-wait") sawWait = true;
    if (s.site == "residual" && s.op == "allreduce") sawResidual = true;
  }
  EXPECT_TRUE(sawWait);
  EXPECT_TRUE(sawResidual);

  // Network counters saw the halo traffic.
  EXPECT_GT(p.net.bytesOnLinks + p.net.shmBytes, 0.0);
  EXPECT_FALSE(p.colls.empty());
  EXPECT_TRUE(selfCheck(p).empty());
}

TEST(Obs, SummarizeStatsMatchesSimulationProfile) {
  Simulation sim(machineByName("BG/P"), 8);
  sim.run(haloProgram);
  const Simulation::Profile p = sim.profile();
  std::vector<smpi::RankStats> stats;
  for (int r = 0; r < 8; ++r) stats.push_back(sim.rankStats(r));
  const StatsSummary s = summarizeStats(stats.data(), stats.size());
  EXPECT_EQ(s.sends, p.sends);
  EXPECT_EQ(s.collectives, p.collectives);
  EXPECT_EQ(s.bytesSent, p.bytesSent);
  EXPECT_EQ(s.computeSeconds, p.computeSeconds);
  EXPECT_EQ(s.p2pWaitSeconds, p.p2pWaitSeconds);
  EXPECT_EQ(s.collWaitSeconds, p.collWaitSeconds);
  EXPECT_EQ(s.computeImbalance, p.computeImbalance);
  EXPECT_EQ(s.commFraction, p.commFraction);
}

TEST(Obs, ProfileScopeCapturesConstructedSimulations) {
  ProfileScope scope;
  {
    Simulation sim(machineByName("BG/P"), 4);
    sim.run(haloProgram);
  }
  ASSERT_EQ(scope.profilers().size(), 1u);
  ASSERT_TRUE(scope.profilers()[0]->finalized());
  const RunProfile& p = scope.profilers()[0]->profile();
  EXPECT_EQ(p.nranks, 4);
  EXPECT_TRUE(selfCheck(p).empty());
}

// Capture and profiling are independent observers: an op-graph that runs
// out of budget under the same Simulation (as one of a CaptureScope with a
// one-node budget does) leaves the profile whole.
TEST(Obs, ProfileIsIndependentOfCapture) {
  const auto profiledJson = [] {
    Simulation sim(machineByName("BG/P"), 8);
    sim.enableProfile();
    sim.run(haloProgram);
    std::ostringstream os;
    writeJson(os, sim.profiler()->profile(), "halo");
    return os.str();
  };
  const std::string alone = profiledJson();
  std::string underScope;
  {
    smpi::analysis::CaptureScope scope(smpi::analysis::CaptureOptions{1});
    underScope = profiledJson();
    ASSERT_EQ(scope.graphs().size(), 1u);
    EXPECT_TRUE(scope.graphs()[0]->truncated());
    EXPECT_EQ(scope.graphs()[0]->nodes().size(), 1u);
  }
  EXPECT_NE(alone.find("\"truncated\":false"), std::string::npos);
  EXPECT_EQ(underScope, alone);
}

// The paper_sweep census: a detail-free ProfileScope around pool tasks
// that each open a one-node CaptureScope.  Every Simulation must still
// record into the ProfileScope, so the summed event count equals that of
// the same runs unprofiled.
TEST(Obs, CaptureScopesOnPoolThreadsLeaveEveryRunToTheProfileScope) {
  constexpr std::size_t kTasks = 6;
  const auto runOne = [](std::size_t i) {
    Simulation sim(machineByName("BG/P"), 4 + 2 * static_cast<int>(i % 3));
    return sim.run(haloProgram).events;
  };
  std::uint64_t unprofiled = 0;
  for (std::size_t i = 0; i < kTasks; ++i) unprofiled += runOne(i);

  std::uint64_t profiled = 0;
  {
    ProfileOptions options;
    options.maxOps = 0;
    ProfileScope scope(options);
    core::parallelMap<std::uint64_t>(kTasks, [&](std::size_t i) {
      smpi::analysis::CaptureScope capture(smpi::analysis::CaptureOptions{1});
      return runOne(i);
    });
    ASSERT_EQ(scope.profilers().size(), kTasks);
    for (const auto& prof : scope.profilers()) {
      ASSERT_TRUE(prof->finalized());
      profiled += prof->profile().engine.events;
    }
  }
  EXPECT_EQ(profiled, unprofiled);
}

// Each rank sends, then waits for a tag nobody sends: a deadlock.
sim::Task deadlockProgram(Rank& self) {
  const int peer = 1 - self.id();
  co_await self.send(peer, 64.0, /*tag=*/0);
  co_await self.recv(peer, /*tag=*/1);
}

// A profiled run that throws never reaches finalize().  The profiler must
// still hold none of its ops: they belong to the arena of the thread that
// ran the Simulation, while the process-global scope that owns the
// profiler dies on another thread.
TEST(Obs, FailedProfiledRunLeavesEveryArenaBalanced) {
  support::Arena& mainArena = support::threadArena();
  const std::uint64_t mainBefore = mainArena.liveBlocks();
  std::uint64_t workerBefore = 0;
  std::uint64_t workerAfter = 0;
  bool deadlocked = false;
  {
    ProfileScope scope;
    std::thread worker([&] {
      workerBefore = support::threadArena().liveBlocks();
      {
        Simulation sim(machineByName("BG/P"), 2);
        try {
          sim.run(deadlockProgram);
        } catch (const DeadlockError&) {
          deadlocked = true;
        } catch (...) {  // any other failure leaves `deadlocked` false
        }
      }
      workerAfter = support::threadArena().liveBlocks();
    });
    worker.join();
    ASSERT_EQ(scope.profilers().size(), 1u);
    EXPECT_FALSE(scope.profilers()[0]->finalized());
  }
  EXPECT_TRUE(deadlocked);
  EXPECT_EQ(workerAfter, workerBefore);
  EXPECT_EQ(mainArena.liveBlocks(), mainBefore);
}

// ---- the what-if oracle ------------------------------------------------------
//
// The profiler evaluates its what-ifs online, in the hooks.  The oracle is
// the replay it replaced: a log of the run's issues, computes, waits and
// gates — recorded by a CaptureScope whose attach() hands the Simulation a
// logging observer instead of the op-graph recorder — swept in an order
// that respects the recorded dependencies, with one cost class zeroed.
// Both evaluate the same max-plus recurrence with the same arithmetic, so
// they must agree bit for bit.

/// What the replay reads of one run.
struct OpLog {
  using OpId = std::uint32_t;
  static constexpr OpId kNoOp = ~OpId{0};

  /// One timeline item; per rank, items append in program order.
  struct Item {
    enum class Kind : std::uint8_t { Compute, Block, Issue };
    Kind kind = Kind::Issue;
    sim::SimTime begin = 0.0;  // Compute
    sim::SimTime end = 0.0;    // Compute
    OpId op = kNoOp;           // Issue: the op; Block of a waitAny: fired
    bool any = false;          // Block of a waitAny
    std::vector<OpId> waited;  // Block of a wait/waitAll
  };
  /// One op, indexed by its id.
  struct OpRec {
    enum class Kind : std::uint8_t { None, Send, Recv, Gate };
    Kind kind = Kind::None;
    sim::SimTime issue = 0.0;
    sim::SimTime completion = -1.0;  // < 0: never completed
    double bytes = 0.0;              // Send: payload
    OpId partner = kNoOp;            // p2p: the matched op
    int nranks = 0;                  // Gate: member count
    double duration = -1.0;          // Gate: < 0 never completed
  };

  const Profiler* profiler = nullptr;  // the ProfileScope's, if any
  double eagerThreshold = 0.0;
  std::vector<OpRec> ops;
  std::vector<std::vector<Item>> items;  // per rank

  const OpRec* rec(OpId id) const {
    return id < ops.size() && ops[id].kind != OpRec::Kind::None ? &ops[id]
                                                                : nullptr;
  }

  /// Visits every rank's items in program order, interleaved in an order
  /// that respects the recorded dependencies: `step(rank, item)` returns
  /// false to park the rank at an item whose dependencies are not visited
  /// yet, to be offered again on the next pass.  False if one stays parked.
  template <class Step>
  bool sweep(Step&& step) const {
    std::vector<std::size_t> idx(items.size(), 0);
    for (bool progress = true; progress;) {
      progress = false;
      for (std::size_t r = 0; r < items.size(); ++r) {
        while (idx[r] < items[r].size() &&
               step(static_cast<int>(r), items[r][idx[r]])) {
          ++idx[r];
          progress = true;
        }
      }
    }
    for (std::size_t r = 0; r < items.size(); ++r)
      if (idx[r] != items[r].size()) return false;
    return true;
  }
};

class OpLogRecorder final : public smpi::Observer {
 public:
  explicit OpLogRecorder(OpLog& log) : log_(log) {}

  void onIssue(const smpi::Comm&, const smpi::OpState& op, double,
               sim::SimTime now) override {
    OpLog::OpRec& r = rec(op.id);
    const bool isSend = op.kind == smpi::OpState::Kind::Send;
    r.kind = isSend ? OpLog::OpRec::Kind::Send : OpLog::OpRec::Kind::Recv;
    r.issue = now;
    r.bytes = op.bytes;
    issue(op.ownerWorld, op.id);
  }
  void onComplete(const smpi::OpState& op, sim::SimTime now) override {
    OpLog::OpRec& r = rec(op.id);
    if (r.completion < 0) r.completion = now;
  }
  void onMatch(const smpi::Comm&, int, int, int, double, double,
               const smpi::OpState& sendOp,
               const smpi::OpState& recvOp) override {
    rec(sendOp.id).partner = static_cast<OpLog::OpId>(recvOp.id);
    rec(recvOp.id).partner = static_cast<OpLog::OpId>(sendOp.id);
  }
  void onGateArrive(const smpi::Comm& comm, const smpi::Comm::CollGate& gate,
                    int commRank, const smpi::CollSig&, double,
                    sim::SimTime now) override {
    OpLog::OpRec& r = rec(gate.op->id);
    if (gate.arrived == 0) {
      r.kind = OpLog::OpRec::Kind::Gate;
      r.issue = now;
      r.nranks = comm.size();
    }
    issue(comm.worldRank(commRank), gate.op->id);
  }
  void onGateDone(const smpi::Comm&, const smpi::Comm::CollGate& gate, int,
                  double duration, sim::SimTime done) override {
    OpLog::OpRec& r = rec(gate.op->id);
    r.duration = duration;
    r.completion = done;
  }
  void onCompute(int rank, sim::SimTime now, double seconds) override {
    OpLog::Item item;
    item.kind = OpLog::Item::Kind::Compute;
    item.begin = now;
    item.end = now + seconds;
    log_.items[static_cast<std::size_t>(rank)].push_back(std::move(item));
  }
  void onWaitDone(int rank, const std::vector<smpi::Request>& ops,
                  std::size_t fired, sim::SimTime) override {
    OpLog::Item item;
    item.kind = OpLog::Item::Kind::Block;
    item.any = fired < ops.size();
    if (item.any) item.op = static_cast<OpLog::OpId>(ops[fired]->id);
    for (const smpi::Request& op : ops)
      item.waited.push_back(static_cast<OpLog::OpId>(op->id));
    log_.items[static_cast<std::size_t>(rank)].push_back(std::move(item));
  }

 private:
  OpLog::OpRec& rec(std::uint64_t id) {
    if (id >= log_.ops.size()) log_.ops.resize(id + 1);
    return log_.ops[id];
  }
  void issue(int rank, std::uint64_t id) {
    OpLog::Item item;
    item.op = static_cast<OpLog::OpId>(id);
    log_.items[static_cast<std::size_t>(rank)].push_back(std::move(item));
  }

  OpLog& log_;
};

/// A CaptureScope that logs each Simulation constructed under it for the
/// oracle instead of recording its op-graph.
class OpLogScope final : public smpi::analysis::CaptureScope {
 public:
  std::unique_ptr<smpi::Observer> attach(Simulation& sim) override {
    auto& log = *logs_.emplace_back(std::make_unique<OpLog>());
    log.profiler = sim.profiler();
    log.eagerThreshold = sim.system().eagerThreshold();
    log.items.resize(static_cast<std::size_t>(sim.nranks()));
    return std::make_unique<OpLogRecorder>(log);
  }
  const std::vector<std::unique_ptr<OpLog>>& logs() const { return logs_; }

 private:
  std::vector<std::unique_ptr<OpLog>> logs_;
};

/// The replayed makespan of `log` with one cost class zeroed, or a
/// negative value when a dependency could not be resolved.
double replayLog(const OpLog& log, bool zeroNetwork, bool zeroCompute) {
  using OpId = OpLog::OpId;
  using OpRec = OpLog::OpRec;
  using Item = OpLog::Item;

  struct GateReplay {
    int arrived = 0;
    double maxArrival = 0.0;
    double done = -1.0;
  };
  std::vector<GateReplay> gatesR(log.ops.size());  // by op id
  // The replay state of a completed gate op, or null.
  const auto gateOf = [&](OpId op) -> GateReplay* {
    const OpRec* r = log.rec(op);
    if (!r || r->kind != OpRec::Kind::Gate || r->duration < 0) return nullptr;
    return &gatesR[op];
  };

  // Replayed issue time per op id (p2p issues only), -1 = not yet.
  std::vector<double> newIssue(log.ops.size(), -1.0);

  // A p2p op completes a measured span after its cause: the send's issue
  // (eager, or unmatched fire-and-forget), else the later of the send's
  // and the receive's issue (rendezvous).  The replay keeps the span and
  // moves the cause to the replayed issue times.
  const auto completionOf = [&](OpId op, double& out) {
    const OpRec* self = log.rec(op);
    if (!self) return false;
    if (self->kind == OpRec::Kind::Gate) {
      const GateReplay* g = gateOf(op);
      if (!g || g->done < 0) return false;
      out = g->done;
      return true;
    }
    if (self->completion < 0) return false;  // never completed: never waited
    const bool isSend = self->kind == OpRec::Kind::Send;
    const OpId sendOp = isSend ? op : self->partner;
    if (sendOp == OpLog::kNoOp) return false;  // unmatched recv
    const OpId recvOp = isSend ? self->partner : op;
    const OpRec& snd = *log.rec(sendOp);
    const bool eager =
        snd.bytes <= log.eagerThreshold || recvOp == OpLog::kNoOp;
    const double cause =
        eager ? snd.issue : std::max(snd.issue, log.rec(recvOp)->issue);
    const double span = std::max(0.0, self->completion - cause);
    double replayedCause;
    if (eager) {
      if (newIssue[sendOp] < 0) return false;
      replayedCause = newIssue[sendOp];
    } else {
      const double si = newIssue[sendOp];
      const double ri = newIssue[recvOp];
      if (si < 0 || ri < 0) return false;
      replayedCause = std::max(si, ri);
    }
    out = replayedCause + (zeroNetwork ? 0.0 : span);
    return true;
  };

  // A rank parks at a Block whose ops are not yet resolvable.
  std::vector<double> clock(log.items.size(), 0.0);
  const bool resolved = log.sweep([&](int r, const Item& it) {
    double& now = clock[static_cast<std::size_t>(r)];
    if (it.kind == Item::Kind::Compute) {
      now += zeroCompute ? 0.0 : (it.end - it.begin);
    } else if (it.kind == Item::Kind::Issue) {
      const OpRec& self = *log.rec(it.op);
      if (GateReplay* g = gateOf(it.op)) {
        ++g->arrived;
        g->maxArrival = std::max(g->maxArrival, now);
        if (g->arrived >= self.nranks)
          g->done = g->maxArrival + (zeroNetwork ? 0.0 : self.duration);
      } else if (self.kind != OpRec::Kind::Gate) {
        newIssue[it.op] = now;
      }
    } else {  // Block
      double until = now;
      if (it.any) {
        // The replay resolves a waitAny against the op that actually
        // fired in the executed schedule.
        double c;
        if (!completionOf(it.op, c)) return false;
        until = std::max(until, c);
      } else {
        for (const OpId op : it.waited) {
          double c;
          if (!completionOf(op, c)) return false;
          until = std::max(until, c);
        }
      }
      now = until;
    }
    return true;
  });
  if (!resolved) return -1.0;  // a dependency never resolved
  return *std::max_element(clock.begin(), clock.end());
}

/// The what-ifs the oracle derives from the log of `prof`'s run.
WhatIf oracleWhatIf(const Profiler& prof, const OpLog& log) {
  WhatIf w;
  w.measured = prof.profile().makespan;
  const double zn = replayLog(log, /*zeroNetwork=*/true, false);
  const double zc = replayLog(log, false, /*zeroCompute=*/true);
  if (zn >= 0 && zc >= 0) {
    w.valid = true;
    w.zeroNetwork = zn;
    w.zeroCompute = zc;
  }
  return w;
}

/// Bit-for-bit agreement of the online what-ifs with the oracle's.
void expectOracleWhatIf(const Profiler& prof, const OpLog& log,
                        const std::string& what) {
  ASSERT_TRUE(prof.finalized()) << what;
  ASSERT_FALSE(prof.profile().truncated) << what;
  const WhatIf& online = prof.profile().whatIf;
  const WhatIf oracle = oracleWhatIf(prof, log);
  EXPECT_EQ(online.valid, oracle.valid) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(online.measured),
            std::bit_cast<std::uint64_t>(oracle.measured))
      << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(online.zeroNetwork),
            std::bit_cast<std::uint64_t>(oracle.zeroNetwork))
      << what << ": " << online.zeroNetwork << " vs " << oracle.zeroNetwork;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(online.zeroCompute),
            std::bit_cast<std::uint64_t>(oracle.zeroCompute))
      << what << ": " << online.zeroCompute << " vs " << oracle.zeroCompute;
}

/// Runs `program` on `nranks` profiled BG/P ranks under an OpLogScope and
/// checks the what-ifs against the oracle.
void checkProgramAgainstOracle(int nranks, const smpi::RankProgram& program,
                               const std::string& what) {
  OpLogScope capture;
  Simulation sim(machineByName("BG/P"), nranks);
  sim.enableProfile();
  sim.run(program);
  ASSERT_EQ(capture.logs().size(), 1u) << what;
  expectOracleWhatIf(*sim.profiler(), *capture.logs().front(), what);
  EXPECT_TRUE(sim.profiler()->profile().whatIf.valid) << what;
}

TEST(ObsWhatIf, OnlineMatchesReplayOnEveryRegistryScenario) {
  std::size_t checked = 0;
  for (const smpi::analysis::Scenario& scenario :
       smpi::analysis::scenarios()) {
    ProfileScope scope;
    OpLogScope capture;
    try {
      scenario.run();
    } catch (const std::exception&) {  // a failed run is not finalized
    }
    std::size_t finalized = 0;
    for (const auto& prof : scope.profilers()) finalized += prof->finalized();
    std::size_t logged = 0;
    for (const auto& log : capture.logs()) {
      if (!log->profiler || !log->profiler->finalized()) continue;
      expectOracleWhatIf(*log->profiler, *log, scenario.name);
      ++logged;
    }
    EXPECT_EQ(logged, finalized) << scenario.name;
    checked += logged;
  }
  EXPECT_GT(checked, 20u);
}

// Each rank drains eager and rendezvous traffic with waitAny (so some
// ops are offered to several waitAnys before one returns them), then
// waits on all of them again: every op was returned already.
sim::Task waitAnyProgram(Rank& self) {
  const int n = self.size();
  const int left = (self.id() + n - 1) % n;
  const int right = (self.id() + 1) % n;
  for (int iter = 0; iter < 3; ++iter) {
    std::vector<smpi::Request> all;
    all.push_back(self.irecv(left));
    all.push_back(self.irecv(right));
    all.push_back(self.isend(right, 256.0 * (1 + self.id() % 3)));
    all.push_back(self.isend(left, 65536.0));
    co_await self.compute(1e-6 * (1 + (self.id() * 7 + iter) % 5));
    std::vector<smpi::Request> pending = all;
    while (!pending.empty()) {
      const std::size_t i = co_await self.waitAny(pending);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
    }
    co_await self.waitAll(all);
  }
  co_await self.allreduce(8.0);
}

TEST(ObsWhatIf, OnlineMatchesReplayWithWaitAny) {
  checkProgramAgainstOracle(6, waitAnyProgram, "waitAny");
}

TEST(ObsWhatIf, OnlineMatchesReplayWithANeverCompletedGate) {
  // Rank 0 opens a barrier nobody else joins and never waits on it; the
  // run still completes.  An incomplete gate constrains no replayed rank.
  Simulation* simPtr = nullptr;
  const smpi::RankProgram program = [&simPtr](Rank& self) -> sim::Task {
    co_await self.compute(1e-6 * (1 + self.id()));
    if (self.id() == 0)
      simPtr->joinCollective(simPtr->world(), 0, net::CollKind::Barrier, 0.0,
                             net::Dtype::Byte);
    const int n = self.size();
    co_await self.sendrecv((self.id() + 1) % n, 4096.0,
                           (self.id() + n - 1) % n);
    co_await self.compute(2e-6);
  };
  OpLogScope capture;
  Simulation sim(machineByName("BG/P"), 4);
  simPtr = &sim;
  sim.enableProfile();
  sim.run(program);
  ASSERT_EQ(capture.logs().size(), 1u);
  expectOracleWhatIf(*sim.profiler(), *capture.logs().front(),
                     "never-completed gate");
  EXPECT_TRUE(sim.profiler()->profile().whatIf.valid);
}

// A rendezvous the receiver gates: rank 1 posts its receive 1 ms late,
// so the send's replayed completion hangs on the receiver's replayed post.
sim::Task lateReceiverProgram(Rank& self) {
  if (self.id() == 0) {
    co_await self.send(1, 65536.0);
    co_await self.compute(2e-3);
  } else {
    co_await self.compute(1e-3);
    co_await self.recv(0);
  }
}

TEST(ObsWhatIf, OnlineMatchesReplayOnSmallPrograms) {
  checkProgramAgainstOracle(3, oracleProgram, "oracle");
  checkProgramAgainstOracle(16, haloProgram, "halo");
  checkProgramAgainstOracle(2, lateReceiverProgram, "late receiver");
}

// 16 rounds of a ring exchange on 64 ranks: 4,096 p2p ops, so the
// profiler fills and frees its in-flight op chunks many times mid-run
// (under ASan, any read of a retired chunk is reported).
sim::Task ringRoundsProgram(Rank& self) {
  const int n = self.size();
  for (int round = 0; round < 16; ++round) {
    std::vector<smpi::Request> ops;
    ops.push_back(self.irecv((self.id() + n - 1) % n));
    ops.push_back(self.isend((self.id() + 1) % n, round % 2 ? 8192.0 : 64.0));
    co_await self.compute(1e-6 * (1 + (self.id() + round) % 4));
    co_await self.waitAll(std::move(ops));
  }
}

TEST(ObsWhatIf, ChunksRetiredMidRunKeepEveryResult) {
  checkProgramAgainstOracle(64, ringRoundsProgram, "ring rounds");
  const auto profileJson = [](bool captured) {
    std::optional<smpi::analysis::CaptureScope> capture;
    if (captured) capture.emplace();
    Simulation sim(machineByName("BG/P"), 64);
    sim.enableProfile();
    sim.run(ringRoundsProgram);
    EXPECT_TRUE(sim.profiler()->profile().critical.complete);
    std::ostringstream os;
    writeJson(os, sim.profiler()->profile(), "ring");
    return os.str();
  };
  EXPECT_EQ(profileJson(false), profileJson(true));
}

// ---- the profile does not depend on capture ------------------------------

/// writeJson of every profile the registry scenarios produce, each
/// scenario's sorted (pool threads may construct them in any order), with
/// or without a CaptureScope — which attaches an op-graph recorder to
/// every Simulation on this thread — around each scenario.
std::vector<std::string> registryProfiles(bool captured,
                                          std::size_t* graphs = nullptr) {
  std::vector<std::string> out;
  for (const smpi::analysis::Scenario& scenario :
       smpi::analysis::scenarios()) {
    ProfileScope scope;
    std::optional<smpi::analysis::CaptureScope> capture;
    if (captured) capture.emplace();
    try {
      scenario.run();
    } catch (const std::exception&) {
    }
    if (graphs && capture) *graphs += capture->graphs().size();
    std::vector<std::string> jsons;
    for (const auto& prof : scope.profilers()) {
      if (!prof->finalized()) continue;
      std::ostringstream os;
      writeJson(os, prof->profile(), scenario.name);
      jsons.push_back(os.str());
    }
    std::sort(jsons.begin(), jsons.end());
    out.insert(out.end(), jsons.begin(), jsons.end());
  }
  return out;
}

TEST(ObsLevels, CaptureLeavesEveryRegistryProfileByteIdentical) {
  std::size_t graphs = 0;
  const std::vector<std::string> plain = registryProfiles(false);
  const std::vector<std::string> captured = registryProfiles(true, &graphs);
  EXPECT_GT(graphs, 20u);
  ASSERT_EQ(plain.size(), captured.size());
  for (std::size_t i = 0; i < plain.size(); ++i)
    EXPECT_EQ(plain[i], captured[i]) << "profile " << i;
}

}  // namespace
}  // namespace bgp::obs
