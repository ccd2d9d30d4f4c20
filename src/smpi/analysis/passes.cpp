#include "smpi/analysis/passes.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "support/expect.hpp"

namespace bgp::smpi::analysis {
namespace {

// ---- candidate-sender machinery -------------------------------------------
//
// For a receive R, a send S is a *candidate* when some feasible schedule
// matches them: S targets R's rank on R's communicator, tags/sources are
// compatible, and the partial order does not force them apart — R did not
// complete before S was issued, and S was not consumed by another receive
// whose completion happens-before R's post.  Within one source rank the
// runtime is non-overtaking, so the earliest feasible compatible send is
// the only one that can reach R first; we keep one candidate per source.

struct Candidate {
  int srcCommRank = -1;
  std::int32_t send = -1;
  bool executed = false;  // this is the match the engine actually made
};

struct CommIndex {
  // (src commRank, dst commRank) -> send node ids, program order per src.
  std::map<std::pair<int, int>, std::vector<std::int32_t>> sends;
  std::vector<std::int32_t> recvs;  // graph (execution) order
  int size = 0;                     // max comm rank seen + 1 (fallback)
};

std::map<int, CommIndex> indexP2p(const OpGraph& g) {
  std::map<int, CommIndex> byComm;
  const auto& nodes = g.nodes();
  for (std::int32_t id = 0; id < static_cast<std::int32_t>(nodes.size());
       ++id) {
    const OpNode& n = nodes[static_cast<std::size_t>(id)];
    if (n.kind == OpKind::Send) {
      CommIndex& ci = byComm[n.commId];
      ci.sends[{n.commRank, n.peer}].push_back(id);
      ci.size = std::max(ci.size, std::max(n.commRank, n.peer) + 1);
    } else if (n.kind == OpKind::Recv) {
      CommIndex& ci = byComm[n.commId];
      ci.recvs.push_back(id);
      ci.size = std::max(ci.size, n.commRank + 1);
    }
  }
  for (auto& [commId, ci] : byComm)
    if (const CommInfo* info = g.comm(commId)) ci.size = info->size;
  return byComm;
}

bool tagCompatible(const OpNode& recv, const OpNode& send) {
  return recv.tag == kAnyTag || recv.tag == send.tag;
}

/// The candidate send from source `src`, or none.
void candidateFromSource(const OpGraph& g, const CommIndex& ci,
                         std::int32_t rid, int src,
                         std::vector<Candidate>& out) {
  const OpNode& r = g.node(rid);
  const auto it = ci.sends.find({src, r.commRank});
  if (it == ci.sends.end()) return;
  for (const std::int32_t sid : it->second) {
    const OpNode& s = g.node(sid);
    if (!tagCompatible(r, s)) continue;
    // R completed before S was even issued: S (and every later send from
    // this source) is out of reach in every schedule.
    if (g.waitedBefore(r.waitedAt, sid)) return;
    if (s.matched == rid) {
      out.push_back({src, sid, true});
      return;
    }
    if (s.matched >= 0 &&
        g.waitedBefore(g.node(s.matched).waitedAt, rid)) {
      // Consumed by a receive that completed before R posted, in every
      // schedule — look at the next send from this source.
      continue;
    }
    out.push_back({src, sid, false});
    return;
  }
}

std::vector<Candidate> candidatesOf(const OpGraph& g, const CommIndex& ci,
                                    std::int32_t rid) {
  std::vector<Candidate> out;
  const OpNode& r = g.node(rid);
  if (r.peer != kAnySource) {
    candidateFromSource(g, ci, rid, r.peer, out);
  } else {
    for (int src = 0; src < ci.size; ++src)
      candidateFromSource(g, ci, rid, src, out);
  }
  return out;
}

std::string witnessRace(const OpGraph& g, std::int32_t rid,
                        const std::vector<Candidate>& cands) {
  // Minimized witness: the receive plus the two earliest-posted candidate
  // senders — dropping every other rank still leaves the race.
  const Candidate* a = &cands[0];
  const Candidate* b = &cands[1];
  for (const Candidate& c : cands)
    if (c.executed) a = &c;
  if (b == a) b = &cands[0];
  std::ostringstream os;
  os << g.describe(rid) << " can match " << g.describe(a->send)
     << (a->executed ? " [executed]" : "") << " or " << g.describe(b->send)
     << (b->executed ? " [executed]" : "")
     << " depending on arrival order";
  return os.str();
}

}  // namespace

// ---- pass 1: wildcard races -----------------------------------------------

void findWildcardRaces(const OpGraph& g, Report& report) {
  const auto byComm = indexP2p(g);
  for (const auto& [commId, ci] : byComm) {
    for (const std::int32_t rid : ci.recvs) {
      const OpNode& r = g.node(rid);
      if (r.peer != kAnySource) continue;  // FIFO makes concrete-src
                                           // receives deterministic
      const auto cands = candidatesOf(g, ci, rid);
      if (cands.size() < 2) continue;
      Finding f;
      f.severity = Severity::Error;
      f.pass = "wildcard-race";
      std::ostringstream title;
      title << "wildcard receive has " << cands.size()
            << " concurrent candidate senders";
      f.title = title.str();
      f.evidence.push_back(g.describe(rid));
      for (const Candidate& c : cands)
        f.evidence.push_back(g.describe(c.send) +
                             (c.executed ? "  <- executed match" : ""));
      f.witness = witnessRace(g, rid, cands);
      report.add(std::move(f));
    }
  }
}

// ---- pass 2: collective contracts -----------------------------------------

void checkCollectiveContracts(const OpGraph& g, Report& report) {
  // Gather gates per communicator, ascending sequence number.
  std::map<int, std::vector<std::pair<std::uint64_t,
                                      const std::vector<std::int32_t>*>>>
      byComm;
  for (const auto& [key, arrivals] : g.gates())
    byComm[key.first].emplace_back(key.second, &arrivals);

  for (const auto& [commId, gates] : byComm) {
    const CommInfo* info = g.comm(commId);
    bool diverged = false;
    for (const auto& [seq, arrivals] : gates) {
      const OpNode& ref = g.node((*arrivals)[0]);
      for (const std::int32_t aid : *arrivals) {
        const OpNode& a = g.node(aid);
        std::string what;
        Severity sev = Severity::Error;
        if (a.sig.kind != ref.sig.kind)
          what = "operation kinds differ";
        else if (a.sig.root != ref.sig.root)
          what = "roots differ";
        else if (a.sig.rop != ref.sig.rop)
          what = "reduction operators differ";
        else if (a.sig.dt != ref.sig.dt) {
          what = "datatypes differ";
          sev = Severity::Warning;
        }
        if (what.empty()) continue;
        Finding f;
        f.severity = sev;
        f.pass = "collective-contract";
        std::ostringstream title;
        title << "collective sequence diverges at #" << seq << " on comm "
              << commId << ": " << what;
        f.title = title.str();
        f.evidence.push_back(g.describe((*arrivals)[0]));
        f.evidence.push_back(g.describe(aid));
        std::ostringstream w;
        w << "rank " << ref.world << " calls " << net::toString(ref.sig.kind)
          << "(root=" << ref.sig.root << ", op=" << toString(ref.sig.rop)
          << ") while rank " << a.world << " calls "
          << net::toString(a.sig.kind) << "(root=" << a.sig.root
          << ", op=" << toString(a.sig.rop) << ") at the same point";
        f.witness = w.str();
        report.add(std::move(f));
        if (sev == Severity::Error) diverged = true;
        break;  // one divergence per gate
      }
      if (diverged) break;  // later gates on this comm are cascade noise
    }
    if (diverged || g.truncated() || info == nullptr || gates.empty())
      continue;

    // Participation: with no kind divergence, every member must have
    // arrived at every gate — a rank that issued fewer collectives than
    // its peers diverged at the first gate it skipped.
    std::vector<int> arrivedCount(static_cast<std::size_t>(info->size), 0);
    for (const auto& [seq, arrivals] : gates)
      for (const std::int32_t aid : *arrivals)
        ++arrivedCount[static_cast<std::size_t>(g.node(aid).commRank)];
    const auto [lo, hi] =
        std::minmax_element(arrivedCount.begin(), arrivedCount.end());
    if (*lo == *hi) continue;
    Finding f;
    f.severity = Severity::Error;
    f.pass = "collective-contract";
    std::ostringstream title;
    title << "ranks disagree on the number of collectives on comm " << commId
          << ": rank "
          << info->worldOfCommRank[static_cast<std::size_t>(
                 lo - arrivedCount.begin())]
          << " issued " << *lo << " while rank "
          << info->worldOfCommRank[static_cast<std::size_t>(
                 hi - arrivedCount.begin())]
          << " issued " << *hi;
    f.title = title.str();
    std::ostringstream w;
    w << "divergence at collective #" << *lo << " on comm " << commId;
    f.witness = w.str();
    report.add(std::move(f));
  }
}

// ---- pass 3: potential deadlocks ------------------------------------------
//
// The runtime's cycle reporter only sees the matching the engine made.
// Here we ask: is there a *feasible alternate* matching under which a
// receive some rank waits on is starved — all of its candidate sends
// absorbed by other receives?  By Hall's theorem that is exactly "the
// candidate sends of R have a matching into receives other than R that
// saturates them".  The search is restricted to *flexible* components of
// the candidacy graph (those containing a wildcard-source receive with
// >= 2 candidate sources): everywhere else the runtime's non-overtaking
// rule makes the matching unique, and reporting would be noise.

namespace {

struct DeadlockCtx {
  std::unordered_map<std::int32_t, std::vector<Candidate>> candsOf;  // recv
  std::unordered_map<std::int32_t, std::vector<std::int32_t>> recvsOf;  // send
};

bool kuhnAssign(const DeadlockCtx& ctx, std::int32_t sid,
                std::int32_t excludeRecv,
                std::unordered_map<std::int32_t, std::int32_t>& recvTaken,
                std::unordered_map<std::int32_t, bool>& visited) {
  for (const std::int32_t rid : ctx.recvsOf.at(sid)) {
    if (rid == excludeRecv || visited[rid]) continue;
    visited[rid] = true;
    const auto taken = recvTaken.find(rid);
    if (taken == recvTaken.end() ||
        kuhnAssign(ctx, taken->second, excludeRecv, recvTaken, visited)) {
      recvTaken[rid] = sid;
      return true;
    }
  }
  return false;
}

}  // namespace

void findPotentialDeadlocks(const OpGraph& g, Report& report) {
  const auto byComm = indexP2p(g);
  for (const auto& [commId, ci] : byComm) {
    DeadlockCtx ctx;
    bool anyWildcard = false;
    for (const std::int32_t rid : ci.recvs) {
      auto cands = candidatesOf(g, ci, rid);
      if (g.node(rid).peer == kAnySource && cands.size() >= 2)
        anyWildcard = true;
      for (const Candidate& c : cands) ctx.recvsOf[c.send].push_back(rid);
      ctx.candsOf.emplace(rid, std::move(cands));
    }
    if (!anyWildcard) continue;  // matching is schedule-independent

    // Connected components of the candidacy graph, via union-find over
    // receive ids (two receives join when they share a candidate send).
    std::unordered_map<std::int32_t, std::int32_t> parent;
    const auto findRoot = [&](std::int32_t r) {
      while (parent[r] != r) r = parent[r] = parent[parent[r]];
      return r;
    };
    for (const std::int32_t rid : ci.recvs) parent[rid] = rid;
    for (const auto& [sid, recvs] : ctx.recvsOf)
      for (std::size_t i = 1; i < recvs.size(); ++i)
        parent[findRoot(recvs[i])] = findRoot(recvs[0]);
    std::unordered_map<std::int32_t, bool> flexible;
    for (const std::int32_t rid : ci.recvs)
      if (g.node(rid).peer == kAnySource && ctx.candsOf.at(rid).size() >= 2)
        flexible[findRoot(rid)] = true;

    for (const std::int32_t rid : ci.recvs) {
      if (!flexible[findRoot(rid)]) continue;
      const auto& cands = ctx.candsOf.at(rid);
      if (cands.empty() || g.node(rid).waitedAt < 0) continue;
      // Hall condition: can every candidate of R be absorbed elsewhere?
      std::unordered_map<std::int32_t, std::int32_t> recvTaken;
      bool starved = true;
      for (const Candidate& c : cands) {
        std::unordered_map<std::int32_t, bool> visited;
        if (!kuhnAssign(ctx, c.send, rid, recvTaken, visited)) {
          starved = false;
          break;
        }
      }
      if (!starved) continue;
      Finding f;
      f.severity = Severity::Error;
      f.pass = "potential-deadlock";
      f.title =
          "receive can starve under an alternate matching: every candidate "
          "send can be consumed by another receive, and the rank waits on it";
      f.evidence.push_back(g.describe(rid));
      for (const Candidate& c : cands) f.evidence.push_back(g.describe(c.send));
      std::ostringstream w;
      w << g.describe(rid) << " starves when ";
      bool first = true;
      for (const Candidate& c : cands) {
        for (const auto& [r, s] : recvTaken)
          if (s == c.send) {
            if (!first) w << " and ";
            first = false;
            w << g.describe(s) << " matches " << g.describe(r);
          }
      }
      f.witness = w.str();
      report.add(std::move(f));
    }
  }
}

// ---- pass 4: tag/count contract lint --------------------------------------

void lintTagContracts(const OpGraph& g, Report& report) {
  const auto byComm = indexP2p(g);
  // Truncation-prone size mismatches on every feasible match: candidate
  // pairs, not just executed ones.
  for (const auto& [commId, ci] : byComm) {
    for (const std::int32_t rid : ci.recvs) {
      const OpNode& r = g.node(rid);
      if (r.expectedBytes < 0) continue;  // no declared expectation
      for (const Candidate& c : candidatesOf(g, ci, rid)) {
        const OpNode& s = g.node(c.send);
        if (s.bytes == r.expectedBytes) continue;
        Finding f;
        f.severity =
            s.bytes > r.expectedBytes ? Severity::Error : Severity::Warning;
        f.pass = "tag-contract";
        std::ostringstream title;
        title << (s.bytes > r.expectedBytes
                      ? "truncation: send carries more than the receive "
                        "expects"
                      : "count mismatch: send carries less than the receive "
                        "expects")
              << (c.executed ? "" : " (feasible alternate match)");
        f.title = title.str();
        f.evidence.push_back(g.describe(rid));
        f.evidence.push_back(g.describe(c.send));
        report.add(std::move(f));
      }
    }

    // Concurrent same-(src, dst, tag) sends are indistinguishable to a
    // wildcard receive: which payload lands first is schedule-dependent.
    // Only flagged when a wildcard receive can actually observe the
    // ambiguity — deterministic programs pairing each send with a
    // concrete-source receive are non-overtaking and safe.
    for (const auto& [srcDst, sends] : ci.sends) {
      for (std::size_t i = 0; i + 1 < sends.size(); ++i) {
        const OpNode& s1 = g.node(sends[i]);
        const OpNode& s2 = g.node(sends[i + 1]);
        if (s1.tag != s2.tag) continue;
        const bool s1Consumed =
            s1.matched >= 0 &&
            g.waitedBefore(g.node(s1.matched).waitedAt, sends[i + 1]);
        if (s1Consumed) continue;  // ordered: no concurrent window
        const auto wildcardMatched = [&](const OpNode& s) {
          if (s.matched < 0) return false;
          const OpNode& m = g.node(s.matched);
          return m.peer == kAnySource || m.tag == kAnyTag;
        };
        if (!wildcardMatched(s1) && !wildcardMatched(s2)) continue;
        Finding f;
        f.severity = Severity::Warning;
        f.pass = "tag-contract";
        std::ostringstream title;
        title << "tag collision: two concurrent sends share (src, dst, tag) "
              << "and a wildcard receive observes their order";
        f.title = title.str();
        f.evidence.push_back(g.describe(sends[i]));
        f.evidence.push_back(g.describe(sends[i + 1]));
        report.add(std::move(f));
      }
    }
  }
}

// ---- driver ---------------------------------------------------------------

Report analyze(OpGraph& graph) {
  graph.computeClocks();
  Report report;
  report.nranks = graph.nranks();
  report.opsAnalyzed = graph.nodes().size();
  report.truncated = graph.truncated();
  findWildcardRaces(graph, report);
  checkCollectiveContracts(graph, report);
  findPotentialDeadlocks(graph, report);
  lintTagContracts(graph, report);
  return report;
}

}  // namespace bgp::smpi::analysis
