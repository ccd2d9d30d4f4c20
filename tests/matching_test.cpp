// Tests for the O(1) match table (smpi/match_table.hpp) against a
// reference matcher that reproduces the seed runtime's semantics with
// per-destination deques and linear scans.  The randomized driver is the
// FIFO-exactness oracle: every posted-receive and staged-message decision
// must be identical, operation by operation, to the scan order.

#include "smpi/match_table.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <random>
#include <vector>

#include "smpi/types.hpp"

namespace {

using bgp::smpi::kAnySource;
using bgp::smpi::kAnyTag;
using bgp::smpi::makeOpState;
using bgp::smpi::MatchTable;
using bgp::smpi::Request;

bool wantMatches(int wantSrc, int wantTag, int src, int tag) {
  return (wantSrc == kAnySource || wantSrc == src) &&
         (wantTag == kAnyTag || wantTag == tag);
}

/// The seed's matching structures verbatim: FIFO deques scanned front to
/// back.  Slow, obviously correct — the oracle.
class RefMatcher {
 public:
  explicit RefMatcher(int nDst) : posted_(nDst), staged_(nDst) {}

  void addPosted(int dst, int src, int tag, Request op) {
    posted_[dst].push_back(Posted{src, tag, std::move(op)});
  }

  Request takePostedMatch(int dst, int src, int tag) {
    auto& q = posted_[dst];
    for (auto it = q.begin(); it != q.end(); ++it) {
      if (wantMatches(it->src, it->tag, src, tag)) {
        Request op = std::move(it->op);
        q.erase(it);
        return op;
      }
    }
    return nullptr;
  }

  void addStaged(int dst, MatchTable::Staged msg) {
    staged_[dst].push_back(std::move(msg));
  }

  bool takeStagedMatch(int dst, int wantSrc, int wantTag,
                       MatchTable::Staged& out) {
    auto& q = staged_[dst];
    for (auto it = q.begin(); it != q.end(); ++it) {
      if (wantMatches(wantSrc, wantTag, it->src, it->tag)) {
        out = std::move(*it);
        q.erase(it);
        return true;
      }
    }
    return false;
  }

  const std::deque<MatchTable::Staged>& stagedAt(int dst) const {
    return staged_[dst];
  }
  struct Posted {
    int src, tag;
    Request op;
  };
  const std::deque<Posted>& postedAt(int dst) const { return posted_[dst]; }
  int size() const { return static_cast<int>(posted_.size()); }

 private:
  std::vector<std::deque<Posted>> posted_;
  std::vector<std::deque<MatchTable::Staged>> staged_;
};

}  // namespace

TEST(MatchTable, ConcreteRecvMatchesEarliestArrivalOfItsKey) {
  MatchTable t(4);
  t.addStaged(0, {/*src=*/1, /*tag=*/7, /*bytes=*/10.0, false, nullptr});
  t.addStaged(0, {/*src=*/1, /*tag=*/7, /*bytes=*/20.0, false, nullptr});
  MatchTable::Staged got;
  ASSERT_TRUE(t.takeStagedMatch(0, 1, 7, got));
  EXPECT_EQ(got.bytes, 10.0);
  ASSERT_TRUE(t.takeStagedMatch(0, 1, 7, got));
  EXPECT_EQ(got.bytes, 20.0);
  EXPECT_FALSE(t.takeStagedMatch(0, 1, 7, got));
}

TEST(MatchTable, WildcardRecvTakesEarliestArrivalAcrossKeys) {
  MatchTable t(4);
  t.addStaged(2, {/*src=*/3, /*tag=*/5, /*bytes=*/1.0, false, nullptr});
  t.addStaged(2, {/*src=*/0, /*tag=*/5, /*bytes=*/2.0, false, nullptr});
  t.addStaged(2, {/*src=*/3, /*tag=*/9, /*bytes=*/3.0, false, nullptr});
  MatchTable::Staged got;
  // ANY_SOURCE on tag 5: arrival order across sources, not key order.
  ASSERT_TRUE(t.takeStagedMatch(2, kAnySource, 5, got));
  EXPECT_EQ(got.src, 3);
  EXPECT_EQ(got.bytes, 1.0);
  // ANY_SOURCE/ANY_TAG: earliest remaining arrival overall.
  ASSERT_TRUE(t.takeStagedMatch(2, kAnySource, kAnyTag, got));
  EXPECT_EQ(got.bytes, 2.0);
  // src wildcard-tag: the tag-9 message is all that is left from src 3.
  ASSERT_TRUE(t.takeStagedMatch(2, 3, kAnyTag, got));
  EXPECT_EQ(got.bytes, 3.0);
}

TEST(MatchTable, IncomingMessagePrefersEarliestPostedAcrossWildcardKeys) {
  MatchTable t(4);
  Request any = makeOpState();
  Request exact = makeOpState();
  // The fully-wildcarded receive was posted first, so it must win even
  // though (src=1, tag=1) is a more specific key.
  t.addPosted(0, kAnySource, kAnyTag, any);
  t.addPosted(0, 1, 1, exact);
  EXPECT_EQ(t.takePostedMatch(0, 1, 1), any);
  EXPECT_EQ(t.takePostedMatch(0, 1, 1), exact);
  EXPECT_EQ(t.takePostedMatch(0, 1, 1), nullptr);
}

TEST(MatchTable, AllFourWantedKeysCanMatchOneMessage) {
  // One receive of each wanted shape, all posted before the message.
  for (int winner = 0; winner < 4; ++winner) {
    MatchTable t(2);
    std::vector<Request> ops;
    const int wanted[4][2] = {
        {1, 7}, {kAnySource, 7}, {1, kAnyTag}, {kAnySource, kAnyTag}};
    // Rotate which shape is posted first; it must be the one matched.
    for (int i = 0; i < 4; ++i) {
      const auto& w = wanted[(winner + i) % 4];
      ops.push_back(makeOpState());
      t.addPosted(1, w[0], w[1], ops.back());
    }
    EXPECT_EQ(t.takePostedMatch(1, 1, 7), ops.front()) << "winner=" << winner;
  }
}

TEST(MatchTable, MismatchedTagOrSourceDoesNotMatch) {
  MatchTable t(2);
  Request op = makeOpState();
  t.addPosted(0, 1, 7, op);
  EXPECT_EQ(t.takePostedMatch(0, 1, 8), nullptr);   // wrong tag
  EXPECT_EQ(t.takePostedMatch(0, 0, 7), nullptr);   // wrong source
  EXPECT_EQ(t.takePostedMatch(1, 1, 7), nullptr);   // wrong destination
  EXPECT_EQ(t.takePostedMatch(0, 1, 7), op);
  MatchTable::Staged got;
  t.addStaged(0, {/*src=*/1, /*tag=*/7, /*bytes=*/1.0, false, nullptr});
  EXPECT_FALSE(t.takeStagedMatch(0, 1, 8, got));
  EXPECT_FALSE(t.takeStagedMatch(0, 2, kAnyTag, got));
  EXPECT_TRUE(t.takeStagedMatch(0, kAnySource, 7, got));
}

TEST(MatchTable, SurvivesBucketGrowth) {
  // Enough distinct (dst, src, tag) keys to force several table growths;
  // every queue must stay intact and FIFO across rehashes.
  const int nDst = 64;
  MatchTable t(nDst);
  std::vector<Request> ops;
  for (int dst = 0; dst < nDst; ++dst)
    for (int tag = 0; tag < 16; ++tag) {
      ops.push_back(makeOpState());
      t.addPosted(dst, dst ^ 1, tag, ops.back());
    }
  std::size_t k = 0;
  for (int dst = 0; dst < nDst; ++dst)
    for (int tag = 0; tag < 16; ++tag, ++k)
      ASSERT_EQ(t.takePostedMatch(dst, dst ^ 1, tag), ops[k])
          << "dst=" << dst << " tag=" << tag;
}

TEST(MatchTable, LeakEnumerationsGroupByDstInFifoOrder) {
  MatchTable t(3);
  Request a = makeOpState();
  Request b = makeOpState();
  t.addPosted(2, 0, 4, a);
  t.addPosted(0, kAnySource, kAnyTag, b);
  t.addStaged(2, {/*src=*/1, /*tag=*/9, /*bytes=*/64.0, false, nullptr});
  t.addStaged(2, {/*src=*/1, /*tag=*/9, /*bytes=*/65.0, false, nullptr});
  t.addStaged(1, {/*src=*/0, /*tag=*/3, /*bytes=*/66.0, false, nullptr});

  const auto staged = t.stagedLeaks();
  ASSERT_EQ(staged.size(), 3u);
  EXPECT_EQ(staged[0].dst, 1);
  EXPECT_EQ(staged[0].bytes, 66.0);
  EXPECT_EQ(staged[1].dst, 2);
  EXPECT_EQ(staged[1].bytes, 64.0);  // FIFO within dst 2
  EXPECT_EQ(staged[2].bytes, 65.0);

  const auto posted = t.postedLeaks();
  ASSERT_EQ(posted.size(), 2u);
  EXPECT_EQ(posted[0].dst, 0);
  EXPECT_EQ(posted[0].src, kAnySource);
  EXPECT_EQ(posted[1].dst, 2);
  EXPECT_EQ(posted[1].tag, 4);
}

TEST(MatchTable, LeakEnumerationsNameQueuedOps) {
  // Posted receives and rendezvous sends are still queued (incomplete);
  // an eager message's send completed at injection, even when an
  // observer kept its op attached.
  MatchTable t(2);
  Request recv = makeOpState();
  Request rdv = makeOpState();
  Request eager = makeOpState();
  recv->id = 7;
  rdv->id = 8;
  eager->id = 9;
  t.addPosted(0, 1, 4, recv);
  t.addStaged(1, {/*src=*/0, /*tag=*/5, /*bytes=*/4096.0, true, rdv});
  t.addStaged(1, {/*src=*/0, /*tag=*/6, /*bytes=*/16.0, false, eager});

  const auto posted = t.postedLeaks();
  ASSERT_EQ(posted.size(), 1u);
  EXPECT_EQ(posted[0].op, 7u);
  const auto staged = t.stagedLeaks();
  ASSERT_EQ(staged.size(), 2u);
  EXPECT_EQ(staged[0].op, 8u);
  EXPECT_EQ(staged[1].op, MatchTable::kNoOp);
}

TEST(MatchTable, RandomizedAgainstDequeScanOracle) {
  // One long adversarial run per seed: random interleavings of message
  // arrivals and receive posts over a small (dst, src, tag) space chosen
  // to make wildcard collisions and deep queues common.
  for (unsigned seed : {1u, 2u, 3u, 4u}) {
    std::mt19937 rng(seed);
    const int nDst = 6;
    MatchTable table(nDst);
    RefMatcher ref(nDst);
    std::uniform_int_distribution<int> dstDist(0, nDst - 1);
    std::uniform_int_distribution<int> srcDist(0, nDst - 1);
    std::uniform_int_distribution<int> tagDist(0, 2);
    std::uniform_int_distribution<int> coin(0, 1);
    double nextBytes = 1.0;

    for (int step = 0; step < 20000; ++step) {
      const int dst = dstDist(rng);
      if (coin(rng)) {
        // A message (always concrete src/tag) arrives at dst.
        const int src = srcDist(rng);
        const int tag = tagDist(rng);
        Request got = table.takePostedMatch(dst, src, tag);
        Request want = ref.takePostedMatch(dst, src, tag);
        ASSERT_EQ(got, want) << "seed=" << seed << " step=" << step;
        if (!got) {
          MatchTable::Staged msg{src, tag, nextBytes, false, nullptr};
          nextBytes += 1.0;
          table.addStaged(dst, msg);
          ref.addStaged(dst, msg);
        }
      } else {
        // A receive (possibly wildcarded) is posted at dst.
        const int wantSrc = coin(rng) ? kAnySource : srcDist(rng);
        const int wantTag = coin(rng) ? kAnyTag : tagDist(rng);
        MatchTable::Staged got, want;
        const bool gotOk = table.takeStagedMatch(dst, wantSrc, wantTag, got);
        const bool wantOk = ref.takeStagedMatch(dst, wantSrc, wantTag, want);
        ASSERT_EQ(gotOk, wantOk) << "seed=" << seed << " step=" << step;
        if (gotOk) {
          // bytes is a unique serial, so equality pins the exact message.
          ASSERT_EQ(got.bytes, want.bytes)
              << "seed=" << seed << " step=" << step;
          ASSERT_EQ(got.src, want.src);
          ASSERT_EQ(got.tag, want.tag);
        } else {
          Request op = makeOpState();
          table.addPosted(dst, wantSrc, wantTag, op);
          ref.addPosted(dst, wantSrc, wantTag, op);
        }
      }
    }

    // Finalize: the leak enumerations must mirror the oracle's deques.
    const auto stagedLeaks = table.stagedLeaks();
    const auto postedLeaks = table.postedLeaks();
    std::size_t si = 0, pi = 0;
    for (int dst = 0; dst < nDst; ++dst) {
      for (const auto& msg : ref.stagedAt(dst)) {
        ASSERT_LT(si, stagedLeaks.size());
        EXPECT_EQ(stagedLeaks[si].dst, dst);
        EXPECT_EQ(stagedLeaks[si].src, msg.src);
        EXPECT_EQ(stagedLeaks[si].tag, msg.tag);
        EXPECT_EQ(stagedLeaks[si].bytes, msg.bytes);
        ++si;
      }
      for (const auto& p : ref.postedAt(dst)) {
        ASSERT_LT(pi, postedLeaks.size());
        EXPECT_EQ(postedLeaks[pi].dst, dst);
        EXPECT_EQ(postedLeaks[pi].src, p.src);
        EXPECT_EQ(postedLeaks[pi].tag, p.tag);
        ++pi;
      }
    }
    EXPECT_EQ(si, stagedLeaks.size());
    EXPECT_EQ(pi, postedLeaks.size());
  }
}

// ---- live keys only ---------------------------------------------------------

TEST(MatchTable, DrainedTableHoldsNoKeys) {
  // Every key is erased once both of its queues empty, whichever side
  // drained it; backward-shift deletion keeps the remaining keys findable.
  MatchTable t(8);
  std::vector<Request> ops;
  for (int dst = 0; dst < 8; ++dst)
    for (int src = 0; src < 8; ++src) {
      ops.push_back(makeOpState());
      t.addPosted(dst, src, dst + src, ops.back());
      t.addStaged(src, {dst, 100 + src, 1.0, false, nullptr});
    }
  EXPECT_EQ(t.keys(), 128u);
  std::size_t k = 0;
  for (int dst = 0; dst < 8; ++dst)
    for (int src = 0; src < 8; ++src, ++k) {
      ASSERT_EQ(t.takePostedMatch(dst, src, dst + src), ops[k]);
      MatchTable::Staged got;
      ASSERT_TRUE(t.takeStagedMatch(src, dst, 100 + src, got));
    }
  EXPECT_EQ(t.keys(), 0u);
  EXPECT_TRUE(t.postedLeaks().empty());
  EXPECT_TRUE(t.stagedLeaks().empty());
}

TEST(MatchTable, WildcardCountReturnsToZero) {
  MatchTable t(2);
  Request a = makeOpState(), b = makeOpState(), c = makeOpState();
  t.addPosted(0, kAnySource, 3, a);
  t.addPosted(0, 1, kAnyTag, b);
  t.addPosted(0, 1, 3, c);
  EXPECT_EQ(t.wildcardPosted(), 2u);
  EXPECT_EQ(t.takePostedMatch(0, 1, 3), a);
  EXPECT_EQ(t.wildcardPosted(), 1u);
  EXPECT_EQ(t.takePostedMatch(0, 1, 3), b);
  EXPECT_EQ(t.wildcardPosted(), 0u);
  // With no wildcard posted, the concrete receive is still found.
  EXPECT_EQ(t.takePostedMatch(0, 1, 3), c);
  EXPECT_EQ(t.keys(), 0u);
}

TEST(MatchTable, FifoOrderHoldsAfterKeyIsErasedAndRecreated) {
  MatchTable t(2);
  for (int round = 0; round < 3; ++round) {
    // A concrete receive, then ANY_SOURCE, on the same destination: the
    // message takes the concrete one (posted first), the next the
    // wildcard; the key (1, 5) is erased and re-created every round.
    Request concrete = makeOpState();
    Request any = makeOpState();
    t.addPosted(0, 1, 5, concrete);
    t.addPosted(0, kAnySource, 5, any);
    EXPECT_EQ(t.takePostedMatch(0, 1, 5), concrete) << "round " << round;
    EXPECT_EQ(t.takePostedMatch(0, 1, 5), any) << "round " << round;
    EXPECT_EQ(t.keys(), 0u);
    // Reverse posting order: the wildcard now wins.
    t.addPosted(0, kAnySource, 5, any);
    t.addPosted(0, 1, 5, concrete);
    EXPECT_EQ(t.takePostedMatch(0, 1, 5), any) << "round " << round;
    EXPECT_EQ(t.takePostedMatch(0, 1, 5), concrete) << "round " << round;
    // Staged side: arrival order across an erased-and-recreated key.
    t.addStaged(0, {1, 5, 1.0, false, nullptr});
    t.addStaged(0, {2, 5, 2.0, false, nullptr});
    MatchTable::Staged got;
    ASSERT_TRUE(t.takeStagedMatch(0, 1, 5, got));
    t.addStaged(0, {1, 5, 3.0, false, nullptr});
    ASSERT_TRUE(t.takeStagedMatch(0, kAnySource, 5, got));
    EXPECT_EQ(got.bytes, 2.0);
    ASSERT_TRUE(t.takeStagedMatch(0, kAnySource, kAnyTag, got));
    EXPECT_EQ(got.bytes, 3.0);
    EXPECT_EQ(t.keys(), 0u);
  }
}

TEST(MatchTable, LargeFanInKeepsFifoOrder) {
  // 32,768 sources send two messages each to one destination: every
  // source is its own key; ANY_SOURCE receives see arrival order and
  // concrete receives their source's FIFO.
  constexpr int kSources = 32768;
  MatchTable t(kSources + 1);
  const int dst = kSources;
  for (int rep = 0; rep < 2; ++rep)
    for (int src = 0; src < kSources; ++src)
      t.addStaged(dst, {src, 9, rep * kSources + src + 0.0, false, nullptr});
  EXPECT_EQ(t.keys(), static_cast<std::size_t>(kSources));
  MatchTable::Staged got;
  for (int src = 0; src < kSources; src += 2) {
    ASSERT_TRUE(t.takeStagedMatch(dst, kAnySource, 9, got));
    ASSERT_EQ(got.bytes, src + 0.0);  // earliest arrival overall
    ASSERT_TRUE(t.takeStagedMatch(dst, src + 1, 9, got));
    ASSERT_EQ(got.bytes, src + 1.0);  // earliest from that source
  }
  for (int i = 0; i < kSources; ++i) {
    ASSERT_TRUE(t.takeStagedMatch(dst, kAnySource, kAnyTag, got));
    ASSERT_EQ(got.bytes, kSources + i + 0.0);
  }
  EXPECT_EQ(t.keys(), 0u);
  // Posted side: receives from every source, then one message each.
  std::vector<Request> ops(kSources);
  for (int src = 0; src < kSources; ++src) {
    ops[static_cast<std::size_t>(src)] = makeOpState();
    t.addPosted(dst, src, 9, ops[static_cast<std::size_t>(src)]);
  }
  for (int src = kSources - 1; src >= 0; --src)
    ASSERT_EQ(t.takePostedMatch(dst, src, 9),
              ops[static_cast<std::size_t>(src)]);
  EXPECT_EQ(t.keys(), 0u);
  EXPECT_EQ(t.wildcardPosted(), 0u);
}
