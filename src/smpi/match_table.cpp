#include "smpi/match_table.hpp"

#include <algorithm>

#include "support/expect.hpp"

namespace bgp::smpi {

MatchTable::MatchTable(int nDst) {
  BGP_REQUIRE(nDst >= 0);  // Comm rejects empty member lists itself
  buckets_.assign(16, Bucket{});
  bucketMask_ = buckets_.size() - 1;
  dstHead_.assign(static_cast<std::size_t>(nDst), kNil);
  dstTail_.assign(static_cast<std::size_t>(nDst), kNil);
}

std::uint64_t MatchTable::hashKey(int dst, int src, int tag) {
  // splitmix64 finalizer over the packed (dst, src) pair, re-mixed with
  // the tag; wildcards (-1) hash like any other value.
  std::uint64_t z =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) << 32) |
      static_cast<std::uint32_t>(src);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z ^= static_cast<std::uint32_t>(tag);
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint32_t MatchTable::findBucket(int dst, int src, int tag) const {
  std::size_t i = hashKey(dst, src, tag) & bucketMask_;
  for (;;) {
    const Bucket& b = buckets_[i];
    if (b.dst == -1) return kNil;
    if (b.dst == dst && b.src == src && b.tag == tag)
      return static_cast<std::uint32_t>(i);
    i = (i + 1) & bucketMask_;
  }
}

std::uint32_t MatchTable::findOrCreateBucket(int dst, int src, int tag) {
  if ((bucketsUsed_ + 1) * 10 >= buckets_.size() * 7) grow();
  std::size_t i = hashKey(dst, src, tag) & bucketMask_;
  for (;;) {
    Bucket& b = buckets_[i];
    if (b.dst == -1) {
      b.dst = dst;
      b.src = src;
      b.tag = tag;
      ++bucketsUsed_;
      return static_cast<std::uint32_t>(i);
    }
    if (b.dst == dst && b.src == src && b.tag == tag)
      return static_cast<std::uint32_t>(i);
    i = (i + 1) & bucketMask_;
  }
}

void MatchTable::eraseIfEmpty(std::uint32_t i) {
  if (buckets_[i].postedHead != kNil || buckets_[i].stagedHead != kNil)
    return;
  // Backward-shift deletion: walk the probe run after the hole; a member
  // whose home slot does not lie cyclically in (hole, j] may move into
  // the hole, which then moves to j.
  std::size_t hole = i;
  for (std::size_t j = (hole + 1) & bucketMask_; buckets_[j].dst != -1;
       j = (j + 1) & bucketMask_) {
    const Bucket& b = buckets_[j];
    const std::size_t home = hashKey(b.dst, b.src, b.tag) & bucketMask_;
    if (((j - home) & bucketMask_) < ((j - hole) & bucketMask_)) continue;
    buckets_[hole] = b;
    hole = j;
  }
  buckets_[hole] = Bucket{};
  --bucketsUsed_;
}

void MatchTable::grow() {
  std::vector<Bucket> old = std::move(buckets_);
  buckets_.assign(old.size() * 2, Bucket{});
  bucketMask_ = buckets_.size() - 1;
  for (Bucket& b : old) {
    if (b.dst == -1) continue;
    std::size_t i = hashKey(b.dst, b.src, b.tag) & bucketMask_;
    while (buckets_[i].dst != -1) i = (i + 1) & bucketMask_;
    buckets_[i] = std::move(b);
  }
}

std::uint32_t MatchTable::allocPosted() {
  if (postedFree_ != kNil) {
    const std::uint32_t idx = postedFree_;
    postedFree_ = posted_[idx].next;
    return idx;
  }
  posted_.emplace_back();
  return static_cast<std::uint32_t>(posted_.size() - 1);
}

void MatchTable::freePosted(std::uint32_t idx) {
  PostedNode& n = posted_[idx];
  n.op = nullptr;  // drop the Request reference now, not at pool reuse
  n.next = postedFree_;
  postedFree_ = idx;
}

std::uint32_t MatchTable::allocStaged() {
  if (stagedFree_ != kNil) {
    const std::uint32_t idx = stagedFree_;
    stagedFree_ = staged_[idx].keyNext;
    return idx;
  }
  staged_.emplace_back();
  return static_cast<std::uint32_t>(staged_.size() - 1);
}

void MatchTable::freeStaged(std::uint32_t idx) {
  StagedNode& n = staged_[idx];
  n.msg = Staged{};  // drop the sendOp reference
  n.keyNext = stagedFree_;
  stagedFree_ = idx;
}

void MatchTable::addPosted(int dst, int srcWanted, int tagWanted,
                           Request op, double expectedBytes) {
  const std::uint32_t idx = allocPosted();
  PostedNode& n = posted_[idx];
  n.op = std::move(op);
  n.seq = nextPostSeq_++;
  n.expectedBytes = expectedBytes;
  n.dst = dst;
  n.src = srcWanted;
  n.tag = tagWanted;
  n.next = kNil;
  if (srcWanted == kAnySource || tagWanted == kAnyTag) ++wildcardPosted_;
  const std::uint32_t bi = findOrCreateBucket(dst, srcWanted, tagWanted);
  Bucket& b = buckets_[bi];
  if (b.postedTail == kNil) {
    b.postedHead = b.postedTail = idx;
  } else {
    posted_[b.postedTail].next = idx;
    b.postedTail = idx;
  }
}

Request MatchTable::takePostedMatch(int dst, int src, int tag,
                                    double* expectedBytes) {
  // The four wanted keys an incoming (src, tag) message can match; with
  // no wildcard receive posted only the concrete one can hold a receive.
  const int srcs[2] = {src, kAnySource};
  const int tags[2] = {tag, kAnyTag};
  const int shapes = wildcardPosted_ == 0 ? 1 : 4;
  std::uint32_t best = kNil;
  std::uint64_t bestSeq = 0;
  for (int k = 0; k < shapes; ++k) {
    const std::uint32_t bi = findBucket(dst, srcs[k >> 1], tags[k & 1]);
    if (bi == kNil) continue;
    const std::uint32_t head = buckets_[bi].postedHead;
    if (head == kNil) continue;
    const std::uint64_t seq = posted_[head].seq;
    if (best == kNil || seq < bestSeq) {
      best = bi;
      bestSeq = seq;
    }
  }
  if (best == kNil) return nullptr;
  Bucket& b = buckets_[best];
  const std::uint32_t idx = b.postedHead;
  PostedNode& n = posted_[idx];
  b.postedHead = n.next;
  if (b.postedHead == kNil) b.postedTail = kNil;
  if (n.src == kAnySource || n.tag == kAnyTag) --wildcardPosted_;
  if (expectedBytes) *expectedBytes = n.expectedBytes;
  Request op = std::move(n.op);
  freePosted(idx);
  eraseIfEmpty(best);
  return op;
}

void MatchTable::addStaged(int dst, Staged msg) {
  const std::uint32_t idx = allocStaged();
  StagedNode& n = staged_[idx];
  n.msg = std::move(msg);
  n.dst = dst;
  n.keyNext = kNil;
  const std::uint32_t bi = findOrCreateBucket(dst, n.msg.src, n.msg.tag);
  Bucket& b = buckets_[bi];
  if (b.stagedTail == kNil) {
    b.stagedHead = b.stagedTail = idx;
  } else {
    staged_[b.stagedTail].keyNext = idx;
    b.stagedTail = idx;
  }
  // Append to the dst arrival list (wildcard receives scan this).
  const auto d = static_cast<std::size_t>(dst);
  n.dstPrev = dstTail_[d];
  n.dstNext = kNil;
  if (dstTail_[d] == kNil) {
    dstHead_[d] = idx;
  } else {
    staged_[dstTail_[d]].dstNext = idx;
  }
  dstTail_[d] = idx;
}

void MatchTable::detachStaged(Bucket& b, std::uint32_t idx) {
  StagedNode& n = staged_[idx];
  // Any match found through either lookup path is the earliest arrival
  // with its key, i.e. its key queue's head (see header argument).
  BGP_CHECK(b.stagedHead == idx);
  b.stagedHead = n.keyNext;
  if (b.stagedHead == kNil) b.stagedTail = kNil;
  const auto d = static_cast<std::size_t>(n.dst);
  if (n.dstPrev == kNil) {
    dstHead_[d] = n.dstNext;
  } else {
    staged_[n.dstPrev].dstNext = n.dstNext;
  }
  if (n.dstNext == kNil) {
    dstTail_[d] = n.dstPrev;
  } else {
    staged_[n.dstNext].dstPrev = n.dstPrev;
  }
}

bool MatchTable::takeStagedMatch(int dst, int srcWanted, int tagWanted,
                                 Staged& out) {
  std::uint32_t idx = kNil;
  std::uint32_t bi = kNil;
  if (srcWanted != kAnySource && tagWanted != kAnyTag) {
    // Concrete key: only messages with exactly this (src, tag) match.
    bi = findBucket(dst, srcWanted, tagWanted);
    if (bi != kNil) idx = buckets_[bi].stagedHead;
  } else {
    // Wildcard: first match in arrival order at this destination.
    for (std::uint32_t i = dstHead_[static_cast<std::size_t>(dst)];
         i != kNil; i = staged_[i].dstNext) {
      const StagedNode& n = staged_[i];
      if ((srcWanted == kAnySource || srcWanted == n.msg.src) &&
          (tagWanted == kAnyTag || tagWanted == n.msg.tag)) {
        idx = i;
        bi = findBucket(dst, n.msg.src, n.msg.tag);
        break;
      }
    }
  }
  if (idx == kNil) return false;
  BGP_CHECK(bi != kNil);
  detachStaged(buckets_[bi], idx);
  out = std::move(staged_[idx].msg);
  freeStaged(idx);
  eraseIfEmpty(bi);
  return true;
}

std::vector<MatchTable::StagedLeak> MatchTable::stagedLeaks() const {
  std::vector<StagedLeak> out;
  for (std::size_t d = 0; d < dstHead_.size(); ++d) {
    for (std::uint32_t i = dstHead_[d]; i != kNil; i = staged_[i].dstNext) {
      const Staged& m = staged_[i].msg;
      out.push_back(StagedLeak{static_cast<int>(d), m.src, m.tag, m.bytes,
                               m.rendezvous ? m.sendOp->id : kNoOp});
    }
  }
  return out;
}

std::vector<MatchTable::PostedLeak> MatchTable::postedLeaks() const {
  // Posted receives keep no per-dst list (nothing at runtime needs one);
  // collect the live pool once and sort by (dst, post order) to recover
  // the per-destination FIFO enumeration the leak reports promise.
  std::vector<std::pair<std::uint64_t, PostedLeak>> live;
  for (const PostedNode& n : posted_) {
    if (!n.op) continue;
    live.push_back({n.seq, PostedLeak{n.dst, n.src, n.tag, n.op->id}});
  }
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) {
              if (a.second.dst != b.second.dst)
                return a.second.dst < b.second.dst;
              return a.first < b.first;
            });
  std::vector<PostedLeak> out;
  out.reserve(live.size());
  for (auto& [seq, leak] : live) out.push_back(leak);
  return out;
}

}  // namespace bgp::smpi
