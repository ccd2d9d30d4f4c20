#pragma once
// O(1) MPI message matching for paper-scale worlds.
//
// The seed runtime kept two deques per destination rank (posted receives,
// staged messages) and matched by linear scan.  That is O(queue) per
// message and — worse at 131,072 ranks — costs ~1.2 KiB of deque headers
// per rank per communicator before a single message flows.  This table
// replaces both with one open-addressing hash map keyed on the full
// (dst, src, tag) triple plus per-node intrusive lists, giving O(1)
// expected matching and O(#live messages) memory.
//
// FIFO-exactness argument (the ANY_SOURCE/ANY_TAG pinning tests in
// tests/smpi_test.cpp and tests/matching_test.cpp are the oracle):
//
//  * Posted receives are stored under their *wanted* key — wildcards are
//    key values, not scan predicates.  An incoming message (src, tag) can
//    only match one of four wanted keys at its destination:
//    (src,tag), (ANY,tag), (src,ANY), (ANY,ANY).  Each key's queue is
//    FIFO by post order, and every posted receive carries a global post
//    sequence number; probing the four queue heads and taking the
//    smallest sequence is exactly "the earliest posted matching receive".
//  * Staged messages are stored under their concrete (src, tag) key and
//    additionally threaded onto a per-destination arrival list.  A
//    concrete receive pops the head of its single key queue ("earliest
//    arrival from that source/tag" — nothing else can match it).  A
//    wildcard receive walks the arrival list front-to-back and takes the
//    first match — the seed's scan order verbatim.  Both removals are
//    head-pops of the victim's key queue: the earliest arrival-list match
//    with key K is necessarily the earliest K arrival.

#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "smpi/types.hpp"

namespace bgp::smpi {

class MatchTable {
 public:
  /// `nDst`: number of destination (comm) ranks; sizes the per-dst
  /// arrival-list heads (8 bytes per rank — the only per-rank state).
  explicit MatchTable(int nDst);

  struct Staged {
    int src = -1;  // sender comm rank
    int tag = -1;
    double bytes = 0.0;
    bool rendezvous = false;  // true: RTS only, payload not yet moved
    Request sendOp;  // rendezvous: sender completion; eager: null unless
                     // an observer (capture, profiler) records matches
    sim::SimTime ready = 0.0;
  };

  /// Appends a posted receive under its wanted (possibly wildcard) key.
  void addPosted(int dst, int srcWanted, int tagWanted, Request op);

  /// Removes and returns the earliest posted receive matching an incoming
  /// (src, tag) message at `dst`, or null if none matches.
  Request takePostedMatch(int dst, int src, int tag);

  /// Stages an arrived message (no matching receive was posted).
  void addStaged(int dst, Staged msg);

  /// Removes the earliest staged message matching a receive posted with
  /// (srcWanted, tagWanted) at `dst` into `out`; false if none matches.
  bool takeStagedMatch(int dst, int srcWanted, int tagWanted, Staged& out);

  // ---- finalize-time enumeration (verifier leak scans) ---------------------
  // Both run in one pass over the pools and return entries grouped by dst
  // (ascending) in FIFO order within each dst — the order the seed's
  // per-dst deque scan produced.  `op` is the id of the op still queued
  // in the entry, which has therefore not completed: the posted receive,
  // or a rendezvous send awaiting its receiver.  An eager message's send
  // completed at injection, so its entry carries kNoOp.
  static constexpr std::uint64_t kNoOp = ~std::uint64_t{0};
  struct StagedLeak {
    int dst, src, tag;
    double bytes;
    std::uint64_t op;
  };
  struct PostedLeak {
    int dst, src, tag;
    std::uint64_t op;
  };
  std::vector<StagedLeak> stagedLeaks() const;
  std::vector<PostedLeak> postedLeaks() const;

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct PostedNode {
    Request op;
    std::uint64_t seq = 0;  // global post order
    int dst = -1, src = -1, tag = -1;
    std::uint32_t next = kNil;  // key-queue FIFO link
    bool live = false;
  };
  struct StagedNode {
    Staged msg;
    int dst = -1;
    std::uint32_t keyNext = kNil;          // key-queue FIFO link
    std::uint32_t dstPrev = kNil, dstNext = kNil;  // per-dst arrival list
    bool live = false;
  };
  struct Bucket {
    int dst = -1;  // -1 = empty slot (dst is always >= 0 for real keys)
    int src = -1;
    int tag = -1;
    std::uint32_t postedHead = kNil, postedTail = kNil;
    std::uint32_t stagedHead = kNil, stagedTail = kNil;
  };

  static std::uint64_t hashKey(int dst, int src, int tag);
  /// Index of the bucket for the key, or kNil if absent.
  std::uint32_t findBucket(int dst, int src, int tag) const;
  /// Index of the bucket for the key, inserting (and growing) if needed.
  std::uint32_t findOrCreateBucket(int dst, int src, int tag);
  void grow();

  std::uint32_t allocPosted();
  void freePosted(std::uint32_t idx);
  std::uint32_t allocStaged();
  void freeStaged(std::uint32_t idx);
  /// Pops the head of a bucket's staged queue (asserting it is `idx`) and
  /// unlinks the node from its dst arrival list.
  void detachStaged(Bucket& b, std::uint32_t idx);

  std::vector<Bucket> buckets_;  // power-of-two sized, linear probing
  std::size_t bucketMask_ = 0;
  std::size_t bucketsUsed_ = 0;  // keys are never erased -> no tombstones

  std::vector<PostedNode> posted_;
  std::vector<StagedNode> staged_;
  std::uint32_t postedFree_ = kNil;
  std::uint32_t stagedFree_ = kNil;
  std::uint64_t nextPostSeq_ = 0;

  std::vector<std::uint32_t> dstHead_, dstTail_;  // staged arrival lists
};

}  // namespace bgp::smpi
