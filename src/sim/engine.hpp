#pragma once
// Discrete-event simulation engine.
//
// The engine owns a priority queue of timed events.  An event is either a
// coroutine handle to resume (the common case: a simulated MPI rank waking
// up) or an arbitrary callback (message arrival bookkeeping, collective
// completion fan-out).  Ties in simulated time are broken by insertion
// order, which makes every simulation fully deterministic.
//
// Hot-path layout (see docs/performance.md): the queue is a ladder queue —
// amortized O(1) per event instead of a binary heap's O(log n) chain of
// data-dependent comparisons:
//
//   * `bottom_`: the imminent band, sorted descending so the minimum pops
//     from the back in O(1).
//   * `rungs_`: nested arrays of time buckets.  Draining a bucket either
//     sorts it into `bottom_` (small buckets) or spawns a finer rung over
//     its span.  Each event passes through a constant number of rungs.
//   * `top_`: unsorted far-future events; converted into a rung when the
//     earlier structures drain.
//   * `nowFifo_`: events scheduled at exactly `now()` — the collective
//     fan-out pattern — bypass the ladder entirely.  Their seq numbers are
//     provably larger than any pending event at the same timestamp, so
//     FIFO order is exact.
//
// Ordering stays exact because every bucket is sorted by the full
// (time, seq) key before anything in it pops, and bucket membership is
// decided by one monotone, clamped index formula shared by scatter and
// insert, so an event can never land in an already-drained region (such
// inserts are routed into the sorted bottom instead).
//
// Event payloads live in a chunked pool of 32-byte slots (a SmallFn; a
// free slot parks its free-list link in the SmallFn's empty buffer) with
// stable addresses, recycled through that free list; a coroutine resume is
// just a callback capturing the handle.  The queue itself moves only
// 16-byte packed keys (time bits | seq | slot).  A bucket frees its key
// storage once its keys move on, so the ladder holds memory in proportion
// to the pending events, not to every bucket ever filled.

#include <algorithm>
#include <bit>
#include <cmath>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/small_function.hpp"
#include "support/expect.hpp"

namespace bgp::sim {

/// Simulated time, in seconds since the start of the run.
using SimTime = double;

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const { return now_; }

  /// Schedules a coroutine to resume at absolute time `t` (>= now).
  void schedule(SimTime t, std::coroutine_handle<> h) {
    scheduleCallback(t, [h] { h.resume(); });
  }

  /// Schedules a callback at absolute time `t` (>= now).  Accepts any
  /// `void()` callable; captures up to SmallFn::kInlineBytes are stored
  /// without heap allocation.
  template <typename F>
  void scheduleCallback(SimTime t, F&& fn) {
    BGP_REQUIRE_MSG(t >= now_, "cannot schedule into the past");
    const std::uint32_t slot = acquireSlot();
    slotAt(slot).fn.emplace(std::forward<F>(fn));
    pushEvent(t, slot);
  }

  /// Arms the watchdog: run() aborts with WatchdogError once more than
  /// `maxEvents` events have been processed, or when the next event lies
  /// beyond `maxSimTime` simulated seconds.  Zero (the default) disables
  /// the corresponding budget.
  void setWatchdog(std::uint64_t maxEvents, SimTime maxSimTime) {
    BGP_REQUIRE_MSG(maxSimTime >= 0.0, "watchdog sim-time budget < 0");
    wdMaxEvents_ = maxEvents;
    wdMaxSimTime_ = maxSimTime;
  }

  /// Runs until the event queue drains.  Returns the final simulated time.
  SimTime run() {
    while (pending_ != 0) {
      if (wdMaxEvents_ > 0 && eventsProcessed_ >= wdMaxEvents_)
        watchdogAbort("event budget exhausted");
      if (wdMaxSimTime_ > 0 && nextEventTime() > wdMaxSimTime_)
        watchdogAbort("simulated-time budget exhausted");
      step();
    }
    return now_;
  }

  /// Processes exactly one event; returns false if the queue was empty.
  bool step() {
    if (pending_ == 0) return false;
    std::uint32_t slot;
    if (!bottom_.empty() && keyTime(bottom_.back()) == now_) {
      slot = keySlot(bottom_.back());
      bottom_.pop_back();
    } else if (nowHead_ < nowFifo_.size()) {
      slot = nowFifo_[nowHead_++];
      if (nowHead_ == nowFifo_.size()) {
        nowFifo_.clear();
        nowHead_ = 0;
      }
    } else {
      if (bottom_.empty()) {
        refillBottom();
        BGP_CHECK(!bottom_.empty());
      }
      const Key k = bottom_.back();
      bottom_.pop_back();
      const SimTime t = keyTime(k);
      BGP_CHECK(t >= now_);
      now_ = t;
      slot = keySlot(k);
    }
    --pending_;
    if (pending_ == 0) resetEpoch();
    // Invoke in place: the chunked slot pool is address-stable, so events
    // the callback schedules (which may grow the pool) cannot move it, and
    // the slot is only released afterwards so it cannot be reused under a
    // running callback.
    Slot& s = slotAt(slot);
    s.fn();
    s.fn.reset();
    releaseSlot(slot);
    ++eventsProcessed_;
    return true;
  }

  bool empty() const { return pending_ == 0; }
  std::uint64_t eventsProcessed() const { return eventsProcessed_; }
  std::size_t pending() const { return pending_; }
  /// High-water mark of the pending-event count (queue pressure metric
  /// surfaced by the observability plane).
  std::size_t peakPending() const { return peakPending_; }

  /// Key capacity the ladder currently holds (bottom band, rung buckets,
  /// top).  Drained buckets release theirs, so once the queue empties this
  /// is about one bucket's worth, whatever the peak was.
  std::size_t retainedKeyCapacity() const {
    std::size_t n = bottom_.capacity() + top_.capacity();
    for (const Rung& r : rungs_)
      for (const auto& b : r.buckets) n += b.capacity();
    return n;
  }
  /// Deepest the ladder has been (rungs alive at once).
  std::size_t ladderDepth() const { return rungs_.size(); }
  /// Bytes per pending-event slot (footprint gates).
  static constexpr std::size_t slotBytes() { return sizeof(Slot); }

 private:
  /// Packed event key: [63..0 of time's bit pattern | 40-bit seq | 24-bit
  /// slot].  Times are non-negative doubles, whose IEEE-754 bit patterns
  /// order identically to their values, so a single 128-bit compare orders
  /// events by (time, seq).  The slot bits never influence ordering
  /// because seq is unique.
  __extension__ using Key = unsigned __int128;  // GCC/Clang 128-bit extension
  static constexpr int kSlotBits = 24;
  static constexpr std::uint32_t kMaxSlots = 1u << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = 1ull << 40;

  /// Buckets at or below this size sort straight into the bottom band.
  static constexpr std::size_t kBottomThresh = 64;
  static constexpr std::uint32_t kNumBuckets = 128;
  static constexpr std::size_t kMaxRungs = 40;  // degenerate-span guard

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// Two slots per cache line; a free slot's link lives in its empty fn.
  struct alignas(32) Slot {
    SmallFn fn;
  };
  static_assert(sizeof(Slot) == 32, "an event slot is half a cache line");
  /// Slots live in fixed-size chunks so their addresses survive pool
  /// growth — step() relies on that to run callbacks in place.
  static constexpr std::uint32_t kSlotChunkShift = 8;
  static constexpr std::uint32_t kSlotChunkSize = 1u << kSlotChunkShift;

  struct Rung {
    double start = 0.0;
    double inv = 0.0;  // 1 / bucket width
    std::uint32_t cursor = 0;
    std::vector<std::vector<Key>> buckets;
  };

  static SimTime keyTime(Key k) {
    return std::bit_cast<double>(static_cast<std::uint64_t>(k >> 64));
  }
  static std::uint32_t keySlot(Key k) {
    return static_cast<std::uint32_t>(k) & (kMaxSlots - 1);
  }
  Key makeKey(SimTime t, std::uint32_t slot) {
    BGP_CHECK(nextSeq_ < kMaxSeq);
    return (static_cast<Key>(std::bit_cast<std::uint64_t>(t)) << 64) |
           (static_cast<Key>(nextSeq_++) << kSlotBits) | slot;
  }

  /// The one bucket-index formula, shared by scatter and insert.  Monotone
  /// non-decreasing in `t` and clamped to a valid bucket, so equal times
  /// always share a bucket and boundary rounding can only shift an event
  /// into a *later* (undrained) bucket, never an earlier one.
  static std::uint32_t bucketIdx(const Rung& r, SimTime t) {
    const double x = (t - r.start) * r.inv;
    if (!(x > 0.0)) return 0;  // negatives and NaN clamp low
    constexpr double cap = kNumBuckets - 1;
    return x >= cap ? kNumBuckets - 1 : static_cast<std::uint32_t>(x);
  }

  Slot& slotAt(std::uint32_t slot) {
    return chunks_[slot >> kSlotChunkShift][slot & (kSlotChunkSize - 1)];
  }

  std::uint32_t acquireSlot() {
    if (freeHead_ != kNoSlot) {
      const std::uint32_t slot = freeHead_;
      freeHead_ = slotAt(slot).fn.parkedLink();
      return slot;
    }
    if (slotCount_ == chunks_.size() * kSlotChunkSize) {
      BGP_REQUIRE_MSG(slotCount_ < kMaxSlots, "too many pending events");
      chunks_.push_back(std::make_unique<Slot[]>(kSlotChunkSize));
    }
    return slotCount_++;
  }

  void releaseSlot(std::uint32_t slot) {
    slotAt(slot).fn.parkLink(freeHead_);
    freeHead_ = slot;
  }

  void pushEvent(SimTime t, std::uint32_t slot) {
    t += 0.0;  // canonicalize -0.0, whose bit pattern would misorder
    ++pending_;
    if (pending_ > peakPending_) peakPending_ = pending_;
    if (t == now_) {
      // Exactly-now events are FIFO-exact: any pending event at this
      // timestamp was sequenced earlier (seq is globally monotone), so
      // the sorted structures drain first and this queue preserves order.
      nowFifo_.push_back(slot);
      return;
    }
    if (t >= topStart_) {
      top_.push_back(makeKey(t, slot));
      topMin_ = std::min(topMin_, t);
      topMax_ = std::max(topMax_, t);
      return;
    }
    const Key key = makeKey(t, slot);
    for (std::size_t r = 0; r < rungDepth_;) {
      Rung& rung = rungs_[r];
      const std::uint32_t idx = bucketIdx(rung, t);
      if (idx >= rung.cursor) {
        rung.buckets[idx].push_back(key);
        return;
      }
      if (idx + 1 == rung.cursor && r + 1 < rungDepth_) {
        ++r;  // the bucket being drained was subdivided; descend
        continue;
      }
      break;  // drained region: belongs in the bottom band
    }
    insertBottom(key);
  }

  void insertBottom(Key key) {
    const auto pos = std::upper_bound(bottom_.begin(), bottom_.end(), key,
                                      std::greater<Key>());
    bottom_.insert(pos, key);
  }

  /// Frees `v`'s storage.  Drained buckets must not keep capacity: at
  /// 131,072 ranks, storage parked in empty buckets outweighed the live
  /// keys ten to one.
  static void release(std::vector<Key>& v) { std::vector<Key>().swap(v); }

  /// Moves `v` (sorted descending) into the bottom band; the band's old
  /// storage is freed.
  void adoptBottom(std::vector<Key>& v) {
    std::sort(v.begin(), v.end(), std::greater<Key>());
    bottom_.swap(v);
    release(v);
  }

  /// Refills the bottom band from the rungs (deepest first) or the top.
  /// Precondition: bottom empty, pending events exist outside nowFifo_.
  void refillBottom() {
    for (;;) {
      while (rungDepth_ != 0) {
        Rung& r = rungs_[rungDepth_ - 1];
        while (r.cursor < kNumBuckets && r.buckets[r.cursor].empty())
          ++r.cursor;
        if (r.cursor == kNumBuckets) {
          --rungDepth_;  // rung exhausted; keep its header for reuse
          continue;
        }
        std::vector<Key>& b = r.buckets[r.cursor];
        const double width = 1.0 / r.inv;
        const double bStart = r.start + r.cursor * width;
        const double bEnd = bStart + width;
        ++r.cursor;
        const bool degenerate =
            !(bEnd > bStart) ||
            bStart + (bEnd - bStart) / kNumBuckets == bStart;
        if (b.size() <= kBottomThresh || degenerate ||
            rungDepth_ >= kMaxRungs) {
          adoptBottom(b);
          return;
        }
        spawnRung(b, bStart, bEnd);
      }
      if (top_.empty()) return;
      transferTop();
    }
  }

  void spawnRung(std::vector<Key>& b, double start, double end) {
    Rung& rung = growRungs();
    rung.start = start;
    rung.inv = kNumBuckets / (end - start);
    for (const Key k : b)
      rung.buckets[bucketIdx(rung, keyTime(k))].push_back(k);
    release(b);
  }

  Rung& growRungs() {
    if (rungDepth_ == rungs_.size()) {
      rungs_.emplace_back();
      rungs_.back().buckets.resize(kNumBuckets);
    }
    // A reused rung's buckets were all drained (and released); just reset
    // the cursor.
    Rung& rung = rungs_[rungDepth_++];
    rung.cursor = 0;
    return rung;
  }

  void transferTop() {
    const double span = topMax_ - topMin_;
    const bool tiny = top_.size() <= kBottomThresh;
    const bool degenerate =
        !(span > 0.0) || topMin_ + span / kNumBuckets == topMin_;
    if (tiny || degenerate) {
      adoptBottom(top_);
      topStart_ = std::nextafter(topMax_, kInf);
    } else {
      Rung& rung = growRungs();
      rung.start = topMin_;
      rung.inv = kNumBuckets / span;
      for (const Key k : top_)
        rung.buckets[bucketIdx(rung, keyTime(k))].push_back(k);
      release(top_);
      topStart_ = std::nextafter(topMax_, kInf);
    }
    topMin_ = kInf;
    topMax_ = -kInf;
  }

  /// Simulated time of the next event (refills the bottom band if needed).
  /// Precondition: pending_ > 0.
  SimTime nextEventTime() {
    if (!bottom_.empty() && keyTime(bottom_.back()) == now_) return now_;
    if (nowHead_ < nowFifo_.size()) return now_;
    if (bottom_.empty()) refillBottom();
    return keyTime(bottom_.back());
  }

  /// Called when the queue fully drains: new events start a fresh epoch
  /// routed through the top.
  void resetEpoch() {
    rungDepth_ = 0;  // all buckets are drained and released by now
    topStart_ = -kInf;
    topMin_ = kInf;
    topMax_ = -kInf;
  }

  [[noreturn]] void watchdogAbort(const char* why) const {
    throw WatchdogError(
        "simulation watchdog: " + std::string(why) + " (events processed " +
        std::to_string(eventsProcessed_) + "/" +
        (wdMaxEvents_ ? std::to_string(wdMaxEvents_) : std::string("inf")) +
        ", simulated time " + std::to_string(now_) + " s of " +
        (wdMaxSimTime_ > 0 ? std::to_string(wdMaxSimTime_) + " s budget"
                           : std::string("unbounded")) +
        ", " + std::to_string(pending_) +
        " events pending; likely a runaway or livelocked program)");
  }

  static constexpr double kInf = std::numeric_limits<double>::infinity();

  SimTime now_ = 0.0;
  std::uint64_t wdMaxEvents_ = 0;
  SimTime wdMaxSimTime_ = 0.0;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t eventsProcessed_ = 0;
  std::size_t pending_ = 0;
  std::size_t peakPending_ = 0;

  std::vector<Key> bottom_;             // sorted descending; min at back
  std::vector<std::uint32_t> nowFifo_;  // slots of events at exactly now()
  std::size_t nowHead_ = 0;
  /// rungs_[i+1] subdivides a bucket of rungs_[i]; only the first
  /// rungDepth_ entries are active, the rest are kept as capacity pool.
  std::vector<Rung> rungs_;
  std::size_t rungDepth_ = 0;
  std::vector<Key> top_;  // unsorted far future
  double topStart_ = -kInf;    // events at/after this time go to top_
  double topMin_ = kInf;
  double topMax_ = -kInf;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slotCount_ = 0;
  std::uint32_t freeHead_ = kNoSlot;
};

}  // namespace bgp::sim
