#pragma once
// Shared vocabulary types for the simulated MPI runtime.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/collective_model.hpp"
#include "support/arena.hpp"
#include "support/expect.hpp"

namespace bgp::smpi {

/// Wildcards, as in MPI_ANY_SOURCE / MPI_ANY_TAG.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Reduction operator of a reduce/allreduce (MPI_Op equivalent).  Purely
/// semantic — the timing model is operator-independent — but the runtime
/// verifier checks that all ranks of a collective agree on it.
enum class ReduceOp : std::uint8_t { None, Sum, Min, Max, Prod };

inline const char* toString(ReduceOp op) {
  switch (op) {
    case ReduceOp::None: return "none";
    case ReduceOp::Sum: return "sum";
    case ReduceOp::Min: return "min";
    case ReduceOp::Max: return "max";
    case ReduceOp::Prod: return "prod";
  }
  return "?";
}

/// What every member of a collective must agree on: the runtime's gate
/// keeps its opener's, the verifier checks each arrival against it, and
/// the profiler and the op-graph record it per arrival.
struct CollSig {
  int root = -1;
  net::CollKind kind{};
  ReduceOp rop = ReduceOp::None;
  net::Dtype dt{};
};
static_assert(sizeof(CollSig) == 8);

/// Completion info for a receive (MPI_Status equivalent).
struct RecvInfo {
  int source = -1;
  int tag = -1;
  double bytes = 0.0;
};

/// Thrown when a simulated application exceeds the per-task memory of the
/// current execution mode (e.g. GYRO B3-gtc in VN mode on BG/P, which the
/// paper had to run in DUAL mode).
class OutOfMemoryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct OpState;

/// A completion waiter: two words, no captures.  `fire(ctx, op)` runs when
/// `op` completes; `ctx` is the registrant itself (an awaiter living in
/// the suspended coroutine frame), so a waiter owns no storage and needs
/// no destructor.  Observers do not register waiters: Simulation notifies
/// them of completions directly.
struct Waiter {
  void (*fire)(void* ctx, OpState& op) = nullptr;
  void* ctx = nullptr;
  friend bool operator==(const Waiter&, const Waiter&) = default;
};

/// State of one in-flight operation (send, recv, or collective slot).
/// Completion fires the registered waiters in registration order; they
/// resume awaiting coroutines via the engine at the current simulated
/// time.  Lives in the creating thread's arena, one 64-byte granule, and
/// is reference-counted by Request handles (non-atomically: a Simulation
/// and its ops are confined to one thread at a time).
struct OpState {
  /// What the op stands for.
  enum class Kind : std::uint8_t { Send, Recv, Collective };

  OpState() : peer(-1), tag(-1) {}
  OpState(const OpState&) = delete;
  OpState& operator=(const OpState&) = delete;

  static void* operator new(std::size_t n) {
    return support::arenaAllocate(n);
  }
  static void operator delete(void* p, std::size_t n) noexcept {
    support::arenaDeallocate(p, n);
  }

 private:
  friend class Request;
  std::uint32_t refs_ = 0;

 public:
  bool complete = false;
  Kind kind = Kind::Send;

  /// Per-Simulation creation index (0, 1, 2, ...): the key observers
  /// record ops under, so none needs to keep an op alive to tell it apart
  /// from a later one reusing its arena block.
  std::uint64_t id = 0;

  // ---- filled at creation (wait-chain reporter, verifier, profiler) -------
  int ownerWorld = -1;  // world rank that created the operation
  int commId = -1;      // communicator the op runs in
  union {
    // Send: destination comm rank and tag.  Recv: the wanted source (or
    // kAnySource) and tag (or kAnyTag) until the receive matches, then the
    // matched message's — info() reads them back.
    struct {
      int peer;
      int tag;
    };
    std::uint64_t collSeq;  // collective: the gate's sequence number
  };
  /// Send: payload size.  Recv: the matched message's size once matched.
  /// Collective: the gate's largest payload so far.
  double bytes = 0.0;

  /// Completion info of a receive (MPI_Status equivalent); meaningful once
  /// the receive matched, default for sends and collectives.
  RecvInfo info() const {
    return kind == Kind::Recv ? RecvInfo{peer, tag, bytes} : RecvInfo{};
  }

  /// Registers `w` to fire on completion (immediately if already
  /// complete).  The first waiter lives inline — a p2p op has exactly one
  /// awaiter in every benchmark — and only a shared collective op (one
  /// OpState awaited by every member rank) spills the rest out of line.
  void onComplete(Waiter w) {
    if (complete) {
      w.fire(w.ctx, *this);
    } else if (!first_.fire) {
      first_ = w;
    } else {
      if (!spill_) spill_ = std::make_unique<std::vector<Waiter>>();
      spill_->push_back(w);
    }
  }

  /// Unregisters one earlier registration of `w` (which must still be
  /// pending), keeping the others in registration order.
  void removeWaiter(Waiter w) {
    if (first_ == w) {
      if (!spill_ || spill_->empty()) {
        first_ = Waiter{};
      } else {
        first_ = spill_->front();
        spill_->erase(spill_->begin());
      }
      return;
    }
    BGP_CHECK_MSG(spill_, "removing an unregistered waiter");
    const auto it = std::find(spill_->begin(), spill_->end(), w);
    BGP_CHECK_MSG(it != spill_->end(), "removing an unregistered waiter");
    spill_->erase(it);
  }

  /// Waiters registered and not yet fired (diagnostics / tests).
  std::size_t pendingWaiters() const {
    return (first_.fire ? 1 : 0) + (spill_ ? spill_->size() : 0);
  }

  void finish() {
    BGP_CHECK_MSG(!complete, "operation completed twice");
    complete = true;
    if (first_.fire) {
      const Waiter w = std::exchange(first_, Waiter{});
      w.fire(w.ctx, *this);
    }
    if (spill_) {
      // Registration order: first_, then the spill front-to-back.
      const std::unique_ptr<std::vector<Waiter>> ws = std::move(spill_);
      for (const Waiter& w : *ws) w.fire(w.ctx, *this);
    }
  }

 private:
  Waiter first_;
  std::unique_ptr<std::vector<Waiter>> spill_;  // the gates' later waiters
};
static_assert(sizeof(OpState) <= support::Arena::kGranule,
              "an OpState fills one arena granule");

/// "send" / "recv" / "collective": the names deadlock reports and
/// Rank::blockedOn() use.
inline const char* toString(OpState::Kind k) {
  switch (k) {
    case OpState::Kind::Send: return "send";
    case OpState::Kind::Recv: return "recv";
    case OpState::Kind::Collective: return "collective";
  }
  return "?";
}

/// Handle to a nonblocking operation (MPI_Request equivalent): an
/// intrusive, non-atomic reference to an arena-allocated OpState.
class Request {
 public:
  Request() noexcept = default;
  Request(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)
  /// Takes a reference to `op` (null allowed).
  explicit Request(OpState* op) noexcept : p_(op) {
    if (p_) ++p_->refs_;
  }
  Request(const Request& o) noexcept : Request(o.p_) {}
  Request(Request&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
  Request& operator=(Request o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }
  ~Request() {
    if (p_ && --p_->refs_ == 0) delete p_;
  }

  OpState* get() const noexcept { return p_; }
  OpState* operator->() const noexcept { return p_; }
  OpState& operator*() const noexcept { return *p_; }
  explicit operator bool() const noexcept { return p_ != nullptr; }

  friend bool operator==(const Request& a, const Request& b) noexcept {
    return a.p_ == b.p_;
  }
  friend bool operator==(const Request& a, std::nullptr_t) noexcept {
    return a.p_ == nullptr;
  }

 private:
  OpState* p_ = nullptr;
};

/// Creates an OpState on the calling thread's arena (one granule).
inline Request makeOpState() { return Request(new OpState); }

/// Aggregate of every rank program that exited with an exception.  Thrown
/// by Simulation::run when two or more ranks failed, so a multi-rank bug
/// is reported whole instead of being masked by whichever rank the runner
/// happened to inspect first.  A single failing rank rethrows its original
/// exception unchanged (callers keep precise types to catch).
class RankFailures : public std::runtime_error {
 public:
  RankFailures(const std::string& what, std::vector<int> ranks)
      : std::runtime_error(what), ranks_(std::move(ranks)) {}

  /// World ranks that failed, ascending.
  const std::vector<int>& ranks() const { return ranks_; }

 private:
  std::vector<int> ranks_;
};

/// Result of Simulation::run().
struct RunResult {
  double makespan = 0.0;  // max over ranks of coroutine finish time (s)
  std::vector<double> finishTimes;
  std::uint64_t events = 0;
};

}  // namespace bgp::smpi
