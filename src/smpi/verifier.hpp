#pragma once
// Runtime MPI correctness verifier.
//
// PARCOACH verifies MPI collective usage by static analysis of the real
// binary; at simulation time we can do the same checks dynamically and
// almost for free, because every operation already passes through the
// runtime.  When enabled (Simulation::enableVerifier) the verifier checks:
//
//  * collective call-sequence matching per communicator: every rank's
//    n-th collective must agree on operation kind, root, reduction
//    operator, element type, and payload size;
//  * point-to-point count mismatches: a receive that declares an expected
//    size (Rank::recv/irecv `expectedBytes`) must match the sender;
//  * finalize-time leaks: messages sent but never received (orphaned
//    sends), receives posted but never matched, requests completed but
//    never waited on, and sub-communicators created but never used.
//
// Leak checks read compact records, not live requests: each send/receive
// leaves a 24-byte record (op id, peer, tag, comm, send/recv, filed under
// its owner) that a wait drops, so the verifier keeps no operation alive
// and its memory is O(requests not yet waited), not O(requests created).
//
// Every defect message names the offending rank(s) and operation.  With
// `failFast` (the default) the first defect throws VerifierError at the
// point of detection; in collecting mode defects accumulate and can be
// inspected via defects() — which is how the fault-fuzz tests assert that
// a faulted-but-correct program never trips the verifier.
//
// The verifier is strictly observational: it never schedules events or
// perturbs timing, so enabling it cannot change simulated results.

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/collective_model.hpp"
#include "smpi/types.hpp"

namespace bgp::smpi {

class Comm;

struct VerifierOptions {
  bool checkCollectives = true;
  bool checkP2p = true;
  bool checkLeaks = true;
  bool failFast = true;  // throw VerifierError at the first defect
};

/// Thrown when the verifier detects an MPI usage defect.
class VerifierError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Verifier {
 public:
  explicit Verifier(VerifierOptions options);

  const VerifierOptions& options() const { return options_; }

  // ---- runtime hooks (called by Simulation; hot paths, keep cheap) --------
  /// A rank arrived at its `seq`-th collective on `comm`; checks the
  /// signature against the first arrival of that gate.
  void onCollective(const Comm& comm, std::uint64_t seq, int commRank,
                    net::CollKind kind, int root, ReduceOp rop,
                    net::Dtype dt, double bytes);
  /// A send/receive was created; the verifier records it until a wait
  /// consumes it.
  void onP2p(const OpState& op, bool isSend);
  /// A waitAny returned ops[fired], or (fired == ops.size()) a
  /// wait/waitAll returned `ops`: those requests are no longer leaks.
  void onWaitDone(const std::vector<Request>& ops, std::size_t fired);
  /// A receive matched a message; checks the declared expectation.
  void onRecvMatched(const Comm& comm, int srcCommRank, int dstCommRank,
                     int tag, double expectedBytes, double actualBytes);

  // ---- finalize -----------------------------------------------------------
  /// Run after a simulation completes without deadlock: scans every
  /// communicator's matching state and every unwaited request for leaks.
  /// Throws VerifierError (listing all leaks) when failFast is set and
  /// anything was found.
  void finalize(const std::vector<const Comm*>& comms);

  /// All defects recorded so far (empty = clean program).
  const std::vector<std::string>& defects() const { return defects_; }
  bool clean() const { return defects_.empty(); }
  void report(std::ostream& os) const;

 private:
  struct CollSig {
    net::CollKind kind{};
    int root = 0;
    ReduceOp rop = ReduceOp::None;
    net::Dtype dt{};
    double bytes = 0.0;
    int firstRank = -1;
    int arrived = 0;
  };

  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// What a leak report says about one request not yet waited on; the
  /// owner is the list holding it.
  struct OpenReq {
    std::uint64_t id = 0;
    int peer = -1;
    int tag = -1;
    std::uint32_t commId : 31 = 0;
    std::uint32_t isSend : 1 = 0;
    std::uint32_t next = kNil;  // owner's list, creation order; free list
  };
  static_assert(sizeof(OpenReq) == 24);
  struct OwnerList {
    std::uint32_t head = kNil, tail = kNil;
  };

  void defect(const std::string& msg);
  /// Drops the record of p2p op `op`, if it is still open.
  void closeReq(const OpState& op);

  VerifierOptions options_;
  // (commId, seq) -> signature of the gate's first arrival.  std::map keeps
  // iteration deterministic for reporting.
  std::map<std::pair<int, std::uint64_t>, CollSig> gates_;
  // Unwaited requests, one list per owning world rank in creation order.
  // A close scans only its owner's outstanding requests, and usually finds
  // its record at the head: programs mostly wait on a rank's oldest
  // requests first.  Nodes live in a pool (a deque, so it never copies
  // itself while growing) and closed nodes are recycled.
  std::vector<OwnerList> owners_;
  std::deque<OpenReq> reqs_;
  std::uint32_t freeReq_ = kNil;
  std::map<int, std::uint64_t> activity_;  // commId -> operation count
  std::vector<std::string> defects_;
};

}  // namespace bgp::smpi
