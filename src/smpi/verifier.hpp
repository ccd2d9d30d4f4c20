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
// Every defect message names the offending rank(s) and operation.  With
// `failFast` (the default) the first defect throws VerifierError at the
// point of detection; in collecting mode defects accumulate and can be
// inspected via defects() — which is how the fault-fuzz tests assert that
// a faulted-but-correct program never trips the verifier.
//
// The verifier is strictly observational: it never schedules events or
// perturbs timing, so enabling it cannot change simulated results.

#include <cstdint>
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
  /// A send/receive was created; the verifier keeps the request alive
  /// for finalize-time leak checks, which read each op's final state.
  void onP2p(const Request& op);
  /// A receive matched a message; checks the declared expectation.
  void onRecvMatched(const Comm& comm, int srcCommRank, int dstCommRank,
                     int tag, double expectedBytes, double actualBytes);

  // ---- finalize -----------------------------------------------------------
  /// Run after a simulation completes without deadlock: scans every
  /// communicator's matching state and every tracked request for leaks.
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

  void defect(const std::string& msg);

  VerifierOptions options_;
  // (commId, seq) -> signature of the gate's first arrival.  std::map keeps
  // iteration deterministic for reporting.
  std::map<std::pair<int, std::uint64_t>, CollSig> gates_;
  std::vector<Request> tracked_;      // every p2p request created
  std::map<int, std::uint64_t> activity_;  // commId -> operation count
  std::vector<std::string> defects_;
};

}  // namespace bgp::smpi
