#pragma once
// Event-level algorithmic collectives, built from point-to-point sends
// and receives — the classical algorithms MPI libraries use on machines
// without dedicated collective hardware (every collective on the Cray XT,
// and sub-communicator collectives on BlueGene):
//
//   * binomial-tree broadcast / reduce / gather / scatter
//   * recursive-doubling allreduce (short vectors)
//   * Rabenseifner allreduce (reduce-scatter + allgather, long vectors)
//   * ring allgather
//   * pairwise-exchange all-to-all
//   * dissemination barrier
//
// These run message-by-message through the torus contention model, so
// they capture effects the analytic CollectiveModel only approximates.
// tests/coll_algorithms_test.cpp cross-validates the two against each
// other, and bench/ablation_collectives compares them head-to-head.
//
// All functions are awaitable sim::Task coroutines: call them from a rank
// program as
//   co_await algo::bcastBinomial(self, comm, bytes, root);
// Ranks passed in are communicator ranks.  Each algorithm uses a disjoint
// tag block so concurrent phases cannot cross-match.

#include "sim/task.hpp"
#include "smpi/rank.hpp"

namespace bgp::smpi::algo {

/// Binomial-tree broadcast from `root`.
sim::Task bcastBinomial(Rank& self, Comm& comm, double bytes,
                           int root = 0);

/// Binomial-tree reduction to `root` (combine cost charged per merge).
sim::Task reduceBinomial(Rank& self, Comm& comm, double bytes,
                            int root = 0);

/// Recursive-doubling allreduce; non-power-of-two sizes use the standard
/// fold-in pre/post steps.
sim::Task allreduceRecursiveDoubling(Rank& self, Comm& comm,
                                        double bytes);

/// Rabenseifner allreduce: recursive-halving reduce-scatter followed by a
/// recursive-doubling allgather.  Requires power-of-two communicators.
sim::Task allreduceRabenseifner(Rank& self, Comm& comm, double bytes);

/// Ring allgather: p-1 steps, each forwarding one rank's block.
sim::Task allgatherRing(Rank& self, Comm& comm, double bytesPerRank);

/// Pairwise-exchange all-to-all: p-1 rounds of sendrecv with XOR/shifted
/// partners.
sim::Task alltoallPairwise(Rank& self, Comm& comm, double bytesPerPair);

/// Dissemination barrier: ceil(log2 p) rounds.
sim::Task barrierDissemination(Rank& self, Comm& comm);

}  // namespace bgp::smpi::algo
