#pragma once
// Analytic cost model for MPI collective operations.
//
// On BlueGene machines, broadcast/reduce/allreduce/barrier ride the
// dedicated collective-tree and global-interrupt networks (section I.A of
// the paper); everything else, and all collectives on the Cray XT, use
// torus algorithms (binomial trees for short vectors, scatter/allgather
// pipelines for long ones, Rabenseifner allreduce, bisection-bounded
// all-to-all).  Costs are per *operation*, given the communicator size and
// payload; arrival skew is handled by the caller (smpi gates collectives on
// the last arrival).

#include <cstdint>
#include <string>

#include "arch/machine.hpp"
#include "net/torus_network.hpp"

namespace bgp::net {

enum class CollKind : std::uint8_t {
  Barrier,
  Bcast,
  Reduce,
  Allreduce,
  Allgather,
  Gather,
  Scatter,
  Alltoall,
  Alltoallv
};

std::string toString(CollKind kind);

enum class Dtype : std::uint8_t { Double, Float, Int32, Int64, Byte };
double bytesOf(Dtype dt);

struct CollectiveParams {
  bool useTreeNetwork = true;   // ablation: force torus algorithms on BG
  bool useBarrierNetwork = true;
  int tasksPerNode = 1;         // NIC sharing in VN/DUAL modes
};

class CollectiveModel {
 public:
  CollectiveModel(const arch::MachineConfig& machine,
                  const TorusNetwork& torus, CollectiveParams params);

  /// Cost of one collective over `nranks` ranks with `bytes` payload per
  /// rank (for Alltoall: bytes exchanged with EACH peer).  The BlueGene
  /// tree and barrier networks serve *full-partition* communicators only;
  /// pass fullPartition=false for sub-communicator operations (HPL row/
  /// column broadcasts, GYRO transpose groups), which then use torus
  /// algorithms even on BG/P.
  sim::SimTime cost(CollKind kind, int nranks, double bytes,
                    Dtype dt = Dtype::Double, bool fullPartition = true) const;

  /// Which network cost() charges `kind` to — cost() dispatches on these,
  /// and the observability plane classifies each gate with them:
  /// bcast/reduce/allreduce ride the collective tree when the machine
  /// has one, it is enabled, and the communicator is the full partition;
  /// barrier rides the global-interrupt wires under the same conditions;
  /// everything else runs torus algorithms.
  bool usesTreeNetwork(CollKind kind, bool fullPartition) const;
  bool usesBarrierNetwork(CollKind kind, bool fullPartition) const;

  const CollectiveParams& params() const { return params_; }
  CollectiveParams& params() { return params_; }

 private:
  sim::SimTime treeBcast(int nranks, double bytes) const;
  sim::SimTime treeReduce(int nranks, double bytes, Dtype dt) const;
  sim::SimTime torusBcast(int nranks, double bytes) const;
  sim::SimTime torusAllreduce(int nranks, double bytes) const;
  sim::SimTime torusBarrier(int nranks) const;
  sim::SimTime alltoall(int nranks, double bytesPerPair) const;
  sim::SimTime allgather(int nranks, double bytesPerRank) const;
  sim::SimTime rooted(int nranks, double bytes) const;  // gather/scatter

  double pointLatency() const;   // small-message one-way latency
  double linkBandwidthShared() const;
  int treeDepth(int nranks) const;

  const arch::MachineConfig* machine_;
  const TorusNetwork* torus_;
  CollectiveParams params_;
};

}  // namespace bgp::net
