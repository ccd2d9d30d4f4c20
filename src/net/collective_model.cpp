#include "net/collective_model.hpp"

#include <algorithm>
#include <cmath>

#include "support/expect.hpp"

namespace bgp::net {

std::string toString(CollKind kind) {
  switch (kind) {
    case CollKind::Barrier:
      return "Barrier";
    case CollKind::Bcast:
      return "Bcast";
    case CollKind::Reduce:
      return "Reduce";
    case CollKind::Allreduce:
      return "Allreduce";
    case CollKind::Allgather:
      return "Allgather";
    case CollKind::Gather:
      return "Gather";
    case CollKind::Scatter:
      return "Scatter";
    case CollKind::Alltoall:
      return "Alltoall";
    case CollKind::Alltoallv:
      return "Alltoallv";
  }
  BGP_UNREACHABLE();
}

double bytesOf(Dtype dt) {
  switch (dt) {
    case Dtype::Double:
    case Dtype::Int64:
      return 8;
    case Dtype::Float:
    case Dtype::Int32:
      return 4;
    case Dtype::Byte:
      return 1;
  }
  BGP_UNREACHABLE();
}

CollectiveModel::CollectiveModel(const arch::MachineConfig& machine,
                                 const TorusNetwork& torus,
                                 CollectiveParams params)
    : machine_(&machine), torus_(&torus), params_(params) {
  BGP_REQUIRE(params.tasksPerNode >= 1);
}

int CollectiveModel::treeDepth(int nranks) const {
  // The collective network is a tree over *nodes*; depth grows with the
  // log of the node count (arity ~2-3 in deployed systems).
  const int nodes = std::max(1, nranks / params_.tasksPerNode);
  return static_cast<int>(std::ceil(std::log2(std::max(2, nodes))));
}

double CollectiveModel::pointLatency() const {
  return 2 * machine_->swLatency + 4 * machine_->hopLatency;
}

double CollectiveModel::linkBandwidthShared() const {
  // Tasks sharing a node inject into the same links; a node-wide collective
  // stage therefore sees per-task bandwidth reduced accordingly.
  return torus_->params().linkBandwidth / params_.tasksPerNode;
}

sim::SimTime CollectiveModel::treeBcast(int nranks, double bytes) const {
  const double lat = machine_->treeBaseLatency +
                     treeDepth(nranks) * machine_->treeHopLatency;
  return lat + bytes / (machine_->treeBandwidthGBs * 1e9);
}

sim::SimTime CollectiveModel::treeReduce(int nranks, double bytes,
                                         Dtype dt) const {
  // Up-sweep combines at line rate for the types the tree ALU handles;
  // everything else takes the software-assisted path (the paper's observed
  // double-vs-single Allreduce gap on BG/P).
  const bool hardware =
      machine_->treeAluDoubleSum && (dt == Dtype::Double || dt == Dtype::Int64);
  const double penalty = hardware ? 1.0 : machine_->treeFloatPenalty;
  const double lat = machine_->treeBaseLatency +
                     2.0 * treeDepth(nranks) * machine_->treeHopLatency +
                     (hardware ? 0.0 : 1.5e-6);
  return lat + bytes * penalty / (machine_->treeBandwidthGBs * 1e9);
}

sim::SimTime CollectiveModel::torusBarrier(int nranks) const {
  // Dissemination barrier: ceil(log2 p) rounds of small messages.
  const int rounds = static_cast<int>(std::ceil(std::log2(std::max(2, nranks))));
  return rounds * pointLatency();
}

sim::SimTime CollectiveModel::torusBcast(int nranks, double bytes) const {
  const int lg = static_cast<int>(std::ceil(std::log2(std::max(2, nranks))));
  const double bw = linkBandwidthShared();
  const double binomial = lg * (pointLatency() + bytes / bw);
  // Large messages: scatter + ring allgather, 2*bytes volume, latency 2*log.
  const double pipeline = 2.0 * lg * pointLatency() + 2.0 * bytes / bw;
  return std::min(binomial, pipeline);
}

sim::SimTime CollectiveModel::torusAllreduce(int nranks, double bytes) const {
  const int lg = static_cast<int>(std::ceil(std::log2(std::max(2, nranks))));
  const double bw = linkBandwidthShared();
  // Recursive doubling for short vectors; pipelined stages pay ~60% of the
  // full point-to-point latency each.
  const double shortAlgo = lg * (0.6 * pointLatency() + bytes / bw);
  // Rabenseifner (reduce-scatter + allgather) for long vectors, plus the
  // local combine passes through memory.
  const double combine = bytes / machine_->memBandwidth(1);
  const double longAlgo =
      2.0 * lg * pointLatency() + 2.0 * bytes / bw + combine;
  return std::min(shortAlgo, longAlgo);
}

sim::SimTime CollectiveModel::alltoall(int nranks, double bytesPerPair) const {
  if (nranks <= 1) return 0.0;
  // Each rank exchanges with p-1 peers; total traffic is bounded both by
  // per-rank injection and by the torus bisection.
  const double perRankBytes = bytesPerPair * (nranks - 1);
  // Global patterns only see allocationEfficiency of the nominal
  // bandwidth (fragmentation / inter-job contention on the XT; see the
  // field's comment in arch/machine.hpp).
  const double alloc = machine_->allocationEfficiency;
  const double injection = perRankBytes / (linkBandwidthShared() * alloc);
  const double totalBytes = perRankBytes * nranks;
  // Roughly half of all traffic crosses the bisection in a random pattern.
  const double bisection =
      0.5 * totalBytes / (torus_->bisectionBandwidth() * alloc);
  // Latency: log rounds (Bruck-style for tiny payloads) plus the
  // partially-overlapped per-peer software cost of the pairwise exchange.
  const double latency =
      std::ceil(std::log2(std::max(2, nranks))) * pointLatency() +
      (nranks - 1) * 0.3 * machine_->swLatency;
  return latency + std::max(injection, bisection);
}

sim::SimTime CollectiveModel::allgather(int nranks, double bytesPerRank) const {
  if (nranks <= 1) return 0.0;
  const double bw = linkBandwidthShared();
  const int lg = static_cast<int>(std::ceil(std::log2(std::max(2, nranks))));
  // Ring: p-1 steps moving bytesPerRank each; latency grows with log p for
  // the recursive-doubling variant used at small sizes.
  return lg * pointLatency() + (nranks - 1) * bytesPerRank / bw;
}

sim::SimTime CollectiveModel::rooted(int nranks, double bytes) const {
  // Gather/scatter: binomial tree, root moves ~p*bytes in total.
  const int lg = static_cast<int>(std::ceil(std::log2(std::max(2, nranks))));
  return lg * pointLatency() + (nranks - 1) * bytes / linkBandwidthShared();
}

bool CollectiveModel::usesTreeNetwork(CollKind kind,
                                      bool fullPartition) const {
  if (!(machine_->hasTreeNetwork && params_.useTreeNetwork && fullPartition))
    return false;
  return kind == CollKind::Bcast || kind == CollKind::Reduce ||
         kind == CollKind::Allreduce;
}

bool CollectiveModel::usesBarrierNetwork(CollKind kind,
                                         bool fullPartition) const {
  return kind == CollKind::Barrier && machine_->hasBarrierNetwork &&
         params_.useBarrierNetwork && fullPartition;
}

sim::SimTime CollectiveModel::cost(CollKind kind, int nranks, double bytes,
                                   Dtype dt, bool fullPartition) const {
  BGP_REQUIRE(nranks >= 1);
  BGP_REQUIRE(bytes >= 0);
  if (nranks == 1) return machine_->shmLatency;  // self-collective
  const bool tree = usesTreeNetwork(kind, fullPartition);
  switch (kind) {
    case CollKind::Barrier:
      if (usesBarrierNetwork(kind, fullPartition))
        return machine_->barrierNetworkLatency +
               0.02e-6 * treeDepth(nranks);  // wire depth, nearly flat
      return torusBarrier(nranks);
    case CollKind::Bcast:
      return tree ? treeBcast(nranks, bytes) : torusBcast(nranks, bytes);
    case CollKind::Reduce:
      return tree ? treeReduce(nranks, bytes, dt)
                  : 0.7 * torusAllreduce(nranks, bytes);
    case CollKind::Allreduce:
      // Tree allreduce = reduce to root + broadcast down, pipelined.
      return tree ? treeReduce(nranks, bytes, dt) +
                        0.35 * treeBcast(nranks, bytes)
                  : torusAllreduce(nranks, bytes);
    case CollKind::Allgather:
      return allgather(nranks, bytes);
    case CollKind::Gather:
    case CollKind::Scatter:
      return rooted(nranks, bytes);
    case CollKind::Alltoall:
    case CollKind::Alltoallv:
      return alltoall(nranks, bytes);
  }
  BGP_UNREACHABLE();
}

}  // namespace bgp::net
