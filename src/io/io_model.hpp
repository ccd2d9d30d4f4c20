#pragma once
// I/O subsystem model (paper sections I.B and I.C).
//
// On BG/P, compute nodes have no direct external connectivity: I/O is
// forwarded over the collective network to I/O nodes (1 per 64 compute
// nodes at ORNL and ANL), which connect through 10 Gigabit Ethernet to
// GPFS — at ORNL: 8 file servers, 2 metadata servers, 24 LUNs of 8+2 DDN
// arrays.  On the XT, service nodes play the I/O-node role over the
// SeaStar network into Lustre.
//
// The model is a five-stage pipeline (forwarding, external network, file
// servers, LUNs, metadata); a transfer's time is the slowest stage plus
// per-file metadata costs, which depend on the access pattern.  The
// SingleWriter pattern exists to reproduce the failure mode the paper hit
// with CAM ("a system I/O performance issue on the BG/P"): one rank
// gathering and writing the history file serially.

#include <cstdint>
#include <string>

#include "arch/machine.hpp"

namespace bgp::io {

enum class IoPattern {
  FilePerProcess,  // N files: full bandwidth, metadata storm at scale
  SharedFile,      // one file, independent offsets: lock overhead
  Collective,      // two-phase collective buffering via aggregators
  SingleWriter,    // rank 0 gathers and writes alone (CAM's history tape)
};

std::string toString(IoPattern pattern);

struct IoConfig {
  // ---- forwarding (compute node -> I/O node) -------------------------------
  int computeNodesPerIoNode = 64;   // ORNL/ANL ratio (sections I.B, I.C)
  double forwardBandwidth = 0.7e9;  // per I/O node, over the tree network
  double forwardLatency = 60e-6;

  // ---- external network -----------------------------------------------------
  double ioNodeNicBandwidth = 1.1e9;  // 10 GbE, protocol-limited

  // ---- file system (ORNL GPFS, section I.B) ----------------------------------
  int fileServers = 8;
  double serverBandwidth = 0.35e9;  // per server, sustained
  int metadataServers = 2;
  double metadataOpLatency = 1.2e-3;  // create/open/close
  int luns = 24;
  double lunBandwidth = 0.18e9;  // 8+2 DDN array, per LUN

  // ---- pattern behaviour ------------------------------------------------------
  double sharedFileEfficiency = 0.60;  // token/lock overhead on one file
  double collectiveEfficiency = 0.85;  // two-phase aggregation
  double singleStreamBandwidth = 0.25e9;  // one writer into one server
};

/// Derives an I/O configuration for a machine partition: BlueGene systems
/// follow the paper's ORNL description; XT systems model service-node
/// Lustre with proportionally more external bandwidth per node.
IoConfig ioConfigFor(const arch::MachineConfig& machine,
                     std::int64_t computeNodes);

struct IoBreakdown {
  double forwardSeconds = 0.0;
  double externalSeconds = 0.0;
  double serverSeconds = 0.0;
  double lunSeconds = 0.0;
  double metadataSeconds = 0.0;
  double totalSeconds = 0.0;
  double bandwidth = 0.0;  // payload bytes / total
  std::string bottleneck;
};

class IoSubsystem {
 public:
  IoSubsystem(IoConfig config, std::int64_t computeNodes);

  /// Time for `nranks` ranks to write `bytesPerRank` each.
  IoBreakdown write(std::int64_t nranks, double bytesPerRank,
                    IoPattern pattern) const;

  std::int64_t ioNodes() const { return ioNodes_; }
  const IoConfig& config() const { return config_; }

 private:
  IoConfig config_;
  std::int64_t computeNodes_;
  std::int64_t ioNodes_;
};

}  // namespace bgp::io
