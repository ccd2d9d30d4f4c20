#include "io/io_model.hpp"

#include <algorithm>

#include "support/expect.hpp"

namespace bgp::io {

std::string toString(IoPattern pattern) {
  switch (pattern) {
    case IoPattern::FilePerProcess:
      return "file-per-process";
    case IoPattern::SharedFile:
      return "shared-file";
    case IoPattern::Collective:
      return "collective";
    case IoPattern::SingleWriter:
      return "single-writer";
  }
  BGP_UNREACHABLE();
}

IoConfig ioConfigFor(const arch::MachineConfig& machine,
                     std::int64_t computeNodes) {
  BGP_REQUIRE(computeNodes >= 1);
  IoConfig cfg;
  if (machine.hasTreeNetwork) {
    // BlueGene: forwarding rides the collective network.
    cfg.forwardBandwidth = machine.treeBandwidthGBs * 1e9 * 0.85;
  } else {
    // XT service nodes: Portals over SeaStar, no 64:1 funnel but fewer,
    // fatter service nodes; model an equivalent aggregate.
    cfg.computeNodesPerIoNode = 48;
    cfg.forwardBandwidth = machine.linkBandwidthGBs * 1e9 *
                           machine.linkEfficiency * 0.5;
    cfg.ioNodeNicBandwidth = 1.6e9;  // Lustre routers
    cfg.sharedFileEfficiency = 0.55;
  }
  return cfg;
}

IoSubsystem::IoSubsystem(IoConfig config, std::int64_t computeNodes)
    : config_(config), computeNodes_(computeNodes) {
  BGP_REQUIRE(computeNodes >= 1);
  BGP_REQUIRE(config.computeNodesPerIoNode >= 1);
  ioNodes_ = (computeNodes + config.computeNodesPerIoNode - 1) /
             config.computeNodesPerIoNode;
}

IoBreakdown IoSubsystem::write(std::int64_t nranks, double bytesPerRank,
                               IoPattern pattern) const {
  BGP_REQUIRE(nranks >= 1);
  BGP_REQUIRE(bytesPerRank >= 0);
  const double totalBytes = static_cast<double>(nranks) * bytesPerRank;
  IoBreakdown b;

  if (pattern == IoPattern::SingleWriter) {
    // Everything funnels through one rank: one forwarding path, one
    // external stream, one server stream.  Aggregate bandwidth does not
    // grow with the machine — the CAM history-tape pathology.
    const double stream =
        std::min({config_.forwardBandwidth, config_.ioNodeNicBandwidth,
                  config_.singleStreamBandwidth});
    b.forwardSeconds = totalBytes / config_.forwardBandwidth;
    b.externalSeconds = totalBytes / config_.ioNodeNicBandwidth;
    b.serverSeconds = totalBytes / config_.singleStreamBandwidth;
    b.lunSeconds = totalBytes / config_.lunBandwidth;
    b.metadataSeconds = config_.metadataOpLatency;
    b.totalSeconds = totalBytes / stream + b.metadataSeconds +
                     config_.forwardLatency;
    b.bottleneck = "single stream";
    b.bandwidth = b.totalSeconds > 0 ? totalBytes / b.totalSeconds : 0.0;
    return b;
  }

  double patternEff = 1.0;
  double metadataOps = 1.0;
  switch (pattern) {
    case IoPattern::FilePerProcess:
      metadataOps = static_cast<double>(nranks);  // one create per rank
      break;
    case IoPattern::SharedFile:
      patternEff = config_.sharedFileEfficiency;
      metadataOps = 2.0;
      break;
    case IoPattern::Collective:
      patternEff = config_.collectiveEfficiency;
      metadataOps = 2.0;
      break;
    case IoPattern::SingleWriter:
      BGP_UNREACHABLE();
  }

  b.forwardSeconds =
      totalBytes /
      (static_cast<double>(ioNodes_) * config_.forwardBandwidth);
  b.externalSeconds =
      totalBytes /
      (static_cast<double>(ioNodes_) * config_.ioNodeNicBandwidth);
  b.serverSeconds = totalBytes / (config_.fileServers *
                                  config_.serverBandwidth * patternEff);
  b.lunSeconds = totalBytes / (config_.luns * config_.lunBandwidth);
  b.metadataSeconds =
      metadataOps * config_.metadataOpLatency / config_.metadataServers;

  const double pipeline = std::max({b.forwardSeconds, b.externalSeconds,
                                    b.serverSeconds, b.lunSeconds});
  b.totalSeconds = pipeline + b.metadataSeconds + config_.forwardLatency;
  if (pipeline == b.forwardSeconds) {
    b.bottleneck = "compute->IO forwarding";
  } else if (pipeline == b.externalSeconds) {
    b.bottleneck = "IO-node NICs";
  } else if (pipeline == b.serverSeconds) {
    b.bottleneck = "file servers";
  } else {
    b.bottleneck = "LUNs";
  }
  if (b.metadataSeconds > pipeline) b.bottleneck = "metadata";
  b.bandwidth = b.totalSeconds > 0 ? totalBytes / b.totalSeconds : 0.0;
  return b;
}

}  // namespace bgp::io
