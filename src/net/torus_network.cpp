#include "net/torus_network.hpp"

#include <algorithm>
#include <utility>

#include "sim/fault.hpp"
#include "support/expect.hpp"

namespace bgp::net {

namespace {

constexpr std::array<int, 3> kAxisOrders[2] = {{0, 1, 2}, {2, 1, 0}};

}  // namespace

TorusNetwork::TorusNetwork(topo::Torus3D torus, TorusParams params)
    : torus_(std::move(torus)), params_(params) {
  BGP_REQUIRE(params.linkBandwidth > 0 && params.shmBandwidth > 0);
  BGP_REQUIRE(params.hopLatency >= 0 && params.swLatency >= 0);
  nextFree_.assign(static_cast<std::size_t>(torus_.linkCount()), 0.0);
  for (auto& s : scratch_)
    s.resize(static_cast<std::size_t>(torus_.maxHops()));
}

const topo::LinkId* TorusNetwork::route(topo::NodeId src, topo::NodeId dst,
                                        int order, std::size_t& hops) {
  ++routesGenerated_;
  topo::LinkId* out = scratch_[order].data();
  hops = static_cast<std::size_t>(
      torus_.routeLinks(src, dst, kAxisOrders[order], out));
  return out;
}

TorusNetwork::Walk TorusNetwork::walk(const topo::LinkId* links,
                                      std::size_t count, double bytes,
                                      sim::SimTime start, bool commit) {
  const double serBase = bytes / params_.linkBandwidth;
  sim::SimTime head = start + params_.swLatency;
  sim::SimTime firstClaim = head;
  double serMax = serBase;
  bool first = true;
  for (std::size_t i = 0; i < count; ++i) {
    const auto li = static_cast<std::size_t>(links[i]);
    auto& free = nextFree_[li];
    double ser = serBase;
    sim::SimTime claim = params_.modelContention ? std::max(head, free) : head;
    if (faults_) {
      // A degraded link serializes slower; a claim inside an outage window
      // retries past it (both no-ops on healthy links).
      ser = bytes / (params_.linkBandwidth * faults_->linkBandwidthFactor(li));
      claim = faults_->retryThroughOutages(li, claim);
      serMax = std::max(serMax, ser);
    }
    if (params_.modelContention && commit) free = claim + ser;
    // `head` still holds the pre-claim head arrival, so claim - head is
    // the contention delay this link imposed.  Probe walks never report.
    if (commit && observer_)
      observer_->onLinkClaim(links[i], claim, ser, bytes, claim - head);
    if (first) {
      firstClaim = claim;
      first = false;
    }
    head = claim + params_.hopLatency;
  }
  return Walk{firstClaim, head, serMax};
}

TorusNetwork::Transfer TorusNetwork::transfer(topo::NodeId src,
                                              topo::NodeId dst, double bytes,
                                              sim::SimTime start) {
  BGP_REQUIRE(bytes >= 0);
  if (src == dst) {
    if (observer_) observer_->onShmTransfer(bytes, start);
    const sim::SimTime done =
        start + params_.shmLatency + bytes / params_.shmBandwidth;
    return Transfer{done, done};
  }
  std::size_t hops = 0;
  const topo::LinkId* links = route(src, dst, 0, hops);
  if (params_.adaptiveRouting && params_.modelContention) {
    // Probe the alternative minimal route and take whichever delivers the
    // head earlier under current congestion.
    std::size_t altHops = 0;
    const topo::LinkId* alt = route(src, dst, 1, altHops);
    const Walk primary = walk(links, hops, bytes, start, /*commit=*/false);
    const Walk secondary = walk(alt, altHops, bytes, start, /*commit=*/false);
    if (secondary.head < primary.head) {
      links = alt;
      hops = altHops;
    }
  }
  const Walk w = walk(links, hops, bytes, start, /*commit=*/true);
  bytesRouted_ += bytes;
  return Transfer{w.firstClaim + w.serMax, w.head + w.serMax + params_.swLatency};
}

sim::SimTime TorusNetwork::latencyEstimate(topo::NodeId src, topo::NodeId dst,
                                           double bytes) const {
  if (src == dst) return params_.shmLatency + bytes / params_.shmBandwidth;
  const int hops = torus_.hopDistance(src, dst);
  return 2 * params_.swLatency + hops * params_.hopLatency +
         bytes / params_.linkBandwidth;
}

void TorusNetwork::reset() {
  std::fill(nextFree_.begin(), nextFree_.end(), 0.0);
  bytesRouted_ = 0.0;
}

double TorusNetwork::bisectionBandwidth() const {
  return static_cast<double>(torus_.bisectionLinkCount()) *
         params_.linkBandwidth;
}

}  // namespace bgp::net
