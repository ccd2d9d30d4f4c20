#include "net/torus_network.hpp"

#include <algorithm>
#include <utility>

#include "sim/fault.hpp"
#include "support/expect.hpp"

namespace bgp::net {

namespace {

/// Cache index mix: a splitmix64-style finalizer over the (src,dst) pair.
inline std::size_t routeHash(topo::NodeId src, topo::NodeId dst) {
  std::uint64_t z = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
                     << 32) |
                    static_cast<std::uint32_t>(dst);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return static_cast<std::size_t>(z ^ (z >> 31));
}

constexpr std::array<int, 3> kAxisOrders[2] = {{0, 1, 2}, {2, 1, 0}};

}  // namespace

TorusNetwork::TorusNetwork(topo::Torus3D torus, TorusParams params)
    : torus_(std::move(torus)), params_(params) {
  BGP_REQUIRE(params.linkBandwidth > 0 && params.shmBandwidth > 0);
  BGP_REQUIRE(params.hopLatency >= 0 && params.swLatency >= 0);
  nextFree_.assign(static_cast<std::size_t>(torus_.linkCount()), 0.0);
  // Size the per-order route tables from the torus itself: the next power
  // of two covering every (src,dst) pair, capped at 2^18 entries so even a
  // 40960-node partition pays a few MiB, not gigabytes.  Two ways per set
  // (adjacent entries) absorb the conflict misses that made a small
  // direct-mapped table thrash on halo exchange neighbour sets.
  const std::uint64_t pairs =
      static_cast<std::uint64_t>(torus_.count()) *
      static_cast<std::uint64_t>(torus_.count());
  const std::uint64_t capped =
      std::min<std::uint64_t>(pairs, std::uint64_t{1} << 18);
  std::size_t entries = 64;
  while (entries < capped) entries <<= 1;
  routeCacheSetMask_ = entries / 2 - 1;
  // The tables themselves are built on first use (cachedRoute): worlds
  // that only run collectives route nothing, and the ZYX table is read
  // only under adaptive routing.
}

const std::vector<topo::LinkId>& TorusNetwork::cachedRoute(topo::NodeId src,
                                                           topo::NodeId dst,
                                                           int order) {
  // The two ways of a set sit adjacent, MRU first.  A hit in the second
  // way swaps it forward; a miss swaps too (demoting the old MRU) and
  // rebuilds into the evicted way, reusing its vector capacity as scratch.
  std::vector<RouteEntry>& table = routeCache_[order];
  if (table.empty()) table.resize(2 * (routeCacheSetMask_ + 1));
  RouteEntry* set = &table[2 * (routeHash(src, dst) & routeCacheSetMask_)];
  if (set[0].src == src && set[0].dst == dst) {
    ++routeHits_;
    return set[0].links;
  }
  if (set[1].src == src && set[1].dst == dst) {
    ++routeHits_;
    std::swap(set[0], set[1]);
    return set[0].links;
  }
  ++routeMisses_;
  std::swap(set[0], set[1]);
  RouteEntry& e = set[0];
  torus_.routeInto(src, dst, kAxisOrders[order], e.links);
  e.src = src;
  e.dst = dst;
  return e.links;
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
  const std::vector<topo::LinkId>* links = &cachedRoute(src, dst, 0);
  if (params_.adaptiveRouting && params_.modelContention) {
    // Probe the alternative minimal route and take whichever delivers the
    // head earlier under current congestion.  Both candidates come from
    // the cache, so the adaptive path allocates nothing per message.
    const std::vector<topo::LinkId>* alt = &cachedRoute(src, dst, 1);
    const Walk primary =
        walk(links->data(), links->size(), bytes, start, /*commit=*/false);
    const Walk secondary =
        walk(alt->data(), alt->size(), bytes, start, /*commit=*/false);
    if (secondary.head < primary.head) links = alt;
  }
  const Walk w =
      walk(links->data(), links->size(), bytes, start, /*commit=*/true);
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
