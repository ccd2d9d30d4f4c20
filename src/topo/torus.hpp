#pragma once
// 3-D torus geometry: coordinates, node numbering, shortest-path wrap
// distances, and dimension-ordered routes expressed as sequences of
// directed links.  This is pure geometry; timing lives in net/.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "support/expect.hpp"

namespace bgp::topo {

/// Index of a node in the torus, in [0, count()).
using NodeId = std::int32_t;

/// Index of a directed link.  Each node owns 6 outgoing links, one per
/// direction; link id = node * 6 + direction.
using LinkId = std::int32_t;

/// The six torus directions.
enum class Dir : std::uint8_t { XPlus, XMinus, YPlus, YMinus, ZPlus, ZMinus };

inline constexpr int kNumDirs = 6;

struct Coord3 {
  int x = 0;
  int y = 0;
  int z = 0;
  friend bool operator==(const Coord3&, const Coord3&) = default;
};

class Torus3D {
 public:
  /// Constructs an X×Y×Z torus.  Every dimension must be >= 1.
  Torus3D(int dimX, int dimY, int dimZ);

  int dimX() const { return dims_[0]; }
  int dimY() const { return dims_[1]; }
  int dimZ() const { return dims_[2]; }
  int dim(int axis) const {
    BGP_REQUIRE(axis >= 0 && axis < 3);
    return dims_[axis];
  }
  std::int64_t count() const {
    return std::int64_t{dims_[0]} * dims_[1] * dims_[2];
  }
  std::int64_t linkCount() const { return count() * kNumDirs; }

  NodeId nodeAt(Coord3 c) const;
  Coord3 coordOf(NodeId id) const;
  bool contains(Coord3 c) const;

  /// Signed shortest displacement along `axis` from a to b, taking the
  /// wrap-around into account.  Ties (exactly half way) go positive.
  int shortestDelta(int axis, int from, int to) const;

  /// Minimal hop count between two nodes.
  int hopDistance(NodeId a, NodeId b) const;

  /// Dimension-ordered (X then Y then Z) route from src to dst: the list of
  /// directed links traversed.  Empty when src == dst.
  std::vector<LinkId> route(NodeId src, NodeId dst) const;

  /// Route correcting dimensions in the given axis order (a permutation of
  /// {0,1,2}); route() is routeOrdered with {0,1,2}.  Both BG/P and
  /// SeaStar support minimal adaptive routing by picking among such
  /// orders per packet.
  std::vector<LinkId> routeOrdered(NodeId src, NodeId dst,
                                   const std::array<int, 3>& axisOrder) const;

  /// The route generator behind routeOrdered and the network's
  /// per-message routing: writes the links of the (src, dst) route that
  /// corrects axes in `axisOrder` to `out`, which must hold maxHops()
  /// links, and returns how many it wrote.  Hops step by per-axis node
  /// strides with wrap, so a route costs two coordinate decompositions and
  /// no per-hop division.  Does not validate `axisOrder`.
  int routeLinks(NodeId src, NodeId dst, const std::array<int, 3>& axisOrder,
                 LinkId* out) const;

  /// Longest minimal route on this torus, in hops.
  int maxHops() const { return dims_[0] / 2 + dims_[1] / 2 + dims_[2] / 2; }

  /// The neighbor of `n` one hop in direction `d`.
  NodeId neighbor(NodeId n, Dir d) const;

  /// Directed link leaving node `n` in direction `d`.
  LinkId linkFrom(NodeId n, Dir d) const {
    return n * kNumDirs + static_cast<int>(d);
  }

  /// Number of directed links crossing the bisection plane that splits the
  /// longest dimension in half (used for all-to-all bandwidth bounds).
  std::int64_t bisectionLinkCount() const;

  std::string describe() const;

 private:
  std::array<int, 3> dims_;
};

/// Returns a torus with near-cubic dimensions holding exactly `nodes`
/// nodes, mimicking how real BG/P partitions are allocated (e.g. 512 ->
/// 8x8x8, 2048 -> 8x16x16).  Requires `nodes` to factor into three
/// dimensions; always succeeds for powers of two.
Torus3D balancedTorusFor(std::int64_t nodes);

}  // namespace bgp::topo
