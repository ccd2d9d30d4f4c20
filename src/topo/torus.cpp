#include "topo/torus.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace bgp::topo {

Torus3D::Torus3D(int dimX, int dimY, int dimZ) : dims_{dimX, dimY, dimZ} {
  BGP_REQUIRE_MSG(dimX >= 1 && dimY >= 1 && dimZ >= 1,
                  "torus dimensions must be positive");
}

NodeId Torus3D::nodeAt(Coord3 c) const {
  BGP_REQUIRE_MSG(contains(c), "coordinate outside torus");
  return static_cast<NodeId>((static_cast<std::int64_t>(c.z) * dims_[1] + c.y) *
                                 dims_[0] +
                             c.x);
}

Coord3 Torus3D::coordOf(NodeId id) const {
  BGP_REQUIRE(id >= 0 && id < count());
  Coord3 c;
  c.x = static_cast<int>(id % dims_[0]);
  const auto rest = id / dims_[0];
  c.y = static_cast<int>(rest % dims_[1]);
  c.z = static_cast<int>(rest / dims_[1]);
  return c;
}

bool Torus3D::contains(Coord3 c) const {
  return c.x >= 0 && c.x < dims_[0] && c.y >= 0 && c.y < dims_[1] && c.z >= 0 &&
         c.z < dims_[2];
}

int Torus3D::shortestDelta(int axis, int from, int to) const {
  BGP_REQUIRE(axis >= 0 && axis < 3);
  const int n = dims_[axis];
  BGP_REQUIRE(from >= 0 && from < n && to >= 0 && to < n);
  int delta = to - from;
  if (delta > n / 2) delta -= n;
  if (delta < -(n - 1) / 2) delta += n;
  // For even n, a displacement of exactly n/2 stays positive by the rules
  // above (delta == n/2 is not > n/2).
  return delta;
}

int Torus3D::hopDistance(NodeId a, NodeId b) const {
  const Coord3 ca = coordOf(a);
  const Coord3 cb = coordOf(b);
  return std::abs(shortestDelta(0, ca.x, cb.x)) +
         std::abs(shortestDelta(1, ca.y, cb.y)) +
         std::abs(shortestDelta(2, ca.z, cb.z));
}

NodeId Torus3D::neighbor(NodeId n, Dir d) const {
  Coord3 c = coordOf(n);
  auto wrap = [](int v, int dim) { return (v + dim) % dim; };
  switch (d) {
    case Dir::XPlus:
      c.x = wrap(c.x + 1, dims_[0]);
      break;
    case Dir::XMinus:
      c.x = wrap(c.x - 1, dims_[0]);
      break;
    case Dir::YPlus:
      c.y = wrap(c.y + 1, dims_[1]);
      break;
    case Dir::YMinus:
      c.y = wrap(c.y - 1, dims_[1]);
      break;
    case Dir::ZPlus:
      c.z = wrap(c.z + 1, dims_[2]);
      break;
    case Dir::ZMinus:
      c.z = wrap(c.z - 1, dims_[2]);
      break;
  }
  return nodeAt(c);
}

std::vector<LinkId> Torus3D::route(NodeId src, NodeId dst) const {
  return routeOrdered(src, dst, {0, 1, 2});
}

std::vector<LinkId> Torus3D::routeOrdered(
    NodeId src, NodeId dst, const std::array<int, 3>& axisOrder) const {
  BGP_REQUIRE(src >= 0 && src < count() && dst >= 0 && dst < count());
  {
    std::array<bool, 3> seen{};
    for (int a : axisOrder) {
      BGP_REQUIRE_MSG(a >= 0 && a < 3 && !seen[static_cast<std::size_t>(a)],
                      "axis order must be a permutation of {0,1,2}");
      seen[static_cast<std::size_t>(a)] = true;
    }
  }
  std::vector<LinkId> links(static_cast<std::size_t>(maxHops()));
  links.resize(static_cast<std::size_t>(
      routeLinks(src, dst, axisOrder, links.data())));
  return links;
}

int Torus3D::routeLinks(NodeId src, NodeId dst,
                        const std::array<int, 3>& axisOrder,
                        LinkId* out) const {
  const Coord3 from = coordOf(src);
  const Coord3 to = coordOf(dst);
  const int cur[3] = {from.x, from.y, from.z};
  const int target[3] = {to.x, to.y, to.z};
  const NodeId stride[3] = {1, dims_[0], dims_[0] * dims_[1]};
  NodeId at = src;
  int hops = 0;
  for (const int axis : axisOrder) {
    const int n = dims_[axis];
    const NodeId step = stride[axis];
    const NodeId wrap = step * (n - 1);  // jump from one edge to the other
    int c = cur[axis];
    // shortestDelta's rule, ties (exactly n/2) going positive.
    int delta = target[axis] - c;
    if (delta > n / 2) delta -= n;
    if (delta < -(n - 1) / 2) delta += n;
    if (delta > 0) {
      const int dir = 2 * axis;  // XPlus, YPlus, ZPlus
      for (; delta != 0; --delta) {
        out[hops++] = at * kNumDirs + dir;
        if (c == n - 1) {
          at -= wrap;
          c = 0;
        } else {
          at += step;
          ++c;
        }
      }
    } else {
      const int dir = 2 * axis + 1;  // XMinus, YMinus, ZMinus
      for (; delta != 0; ++delta) {
        out[hops++] = at * kNumDirs + dir;
        if (c == 0) {
          at += wrap;
          c = n - 1;
        } else {
          at -= step;
          --c;
        }
      }
    }
  }
  BGP_CHECK(at == dst);
  return hops;
}

std::int64_t Torus3D::bisectionLinkCount() const {
  // Cut the longest dimension in half: each of the (area) node pairs on the
  // cut plane contributes one link per direction, and the wrap-around adds
  // a second plane — except when the dimension is too short to wrap (<= 2,
  // where both "halves" are adjacent through the same links).
  const int longest = std::max({dims_[0], dims_[1], dims_[2]});
  std::int64_t area = count() / longest;
  const int planes = longest > 2 ? 2 : 1;
  return 2 * planes * area;  // 2x for the two directed links per plane cut
}

std::string Torus3D::describe() const {
  return std::to_string(dims_[0]) + "x" + std::to_string(dims_[1]) + "x" +
         std::to_string(dims_[2]);
}

Torus3D balancedTorusFor(std::int64_t nodes) {
  BGP_REQUIRE_MSG(nodes >= 1, "need at least one node");
  // Find the factorization a*b*c == nodes minimizing the largest dimension
  // (then the spread).  Scan divisors; nodes in practice is <= ~100k so the
  // O(nodes^(2/3)) scan is trivial.
  int bestA = 1, bestB = 1;
  std::int64_t bestC = nodes;
  auto better = [](std::int64_t a1, std::int64_t b1, std::int64_t c1,
                   std::int64_t a2, std::int64_t b2, std::int64_t c2) {
    const auto max1 = std::max({a1, b1, c1});
    const auto max2 = std::max({a2, b2, c2});
    if (max1 != max2) return max1 < max2;
    return std::min({a1, b1, c1}) > std::min({a2, b2, c2});
  };
  for (std::int64_t a = 1; a * a * a <= nodes; ++a) {
    if (nodes % a != 0) continue;
    const std::int64_t rest = nodes / a;
    for (std::int64_t b = a; b * b <= rest; ++b) {
      if (rest % b != 0) continue;
      const std::int64_t c = rest / b;
      if (better(a, b, c, bestA, bestB, bestC)) {
        bestA = static_cast<int>(a);
        bestB = static_cast<int>(b);
        bestC = c;
      }
    }
  }
  return Torus3D(bestA, bestB, static_cast<int>(bestC));
}

}  // namespace bgp::topo
