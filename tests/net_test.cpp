// Unit + property tests for the torus network timing model and the
// collective cost model.

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "arch/machines.hpp"
#include "net/collective_model.hpp"
#include "net/system.hpp"
#include "net/torus_network.hpp"

namespace bgp::net {
namespace {

TorusParams simpleParams() {
  TorusParams p;
  p.linkBandwidth = 1e9;  // 1 GB/s: easy arithmetic
  p.hopLatency = 1e-7;
  p.swLatency = 1e-6;
  p.shmBandwidth = 4e9;
  p.shmLatency = 5e-7;
  return p;
}

TEST(TorusNetwork, NearestNeighborLatency) {
  TorusNetwork net(topo::Torus3D(4, 4, 4), simpleParams());
  const auto tr = net.transfer(0, 1, 0.0, 0.0);
  // sw + 1 hop + sw for a zero-byte message.
  EXPECT_NEAR(tr.arrival, 1e-6 + 1e-7 + 1e-6, 1e-12);
}

TEST(TorusNetwork, BandwidthDominatesLargeMessages) {
  TorusNetwork net(topo::Torus3D(4, 4, 4), simpleParams());
  const double bytes = 1e8;  // 100 MB over 1 GB/s = 0.1 s
  const auto tr = net.transfer(0, 1, bytes, 0.0);
  EXPECT_NEAR(tr.arrival, 0.1, 0.001);
}

TEST(TorusNetwork, CutThroughNotStoreAndForward) {
  // Multi-hop serialization must not multiply: a 7-hop transfer of B bytes
  // takes ~B/bw + hops*hopLat, not 7*B/bw.
  TorusNetwork net(topo::Torus3D(8, 8, 8), simpleParams());
  const topo::Torus3D& t = net.torus();
  const auto src = t.nodeAt({0, 0, 0});
  const auto dst = t.nodeAt({4, 2, 1});
  const double bytes = 1e7;
  const auto tr = net.transfer(src, dst, bytes, 0.0);
  EXPECT_LT(tr.arrival, 2.0 * bytes / 1e9);
  EXPECT_GT(tr.arrival, bytes / 1e9);
}

TEST(TorusNetwork, SameNodeUsesSharedMemory) {
  TorusNetwork net(topo::Torus3D(4, 4, 4), simpleParams());
  const auto tr = net.transfer(3, 3, 4e6, 0.0);
  EXPECT_NEAR(tr.arrival, 5e-7 + 4e6 / 4e9, 1e-12);
  EXPECT_DOUBLE_EQ(net.bytesRouted(), 0.0);  // touched no torus links
}

TEST(TorusNetwork, ContentionSerializesSharedLink) {
  TorusNetwork net(topo::Torus3D(8, 1, 1), simpleParams());
  const double bytes = 1e7;  // 10 ms serialization
  // Two messages both crossing link 0->1 at t=0.
  const auto a = net.transfer(0, 2, bytes, 0.0);
  const auto b = net.transfer(0, 3, bytes, 0.0);
  EXPECT_GT(b.arrival, a.arrival + 0.009);  // queued behind a
}

TEST(TorusNetwork, DisjointRoutesDoNotInterfere) {
  TorusNetwork net(topo::Torus3D(8, 8, 1), simpleParams());
  const topo::Torus3D& t = net.torus();
  const double bytes = 1e7;
  const auto a =
      net.transfer(t.nodeAt({0, 0, 0}), t.nodeAt({1, 0, 0}), bytes, 0.0);
  const auto b =
      net.transfer(t.nodeAt({0, 4, 0}), t.nodeAt({1, 4, 0}), bytes, 0.0);
  EXPECT_NEAR(a.arrival, b.arrival, 1e-12);
}

TEST(TorusNetwork, ContentionOffIsIdeal) {
  TorusParams p = simpleParams();
  p.modelContention = false;
  TorusNetwork net(topo::Torus3D(8, 1, 1), p);
  const double bytes = 1e7;
  const auto a = net.transfer(0, 2, bytes, 0.0);
  const auto b = net.transfer(0, 3, bytes, 0.0);
  EXPECT_NEAR(b.arrival - a.arrival, 1e-7, 1e-9);  // one extra hop only
}

TEST(TorusNetwork, ResetClearsOccupancy) {
  TorusNetwork net(topo::Torus3D(8, 1, 1), simpleParams());
  const double bytes = 1e7;
  const auto a = net.transfer(0, 1, bytes, 0.0);
  net.reset();
  const auto b = net.transfer(0, 1, bytes, 0.0);
  EXPECT_NEAR(a.arrival, b.arrival, 1e-12);
}

TEST(TorusNetwork, InjectedPrecedesArrival) {
  TorusNetwork net(topo::Torus3D(8, 8, 8), simpleParams());
  const auto tr = net.transfer(0, 100, 5e6, 0.0);
  EXPECT_LE(tr.injected, tr.arrival);
}

TEST(TorusNetwork, LatencyEstimateMatchesUncontendedTransfer) {
  TorusNetwork net(topo::Torus3D(8, 8, 8), simpleParams());
  const double est = net.latencyEstimate(0, 3, 1e6);
  const auto tr = net.transfer(0, 3, 1e6, 0.0);
  EXPECT_NEAR(est, tr.arrival, 0.3 * est);
}

TEST(TorusNetwork, MonotoneInSize) {
  TorusNetwork net(topo::Torus3D(8, 8, 8), simpleParams());
  double prev = 0;
  for (double bytes : {0.0, 1e3, 1e5, 1e7}) {
    net.reset();
    const auto tr = net.transfer(0, 9, bytes, 0.0);
    EXPECT_GE(tr.arrival, prev);
    prev = tr.arrival;
  }
}

TEST(TorusNetwork, BisectionBandwidth) {
  TorusNetwork net(topo::Torus3D(8, 8, 8), simpleParams());
  EXPECT_DOUBLE_EQ(net.bisectionBandwidth(), 256 * 1e9);
}

// ---- collective model ---------------------------------------------------------

struct CollFixture {
  arch::MachineConfig machine;
  topo::Torus3D torus{8, 8, 8};
  TorusNetwork net;
  CollectiveModel model;

  explicit CollFixture(const std::string& name, CollectiveParams cp = {})
      : machine(arch::machineByName(name)),
        net(torus,
            TorusParams{machine.linkBandwidthGBs * 1e9 * machine.linkEfficiency,
                        machine.hopLatency, machine.swLatency,
                        machine.shmBandwidthGBs * 1e9, machine.shmLatency,
                        true}),
        model(machine, net, cp) {}
};

TEST(Collectives, BarrierNetworkIsMicrosecondScale) {
  CollFixture f("BG/P");
  const double t = f.model.cost(CollKind::Barrier, 2048, 0);
  EXPECT_LT(t, 3e-6);   // near-constant global interrupt
  EXPECT_GT(t, 0.5e-6);
}

TEST(Collectives, XtBarrierGrowsWithLogP) {
  CollFixture f("XT4/QC");
  const double t512 = f.model.cost(CollKind::Barrier, 512, 0);
  const double t8k = f.model.cost(CollKind::Barrier, 8192, 0);
  EXPECT_GT(t8k, t512);
  EXPECT_GT(t512, 10e-6);  // much slower than the BG/P barrier network
}

TEST(Collectives, BgpBcastBeatsXtAtAllSizes) {
  // Paper Fig. 3: "the BG/P dramatically outperforms the Cray XT for all
  // message sizes showing the benefit of the special-purpose tree network."
  // Measured in VN mode, as in the paper: 4 tasks share each node's links
  // (the tree network moves one stream per node, so it is not shared).
  CollectiveParams vn;
  vn.tasksPerNode = 4;
  CollFixture bgp("BG/P", vn);
  CollFixture xt("XT4/QC", vn);
  for (double bytes : {8.0, 1024.0, 32768.0, 1048576.0}) {
    EXPECT_LT(bgp.model.cost(CollKind::Bcast, 8192, bytes),
              xt.model.cost(CollKind::Bcast, 8192, bytes))
        << "bytes=" << bytes;
  }
}

TEST(Collectives, BgpDoubleAllreduceFasterThanSingle) {
  // Paper Fig. 3 discussion: substantial benefit to double precision
  // Allreduce on BG/P but not on the XT.
  CollFixture bgp("BG/P");
  const double dbl =
      bgp.model.cost(CollKind::Allreduce, 8192, 32768, Dtype::Double);
  const double flt =
      bgp.model.cost(CollKind::Allreduce, 8192, 32768, Dtype::Float);
  EXPECT_LT(dbl, 0.75 * flt);

  CollFixture xt("XT4/QC");
  const double xdbl =
      xt.model.cost(CollKind::Allreduce, 8192, 32768, Dtype::Double);
  const double xflt =
      xt.model.cost(CollKind::Allreduce, 8192, 32768, Dtype::Float);
  EXPECT_NEAR(xdbl, xflt, 0.05 * xflt);
}

TEST(Collectives, CostsMonotoneInSize) {
  CollFixture f("BG/P");
  for (auto kind : {CollKind::Bcast, CollKind::Allreduce, CollKind::Alltoall,
                    CollKind::Allgather}) {
    double prev = -1;
    for (double bytes : {8.0, 1e3, 1e5, 1e6}) {
      const double t = f.model.cost(kind, 1024, bytes);
      EXPECT_GE(t, prev) << toString(kind);
      prev = t;
    }
  }
}

TEST(Collectives, CostsGrowSlowlyWithRanksOnTree) {
  // Tree collectives scale ~log p: 8x ranks adds far less than 2x time.
  CollFixture f("BG/P");
  const double t1k = f.model.cost(CollKind::Allreduce, 1024, 32768);
  const double t8k = f.model.cost(CollKind::Allreduce, 8192, 32768);
  EXPECT_GT(t8k, t1k * 0.99);
  EXPECT_LT(t8k, t1k * 1.5);
}

TEST(Collectives, TreeAblationSlowsBgpBcast) {
  CollectiveParams noTree;
  noTree.useTreeNetwork = false;
  CollFixture with("BG/P");
  CollFixture without("BG/P", noTree);
  EXPECT_GT(without.model.cost(CollKind::Bcast, 4096, 32768),
            2 * with.model.cost(CollKind::Bcast, 4096, 32768));
}

TEST(Collectives, AlltoallBoundByBisection) {
  CollFixture f("XT4/QC");
  // Volume grows ~p^2; per-rank time must grow superlinearly in p for
  // fixed per-pair bytes once bisection binds.
  const double t512 = f.model.cost(CollKind::Alltoall, 512, 4096);
  const double t4096 = f.model.cost(CollKind::Alltoall, 4096, 4096);
  EXPECT_GT(t4096, 7 * t512);
}

TEST(Collectives, SingleRankIsCheap) {
  CollFixture f("BG/P");
  EXPECT_LT(f.model.cost(CollKind::Allreduce, 1, 1e6), 1e-5);
}

TEST(Collectives, VnModeSharingSlowsTorusCollectives) {
  CollectiveParams vn;
  vn.tasksPerNode = 4;
  CollFixture smp("XT4/QC");
  CollFixture vn4("XT4/QC", vn);
  EXPECT_GT(vn4.model.cost(CollKind::Bcast, 1024, 1e6),
            smp.model.cost(CollKind::Bcast, 1024, 1e6));
}

TEST(Collectives, DtypeBytes) {
  EXPECT_DOUBLE_EQ(bytesOf(Dtype::Double), 8);
  EXPECT_DOUBLE_EQ(bytesOf(Dtype::Float), 4);
  EXPECT_DOUBLE_EQ(bytesOf(Dtype::Byte), 1);
}

// ---- System -------------------------------------------------------------------

TEST(System, BuildsPartitionForRanks) {
  net::System sys(arch::machineByName("BG/P"), 8192);
  EXPECT_EQ(sys.nranks(), 8192);
  EXPECT_EQ(sys.tasksPerNode(), 4);  // VN default
  EXPECT_EQ(sys.nodes(), 2048);
}

TEST(System, SmpModeUsesMoreNodes) {
  net::SystemOptions opts;
  opts.mode = arch::ExecMode::SMP;
  net::System sys(arch::machineByName("BG/P"), 2048, opts);
  EXPECT_EQ(sys.nodes(), 2048);
  EXPECT_EQ(sys.tasksPerNode(), 1);
}

TEST(System, OpenMpThreadsInSmpMode) {
  net::SystemOptions opts;
  opts.mode = arch::ExecMode::SMP;
  opts.useOpenMP = true;
  net::System sys(arch::machineByName("BG/P"), 512, opts);
  EXPECT_EQ(sys.threadsPerTask(), 4);
}

TEST(System, PeakFlopsCountsAllocatedCores) {
  net::System sys(arch::machineByName("BG/P"), 8192);  // VN: 1 core/task
  EXPECT_NEAR(sys.peakFlops(), 8192 * 3.4e9, 1e6);
}

TEST(System, ComputeTimeUsesMode) {
  net::SystemOptions vn;
  net::SystemOptions smp;
  smp.mode = arch::ExecMode::SMP;
  smp.useOpenMP = true;
  net::System sysVn(arch::machineByName("BG/P"), 256, vn);
  net::System sysSmp(arch::machineByName("BG/P"), 64, smp);
  const arch::Work w{1e9, 0, 1.0};
  // SMP task with 4 threads runs the same work ~3.7x faster.
  EXPECT_LT(sysSmp.computeTime(w), sysVn.computeTime(w) / 3);
}

TEST(System, MappingOrderRespected) {
  net::SystemOptions opts;
  opts.mappingOrder = "XYZT";
  net::System sys(arch::machineByName("BG/P"), 1024, opts);
  EXPECT_EQ(sys.mapping().order(), "XYZT");
  // XYZT: consecutive ranks on different nodes (until X wraps).
  EXPECT_NE(sys.nodeOf(0), sys.nodeOf(1));
}

TEST(System, EagerThresholdOverride) {
  net::SystemOptions opts;
  opts.eagerThresholdOverride = 9999;
  net::System sys(arch::machineByName("BG/P"), 64, opts);
  EXPECT_DOUBLE_EQ(sys.eagerThreshold(), 9999);
}

// ---- generated routes -------------------------------------------------------
// The network generates each route per message from torus coordinates.
// The oracle below is the hop-by-hop walk it replaced: one neighbor() step
// (a coordinate decomposition) per hop, directions from shortestDelta.

std::vector<topo::LinkId> neighborWalkRoute(const topo::Torus3D& t,
                                            topo::NodeId src,
                                            topo::NodeId dst,
                                            const std::array<int, 3>& order) {
  using topo::Dir;
  const Dir plus[3] = {Dir::XPlus, Dir::YPlus, Dir::ZPlus};
  const Dir minus[3] = {Dir::XMinus, Dir::YMinus, Dir::ZMinus};
  const topo::Coord3 a = t.coordOf(src);
  const topo::Coord3 b = t.coordOf(dst);
  const int from[3] = {a.x, a.y, a.z};
  const int to[3] = {b.x, b.y, b.z};
  std::vector<topo::LinkId> links;
  topo::NodeId at = src;
  for (const int axis : order) {
    for (int d = t.shortestDelta(axis, from[axis], to[axis]); d != 0;
         d += d > 0 ? -1 : 1) {
      const Dir dir = d > 0 ? plus[axis] : minus[axis];
      links.push_back(t.linkFrom(at, dir));
      at = t.neighbor(at, dir);
    }
  }
  EXPECT_EQ(at, dst);
  return links;
}

const topo::Torus3D kRouteTori[] = {topo::Torus3D(1, 1, 1),
                                    topo::Torus3D(2, 2, 2),
                                    topo::Torus3D(3, 5, 7),
                                    topo::Torus3D(8, 8, 16)};
constexpr std::array<int, 3> kXyz = {0, 1, 2};
constexpr std::array<int, 3> kZyx = {2, 1, 0};

/// Records the links of committed claims, in claim order.
class ClaimLog final : public TorusNetwork::LinkObserver {
 public:
  void onLinkClaim(topo::LinkId link, sim::SimTime, double, double,
                   double) override {
    links.push_back(link);
  }
  void onShmTransfer(double, sim::SimTime) override {}
  std::vector<topo::LinkId> links;
};

TEST(GeneratedRoutes, EqualNeighborWalkForEveryPairAndAxisOrder) {
  for (const topo::Torus3D& t : kRouteTori) {
    const auto n = static_cast<topo::NodeId>(t.count());
    for (topo::NodeId src = 0; src < n; ++src)
      for (topo::NodeId dst = 0; dst < n; ++dst)
        for (const auto& order : {kXyz, kZyx}) {
          const auto got = t.routeOrdered(src, dst, order);
          ASSERT_EQ(got, neighborWalkRoute(t, src, dst, order))
              << t.describe() << " " << src << "->" << dst;
          ASSERT_LE(got.size(), static_cast<std::size_t>(t.maxHops()));
        }
  }
}

TEST(GeneratedRoutes, HalfwayTiesGoPositive) {
  // Even dims: a displacement of exactly n/2 routes in the + direction,
  // wrapping around the edge when the source sits in the upper half.
  const topo::Torus3D t(8, 8, 16);
  const auto at = [&](int x, int y, int z) {
    return t.nodeAt(topo::Coord3{x, y, z});
  };
  const auto tieX = t.route(at(6, 0, 0), at(2, 0, 0));  // 6 -> 7 -> 0 -> 1 -> 2
  ASSERT_EQ(tieX.size(), 4u);
  EXPECT_EQ(tieX.front(), t.linkFrom(at(6, 0, 0), topo::Dir::XPlus));
  EXPECT_EQ(tieX.back(), t.linkFrom(at(1, 0, 0), topo::Dir::XPlus));
  const auto tieZ = t.route(at(0, 0, 3), at(0, 0, 11));
  ASSERT_EQ(tieZ.size(), 8u);
  for (std::size_t i = 0; i < tieZ.size(); ++i)
    EXPECT_EQ(tieZ[i], t.linkFrom(at(0, 0, 3 + static_cast<int>(i)),
                                  topo::Dir::ZPlus));
  // One short of the tie goes the other way round.
  const auto back = t.route(at(0, 0, 3), at(0, 0, 12));
  ASSERT_EQ(back.size(), 7u);
  EXPECT_EQ(back.front(), t.linkFrom(at(0, 0, 3), topo::Dir::ZMinus));
}

TEST(GeneratedRoutes, NetworkClaimsTheGeneratedRoute) {
  // Deterministic routing claims exactly routeOrdered's XYZ links, in
  // order, for every pair.  Transfers start 1 s apart, long after the
  // previous one drained.
  for (const topo::Torus3D& t : kRouteTori) {
    TorusNetwork net(t, simpleParams());
    ClaimLog log;
    net.attachObserver(&log);
    const auto n = static_cast<topo::NodeId>(t.count());
    double start = 0.0;
    for (topo::NodeId src = 0; src < n; ++src)
      for (topo::NodeId dst = 0; dst < n; ++dst) {
        log.links.clear();
        net.transfer(src, dst, 64.0, start += 1.0);
        ASSERT_EQ(log.links, t.routeOrdered(src, dst, kXyz))
            << t.describe() << " " << src << "->" << dst;
      }
    EXPECT_EQ(net.routeCacheHits(), 0u);
    const auto pairs = static_cast<std::uint64_t>(n);
    EXPECT_EQ(net.routeCacheMisses(), pairs * pairs - pairs);  // self: shm
  }
}

TEST(GeneratedRoutes, AdaptiveRoutingPicksTheUncongestedOrder) {
  // Idle links: the XYZ route wins ties.  Once a large message occupies
  // it, the next message takes the ZYX route whenever that differs — two
  // distinct minimal routes share no link, so ZYX is then strictly
  // earlier — and stays on XYZ when both orders give the same route.
  TorusParams p = simpleParams();
  p.adaptiveRouting = true;
  for (const topo::Torus3D& t : kRouteTori) {
    TorusNetwork net(t, p);
    ClaimLog log;
    net.attachObserver(&log);
    const auto n = static_cast<topo::NodeId>(t.count());
    double start = 0.0;
    for (topo::NodeId src = 0; src < n; ++src)
      for (topo::NodeId dst = 0; dst < n; ++dst) {
        if (src == dst) continue;
        const auto xyz = t.routeOrdered(src, dst, kXyz);
        const auto zyx = t.routeOrdered(src, dst, kZyx);
        start += 1.0;
        log.links.clear();
        net.transfer(src, dst, 1e6, start);
        ASSERT_EQ(log.links, xyz) << t.describe() << " " << src << "->" << dst;
        log.links.clear();
        net.transfer(src, dst, 64.0, start);
        ASSERT_EQ(log.links, xyz == zyx ? xyz : zyx)
            << t.describe() << " " << src << "->" << dst;
      }
  }
}

}  // namespace
}  // namespace bgp::net
