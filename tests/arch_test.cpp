// Unit tests for machine configurations, execution modes, and the node
// roofline model — including checks that the configs encode the paper's
// Table 1 facts.

#include <gtest/gtest.h>

#include "arch/exec_mode.hpp"
#include "arch/machines.hpp"
#include "arch/node_model.hpp"
#include "support/expect.hpp"

namespace bgp::arch {
namespace {

// ---- machine configs vs. paper Table 1 / section I.A -------------------------

TEST(Machines, BgpMatchesPaperTable1) {
  const MachineConfig m = makeBGP();
  EXPECT_EQ(m.coresPerNode, 4);
  EXPECT_DOUBLE_EQ(m.clockGHz, 0.85);
  EXPECT_DOUBLE_EQ(m.peakFlopsPerCore(), 3.4e9);   // section I.A
  EXPECT_DOUBLE_EQ(m.peakFlopsPerNode(), 13.6e9);  // section I.A
  EXPECT_TRUE(m.cacheCoherent);
  EXPECT_DOUBLE_EQ(m.l3MiB, 8);
  EXPECT_DOUBLE_EQ(m.memPerNodeGiB, 2);
  EXPECT_TRUE(m.hasTreeNetwork);
  EXPECT_TRUE(m.hasBarrierNetwork);
  EXPECT_EQ(m.maxTasksPerNode, 4);
  EXPECT_EQ(m.coresPerRack, 4096);
}

TEST(Machines, BgpTorusLinkIs425MBs) {
  // Section I.A: 425 MB/s per direction per link, 5.1 GB/s bidirectional.
  const MachineConfig m = makeBGP();
  EXPECT_DOUBLE_EQ(m.linkBandwidthGBs, 0.425);
  EXPECT_NEAR(m.linkBandwidthGBs * 6 * 2, 5.1, 0.01);
}

TEST(Machines, BglMatchesPaper) {
  const MachineConfig m = makeBGL();
  EXPECT_EQ(m.coresPerNode, 2);
  EXPECT_DOUBLE_EQ(m.clockGHz, 0.70);
  EXPECT_FALSE(m.cacheCoherent);  // Table 1: software coherence
  EXPECT_FALSE(m.supportsOpenMP);
  EXPECT_DOUBLE_EQ(m.peakFlopsPerNode(), 5.6e9);
}

TEST(Machines, Xt4QcMatchesPaper) {
  const MachineConfig m = makeXT4QC();
  EXPECT_EQ(m.coresPerNode, 4);
  EXPECT_DOUBLE_EQ(m.clockGHz, 2.1);
  // Section II.A: "Both the BG/P and quad-core XT can produce four
  // floating point results per cycle."
  EXPECT_EQ(m.flopsPerCyclePerCore, 4);
  EXPECT_DOUBLE_EQ(m.peakFlopsPerCore(), 8.4e9);
  EXPECT_FALSE(m.hasTreeNetwork);
  EXPECT_DOUBLE_EQ(m.memPerNodeGiB, 8);  // 4x the BG/P (section II.A)
}

TEST(Machines, PerCorePeakOrdering) {
  // XT4/QC > XT3/XT4DC > BG/P > BG/L per core.
  EXPECT_GT(makeXT4QC().peakFlopsPerCore(), makeXT3().peakFlopsPerCore());
  EXPECT_GT(makeXT3().peakFlopsPerCore(), makeBGP().peakFlopsPerCore());
  EXPECT_GT(makeBGP().peakFlopsPerCore(), 0.0);
}

TEST(Machines, PowerPerCoreMatchesTable3) {
  EXPECT_DOUBLE_EQ(makeBGP().wattsPerCoreHPL, 7.7);
  EXPECT_DOUBLE_EQ(makeBGP().wattsPerCoreNormal, 7.3);
  EXPECT_DOUBLE_EQ(makeXT4QC().wattsPerCoreHPL, 51.0);
  EXPECT_DOUBLE_EQ(makeXT4QC().wattsPerCoreNormal, 48.4);
}

TEST(Machines, DensityBgpFarDenserThanXt) {
  // Section I.A: 4096 cores/rack vs 384 (XT4/QC) and 192 (XT3).
  EXPECT_EQ(makeBGP().coresPerRack / makeXT4QC().coresPerRack, 10);
  EXPECT_EQ(makeXT3().coresPerRack, 192);
}

TEST(Machines, RegistryLookup) {
  EXPECT_EQ(machineByName("BG/P").name, "BG/P");
  EXPECT_EQ(machineByName("XT4/QC").coresPerNode, 4);
  EXPECT_EQ(allMachines().size(), 5u);
  EXPECT_THROW(machineByName("Roadrunner"), PreconditionError);
}

TEST(Machines, MemBandwidthSaturates) {
  const MachineConfig m = makeBGP();
  EXPECT_DOUBLE_EQ(m.memBandwidth(1), m.streamSingleCoreGBs * 1e9);
  EXPECT_DOUBLE_EQ(m.memBandwidth(4), m.memBWPerNodeGBs * 1e9);
  EXPECT_DOUBLE_EQ(m.memBandwidth(8), m.memBWPerNodeGBs * 1e9);  // clamped
}

// ---- exec modes ---------------------------------------------------------------

TEST(ExecMode, TasksPerNode) {
  const MachineConfig bgp = makeBGP();
  EXPECT_EQ(tasksPerNode(ExecMode::SMP, bgp), 1);
  EXPECT_EQ(tasksPerNode(ExecMode::DUAL, bgp), 2);
  EXPECT_EQ(tasksPerNode(ExecMode::VN, bgp), 4);
  const MachineConfig xt3 = makeXT3();
  EXPECT_EQ(tasksPerNode(ExecMode::VN, xt3), 2);
}

TEST(ExecMode, ThreadsPerTask) {
  const MachineConfig bgp = makeBGP();
  EXPECT_EQ(threadsPerTask(ExecMode::SMP, bgp, true), 4);
  EXPECT_EQ(threadsPerTask(ExecMode::DUAL, bgp, true), 2);
  EXPECT_EQ(threadsPerTask(ExecMode::VN, bgp, true), 1);
  EXPECT_EQ(threadsPerTask(ExecMode::SMP, bgp, false), 1);
  // BG/L cannot thread at all.
  EXPECT_EQ(threadsPerTask(ExecMode::SMP, makeBGL(), true), 1);
}

TEST(ExecMode, MemPerTask) {
  const MachineConfig bgp = makeBGP();
  const double gib = 1024.0 * 1024.0 * 1024.0;
  EXPECT_DOUBLE_EQ(memPerTaskBytes(ExecMode::SMP, bgp), 2 * gib);
  EXPECT_DOUBLE_EQ(memPerTaskBytes(ExecMode::VN, bgp), 0.5 * gib);
}

TEST(ExecMode, Strings) {
  EXPECT_EQ(toString(ExecMode::DUAL), "DUAL");
}

// ---- node model ----------------------------------------------------------------

TEST(NodeModel, ComputeBoundWork) {
  const MachineConfig m = makeBGP();
  const NodeModel nm(m);
  // 3.4 GFlop of perfectly efficient flops on one core = 1 second.
  const Work w{3.4e9, 0.0, 1.0};
  EXPECT_NEAR(nm.time(w, 1, 4), 1.0, 1e-9);
}

TEST(NodeModel, MemoryBoundWork) {
  const MachineConfig m = makeBGP();
  const NodeModel nm(m);
  // Pure streaming: node bandwidth split across 4 VN tasks.
  const Work w{0.0, 1e9, 1.0};
  const double t = nm.time(w, 1, 4);
  EXPECT_NEAR(t, 1e9 / (m.memBWPerNodeGBs * 1e9 / 4), 1e-9);
}

TEST(NodeModel, RooflineTakesMax) {
  const MachineConfig m = makeBGP();
  const NodeModel nm(m);
  const Work wc{3.4e9, 1.0, 1.0};   // compute dominated
  const Work wm{1.0, 1e9, 1.0};     // memory dominated
  EXPECT_GT(nm.time(wc, 1, 4), 0.9);
  EXPECT_GT(nm.time(wm, 1, 4), 0.1);
}

TEST(NodeModel, SmpTaskGetsMoreBandwidthThanVnTask) {
  const MachineConfig m = makeBGP();
  const NodeModel nm(m);
  const Work w{0.0, 1e9, 1.0};
  // One SMP task with 4 threads streams the whole node; a VN task gets 1/4.
  EXPECT_LT(nm.time(w, 4, 1), nm.time(w, 1, 4));
}

TEST(NodeModel, ThreadSpeedup) {
  const NodeModel nm(machineByName("BG/P"));
  EXPECT_DOUBLE_EQ(nm.threadSpeedup(1), 1.0);
  EXPECT_NEAR(nm.threadSpeedup(4), 1.0 + 3 * 0.9, 1e-12);
}

TEST(NodeModel, FlopEfficiencyScalesTime) {
  const NodeModel nm(machineByName("BG/P"));
  const Work full{1e9, 0.0, 1.0};
  const Work half{1e9, 0.0, 0.5};
  EXPECT_NEAR(nm.time(half, 1, 1), 2 * nm.time(full, 1, 1), 1e-12);
}

TEST(NodeModel, RejectsBadWork) {
  const NodeModel nm(machineByName("BG/P"));
  EXPECT_THROW(nm.time(Work{-1, 0, 1}, 1, 1), PreconditionError);
  EXPECT_THROW(nm.time(Work{1, 0, 0.0}, 1, 1), PreconditionError);
  EXPECT_THROW(nm.time(Work{1, 0, 1.5}, 1, 1), PreconditionError);
}

TEST(NodeModel, WorkComposition) {
  Work a{1e6, 2e6, 0.9};
  const Work b{3e6, 4e6, 0.5};
  a += b;
  EXPECT_DOUBLE_EQ(a.flops, 4e6);
  EXPECT_DOUBLE_EQ(a.memBytes, 6e6);
  EXPECT_DOUBLE_EQ(a.flopEfficiency, 0.5);  // conservative combine
  const Work scaled = b * 2.0;
  EXPECT_DOUBLE_EQ(scaled.flops, 6e6);
}

TEST(Machines, OsNoiseOnlyOnLinuxNodes) {
  // CNK (BlueGene) and the XT microkernel heritage: the paper's BG/P runs
  // are noiseless; the CNL-based XT configurations carry jitter.
  EXPECT_DOUBLE_EQ(makeBGP().osNoiseFraction, 0.0);
  EXPECT_DOUBLE_EQ(makeBGL().osNoiseFraction, 0.0);
  EXPECT_GT(makeXT4QC().osNoiseFraction, 0.0);
}

TEST(NodeModel, DgemmRateBgpNear3GFs) {
  // HPCC-style single-core DGEMM on BG/P lands near 3 GF/s (Table 2 zone).
  const MachineConfig m = makeBGP();
  const NodeModel nm(m);
  const Work dgemm{1e9, 1e6, m.dgemmEfficiency};
  const double rate = nm.flopRate(dgemm, 1, 4);
  EXPECT_GT(rate, 2.8e9);
  EXPECT_LT(rate, 3.2e9);
}

TEST(NodeModel, DgemmRateXt4QcNear7GFs) {
  const MachineConfig m = makeXT4QC();
  const NodeModel nm(m);
  const Work dgemm{1e9, 1e6, m.dgemmEfficiency};
  const double rate = nm.flopRate(dgemm, 1, 4);
  EXPECT_GT(rate, 6.5e9);
  EXPECT_LT(rate, 7.6e9);
}

}  // namespace
}  // namespace bgp::arch
