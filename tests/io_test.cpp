// Tests for the I/O subsystem model (paper sections I.B/I.C) and the CAM
// history-write hook.

#include <gtest/gtest.h>

#include "apps/cam.hpp"
#include "arch/machines.hpp"
#include "io/io_model.hpp"
#include "support/expect.hpp"

namespace bgp::io {
namespace {

using arch::machineByName;

IoSubsystem ornlBgp(std::int64_t nodes = 2048) {
  return IoSubsystem(ioConfigFor(machineByName("BG/P"), nodes), nodes);
}

TEST(Io, IoNodeRatioMatchesPaper) {
  // Section I.B: "Each rack has 16 IO nodes; each IO node serves the I/O
  // requests from 64 compute nodes" — 2048 nodes => 32 I/O nodes.
  const auto sys = ornlBgp(2048);
  EXPECT_EQ(sys.config().computeNodesPerIoNode, 64);
  EXPECT_EQ(sys.ioNodes(), 32);
}

TEST(Io, BandwidthScalesWithIoNodesUntilServersBind) {
  // A small partition is forwarding-limited; the full machine saturates
  // the GPFS file servers.
  const auto small = ornlBgp(64);   // 1 I/O node
  const auto large = ornlBgp(2048);  // 32 I/O nodes
  const double bytes = 1e9;
  const auto wSmall = small.write(256, bytes / 256, IoPattern::Collective);
  const auto wLarge = large.write(8192, bytes / 8192, IoPattern::Collective);
  EXPECT_GT(wLarge.bandwidth, 2.0 * wSmall.bandwidth);
  EXPECT_EQ(wSmall.bottleneck, "compute->IO forwarding");
  EXPECT_EQ(wLarge.bottleneck, "file servers");
}

TEST(Io, FilePerProcessMetadataStormAtScale) {
  const auto sys = ornlBgp();
  const double bytesPerRank = 1e5;  // small files
  const auto few = sys.write(64, bytesPerRank, IoPattern::FilePerProcess);
  const auto many = sys.write(8192, bytesPerRank, IoPattern::FilePerProcess);
  // At 8192 ranks the creates dominate.
  EXPECT_EQ(many.bottleneck, "metadata");
  EXPECT_GT(many.metadataSeconds, 10 * few.metadataSeconds);
}

TEST(Io, SharedFileSlowerThanCollective) {
  const auto sys = ornlBgp();
  const double bytesPerRank = 4e6;
  const auto shared = sys.write(4096, bytesPerRank, IoPattern::SharedFile);
  const auto coll = sys.write(4096, bytesPerRank, IoPattern::Collective);
  EXPECT_GT(shared.totalSeconds, coll.totalSeconds);
}

TEST(Io, SingleWriterDoesNotScale) {
  // The CAM pathology: aggregate bandwidth is flat no matter how many
  // ranks produce the data.
  const auto sys = ornlBgp();
  const double totalBytes = 2e9;
  const auto at256 = sys.write(256, totalBytes / 256, IoPattern::SingleWriter);
  const auto at8192 =
      sys.write(8192, totalBytes / 8192, IoPattern::SingleWriter);
  EXPECT_NEAR(at256.bandwidth, at8192.bandwidth, 0.01 * at256.bandwidth);
  // While collective writes of the same volume are far faster.
  const auto coll = sys.write(8192, totalBytes / 8192, IoPattern::Collective);
  EXPECT_LT(coll.totalSeconds, 0.3 * at8192.totalSeconds);
}

TEST(Io, XtConfigDiffers) {
  const auto cfg = ioConfigFor(machineByName("XT4/QC"), 1024);
  EXPECT_NE(cfg.computeNodesPerIoNode, 64);
  EXPECT_GT(cfg.ioNodeNicBandwidth, 1.2e9);
}

TEST(Io, PatternNames) {
  EXPECT_EQ(toString(IoPattern::SingleWriter), "single-writer");
  EXPECT_EQ(toString(IoPattern::Collective), "collective");
}

TEST(Io, RejectsBadInputs) {
  const auto sys = ornlBgp();
  EXPECT_THROW(sys.write(0, 100, IoPattern::SharedFile), PreconditionError);
  EXPECT_THROW(sys.write(10, -1, IoPattern::SharedFile), PreconditionError);
}

// ---- CAM history-write hook ---------------------------------------------------------

TEST(Io, CamHistoryWriteReproducesTheIssue) {
  // Paper section III.B: CAM exposed "a system I/O performance issue on
  // the BG/P ... eliminated before collecting the data".  Single-writer
  // history output must visibly depress SYPD; collective output must
  // mostly recover it.
  // Use the large FV benchmark at scale, where a simulated day is cheap
  // enough that serialized output dominates (a small T42/T85 run barely
  // notices its history tape — which is also physically true).
  apps::CamConfig base{machineByName("BG/P"), apps::camFvHighRes(), 512,
                       false};
  const double clean = runCam(base).sypd;

  apps::CamConfig broken = base;
  broken.writeHistory = true;
  broken.historyEverySteps = 2;  // aggressive test-run output frequency
  broken.historyPattern = IoPattern::SingleWriter;
  const auto withIssue = runCam(broken);
  EXPECT_LT(withIssue.sypd, 0.75 * clean);
  EXPECT_GT(withIssue.ioSeconds, 0.0);

  apps::CamConfig fixed = base;
  fixed.writeHistory = true;
  fixed.historyEverySteps = 2;
  fixed.historyPattern = IoPattern::Collective;
  const auto cured = runCam(fixed);
  EXPECT_GT(cured.sypd, 1.2 * withIssue.sypd);
  EXPECT_GT(cured.sypd, 0.85 * clean);
}

}  // namespace
}  // namespace bgp::io
