// Tests for the power/energy model (Table 3 arithmetic).

#include <gtest/gtest.h>

#include "arch/machines.hpp"
#include "power/power_model.hpp"
#include "support/expect.hpp"

namespace bgp::power {
namespace {

using arch::machineByName;

TEST(Power, Table3AggregatePower) {
  // Table 3: BG/P 8192 cores -> 63 kW under HPL, 60 kW normal;
  // XT/QC 30976 cores -> 1580 kW HPL, 1500 kW normal.
  const auto bgp = machineByName("BG/P");
  EXPECT_NEAR(systemPowerWatts(bgp, 8192, LoadKind::HPL), 63e3, 1e3);
  EXPECT_NEAR(systemPowerWatts(bgp, 8192, LoadKind::Science), 60e3, 1e3);
  const auto xt = machineByName("XT4/QC");
  EXPECT_NEAR(systemPowerWatts(xt, 30976, LoadKind::HPL), 1580e3, 10e3);
  EXPECT_NEAR(systemPowerWatts(xt, 30976, LoadKind::Science), 1500e3, 10e3);
}

TEST(Power, PerCoreDifferenceIs6point6x) {
  // "BG/P required about 7.7 watts per core in contrast to the Cray XT
  // which required about 51.0 watts per core - a difference of 6.6 times."
  const double ratio = machineByName("XT4/QC").wattsPerCoreHPL /
                       machineByName("BG/P").wattsPerCoreHPL;
  EXPECT_NEAR(ratio, 6.6, 0.1);
}

TEST(Power, MflopsPerWattTable3) {
  // BG/P: 21.9 TF / 63 kW = 347.6 MF/W; XT: 205 TF / 1580 kW = 129.7.
  EXPECT_NEAR(mflopsPerWatt(21.9e12, 63e3), 347.6, 1.0);
  EXPECT_NEAR(mflopsPerWatt(205.0e12, 1580e3), 129.7, 1.0);
  // Ratio ~2.68.
  EXPECT_NEAR(mflopsPerWatt(21.9e12, 63e3) / mflopsPerWatt(205.0e12, 1580e3),
              2.68, 0.05);
}

TEST(Power, IdleBelowLoad) {
  for (const auto& m : arch::allMachines()) {
    EXPECT_LT(systemPowerWatts(m, 100, LoadKind::Idle),
              systemPowerWatts(m, 100, LoadKind::Science))
        << m.name;
    EXPECT_LE(systemPowerWatts(m, 100, LoadKind::Science),
              systemPowerWatts(m, 100, LoadKind::HPL))
        << m.name;
  }
}

TEST(Power, RejectsBadInputs) {
  const auto bgp = machineByName("BG/P");
  EXPECT_THROW(systemPowerWatts(bgp, 0, LoadKind::HPL), PreconditionError);
  EXPECT_THROW(mflopsPerWatt(1e9, 0), PreconditionError);
}

}  // namespace
}  // namespace bgp::power
