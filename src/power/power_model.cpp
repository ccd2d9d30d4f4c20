#include "power/power_model.hpp"

#include "support/expect.hpp"

namespace bgp::power {

double systemPowerWatts(const arch::MachineConfig& machine,
                        std::int64_t cores, LoadKind load) {
  BGP_REQUIRE(cores >= 1);
  double perCore = 0;
  switch (load) {
    case LoadKind::HPL:
      perCore = machine.wattsPerCoreHPL;
      break;
    case LoadKind::Science:
      perCore = machine.wattsPerCoreNormal;
      break;
    case LoadKind::Idle:
      perCore = machine.wattsPerCoreIdle;
      break;
  }
  BGP_CHECK_MSG(perCore > 0, "machine lacks power calibration");
  return perCore * static_cast<double>(cores);
}

double mflopsPerWatt(double flopsPerSec, double watts) {
  BGP_REQUIRE(watts > 0);
  BGP_REQUIRE(flopsPerSec >= 0);
  return flopsPerSec / 1e6 / watts;
}

}  // namespace bgp::power
