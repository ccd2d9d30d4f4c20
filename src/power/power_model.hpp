#pragma once
// Power and energy model (paper section IV, Table 3, and the Green500
// number of section II.C).  The paper's methodology: measure aggregate
// wall power — processors, memory, interconnects, storage and peripherals
// — while running HPL and science workloads, then derive per-core watts,
// MFlops/W, and the science-driven "power to reach a given throughput"
// metric.

#include <cstdint>

#include "arch/machine.hpp"

namespace bgp::power {

enum class LoadKind { HPL, Science, Idle };

/// Aggregate wall power (W) of `cores` cores of `machine` under a load.
double systemPowerWatts(const arch::MachineConfig& machine,
                        std::int64_t cores, LoadKind load);

/// MFlops per watt — the Green500 metric.
double mflopsPerWatt(double flopsPerSec, double watts);

}  // namespace bgp::power
