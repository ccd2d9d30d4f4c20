#include "arch/exec_mode.hpp"

#include "support/expect.hpp"
#include "support/units.hpp"

namespace bgp::arch {

int tasksPerNode(ExecMode mode, const MachineConfig& machine) {
  switch (mode) {
    case ExecMode::SMP:
      return 1;
    case ExecMode::DUAL:
      BGP_REQUIRE_MSG(machine.maxTasksPerNode >= 2,
                      machine.name + " cannot run DUAL mode");
      return 2;
    case ExecMode::VN:
      return machine.maxTasksPerNode;
  }
  BGP_UNREACHABLE();
}

int threadsPerTask(ExecMode mode, const MachineConfig& machine,
                   bool useOpenMP) {
  if (!useOpenMP || !machine.supportsOpenMP) return 1;
  const int tasks = tasksPerNode(mode, machine);
  return machine.coresPerNode / tasks > 0 ? machine.coresPerNode / tasks : 1;
}

double memPerTaskBytes(ExecMode mode, const MachineConfig& machine) {
  return machine.memPerNodeGiB * units::GiB /
         tasksPerNode(mode, machine);
}

std::string toString(ExecMode mode) {
  switch (mode) {
    case ExecMode::SMP:
      return "SMP";
    case ExecMode::DUAL:
      return "DUAL";
    case ExecMode::VN:
      return "VN";
  }
  BGP_UNREACHABLE();
}

}  // namespace bgp::arch
