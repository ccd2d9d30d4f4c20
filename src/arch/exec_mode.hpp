#pragma once
// Compute-node execution modes (section I.A of the paper):
//   SMP  — one MPI task per node, up to coresPerNode threads.
//   DUAL — two MPI tasks per node (new in BG/P), cores/memory split evenly.
//   VN   — one MPI task per core ("virtual node" mode).
// The Cray XT's SN/VN modes map onto SMP/VN here.

#include <string>

#include "arch/machine.hpp"

namespace bgp::arch {

enum class ExecMode { SMP, DUAL, VN };

/// MPI tasks per compute node in this mode on this machine.
int tasksPerNode(ExecMode mode, const MachineConfig& machine);

/// Threads each task may use (cores divided among tasks); 1 when the
/// machine cannot thread (e.g. BG/L's non-coherent nodes).
int threadsPerTask(ExecMode mode, const MachineConfig& machine,
                   bool useOpenMP);

/// Memory available to each task (bytes).
double memPerTaskBytes(ExecMode mode, const MachineConfig& machine);

std::string toString(ExecMode mode);

}  // namespace bgp::arch
