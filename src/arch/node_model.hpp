#pragma once
// Node compute-time model: a roofline over per-core flop rate and shared
// memory bandwidth, with OpenMP thread scaling.  This is what converts a
// benchmark's "do this much work" into simulated seconds, and is the reason
// VN mode sees less memory bandwidth per task than SMP mode.

#include <utility>

#include "arch/machine.hpp"

namespace bgp::arch {

/// A unit of computational work, expressed machine-independently.
struct Work {
  double flops = 0.0;     // floating point operations
  double memBytes = 0.0;  // bytes moved to/from main memory
  /// Fraction of peak flop rate this kernel can sustain when compute-bound
  /// (e.g. ~0.9 for DGEMM, ~0.15 for irregular stencil code).
  double flopEfficiency = 1.0;

  Work& operator+=(const Work& o) {
    flops += o.flops;
    memBytes += o.memBytes;
    // Keep the more conservative efficiency when combining.
    flopEfficiency = flopEfficiency < o.flopEfficiency ? flopEfficiency
                                                       : o.flopEfficiency;
    return *this;
  }
  friend Work operator*(Work w, double k) {
    w.flops *= k;
    w.memBytes *= k;
    return w;
  }
};

class NodeModel {
 public:
  explicit NodeModel(MachineConfig machine) : machine_(std::move(machine)) {}

  /// Time for one task to execute `w` using `threads` OpenMP threads while
  /// `tasksOnNode` tasks are active on the node (all assumed symmetric).
  /// Roofline: max(compute time, memory time) under the task's share of the
  /// node memory bandwidth.  `slowdown` (>= 1) scales the result — the
  /// fault plane's straggler hook (sim/fault.hpp); 1.0 is a healthy node.
  double time(const Work& w, int threads, int tasksOnNode,
              double slowdown = 1.0) const;

  /// Flop rate (flops/s) one task sustains for `w` (flops / time); 0 when
  /// `w.flops == 0`.
  double flopRate(const Work& w, int threads, int tasksOnNode) const;

  /// Effective parallel speedup of `threads` threads given the machine's
  /// OpenMP efficiency (1 + (t-1)*eff).
  double threadSpeedup(int threads) const;

  const MachineConfig& machine() const { return machine_; }

 private:
  MachineConfig machine_;
};

}  // namespace bgp::arch
