#pragma once
// The smpilint scenario registry: every paper figure/table workload plus
// the stress programs, packaged so the analyzer can run them in capture
// mode.  Sizes are reduced from the paper's (the analyzer reasons about
// the communication *pattern*, which is rank-count invariant for these
// codes, and vector clocks cost O(ops x ranks)); the full-size runs stay
// in bench/.

#include <functional>
#include <string>
#include <vector>

#include "smpi/analysis/report.hpp"

namespace bgp::smpi::analysis {

struct Scenario {
  std::string name;   // e.g. "fig2_halo_sendrecv"
  std::string group;  // "paper" or "stress"
  std::string what;   // one-line description for --list
  /// Runs the workload; every Simulation it constructs is captured by the
  /// caller's CaptureScope.
  std::function<void()> run;
  /// False for purely analytic proxies (CAM, GYRO, MD) that model their
  /// communication in closed form and never construct a Simulation: zero
  /// captures is the expected outcome there, not a broken hook.
  bool expectsCapture = true;
};

/// All registered scenarios, paper group first.
const std::vector<Scenario>& scenarios();

struct ScenarioResult {
  std::string name;
  /// One report per Simulation the scenario constructed.
  std::vector<Report> reports;
  bool failed = false;  // the workload itself threw
  std::string error;

  bool clean() const {
    if (failed) return false;
    for (const Report& r : reports)
      if (!r.clean()) return false;
    return true;
  }
};

/// Runs one scenario under a CaptureScope and analyzes every graph.  A
/// workload exception is recorded in `failed`/`error` (the graphs of the
/// runs up to that point, the failed one included, are still analyzed —
/// that is how divergence defects are localized even though the runtime
/// aborts).
ScenarioResult runScenario(const Scenario& scenario);

}  // namespace bgp::smpi::analysis
