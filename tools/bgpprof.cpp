// bgpprof: observability-plane profiler driver.
//
// Runs registered scenarios (the same registry smpilint uses) under an
// obs::ProfileScope and exports what the profiling plane recorded:
// per-rank time breakdowns, mpiP-style site aggregates, torus link
// counters with a hot-link report, the executed run's critical path, and
// logical-zeroing what-if estimates.  Exit status is the gate: 0 when
// every selected scenario ran (and, with --selfcheck, every profile
// passed its internal-consistency checks and reproduced byte-identical
// JSON on a second run), 1 otherwise.
//
//   bgpprof --list                      # registry listing, no runs
//   bgpprof --group=paper               # profile the paper scenarios
//   bgpprof --only=fig2_halo_isend      # one scenario by name
//   bgpprof --json=profile.json         # aggregate JSON ("-" = stdout)
//   bgpprof --trace=trace.json          # Chrome trace with counters
//   bgpprof --text                      # full text report per profile
//   bgpprof --selfcheck                 # determinism + invariant gate
//   bgpprof --topk=20                   # hot links reported

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "smpi/analysis/scenarios.hpp"
#include "smpi/trace.hpp"
#include "support/cli.hpp"

namespace {

using bgp::smpi::analysis::Scenario;
using bgp::smpi::analysis::scenarios;

int listScenarios() {
  for (const auto& s : scenarios())
    std::printf("%-22s %-7s %s\n", s.name.c_str(), s.group.c_str(),
                s.what.c_str());
  return 0;
}

struct ScenarioProfiles {
  std::string name;
  bool failed = false;
  std::string error;
  std::vector<bgp::obs::RunProfile> profiles;  // one per Simulation
};

/// Runs one scenario under a fresh ProfileScope and keeps the assembled
/// profiles (the Profilers die with the scope; RunProfile is plain data).
ScenarioProfiles profileScenario(const Scenario& scenario,
                                 const bgp::obs::ProfileOptions& options) {
  ScenarioProfiles out;
  out.name = scenario.name;
  bgp::obs::ProfileScope scope(options);
  try {
    scenario.run();
  } catch (const std::exception& e) {
    out.failed = true;
    out.error = e.what();
  }
  for (const auto& prof : scope.profilers())
    if (prof->finalized()) out.profiles.push_back(prof->profile());
  return out;
}

std::string aggregateJson(const std::vector<ScenarioProfiles>& all) {
  std::vector<const bgp::obs::RunProfile*> ptrs;
  for (const auto& sp : all)
    for (const auto& p : sp.profiles) ptrs.push_back(&p);
  std::ostringstream os;
  bgp::obs::writeAggregateJson(os, ptrs);
  return os.str();
}

bool writeFileOrStdout(const std::string& path, const std::string& content,
                       const char* what) {
  if (path == "-") {
    std::cout << content;
    return true;
  }
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    std::cerr << "bgpprof: cannot open " << path << " for " << what << "\n";
    return false;
  }
  f << content;
  return f.good();
}

}  // namespace

int main(int argc, char** argv) {
  const bgp::Cli cli(argc, argv);
  if (cli.has("list")) return listScenarios();
  const std::string group = cli.get("group", "");
  const std::string only = cli.get("only", "");
  const std::string jsonPath = cli.get("json", "");
  const std::string tracePath = cli.get("trace", "");
  const bool text = cli.getBool("text");
  const bool selfcheck = cli.getBool("selfcheck");

  bgp::obs::ProfileOptions options;
  options.topK = static_cast<int>(cli.getDouble("topk", options.topK));

  int ran = 0;
  int bad = 0;
  std::vector<ScenarioProfiles> all;
  for (const Scenario& scenario : scenarios()) {
    if (!group.empty() && scenario.group != group) continue;
    if (!only.empty() && scenario.name != only) continue;
    ++ran;
    ScenarioProfiles sp = profileScenario(scenario, options);
    if (sp.failed) {
      ++bad;
      std::cout << scenario.name << ": workload FAILED: " << sp.error << "\n";
      continue;
    }
    if (sp.profiles.empty()) {
      if (scenario.expectsCapture) {
        ++bad;
        std::cout << scenario.name << ": no simulation profiled\n";
      } else {
        std::cout << scenario.name << ": analytic model, no event-level ops\n";
      }
      all.push_back(std::move(sp));
      continue;
    }

    int violations = 0;
    for (const auto& p : sp.profiles) {
      for (const std::string& v : bgp::obs::selfCheck(p)) {
        ++violations;
        std::cout << scenario.name << ": SELF-CHECK: " << v << "\n";
      }
    }
    if (violations > 0) ++bad;

    if (selfcheck) {
      // Determinism: a second run must produce byte-identical JSON.
      ScenarioProfiles again = profileScenario(scenario, options);
      std::ostringstream a, b;
      std::vector<const bgp::obs::RunProfile*> pa, pb;
      for (const auto& p : sp.profiles) pa.push_back(&p);
      for (const auto& p : again.profiles) pb.push_back(&p);
      bgp::obs::writeAggregateJson(a, pa);
      bgp::obs::writeAggregateJson(b, pb);
      if (again.failed || a.str() != b.str()) {
        ++bad;
        std::cout << scenario.name
                  << ": NONDETERMINISTIC: profiled reruns differ\n";
      }
    }

    if (text) {
      for (std::size_t i = 0; i < sp.profiles.size(); ++i) {
        std::ostringstream label;
        label << scenario.name;
        if (sp.profiles.size() > 1) label << " [sim " << i << "]";
        bgp::obs::writeText(std::cout, sp.profiles[i], label.str());
      }
    } else if (violations == 0) {
      double makespan = 0.0;
      for (const auto& p : sp.profiles)
        makespan = std::max(makespan, p.makespan);
      std::cout << scenario.name << ": ok (" << sp.profiles.size()
                << " profile" << (sp.profiles.size() == 1 ? "" : "s")
                << ", max makespan " << makespan << " s)\n";
    }
    all.push_back(std::move(sp));
  }

  if (ran == 0) {
    std::cout << "no scenario matched";
    if (!only.empty()) std::cout << " --only=" << only;
    if (!group.empty()) std::cout << " --group=" << group;
    std::cout << "\n";
    return 1;
  }

  if (!jsonPath.empty() &&
      !writeFileOrStdout(jsonPath, aggregateJson(all), "--json"))
    ++bad;

  if (!tracePath.empty()) {
    bgp::smpi::Tracer tracer;  // engine-less: explicit timestamps only
    for (const auto& sp : all)
      for (const auto& p : sp.profiles) bgp::obs::emitCounters(tracer, p);
    std::ostringstream os;
    tracer.writeChromeJson(os);
    if (!writeFileOrStdout(tracePath, os.str(), "--trace")) ++bad;
  }

  std::cout << (bad == 0 ? "bgpprof: all ok" : "bgpprof: issues found") << " ("
            << ran << " scenario" << (ran == 1 ? "" : "s") << ")\n";
  return bad == 0 ? 0 : 1;
}
