#pragma once
// Shared plumbing for the table/figure harnesses: CLI flags (--full for
// the paper's complete sweeps, --csv for machine-readable output,
// --profile=PATH for an aggregate profile) and output helpers.  The
// scenario thread pool is sized by BGP_THREADS.
//
// Wall-time reporting goes to stderr so stdout stays byte-identical across
// runs and thread counts — figure/CSV output can be diffed while stderr
// carries the per-figure and per-bench timings.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/evaluation.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace bgp::bench {

using WallClock = std::chrono::steady_clock;

inline WallClock::time_point& benchStart() {
  static WallClock::time_point start = WallClock::now();
  return start;
}

inline double secondsSince(WallClock::time_point t) {
  return std::chrono::duration<double>(WallClock::now() - t).count();
}

// The --profile plumbing.  The scope is a process-global (leaked — the
// bench pool threads may still hold Simulations at exit) so every
// Simulation any figure constructs records into it; the aggregate JSON
// is written by an atexit handler so a bench needs no explicit teardown
// call.  Without --profile no scope exists and every profiling hook is a
// null-pointer check: stdout stays byte-identical.
inline obs::ProfileScope*& benchProfileScope() {
  static obs::ProfileScope* scope = nullptr;
  return scope;
}

inline std::string& benchProfilePath() {
  static std::string path;
  return path;
}

inline void writeBenchProfile() {
  obs::ProfileScope* scope = benchProfileScope();
  if (scope == nullptr) return;
  std::vector<const obs::RunProfile*> profiles;
  for (const auto& prof : scope->profilers())
    if (prof->finalized()) profiles.push_back(&prof->profile());
  const std::string& path = benchProfilePath();
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "[profile] cannot open %s\n", path.c_str());
    return;
  }
  obs::writeAggregateJson(f, profiles);
  std::fprintf(stderr, "[profile] wrote %zu run profile(s) to %s\n",
               profiles.size(), path.c_str());
}

struct BenchOptions {
  bool full = false;    // run the paper's complete parameter sweeps
  bool csv = false;     // emit CSV after each table
  std::string profile;  // --profile=PATH: aggregate profile JSON

  static BenchOptions parse(int argc, const char* const* argv) {
    benchStart();  // anchor the per-bench wall clock
    const Cli cli(argc, argv);
    BenchOptions o;
    o.full = cli.getBool("full");
    o.csv = cli.getBool("csv");
    std::atexit(+[] {
      std::fprintf(stderr, "[wall] bench total: %.2f s\n",
                   secondsSince(benchStart()));
    });
    o.profile = cli.get("profile", "");
    if (!o.profile.empty()) {
      benchProfilePath() = o.profile;
      benchProfileScope() = new obs::ProfileScope();
      // Registered after the wall-clock handler, so it runs before it.
      std::atexit(+[] { writeBenchProfile(); });
    }
    return o;
  }
};

inline void emit(const core::Figure& fig, const BenchOptions& opts,
                 const char* fmt = "%.4g") {
  static WallClock::time_point last = benchStart();
  fig.print(std::cout, fmt);
  if (opts.csv) fig.printCsv(std::cout);
  std::fprintf(stderr, "[wall] %s: %.2f s\n", fig.title().c_str(),
               secondsSince(last));
  last = WallClock::now();
}

inline void note(const std::string& text) {
  std::cout << "  " << text << '\n';
}

}  // namespace bgp::bench
