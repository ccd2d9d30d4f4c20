#pragma once
// perfbench: the repository's host-cost benchmark.  Shared pieces of the
// harness (main.cpp) and the three workloads (workloads.cpp): the span
// recorder, the per-pass record a workload returns, and the workload
// interface.  See perfbench/README.md for what each workload measures.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One recorded span: a call the benchmark made into a layer.  `parent`
/// indexes the enclosing span (-1 for a root); every span of one pass
/// carries that pass's id.  Times are seconds since the recorder started.
struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = -1.0;
  int parent = -1;
  int pass = -1;
};

/// In-memory span store.  Thread-safe: paper_sweep records scenario spans
/// from the scenario pool's threads.  When off, spans are still timed
/// (the harness needs the durations) but nothing is stored.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Seconds since the recorder was created.
  double now() const;
  /// Stores an open span and returns its id, or -1 when tracing is off.
  /// A root span (parent < 0) starts a new pass id.
  int open(std::string name, int parent, double start);
  void close(int id, double end);
  /// A copy of every span recorded so far.
  std::vector<SpanRecord> spans() const;

 private:
  bool on_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;  // guards spans_ and nextPass_
  std::vector<SpanRecord> spans_;
  int nextPass_ = 0;
};

/// RAII span: times from construction to stop() (or destruction).
class Span {
 public:
  Span(Tracer& tracer, std::string name, int parent = -1);
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (once) and returns its duration in seconds.
  double stop();
  /// Span id for children, or -1 when tracing is off.
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
  double start_;
  double seconds_ = -1.0;
};

/// How a pass runs.  Plain passes give the end-to-end metrics.  Traced
/// passes attach the benchmark's counting link observer and read layer
/// counters.  Unobserved passes (observed_world only) run the same world
/// with the profiler and verifier off, as the base of obs.overhead_x.
enum class PassMode { Plain, Traced, Unobserved };

/// What one pass produced.
struct PassResult {
  PassMode mode = PassMode::Plain;
  /// Correctness fingerprint: identical on every pass of one run, and for
  /// the default seed equal to the value recorded in expected.txt.
  std::string fingerprint;
  /// The observers' part of the fingerprint (observed_world's profiled
  /// passes only): selfCheck clean and a complete critical path.
  std::string observed;
  /// Empty when the pass's own checks held (selfCheck, path complete...).
  std::string error;
  double wall = 0.0;                // host seconds of the timed pass
  std::vector<double> scenarios;    // host seconds per scenario
  std::uint64_t events = 0;         // simulated events (0: not counted)
  std::map<std::string, double> layer;  // per-layer readings
};

/// One set-up sample: the construction setup_s reports and the teardown
/// that follows it, in host seconds.
struct SetupSample {
  double ctor = 0.0;
  double dtor = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One set-up.  The harness calls it in a fresh child process, before
  /// the scenario pool exists, so every sample is cold.
  virtual SetupSample setup() = 0;
  virtual PassResult pass(Tracer& tracer, PassMode mode) = 0;
  /// Pass modes a traced run cycles through.
  virtual std::vector<PassMode> tracedModes() const {
    return {PassMode::Plain, PassMode::Traced};
  }
  /// Simulated ranks of the workload's world (0 for paper_sweep).
  virtual std::int64_t ranks() const = 0;
  /// Runs after the timed passes (and after peak RSS is read): lets a
  /// workload count what its timed passes could not see.  Fills `layer`
  /// and may set the simulated events per pass; returns an error string
  /// or "".
  virtual std::string census(std::map<std::string, double>& layer,
                             std::uint64_t& eventsPerPass) {
    (void)layer;
    (void)eventsPerPass;
    return "";
  }
  /// Per-layer metrics from the passes and set-ups of a traced run.
  virtual void layerMetrics(const std::vector<PassResult>& passes,
                            const std::vector<SetupSample>& setups,
                            std::map<std::string, double>& out) const = 0;
};

enum class Size { Full, Small };

/// Builds workload `name` with inputs drawn from `seed`; null if unknown.
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed, Size size,
                                       unsigned poolThreads);

double median(std::vector<double> v);

}  // namespace perfbench
