#pragma once
// The evaluation framework — the public API the bench binaries and
// examples are written against.  It packages the paper's methodology:
// sweep a workload over process counts on several machines, collect the
// series a figure plots, and render them as aligned tables (and CSV)
// whose rows/series mirror the paper's tables and figures.

#include <cstddef>
#include <deque>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "arch/machines.hpp"
#include "support/thread_pool.hpp"

namespace bgp::core {

struct SeriesPoint {
  double x = 0.0;
  double y = 0.0;
};

struct Series {
  std::string label;
  std::vector<SeriesPoint> points;

  /// y at x (exact match); throws if absent.
  double yAt(double x) const;
  bool hasX(double x) const;
};

/// One figure or table panel: a set of series over a common x-axis.
class Figure {
 public:
  Figure(std::string title, std::string xLabel, std::string yLabel);

  /// Adds a series and returns a reference that stays valid for the
  /// Figure's lifetime (series are stored in a deque for this reason).
  Series& addSeries(const std::string& label);
  const std::deque<Series>& series() const { return series_; }
  const Series& seriesNamed(const std::string& label) const;
  const std::string& title() const { return title_; }

  /// Renders as an aligned table: one row per distinct x, one column per
  /// series ("-" where a series has no point).
  void print(std::ostream& os, const char* fmt = "%.4g") const;
  void printCsv(std::ostream& os) const;

 private:
  std::string title_;
  std::string xLabel_;
  std::string yLabel_;
  std::deque<Series> series_;
};

/// Convenience: fills a series by evaluating `fn` at each x, skipping
/// points where `fn` throws (e.g. infeasible configurations) or returns a
/// non-finite value.  The points are evaluated concurrently on the shared
/// scenario thread pool (each point builds its own Simulation, so points
/// share no mutable state) and appended in x order — the series is
/// byte-identical to what sweepSerial produces, just computed faster.
void sweep(Series& out, const std::vector<double>& xs,
           const std::function<double(double)>& fn);

/// The strictly sequential sweep (reference implementation; used by the
/// determinism regression tests and available for debugging).
void sweepSerial(Series& out, const std::vector<double>& xs,
                 const std::function<double(double)>& fn);

/// Evaluates fn(i) for i in [0, n) concurrently on the shared scenario
/// pool and returns the results indexed by i — the parallel form of the
/// hand-written scenario loops in the fig benches.  R must be default-
/// constructible; `fn` must not share mutable state across calls.
template <typename R, typename Fn>
std::vector<R> parallelMap(std::size_t n, const Fn& fn) {
  std::vector<R> out(n);
  support::ThreadPool::global().parallelFor(
      n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// Standard process-count sweeps used throughout the benches.
std::vector<double> powersOfTwo(int from, int to);

}  // namespace bgp::core
