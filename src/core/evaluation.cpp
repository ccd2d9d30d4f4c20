#include "core/evaluation.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <set>

#include "support/expect.hpp"
#include "support/table.hpp"

namespace bgp::core {

double Series::yAt(double x) const {
  for (const auto& p : points)
    if (p.x == x) return p.y;
  BGP_FAIL("series '" + label + "' has no point at x");
}

bool Series::hasX(double x) const {
  for (const auto& p : points)
    if (p.x == x) return true;
  return false;
}

Figure::Figure(std::string title, std::string xLabel, std::string yLabel)
    : title_(std::move(title)),
      xLabel_(std::move(xLabel)),
      yLabel_(std::move(yLabel)) {}

Series& Figure::addSeries(const std::string& label) {
  series_.push_back(Series{label, {}});
  return series_.back();
}

const Series& Figure::seriesNamed(const std::string& label) const {
  for (const auto& s : series_)
    if (s.label == label) return s;
  BGP_FAIL("no series named " + label);
}

void Figure::print(std::ostream& os, const char* fmt) const {
  printBanner(os, title_ + "   [" + yLabel_ + " vs " + xLabel_ + "]");
  std::set<double> xs;
  for (const auto& s : series_)
    for (const auto& p : s.points) xs.insert(p.x);

  std::vector<std::string> header{xLabel_};
  for (const auto& s : series_) header.push_back(s.label);
  Table table(header);
  char buf[64];
  for (double x : xs) {
    std::vector<std::string> row;
    if (x == std::floor(x) && std::fabs(x) < 1e15) {
      std::snprintf(buf, sizeof buf, "%.0f", x);
    } else {
      std::snprintf(buf, sizeof buf, "%g", x);
    }
    row.emplace_back(buf);
    for (const auto& s : series_) {
      if (s.hasX(x)) {
        std::snprintf(buf, sizeof buf, fmt, s.yAt(x));
        row.emplace_back(buf);
      } else {
        row.emplace_back("-");
      }
    }
    table.addRow(std::move(row));
  }
  table.print(os);
}

void Figure::printCsv(std::ostream& os) const {
  std::set<double> xs;
  for (const auto& s : series_)
    for (const auto& p : s.points) xs.insert(p.x);
  std::vector<std::string> header{xLabel_};
  for (const auto& s : series_) header.push_back(s.label);
  Table table(header);
  char buf[64];
  for (double x : xs) {
    std::vector<std::string> row;
    std::snprintf(buf, sizeof buf, "%g", x);
    row.emplace_back(buf);
    for (const auto& s : series_) {
      if (s.hasX(x)) {
        std::snprintf(buf, sizeof buf, "%.8g", s.yAt(x));
        row.emplace_back(buf);
      } else {
        row.emplace_back("");
      }
    }
    table.addRow(std::move(row));
  }
  table.printCsv(os);
}

void sweep(Series& out, const std::vector<double>& xs,
           const std::function<double(double)>& fn) {
  // Evaluate every point concurrently, then append the valid ones in x
  // order so the resulting series is byte-identical to the serial sweep.
  // A pool of at most one worker runs the points inline, in index order.
  struct Cell {
    double y = 0.0;
    bool valid = false;
  };
  std::vector<Cell> cells(xs.size());
  support::ThreadPool::global().parallelFor(xs.size(), [&](std::size_t i) {
    try {
      const double y = fn(xs[i]);
      cells[i] = Cell{y, std::isfinite(y)};
    } catch (const std::exception&) {
      // infeasible point (memory, divisibility, ...)
    }
  });
  for (std::size_t i = 0; i < xs.size(); ++i)
    if (cells[i].valid) out.points.push_back(SeriesPoint{xs[i], cells[i].y});
}

void sweepSerial(Series& out, const std::vector<double>& xs,
                 const std::function<double(double)>& fn) {
  for (double x : xs) {
    double y;
    try {
      y = fn(x);
    } catch (const std::exception&) {
      continue;  // infeasible point (memory, divisibility, ...)
    }
    if (!std::isfinite(y)) continue;
    out.points.push_back(SeriesPoint{x, y});
  }
}

std::vector<double> powersOfTwo(int from, int to) {
  BGP_REQUIRE(from >= 1 && to >= from);
  std::vector<double> xs;
  for (long v = from; v <= to; v *= 2) xs.push_back(static_cast<double>(v));
  return xs;
}

}  // namespace bgp::core
