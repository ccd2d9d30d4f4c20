#pragma once
// Column-aligned text tables for benchmark output, matching the row/series
// structure of the paper's tables and figures, plus CSV export so results
// can be re-plotted.

#include <iosfwd>
#include <string>
#include <vector>

namespace bgp {

/// A simple table: a header row plus data rows of strings.  Numeric cells
/// should be pre-formatted by the caller (see units.hpp helpers).
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Adds a row; must have the same arity as the header.
  void addRow(std::vector<std::string> row);

  std::size_t rows() const { return rows_.size(); }
  std::size_t cols() const { return header_.size(); }
  const std::vector<std::string>& row(std::size_t i) const { return rows_[i]; }

  /// Renders with column alignment and a separator under the header.
  void print(std::ostream& os) const;

  /// Renders as CSV (comma-separated, quotes around cells containing commas).
  void printCsv(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints a titled section banner, used by the bench binaries to label each
/// table/figure the way the paper numbers them.
void printBanner(std::ostream& os, const std::string& title);

}  // namespace bgp
