#include "support/table.hpp"

#include <algorithm>
#include <ostream>

#include "support/expect.hpp"

namespace bgp {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  BGP_REQUIRE_MSG(!header_.empty(), "table needs at least one column");
}

void Table::addRow(std::vector<std::string> row) {
  BGP_REQUIRE_MSG(row.size() == header_.size(),
                  "row arity must match header");
  rows_.push_back(std::move(row));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : "  ");
      os << row[c];
      for (std::size_t pad = row[c].size(); pad < width[c]; ++pad) os << ' ';
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c)
    total += width[c] + (c == 0 ? 0 : 2);
  for (std::size_t i = 0; i < total; ++i) os << '-';
  os << '\n';
  for (const auto& row : rows_) emit(row);
}

void Table::printCsv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      const bool needsQuote =
          row[c].find_first_of(",\"\n") != std::string::npos;
      if (needsQuote) {
        os << '"';
        for (char ch : row[c]) {
          if (ch == '"') os << '"';
          os << ch;
        }
        os << '"';
      } else {
        os << row[c];
      }
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
}

void printBanner(std::ostream& os, const std::string& title) {
  os << '\n' << "== " << title << " ==" << '\n';
}

}  // namespace bgp
