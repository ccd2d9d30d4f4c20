#include "kernels/transpose.hpp"

#include <algorithm>

#include "support/expect.hpp"

namespace bgp::kernels {

namespace {
constexpr std::size_t kBlock = 32;
}

void transpose(std::size_t rows, std::size_t cols, std::span<const double> in,
               std::span<double> out) {
  BGP_REQUIRE(in.size() >= rows * cols);
  BGP_REQUIRE(out.size() >= rows * cols);
  BGP_REQUIRE_MSG(in.data() != out.data(),
                  "in-place transposes are not supported");
  for (std::size_t i0 = 0; i0 < rows; i0 += kBlock) {
    const std::size_t iMax = std::min(i0 + kBlock, rows);
    for (std::size_t j0 = 0; j0 < cols; j0 += kBlock) {
      const std::size_t jMax = std::min(j0 + kBlock, cols);
      for (std::size_t i = i0; i < iMax; ++i)
        for (std::size_t j = j0; j < jMax; ++j)
          out[j * rows + i] = in[i * cols + j];
    }
  }
}

}  // namespace bgp::kernels
