#pragma once
// Cache-blocked matrix transpose, the local kernel of the HPCC PTRANS test
// (the global version adds the inter-process block exchange, modeled in
// hpcc/ptrans_model).

#include <cstddef>
#include <span>

namespace bgp::kernels {

/// out(j,i) = in(i,j) for an r x c row-major matrix; out is c x r.
void transpose(std::size_t rows, std::size_t cols, std::span<const double> in,
               std::span<double> out);

}  // namespace bgp::kernels
