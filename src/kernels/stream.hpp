#pragma once
// The STREAM memory bandwidth kernels (Copy, Scale, Add, Triad), as run by
// the HPCC suite's single-process and embarrassingly-parallel tests.

#include <cstddef>
#include <span>

namespace bgp::kernels {

enum class StreamKernel { Copy, Scale, Add, Triad };

/// Bytes moved per element for a kernel (2 or 3 doubles).
double streamBytesPerElement(StreamKernel k);

/// Runs one pass of the kernel over arrays of length n.  a is the
/// destination; b and c are sources (c unused by Copy/Scale).
void streamPass(StreamKernel k, std::span<double> a, std::span<const double> b,
                std::span<const double> c, double scalar = 3.0);

}  // namespace bgp::kernels
