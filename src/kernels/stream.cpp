#include "kernels/stream.hpp"

#include "support/expect.hpp"

namespace bgp::kernels {

double streamBytesPerElement(StreamKernel k) {
  switch (k) {
    case StreamKernel::Copy:
    case StreamKernel::Scale:
      return 2.0 * sizeof(double);
    case StreamKernel::Add:
    case StreamKernel::Triad:
      return 3.0 * sizeof(double);
  }
  BGP_UNREACHABLE();
}

void streamPass(StreamKernel k, std::span<double> a, std::span<const double> b,
                std::span<const double> c, double scalar) {
  const std::size_t n = a.size();
  BGP_REQUIRE(b.size() >= n);
  switch (k) {
    case StreamKernel::Copy:
      for (std::size_t i = 0; i < n; ++i) a[i] = b[i];
      break;
    case StreamKernel::Scale:
      for (std::size_t i = 0; i < n; ++i) a[i] = scalar * b[i];
      break;
    case StreamKernel::Add:
      BGP_REQUIRE(c.size() >= n);
      for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + c[i];
      break;
    case StreamKernel::Triad:
      BGP_REQUIRE(c.size() >= n);
      for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + scalar * c[i];
      break;
  }
}

}  // namespace bgp::kernels
