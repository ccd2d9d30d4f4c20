// Correctness tests for the host-executed computational kernels.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numeric>
#include <vector>

#include "kernels/cg.hpp"
#include "kernels/dgemm.hpp"
#include "kernels/fft.hpp"
#include "kernels/lu.hpp"
#include "kernels/randomaccess.hpp"
#include "kernels/stream.hpp"
#include "kernels/transpose.hpp"
#include "support/expect.hpp"
#include "support/rng.hpp"

namespace bgp::kernels {
namespace {

std::vector<double> randomVector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

// ---- dgemm --------------------------------------------------------------------

class DgemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DgemmShapes, BlockedMatchesNaive) {
  const auto [m, n, k] = GetParam();
  const auto a = randomVector(static_cast<std::size_t>(m * k), 1);
  const auto b = randomVector(static_cast<std::size_t>(k * n), 2);
  auto c1 = randomVector(static_cast<std::size_t>(m * n), 3);
  auto c2 = c1;
  dgemmNaive(m, n, k, 1.3, a, b, 0.7, c1);
  dgemm(m, n, k, 1.3, a, b, 0.7, c2);
  for (std::size_t i = 0; i < c1.size(); ++i)
    EXPECT_NEAR(c1[i], c2[i], 1e-10) << "at " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DgemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{3, 5, 7},
                      std::tuple{64, 64, 64}, std::tuple{65, 63, 70},
                      std::tuple{128, 32, 96}, std::tuple{1, 100, 1},
                      std::tuple{100, 1, 100}));

TEST(Dgemm, IdentityIsNoOp) {
  const std::size_t n = 16;
  std::vector<double> identity(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) identity[i * n + i] = 1.0;
  const auto b = randomVector(n * n, 5);
  std::vector<double> c(n * n, 0.0);
  dgemm(n, n, n, 1.0, identity, b, 0.0, c);
  for (std::size_t i = 0; i < n * n; ++i) EXPECT_NEAR(c[i], b[i], 1e-14);
}

TEST(Dgemm, BetaAccumulates) {
  const std::size_t n = 8;
  const auto a = randomVector(n * n, 7);
  const auto b = randomVector(n * n, 8);
  std::vector<double> c(n * n, 1.0);
  dgemm(n, n, n, 0.0, a, b, 2.0, c);  // alpha=0: C = 2*C
  for (double v : c) EXPECT_NEAR(v, 2.0, 1e-14);
}

TEST(Dgemm, FlopCount) { EXPECT_DOUBLE_EQ(dgemmFlops(10, 20, 30), 12000.0); }

TEST(Dgemm, RejectsShortBuffers) {
  std::vector<double> tiny(4);
  EXPECT_THROW(dgemm(4, 4, 4, 1.0, tiny, tiny, 0.0, tiny),
               PreconditionError);
}

// ---- stream -------------------------------------------------------------------

TEST(Stream, KernelsComputeCorrectValues) {
  const std::size_t n = 100;
  std::vector<double> a(n, 0.0), b(n), c(n);
  std::iota(b.begin(), b.end(), 1.0);
  std::iota(c.begin(), c.end(), 10.0);
  streamPass(StreamKernel::Copy, a, b, c);
  EXPECT_DOUBLE_EQ(a[5], b[5]);
  streamPass(StreamKernel::Scale, a, b, c, 3.0);
  EXPECT_DOUBLE_EQ(a[5], 3.0 * b[5]);
  streamPass(StreamKernel::Add, a, b, c);
  EXPECT_DOUBLE_EQ(a[5], b[5] + c[5]);
  streamPass(StreamKernel::Triad, a, b, c, 3.0);
  EXPECT_DOUBLE_EQ(a[5], b[5] + 3.0 * c[5]);
}

TEST(Stream, BytesPerElement) {
  EXPECT_DOUBLE_EQ(streamBytesPerElement(StreamKernel::Copy), 16);
  EXPECT_DOUBLE_EQ(streamBytesPerElement(StreamKernel::Triad), 24);
}

// ---- fft ----------------------------------------------------------------------

TEST(Fft, MatchesNaiveDft) {
  const std::size_t n = 64;
  std::vector<std::complex<double>> x(n), ref(n);
  Rng rng(11);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  dftNaive(x, ref);
  fft(x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i].real(), ref[i].real(), 1e-9);
    EXPECT_NEAR(x[i].imag(), ref[i].imag(), 1e-9);
  }
}

TEST(Fft, RoundTripIsIdentity) {
  const std::size_t n = 1024;
  std::vector<std::complex<double>> x(n);
  Rng rng(13);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const auto original = x;
  fft(x);
  ifft(x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i].real(), original[i].real(), 1e-10);
    EXPECT_NEAR(x[i].imag(), original[i].imag(), 1e-10);
  }
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<std::complex<double>> x(16, {0, 0});
  x[0] = {1, 0};
  fft(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ParsevalHolds) {
  const std::size_t n = 256;
  std::vector<std::complex<double>> x(n);
  Rng rng(17);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  double timeEnergy = 0;
  for (const auto& v : x) timeEnergy += std::norm(v);
  fft(x);
  double freqEnergy = 0;
  for (const auto& v : x) freqEnergy += std::norm(v);
  EXPECT_NEAR(freqEnergy / static_cast<double>(n), timeEnergy, 1e-9);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> x(12);
  EXPECT_THROW(fft(x), PreconditionError);
}

TEST(Fft, FlopFormula) {
  EXPECT_DOUBLE_EQ(fftFlops(1024), 5.0 * 1024 * 10);
  EXPECT_TRUE(isPowerOfTwo(4096));
  EXPECT_FALSE(isPowerOfTwo(1000));
}

// ---- transpose ----------------------------------------------------------------

TEST(Transpose, RectangularRoundTrip) {
  const std::size_t r = 37, c = 53;
  const auto in = randomVector(r * c, 21);
  std::vector<double> t(r * c), back(r * c);
  transpose(r, c, in, t);
  transpose(c, r, t, back);
  EXPECT_EQ(back, in);
}

TEST(Transpose, ElementsLandCorrectly) {
  const std::size_t r = 3, c = 4;
  std::vector<double> in(r * c);
  std::iota(in.begin(), in.end(), 0.0);
  std::vector<double> out(r * c);
  transpose(r, c, in, out);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j)
      EXPECT_DOUBLE_EQ(out[j * r + i], in[i * c + j]);
}

TEST(Transpose, InPlaceAliasRejected) {
  std::vector<double> a(16);
  EXPECT_THROW(transpose(4, 4, a, a), PreconditionError);
}

// ---- randomaccess ---------------------------------------------------------------

TEST(RandomAccess, SequenceMatchesRecurrence) {
  std::uint64_t x = 1;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t next = raNextRandom(x);
    const std::uint64_t expected =
        (x << 1) ^ ((static_cast<std::int64_t>(x) < 0) ? 7ULL : 0ULL);
    EXPECT_EQ(next, expected);
    x = next;
  }
}

TEST(RandomAccess, JumpAheadMatchesStepping) {
  // raStartingValue(n) must equal n sequential steps from 1.
  std::uint64_t x = 1;
  for (std::int64_t n = 0; n <= 200; ++n) {
    EXPECT_EQ(raStartingValue(n), x) << "n=" << n;
    x = raNextRandom(x);
  }
}

TEST(RandomAccess, UpdatesAreInvolution) {
  // XORing the same stream twice restores the canonical table.
  const std::size_t bits = 12;
  std::vector<std::uint64_t> table(1u << bits);
  for (std::size_t i = 0; i < table.size(); ++i) table[i] = i;
  const std::int64_t updates = 4 * static_cast<std::int64_t>(table.size());
  raUpdate(table, 0, updates);
  EXPECT_EQ(raVerify(table, updates), 0);
}

TEST(RandomAccess, RejectsNonPow2Table) {
  std::vector<std::uint64_t> table(1000);
  EXPECT_THROW(raUpdate(table, 0, 10), PreconditionError);
}

// ---- cg -----------------------------------------------------------------------

TEST(Cg, StencilApplyMatchesManual) {
  StencilOperator a(3, 3);
  std::vector<double> x(9, 1.0), y(9);
  a.apply(x, y);
  // Center point: 4 - 4 neighbors = 0; corner: 4 - 2 = 2.
  EXPECT_DOUBLE_EQ(y[4], 0.0);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 1.0);  // edge: 4 - 3
}

TEST(Cg, StandardConverges) {
  StencilOperator a(24, 18);
  const auto b = randomVector(a.size(), 31);
  std::vector<double> x(a.size(), 0.0);
  const auto res = conjugateGradient(a, b, x, 1e-10, 5000);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(residualNorm(a, b, x), 1e-7);
}

TEST(Cg, ChronopoulosGearConverges) {
  StencilOperator a(24, 18);
  const auto b = randomVector(a.size(), 31);
  std::vector<double> x(a.size(), 0.0);
  const auto res = chronopoulosGearCG(a, b, x, 1e-10, 5000);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(residualNorm(a, b, x), 1e-7);
}

TEST(Cg, VariantsAgreeOnSolution) {
  StencilOperator a(16, 16);
  const auto b = randomVector(a.size(), 37);
  std::vector<double> x1(a.size(), 0.0), x2(a.size(), 0.0);
  conjugateGradient(a, b, x1, 1e-12, 5000);
  chronopoulosGearCG(a, b, x2, 1e-12, 5000);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(x1[i], x2[i], 1e-6);
}

TEST(Cg, SStepVariantHalvesReductionPoints) {
  // The entire point of the Chronopoulos-Gear variant in POP: one global
  // reduction per iteration instead of two.
  StencilOperator a(20, 20);
  const auto b = randomVector(a.size(), 41);
  std::vector<double> x1(a.size(), 0.0), x2(a.size(), 0.0);
  const auto std2 = conjugateGradient(a, b, x1, 1e-10, 5000);
  const auto cg1 = chronopoulosGearCG(a, b, x2, 1e-10, 5000);
  ASSERT_GT(std2.iterations, 10);
  const double perIterStd =
      static_cast<double>(std2.reductions) / std2.iterations;
  const double perIterCg =
      static_cast<double>(cg1.reductions) / cg1.iterations;
  EXPECT_NEAR(perIterStd, 2.0, 0.3);
  EXPECT_NEAR(perIterCg, 1.0, 0.3);
}

TEST(Cg, IterationCountsComparable) {
  // s-step CG is mathematically equivalent; iteration counts should be
  // within a few of each other.
  StencilOperator a(30, 30);
  const auto b = randomVector(a.size(), 43);
  std::vector<double> x1(a.size(), 0.0), x2(a.size(), 0.0);
  const auto s = conjugateGradient(a, b, x1, 1e-10, 5000);
  const auto c = chronopoulosGearCG(a, b, x2, 1e-10, 5000);
  EXPECT_NEAR(s.iterations, c.iterations, 0.15 * s.iterations + 3.0);
}

// ---- lu -----------------------------------------------------------------------

TEST(Lu, FactorSolveRecoversSolution) {
  const std::size_t n = 48;
  auto a = randomVector(n * n, 51);
  for (std::size_t i = 0; i < n; ++i) a[i * n + i] += 4.0;  // well-conditioned
  const auto aOrig = a;
  const auto xTrue = randomVector(n, 52);
  std::vector<double> b(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b[i] += aOrig[i * n + j] * xTrue[j];
  std::vector<std::int32_t> piv(n);
  ASSERT_TRUE(luFactor(n, a, piv));
  luSolve(n, a, piv, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], xTrue[i], 1e-8);
}

TEST(Lu, HplResidualSmall) {
  const std::size_t n = 64;
  auto a = randomVector(n * n, 61);
  const auto aOrig = a;
  auto b = randomVector(n, 62);
  const auto bOrig = b;
  std::vector<std::int32_t> piv(n);
  ASSERT_TRUE(luFactor(n, a, piv));
  luSolve(n, a, piv, b);
  // HPL acceptance: scaled residual < 16.
  EXPECT_LT(hplResidual(n, aOrig, b, bOrig), 16.0);
}

TEST(Lu, SingularDetected) {
  const std::size_t n = 4;
  std::vector<double> a(n * n, 1.0);  // rank-1 matrix
  std::vector<std::int32_t> piv(n);
  EXPECT_FALSE(luFactor(n, a, piv));
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  // [[0,1],[1,0]] requires a swap but is perfectly nonsingular.
  std::vector<double> a = {0, 1, 1, 0};
  std::vector<std::int32_t> piv(2);
  ASSERT_TRUE(luFactor(2, a, piv));
  std::vector<double> b = {3, 7};
  luSolve(2, a, piv, b);
  EXPECT_NEAR(b[0], 7, 1e-14);
  EXPECT_NEAR(b[1], 3, 1e-14);
}

TEST(Lu, FlopFormula) {
  EXPECT_NEAR(hplFlops(1000), (2.0 / 3.0) * 1e9 + 2e6, 1);
}

// ---- parameterized sweeps --------------------------------------------------------

class FftSizes : public ::testing::TestWithParam<int> {};

TEST_P(FftSizes, RoundTripAcrossSizes) {
  const auto n = static_cast<std::size_t>(1) << GetParam();
  std::vector<std::complex<double>> x(n);
  Rng rng(100 + static_cast<std::uint64_t>(GetParam()));
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const auto original = x;
  fft(x);
  ifft(x);
  for (std::size_t i = 0; i < n; i += std::max<std::size_t>(1, n / 64)) {
    EXPECT_NEAR(x[i].real(), original[i].real(), 1e-9);
    EXPECT_NEAR(x[i].imag(), original[i].imag(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizes,
                         ::testing::Values(0, 1, 2, 5, 8, 11, 14));

class LuSizes : public ::testing::TestWithParam<int> {};

TEST_P(LuSizes, FactorSolveAcrossSizes) {
  const auto n = static_cast<std::size_t>(GetParam());
  auto a = randomVector(n * n, 200 + n);
  for (std::size_t i = 0; i < n; ++i) a[i * n + i] += 4.0;
  const auto aOrig = a;
  const auto xTrue = randomVector(n, 300 + n);
  std::vector<double> b(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b[i] += aOrig[i * n + j] * xTrue[j];
  std::vector<std::int32_t> piv(n);
  ASSERT_TRUE(luFactor(n, a, piv));
  luSolve(n, a, piv, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], xTrue[i], 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuSizes,
                         ::testing::Values(1, 2, 3, 5, 17, 33, 64, 100));

class CgGrids : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CgGrids, BothVariantsConvergeAcrossGrids) {
  const auto [nx, ny] = GetParam();
  StencilOperator a(nx, ny);
  const auto b = randomVector(a.size(), 400 + static_cast<std::uint64_t>(nx));
  std::vector<double> x1(a.size(), 0.0), x2(a.size(), 0.0);
  EXPECT_TRUE(conjugateGradient(a, b, x1, 1e-9, 20000).converged);
  EXPECT_TRUE(chronopoulosGearCG(a, b, x2, 1e-9, 20000).converged);
  EXPECT_LT(residualNorm(a, b, x1), 1e-6);
  EXPECT_LT(residualNorm(a, b, x2), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Grids, CgGrids,
                         ::testing::Values(std::pair{1, 1}, std::pair{1, 40},
                                           std::pair{13, 7},
                                           std::pair{32, 32},
                                           std::pair{50, 20}));

}  // namespace
}  // namespace bgp::kernels
