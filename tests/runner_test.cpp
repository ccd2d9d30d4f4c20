// Parallel scenario runner: thread-pool semantics and the determinism
// contract (parallel sweeps byte-identical to serial execution).

#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "arch/machines.hpp"
#include "core/evaluation.hpp"
#include "microbench/halo.hpp"
#include "support/thread_pool.hpp"

namespace {

using bgp::core::Series;
using bgp::support::ThreadPool;

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallelFor(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

// Regression: the destructor used to set the stop flag without holding
// the wake mutex, so a worker that had just tested its wait predicate
// could miss the final notify and hang join().  Thousands of short-lived
// pools make that window likely enough to hit within ctest's timeout.
TEST(ThreadPool, CreateUseDestroyNeverHangs) {
  for (int round = 0; round < 2000; ++round) {
    ThreadPool pool(2);
    std::atomic<std::size_t> sum{0};
    pool.parallelFor(4, [&](std::size_t i) { sum.fetch_add(i); });
    ASSERT_EQ(sum.load(), 6u) << "round " << round;
  }
}

TEST(ThreadPool, ZeroWorkersFallsBackToCaller) {
  ThreadPool pool(1);  // one worker: parallelFor runs inline on the caller
  std::vector<int> hits(64, 0);
  pool.parallelFor(hits.size(), [&](std::size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallelFor(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallelFor(100,
                                [&](std::size_t i) {
                                  if (i == 37)
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossInvocations) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallelFor(100, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPool, ManyMoreTasksThanWorkersAllComplete) {
  ThreadPool pool(2);
  std::atomic<std::size_t> count{0};
  pool.parallelFor(5000, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 5000u);
}

double haloPoint(double nranks) {
  bgp::microbench::HaloConfig c;
  c.machine = bgp::arch::machineByName("BG/P");
  c.nranks = static_cast<int>(nranks);
  c.gridRows = 16;
  c.gridCols = c.nranks / 16;
  c.mapping = "TXYZ";
  return bgp::microbench::runHalo(c, 128);
}

// The determinism regression the overhaul must keep: a parallel sweep's
// series is byte-identical (bit-for-bit doubles, same order) to the
// strictly serial reference, because every scenario owns its Simulation.
TEST(Runner, SweepMatchesSweepSerialBitForBit) {
  const std::vector<double> xs = {256, 512, 1024};
  Series par, ser;
  bgp::core::sweep(par, xs, haloPoint);
  bgp::core::sweepSerial(ser, xs, haloPoint);
  ASSERT_EQ(par.points.size(), ser.points.size());
  for (std::size_t i = 0; i < par.points.size(); ++i) {
    EXPECT_EQ(par.points[i].x, ser.points[i].x);
    // EXPECT_EQ on doubles is exact — that is the point of the test.
    EXPECT_EQ(par.points[i].y, ser.points[i].y);
  }
}

TEST(Runner, SweepSkipsThrowingAndNonFinitePointsLikeSerial) {
  const std::vector<double> xs = {1, 2, 3, 4};
  auto fn = [](double x) {
    if (x == 2) throw std::runtime_error("infeasible");
    if (x == 3) return 1.0 / 0.0;  // +inf: skipped
    return x * 10.0;
  };
  Series par, ser;
  bgp::core::sweep(par, xs, fn);
  bgp::core::sweepSerial(ser, xs, fn);
  ASSERT_EQ(par.points.size(), 2u);
  ASSERT_EQ(ser.points.size(), 2u);
  for (std::size_t i = 0; i < par.points.size(); ++i) {
    EXPECT_EQ(par.points[i].x, ser.points[i].x);
    EXPECT_EQ(par.points[i].y, ser.points[i].y);
  }
}

TEST(Runner, ParallelMapIndexesResultsByScenario) {
  const auto out = bgp::core::parallelMap<double>(
      64, [](std::size_t i) { return static_cast<double>(i) * 1.5; });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<double>(i) * 1.5);
}

// Simulations run *inside* pool workers must behave identically to ones
// run on the main thread (no hidden shared state in the runtime).
TEST(Runner, SimulationInsideWorkerMatchesMainThread) {
  const double onMain = haloPoint(256);
  std::vector<double> onPool(4, 0.0);
  ThreadPool pool(4);
  pool.parallelFor(onPool.size(),
                   [&](std::size_t i) { onPool[i] = haloPoint(256); });
  for (double v : onPool) EXPECT_EQ(v, onMain);
}

}  // namespace
