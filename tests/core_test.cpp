// Tests for the evaluation framework (core/).

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/evaluation.hpp"
#include "support/expect.hpp"

namespace bgp::core {
namespace {

TEST(Series, Accessors) {
  Series s{"test", {{1, 10}, {2, 20}, {4, 40}}};
  EXPECT_DOUBLE_EQ(s.yAt(2), 20);
  EXPECT_TRUE(s.hasX(4));
  EXPECT_FALSE(s.hasX(3));
  EXPECT_THROW(s.yAt(3), PreconditionError);
}

TEST(Figure, SeriesManagement) {
  Figure fig("F", "x", "y");
  fig.addSeries("a").points.push_back({1, 2});
  fig.addSeries("b").points.push_back({1, 3});
  EXPECT_EQ(fig.series().size(), 2u);
  EXPECT_DOUBLE_EQ(fig.seriesNamed("b").yAt(1), 3);
  EXPECT_THROW(fig.seriesNamed("c"), PreconditionError);
}

TEST(Figure, AddSeriesReferencesStayValid) {
  // Regression: references returned by addSeries must survive later
  // addSeries calls (they are handed out and filled incrementally by the
  // bench harnesses).
  Figure fig("F", "x", "y");
  Series& a = fig.addSeries("a");
  Series& b = fig.addSeries("b");
  Series& c = fig.addSeries("c");
  a.points.push_back({1, 10});
  b.points.push_back({1, 20});
  c.points.push_back({1, 30});
  EXPECT_DOUBLE_EQ(fig.seriesNamed("a").yAt(1), 10);
  EXPECT_DOUBLE_EQ(fig.seriesNamed("b").yAt(1), 20);
  EXPECT_DOUBLE_EQ(fig.seriesNamed("c").yAt(1), 30);
}

TEST(Figure, PrintsAlignedRowsWithGaps) {
  Figure fig("My Figure", "procs", "gflops");
  fig.addSeries("BG/P").points = {{256, 1.0}, {1024, 4.0}};
  fig.addSeries("XT4/QC").points = {{256, 2.5}};
  std::ostringstream os;
  fig.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("My Figure"), std::string::npos);
  EXPECT_NE(out.find("BG/P"), std::string::npos);
  EXPECT_NE(out.find("1024"), std::string::npos);
  EXPECT_NE(out.find("-"), std::string::npos);  // missing XT point
}

TEST(Figure, CsvOutput) {
  Figure fig("F", "x", "y");
  fig.addSeries("s").points = {{1, 0.5}};
  std::ostringstream os;
  fig.printCsv(os);
  EXPECT_NE(os.str().find("x,s"), std::string::npos);
  EXPECT_NE(os.str().find("1,0.5"), std::string::npos);
}

TEST(Sweep, EvaluatesAndSkipsFailures) {
  Series s{"sqrt", {}};
  sweep(s, {1, 4, -1, 16}, [](double x) {
    if (x < 0) throw std::runtime_error("negative");
    return std::sqrt(x);
  });
  ASSERT_EQ(s.points.size(), 3u);
  EXPECT_DOUBLE_EQ(s.yAt(16), 4.0);
}

TEST(Sweep, SkipsNonFinite) {
  Series s{"inv", {}};
  sweep(s, {0, 1}, [](double x) { return 1.0 / x; });
  ASSERT_EQ(s.points.size(), 1u);
}

TEST(PowersOfTwo, GeneratesRange) {
  const auto xs = powersOfTwo(256, 2048);
  ASSERT_EQ(xs.size(), 4u);
  EXPECT_DOUBLE_EQ(xs.front(), 256);
  EXPECT_DOUBLE_EQ(xs.back(), 2048);
}

}  // namespace
}  // namespace bgp::core
