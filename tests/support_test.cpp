// Unit tests for the support module: error macros, units, RNG, statistics,
// tables, and CLI parsing.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>

#include "support/cli.hpp"
#include "support/expect.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace bgp {
namespace {

// ---- expect -----------------------------------------------------------------

TEST(Expect, RequirePassesOnTrue) { EXPECT_NO_THROW(BGP_REQUIRE(1 + 1 == 2)); }

TEST(Expect, RequireThrowsPreconditionError) {
  EXPECT_THROW(BGP_REQUIRE(false), PreconditionError);
}

TEST(Expect, RequireMsgCarriesMessage) {
  try {
    BGP_REQUIRE_MSG(false, "the message");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("the message"), std::string::npos);
  }
}

TEST(Expect, CheckThrowsInternalError) {
  EXPECT_THROW(BGP_CHECK(false), InternalError);
}

// ---- units ------------------------------------------------------------------

TEST(Units, Constants) {
  EXPECT_DOUBLE_EQ(units::KiB, 1024.0);
  EXPECT_DOUBLE_EQ(units::MiB, 1048576.0);
  EXPECT_DOUBLE_EQ(units::GB, 1e9);
  EXPECT_DOUBLE_EQ(units::usec, 1e-6);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(units::formatBytes(512), "512 B");
  EXPECT_EQ(units::formatBytes(2048), "2.0 KiB");
  EXPECT_EQ(units::formatBytes(8 * units::MiB), "8.0 MiB");
}

TEST(Units, FormatTime) {
  EXPECT_EQ(units::formatTime(3.2e-6), "3.20 us");
  EXPECT_EQ(units::formatTime(1.5), "1.500 s");
  EXPECT_EQ(units::formatTime(2e-3), "2.00 ms");
}

TEST(Units, FormatFlops) {
  EXPECT_EQ(units::formatFlops(3.4e9), "3.40 GF/s");
  EXPECT_EQ(units::formatFlops(21.9e12), "21.90 TF/s");
}

TEST(Units, FormatBandwidth) {
  EXPECT_EQ(units::formatBandwidth(425e6), "425.0 MB/s");
  EXPECT_EQ(units::formatBandwidth(5.1e9), "5.10 GB/s");
}

// ---- rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng r(11);
  double acc = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += r.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, BelowInRangeAndCoversValues) {
  Rng r(13);
  bool seen[10] = {};
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.below(10);
    ASSERT_LT(v, 10u);
    seen[v] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, NormalMeanZeroStdOne) {
  Rng r(17);
  const int n = 50000;
  double sum = 0.0, sumSq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sumSq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(std::sqrt((sumSq - n * mean * mean) / (n - 1)), 1.0, 0.02);
}

TEST(Rng, ReseedResetsStream) {
  Rng r(5);
  const auto first = r();
  r.reseed(5);
  EXPECT_EQ(r(), first);
}

// ---- table ------------------------------------------------------------------

TEST(Table, RowArityEnforced) {
  Table t({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), PreconditionError);
}

TEST(Table, PrintAligns) {
  Table t({"name", "value"});
  t.addRow({"x", "1"});
  t.addRow({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, CsvQuotesCommas) {
  Table t({"a"});
  t.addRow({"x,y"});
  std::ostringstream os;
  t.printCsv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
}

// ---- cli --------------------------------------------------------------------

TEST(Cli, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--count=5", "--name=bgp"};
  Cli cli(3, argv);
  EXPECT_EQ(cli.getInt("count", 0), 5);
  EXPECT_EQ(cli.get("name", ""), "bgp");
}

TEST(Cli, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--count", "7"};
  Cli cli(3, argv);
  EXPECT_EQ(cli.getInt("count", 0), 7);
}

TEST(Cli, BooleanFlag) {
  const char* argv[] = {"prog", "--full"};
  Cli cli(2, argv);
  EXPECT_TRUE(cli.getBool("full"));
  EXPECT_FALSE(cli.getBool("absent"));
}

TEST(Cli, Positional) {
  const char* argv[] = {"prog", "input.txt", "--k=v", "other"};
  Cli cli(4, argv);
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
  EXPECT_EQ(cli.positional()[1], "other");
}

TEST(Cli, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.getInt("n", 42), 42);
  EXPECT_DOUBLE_EQ(cli.getDouble("x", 2.5), 2.5);
  EXPECT_EQ(cli.get("s", "dflt"), "dflt");
}

}  // namespace
}  // namespace bgp
