// Unit tests: utilities (serialization, RNG, tables, CLI).

#include <gtest/gtest.h>

#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/table.hpp"

namespace spbc::util {
namespace {

TEST(Serialize, RoundTripScalars) {
  ByteWriter w;
  w.put<int>(-42);
  w.put<uint64_t>(123456789012345ULL);
  w.put<double>(3.25);
  w.put<uint8_t>(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get<int>(), -42);
  EXPECT_EQ(r.get<uint64_t>(), 123456789012345ULL);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.25);
  EXPECT_EQ(r.get<uint8_t>(), 7);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, RoundTripVectorsAndStrings) {
  ByteWriter w;
  std::vector<double> v{1.0, 2.5, -3.0};
  w.put_vector(v);
  w.put_string("spbc");
  std::vector<uint32_t> empty;
  w.put_vector(empty);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_vector<double>(), v);
  EXPECT_EQ(r.get_string(), "spbc");
  EXPECT_TRUE(r.get_vector<uint32_t>().empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, RoundTripNestedBytes) {
  ByteWriter inner;
  inner.put<int>(99);
  ByteWriter w;
  w.put_bytes(inner.bytes().data(), inner.size());
  ByteReader r(w.bytes());
  auto blob = r.get_bytes();
  ByteReader ir(blob);
  EXPECT_EQ(ir.get<int>(), 99);
}

TEST(Rng, Pcg32Deterministic) {
  Pcg32 a(42, 1), b(42, 1);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, Pcg32StreamsDiffer) {
  Pcg32 a(42, 1), b(42, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u32() == b.next_u32()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, BoundedIsInRange) {
  Pcg32 g(7, 3);
  for (int i = 0; i < 1000; ++i) {
    uint32_t v = g.next_bounded(17);
    EXPECT_LT(v, 17u);
  }
}

TEST(Rng, DoubleIsInUnitInterval) {
  Pcg32 g(11, 5);
  for (int i = 0; i < 1000; ++i) {
    double d = g.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, Fnv1aMatchesKnownVector) {
  // FNV-1a of empty input is the offset basis.
  Fnv1a64 h;
  EXPECT_EQ(h.digest(), 14695981039346656037ULL);
  h.update("a", 1);
  EXPECT_EQ(h.digest(), 0xaf63dc4c8601ec8cULL);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"App", "Avg", "Max"});
  t.add_row({"MiniGhost", "1.6", "2.1"});
  t.add_row({"GTC", "0.4", "0.9"});
  std::string out = t.render();
  EXPECT_NE(out.find("MiniGhost"), std::string::npos);
  EXPECT_NE(out.find("| GTC"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|--"), std::string::npos);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(1.0, 0), "1");
}

TEST(Cli, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--ranks=64", "--iters", "10", "--validate"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("ranks", 0), 64);
  EXPECT_EQ(cli.get_int("iters", 0), 10);
  EXPECT_TRUE(cli.get_flag("validate"));
  EXPECT_FALSE(cli.get_flag("absent"));
  EXPECT_EQ(cli.get_int("absent", 7), 7);
  EXPECT_EQ(cli.get_string("absent", "x"), "x");
}

TEST(Cli, ParsesDoubles) {
  const char* argv[] = {"prog", "--scale=0.5"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(cli.get_double("scale", 1.0), 0.5);
}

TEST(Cli, AcceptsEveryFlagThatWasRead) {
  const char* argv[] = {"prog", "--ranks=64", "--quiet", "--mode", "x"};
  Cli cli(5, const_cast<char**>(argv));
  cli.get_int("ranks", 0);
  cli.has("quiet");
  cli.get_string("mode", "");
  cli.get_flag("absent");
  cli.reject_unknown();  // returns: nothing left unread
  SUCCEED();
}

TEST(Cli, RejectsAnUnreadFlagByName) {
  const char* argv[] = {"prog", "--ranks=64", "--bogus-flag=3"};
  Cli cli(3, const_cast<char**>(argv));
  cli.get_int("ranks", 0);
  EXPECT_EXIT(cli.reject_unknown(), ::testing::ExitedWithCode(2),
              "unknown flag --bogus-flag");
}

}  // namespace
}  // namespace spbc::util
