#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace preqr {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_NE(s.ToString().find("PARSE_ERROR"), std::string::npos);
}

TEST(ResultTest, HoldsValue) {
  StatusOr<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
}

TEST(ResultTest, HoldsError) {
  StatusOr<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, SeedChangesStream) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= a.NextUint64() != b.NextUint64();
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, IntRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int x = rng.NextInt(5, 10);
    EXPECT_GE(x, 5);
    EXPECT_LT(x, 10);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ZipfSkewed) {
  Rng rng(13);
  int ones = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const uint64_t v = rng.NextZipf(100, 1.5);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 100u);
    if (v == 1) ++ones;
  }
  // Rank 1 should dominate under Zipf(1.5).
  EXPECT_GT(ones, n / 4);
}

TEST(StringUtilTest, ToLower) { EXPECT_EQ(ToLower("SeLeCt"), "select"); }

TEST(StringUtilTest, SplitAndJoin) {
  auto parts = SplitAny("a,b;;c", ",;");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(Join(parts, "-"), "a-b-c");
}

TEST(StringUtilTest, EditDistance) {
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3);
  EXPECT_EQ(EditDistance("", "abc"), 3);
  EXPECT_EQ(EditDistance("same", "same"), 0);
}

TEST(StringUtilTest, StringSimilarityBounds) {
  EXPECT_DOUBLE_EQ(StringSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(StringSimilarity("", ""), 1.0);
  EXPECT_GE(StringSimilarity("abc", "xyz"), 0.0);
}

TEST(StringUtilTest, Jaccard) {
  EXPECT_DOUBLE_EQ(Jaccard({"a", "b"}, {"b", "c"}), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(Jaccard({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(Jaccard({"a"}, {"a", "a"}), 1.0);
}

TEST(StringUtilTest, PrefixSuffix) {
  EXPECT_TRUE(StartsWith("select *", "select"));
  EXPECT_FALSE(StartsWith("sel", "select"));
  EXPECT_TRUE(EndsWith("a.cc", ".cc"));
  EXPECT_FALSE(EndsWith("a.cc", ".h"));
}

}  // namespace
}  // namespace preqr
