#include <gtest/gtest.h>

#include <set>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace paxml {
namespace {

// ---- Status -------------------------------------------------------------------

TEST(StatusTest, OkIsDefaultAndCheap) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "ok");
  EXPECT_EQ(s, Status::OK());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "parse-error: bad token");
}

TEST(StatusTest, CopyIsShallowAndEqualCompares) {
  Status a = Status::NotFound("x");
  Status b = a;
  EXPECT_EQ(a, b);
  EXPECT_NE(a, Status::NotFound("y"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 8; ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "unknown");
  }
}

TEST(StatusTest, ReturnNotOkMacro) {
  auto fails = []() -> Status {
    PAXML_RETURN_NOT_OK(Status::Internal("inner"));
    return Status::OK();
  };
  EXPECT_EQ(fails().code(), StatusCode::kInternal);
}

// ---- Result -------------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r = Status::OK();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::OutOfRange("x");
    return 7;
  };
  auto outer = [&](bool fail) -> Result<int> {
    PAXML_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(*outer(false), 8);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

// ---- Rng ----------------------------------------------------------------------

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng c(124);
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  EXPECT_EQ(rng.NextBounded(0), 0u);
  EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, BoundedCoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, WeightedRespectsZeros) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    size_t pick = rng.NextWeighted({0.0, 1.0, 0.0});
    EXPECT_EQ(pick, 1u);
  }
  EXPECT_EQ(rng.NextWeighted({}), 0u);
  EXPECT_EQ(rng.NextWeighted({0.0, 0.0}), 0u);
}

TEST(RngTest, BoolProbabilityExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(77);
  Rng b = a.Fork();
  bool differs = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

// ---- String utils ----------------------------------------------------------------

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  auto parts = Split("a//b/", '/');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
  EXPECT_EQ(Split("", '/').size(), 1u);
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, "/"), "a/b/c");
  EXPECT_EQ(Join({}, "/"), "");
  EXPECT_EQ(Join({"only"}, ", "), "only");
}

TEST(StringUtilTest, StripAndWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_TRUE(IsAllWhitespace(" \t\n"));
  EXPECT_TRUE(IsAllWhitespace(""));
  EXPECT_FALSE(IsAllWhitespace(" x "));
}

TEST(StringUtilTest, ParseNumber) {
  EXPECT_DOUBLE_EQ(*ParseNumber("42"), 42.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("-3.5"), -3.5);
  EXPECT_DOUBLE_EQ(*ParseNumber("  7 "), 7.0);
  EXPECT_FALSE(ParseNumber("x").has_value());
  EXPECT_FALSE(ParseNumber("3x").has_value());
  EXPECT_FALSE(ParseNumber("").has_value());
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("NASDAQ", "nasdaq"));
  EXPECT_FALSE(EqualsIgnoreCase("NASDAQ", "nasdaq2"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
}

TEST(StringUtilTest, XmlEscape) {
  EXPECT_EQ(XmlEscape("a<b>&'\"c"), "a&lt;b&gt;&amp;&apos;&quot;c");
  EXPECT_EQ(XmlEscape("plain"), "plain");
  for (const char* s : {"", "plain", "&", "<", ">", "\"", "'",
                        "a<b>&'\"c", "&&<<>>\"\"''"}) {
    EXPECT_EQ(XmlEscapedSize(s), XmlEscape(s).size()) << s;
  }
}

TEST(StringUtilTest, StringFormat) {
  EXPECT_EQ(StringFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringFormat("%s", std::string(500, 'a').c_str()),
            std::string(500, 'a'));
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(5 * 1024 * 1024ULL), "5.0 MB");
}

}  // namespace
}  // namespace paxml
