#include "common/strings.h"

#include <gtest/gtest.h>

#include "common/units.h"

namespace taskbench {
namespace {

TEST(StringsTest, StrFormatBasic) {
  EXPECT_EQ(StrFormat("x=%d y=%.2f", 3, 1.5), "x=3 y=1.50");
  EXPECT_EQ(StrFormat("%s", "hello"), "hello");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, StrFormatLongOutput) {
  // Around the 256-byte first pass and well past it.
  for (size_t size : {255, 256, 257, 500}) {
    const std::string big(size, 'a');
    EXPECT_EQ(StrFormat("%s", big.c_str()), big);
    EXPECT_EQ(StrFormat("%s!", big.c_str()), big + "!");
  }
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(32 * kMiB), "32.0 MB");
  EXPECT_EQ(HumanBytes(12ULL * kGiB), "12.0 GB");
}

TEST(StringsTest, HumanBytesRollsToNextUnitInsteadOfPrinting1024) {
  // A value a hair under the unit boundary used to render as
  // "1024.0 KB": the unit was chosen before rounding. Rounding to one
  // decimal must roll over to the next unit instead.
  EXPECT_EQ(HumanBytes(kMiB - 1), "1.0 MB");
  EXPECT_EQ(HumanBytes(kGiB - 1), "1.0 GB");
  EXPECT_EQ(HumanBytes(1024ULL * kGiB - 1), "1.0 TB");
  // Just below the rollover threshold stays in the smaller unit.
  EXPECT_EQ(HumanBytes(1023 * kKiB), "1023.0 KB");
  // Boundary values are exact.
  EXPECT_EQ(HumanBytes(kMiB), "1.0 MB");
  EXPECT_EQ(HumanBytes(1024), "1.0 KB");
}

TEST(StringsTest, HumanSeconds) {
  EXPECT_EQ(HumanSeconds(2.5), "2.500 s");
  EXPECT_EQ(HumanSeconds(0.012), "12.000 ms");
  EXPECT_EQ(HumanSeconds(34e-6), "34.000 us");
  EXPECT_EQ(HumanSeconds(5e-9), "5.0 ns");
  EXPECT_EQ(HumanSeconds(-0.5), "-500.000 ms");
}

TEST(StringsTest, JoinAndSplitRoundTrip) {
  const std::vector<std::string> parts{"a", "bb", "ccc"};
  EXPECT_EQ(Join(parts, ","), "a,bb,ccc");
  EXPECT_EQ(Split("a,bb,ccc", ','), parts);
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = Split(",x,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
}

TEST(StringsTest, JoinEmpty) {
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, Padding) {
  EXPECT_EQ(PadLeft("ab", 5), "   ab");
  EXPECT_EQ(PadRight("ab", 5), "ab   ");
  EXPECT_EQ(PadLeft("abcdef", 3), "abcdef");  // wider than field: unchanged
}

TEST(StringsTest, ParseInt64AcceptsIntegers) {
  auto v = ParseInt64("42");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(*ParseInt64("-7"), -7);
  EXPECT_EQ(*ParseInt64("0"), 0);
}

TEST(StringsTest, ParseInt64RejectsGarbage) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("12abc").ok());   // trailing junk
  EXPECT_FALSE(ParseInt64("abc").ok());
  EXPECT_FALSE(ParseInt64("1.5").ok());     // not an integer
  EXPECT_FALSE(ParseInt64("99999999999999999999").ok());  // overflow
}

TEST(StringsTest, ParseInt64RejectsLeadingWhitespace) {
  // strtoll silently skips leading whitespace; the parser must not —
  // " 5" in a config or CLI flag is a typo, not a number.
  EXPECT_FALSE(ParseInt64(" 5").ok());
  EXPECT_FALSE(ParseInt64("\t5").ok());
  EXPECT_FALSE(ParseInt64("\n5").ok());
  EXPECT_FALSE(ParseInt64("5 ").ok());  // trailing rejected as before
}

TEST(StringsTest, ParseDoubleAcceptsNumbers) {
  EXPECT_EQ(*ParseDouble("2.5"), 2.5);
  EXPECT_EQ(*ParseDouble("-1e3"), -1000.0);
  EXPECT_EQ(*ParseDouble("0"), 0.0);
}

TEST(StringsTest, ParseDoubleRejectsGarbage) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("2.5x").ok());
  EXPECT_FALSE(ParseDouble("oops").ok());
  EXPECT_FALSE(ParseDouble("1e99999").ok());  // out of range
}

TEST(StringsTest, ParseDoubleRejectsLeadingWhitespace) {
  EXPECT_FALSE(ParseDouble(" 2.5").ok());
  EXPECT_FALSE(ParseDouble("\t2.5").ok());
  EXPECT_FALSE(ParseDouble("2.5 ").ok());
}

TEST(StringsTest, ParseDoubleRejectsNonFinite) {
  // strtod happily parses "nan" and "inf"; every ParseDouble call
  // site expects a finite quantity (durations, rates, factors), so
  // non-finite spellings are rejected.
  EXPECT_FALSE(ParseDouble("nan").ok());
  EXPECT_FALSE(ParseDouble("NaN").ok());
  EXPECT_FALSE(ParseDouble("inf").ok());
  EXPECT_FALSE(ParseDouble("-inf").ok());
  EXPECT_FALSE(ParseDouble("infinity").ok());
}

TEST(StringsTest, JsonEscape) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(JsonEscape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonEscape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(JsonEscape(""), "");
}

TEST(UnitsTest, ElementConversions) {
  EXPECT_EQ(ElementsToBytes(1024), 8192u);
  EXPECT_EQ(BytesToElements(8192), 1024u);
  EXPECT_EQ(kMiB, 1024u * 1024u);
}

}  // namespace
}  // namespace taskbench
