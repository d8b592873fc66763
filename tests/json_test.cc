// The project's one JSON grammar (common/json.h): what ValidateJson
// accepts and rejects, and the tree ParseJson builds. The WfFormat
// bad-fixture corpus in wf_import_test drives the same parser through
// the importer.

#include "common/json.h"

#include <string>

#include <gtest/gtest.h>

namespace taskbench {
namespace {

std::string Nested(int depth) {
  return std::string(static_cast<size_t>(depth), '[') +
         std::string(static_cast<size_t>(depth), ']');
}

// ---------------------------------------------------------------------------
// ValidateJson

TEST(ValidateJsonTest, AcceptsScalars) {
  EXPECT_TRUE(ValidateJson("0").ok());
  EXPECT_TRUE(ValidateJson("-12").ok());
  EXPECT_TRUE(ValidateJson("3.5e-7").ok());
  EXPECT_TRUE(ValidateJson("true").ok());
  EXPECT_TRUE(ValidateJson("false").ok());
  EXPECT_TRUE(ValidateJson("null").ok());
  EXPECT_TRUE(ValidateJson("\"hi\"").ok());
}

TEST(ValidateJsonTest, AcceptsContainers) {
  EXPECT_TRUE(ValidateJson("{}").ok());
  EXPECT_TRUE(ValidateJson("[]").ok());
  EXPECT_TRUE(ValidateJson("[1, 2, 3]").ok());
  EXPECT_TRUE(ValidateJson("{\"a\": [1, {\"b\": null}], \"c\": \"d\"}").ok());
  EXPECT_TRUE(ValidateJson("  {\n\t\"k\" : [ ]\r}  ").ok());
}

TEST(ValidateJsonTest, AcceptsEscapes) {
  EXPECT_TRUE(ValidateJson("\"a\\\"b\\\\c\\n\\t\\u00e9\"").ok());
  EXPECT_TRUE(ValidateJson("\"\\/\\b\\f\\r\"").ok());
}

TEST(ValidateJsonTest, RejectsMalformed) {
  EXPECT_FALSE(ValidateJson("").ok());
  EXPECT_FALSE(ValidateJson("{").ok());
  EXPECT_FALSE(ValidateJson("[1,]").ok());
  EXPECT_FALSE(ValidateJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ValidateJson("{1: 2}").ok());     // non-string key
  EXPECT_FALSE(ValidateJson("\"open").ok());     // unterminated string
  EXPECT_FALSE(ValidateJson("01").ok());         // leading zero
  EXPECT_FALSE(ValidateJson("1.").ok());         // empty fraction
  EXPECT_FALSE(ValidateJson("1e").ok());         // empty exponent
  EXPECT_FALSE(ValidateJson("nul").ok());
  EXPECT_FALSE(ValidateJson("truefalse").ok());  // trailing content
  EXPECT_FALSE(ValidateJson("{} {}").ok());      // two documents
}

TEST(ValidateJsonTest, RejectsBadStrings) {
  EXPECT_FALSE(ValidateJson("\"a\nb\"").ok());    // raw control char
  EXPECT_FALSE(ValidateJson("\"\\x41\"").ok());   // invalid escape
  EXPECT_FALSE(ValidateJson("\"\\u12\"").ok());   // short \u escape
  EXPECT_FALSE(ValidateJson("\"\\u12gz\"").ok()); // non-hex \u escape
}

TEST(ValidateJsonTest, ErrorsCarryByteOffset) {
  const Status s = ValidateJson("[1, oops]");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("at byte 4"), std::string::npos)
      << s.ToString();
}

TEST(ValidateJsonTest, DeepNestingIsBounded) {
  // Just under the depth cap parses; far past it is rejected rather
  // than blowing the stack.
  EXPECT_TRUE(ValidateJson(Nested(200)).ok());
  EXPECT_FALSE(ValidateJson(Nested(1000)).ok());
}

// ---------------------------------------------------------------------------
// ParseJson

TEST(JsonTest, DepthCapIs256OpenContainers) {
  EXPECT_TRUE(ParseJson(Nested(256)).ok());
  const Status s = ValidateJson(Nested(257));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // The 257th '[' opens at byte 256.
  EXPECT_NE(s.message().find("nesting too deep at byte 256"),
            std::string::npos)
      << s.ToString();
  // Objects count toward the same cap.
  std::string objects;
  for (int i = 0; i < 257; ++i) objects += "{\"k\":";
  objects += "0" + std::string(257, '}');
  EXPECT_FALSE(ValidateJson(objects).ok());
  EXPECT_TRUE(ValidateJson(objects.substr(5, objects.size() - 6)).ok());
}

TEST(JsonTest, LoneSurrogatesAreRejected) {
  EXPECT_FALSE(ValidateJson("\"\\ud800\"").ok());         // high, no low
  EXPECT_FALSE(ValidateJson("\"\\udc00\"").ok());         // low alone
  EXPECT_FALSE(ValidateJson("\"\\ud800\\u0041\"").ok());  // high + non-low
  EXPECT_FALSE(ValidateJson("\"\\ud800x\"").ok());
  const Status s = ValidateJson("\"\\udc00\"");
  EXPECT_NE(s.message().find("unpaired surrogate"), std::string::npos)
      << s.ToString();
}

TEST(JsonTest, SurrogatePairDecodesToFourUtf8Bytes) {
  auto doc = ParseJson("\"\\ud83d\\ude00\"");  // U+1F600
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->IsString());
  EXPECT_EQ(doc->string_value, "\xF0\x9F\x98\x80");
  // BMP escapes take 1-3 bytes.
  auto bmp = ParseJson("\"\\u0041\\u00e9\\u20ac\"");
  ASSERT_TRUE(bmp.ok());
  EXPECT_EQ(bmp->string_value, "A\xC3\xA9\xE2\x82\xAC");
}

TEST(JsonTest, TreeKeepsKindsValuesAndMemberOrder) {
  auto doc = ParseJson(
      "{\"z\": [1, -2.5e1, true, null], \"a\": {\"s\": \"x\\ny\"}, "
      "\"z\": false}");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->IsObject());
  ASSERT_EQ(doc->members.size(), 3u);
  EXPECT_EQ(doc->members[0].first, "z");
  EXPECT_EQ(doc->members[1].first, "a");
  // Find returns the first member of a duplicated name.
  const JsonValue* z = doc->Find("z");
  ASSERT_NE(z, nullptr);
  ASSERT_TRUE(z->IsArray());
  ASSERT_EQ(z->items.size(), 4u);
  EXPECT_EQ(z->items[0].number_value, 1);
  EXPECT_EQ(z->items[1].number_value, -25);
  EXPECT_TRUE(z->items[2].IsBool() && z->items[2].bool_value);
  EXPECT_TRUE(z->items[3].IsNull());
  const JsonValue* s = doc->Find("a")->Find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->string_value, "x\ny");
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

}  // namespace
}  // namespace taskbench
