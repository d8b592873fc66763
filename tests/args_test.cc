#include "common/args.h"

#include <gtest/gtest.h>

namespace taskbench {
namespace {

Args Make(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return Args::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgsTest, PositionalAndOptions) {
  const Args args = Make({"run", "--grid=4x4", "--processor", "GPU"});
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "run");
  EXPECT_EQ(args.GetString("grid"), "4x4");
  EXPECT_EQ(args.GetString("processor"), "GPU");
  EXPECT_EQ(args.GetString("missing", "dflt"), "dflt");
}

TEST(ArgsTest, BareFlagIsTrue) {
  const Args args = Make({"--verbose", "--csv=out.csv"});
  auto verbose = args.GetBool("verbose", false);
  ASSERT_TRUE(verbose.ok());
  EXPECT_TRUE(*verbose);
  auto absent = args.GetBool("quiet", false);
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(*absent);
}

TEST(ArgsTest, IntParsing) {
  const Args args = Make({"--iters=12", "--bad=12x"});
  auto good = args.GetInt("iters", 0);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 12);
  EXPECT_FALSE(args.GetInt("bad", 0).ok());
  auto fallback = args.GetInt("absent", 7);
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(*fallback, 7);
}

TEST(ArgsTest, DoubleParsing) {
  const Args args = Make({"--lr=0.5"});
  auto lr = args.GetDouble("lr", 0);
  ASSERT_TRUE(lr.ok());
  EXPECT_DOUBLE_EQ(*lr, 0.5);
}

TEST(ArgsTest, BoolRejectsGarbage) {
  const Args args = Make({"--flag=banana"});
  EXPECT_FALSE(args.GetBool("flag", false).ok());
}

TEST(ArgsTest, SpaceSeparatedValueNotConsumedForNextOption) {
  const Args args = Make({"--a", "--b=2"});
  auto a = args.GetBool("a", false);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(*a);
  EXPECT_EQ(args.GetString("b"), "2");
}

TEST(ArgsTest, UnknownKeysDetectsTypos) {
  const Args args = Make({"--grdi=4x4", "--processor=CPU"});
  const auto unknown = args.UnknownKeys({"grid", "processor"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "grdi");
}

TEST(ArgsTest, CheckFlagsRejectsABareValueFlagNamingIt) {
  // `--out` with nothing after it has no value: it must not read as a
  // path called "true".
  const Args bare = Make({"--smoke", "--out"});
  EXPECT_EQ(bare.GetString("out", "fallback"), "");
  const Status status = bare.CheckFlags({"out"}, {"smoke"});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "--out needs a value");
  EXPECT_EQ(Make({"--out="}).CheckFlags({"out"}).message(),
            "--out needs a value");

  // Boolean flags keep their bare form; value flags with values pass.
  const Args good = Make({"--smoke", "--out", "x.json", "--sizes=1,2"});
  EXPECT_TRUE(good.CheckFlags({"out", "sizes"}, {"smoke"}).ok());
  EXPECT_EQ(good.GetString("out"), "x.json");
  auto smoke = good.GetBool("smoke", false);
  ASSERT_TRUE(smoke.ok());
  EXPECT_TRUE(*smoke);
}

TEST(ArgsTest, CheckFlagsRejectsAnUnknownFlagNamingIt) {
  const Args args = Make({"--algoritm=kmeans", "--grid=4x1"});
  const Status status = args.CheckFlags({"algorithm", "grid"});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "unknown flag --algoritm");
  // A bare flag is unknown unless listed as a boolean one.
  EXPECT_EQ(Make({"--smoke"}).CheckFlags({"out"}).message(),
            "unknown flag --smoke");
  EXPECT_TRUE(Make({"--smoke"}).CheckFlags({}, {"smoke"}).ok());
}

}  // namespace
}  // namespace taskbench
