// The declared flag table behind every `motto` command and figure bench
// (common/flags.h): typed reads, defaults, bounds, refusals of anything
// undeclared, the checked environment default, and the usage text.
#include "common/flags.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

namespace motto {
namespace {

using enum FlagKind;
using enum FlagMin;

FlagSet RunFlags() {
  return FlagSet("usage: motto run [flags]",
                 {{"workload", kString, "workload.ccl", kNone, "CCL file"},
                  {"shards", kInt, "1", kPositive, "sharded replicas"},
                  {"checkpoint-interval", kInt, "10000", kZero, "events"},
                  {"interval", kDouble, "2", kPositive, "seconds"},
                  {"ratio", kDouble, "", kNone, "percent"},
                  {"stats", kOptional, "", kNone, "per-node report"},
                  {"json", kOptional, "", kNone, "JSON to stdout or FILE"},
                  {"once", kSwitch, "", kNone, "one frame"}});
}

/// Parses `args` and returns the error message ("" when it parses).
std::string ParseError(FlagSet* flags, const std::vector<std::string>& args) {
  Status status = flags->Parse(args);
  return status.ok() ? "" : status.message();
}

TEST(FlagsTest, TypedReadsAndDefaults) {
  FlagSet flags = RunFlags();
  ASSERT_EQ(ParseError(&flags, {}), "");
  EXPECT_EQ(flags.String("workload"), "workload.ccl");
  EXPECT_EQ(flags.Int("shards"), 1);
  EXPECT_EQ(flags.Double("interval"), 2.0);
  EXPECT_EQ(flags.Double("ratio"), 0.0);  // No default: unset reads 0.
  EXPECT_FALSE(flags.Has("shards"));
  EXPECT_FALSE(flags.Has("ratio"));

  ASSERT_EQ(ParseError(&flags, {"--workload=w.ccl", "--shards=4",
                                "--interval=0.5", "--ratio=-3"}),
            "");
  EXPECT_EQ(flags.String("workload"), "w.ccl");
  EXPECT_EQ(flags.Int("shards"), 4);
  EXPECT_EQ(flags.Double("interval"), 0.5);
  EXPECT_EQ(flags.Double("ratio"), -3.0);
  EXPECT_TRUE(flags.Has("shards"));

  // The last occurrence wins, and each Parse starts from the defaults.
  ASSERT_EQ(ParseError(&flags, {"--shards=2", "--shards=3"}), "");
  EXPECT_EQ(flags.Int("shards"), 3);
  ASSERT_EQ(ParseError(&flags, {}), "");
  EXPECT_EQ(flags.Int("shards"), 1);
  EXPECT_FALSE(flags.Has("shards"));
}

TEST(FlagsTest, MalformedNumbersNameTheFlag) {
  FlagSet flags = RunFlags();
  EXPECT_EQ(ParseError(&flags, {"--shards=12x"}),
            "bad --shards='12x': malformed integer '12x'");
  EXPECT_EQ(ParseError(&flags, {"--interval=abc"}),
            "bad --interval='abc': malformed number 'abc'");
  EXPECT_EQ(ParseError(&flags, {"--interval=1e400"}),
            "bad --interval='1e400': number out of range '1e400'");
  EXPECT_EQ(ParseError(&flags, {"--shards="}),
            "bad --shards='': empty integer ''");
}

TEST(FlagsTest, LowerBounds) {
  FlagSet flags = RunFlags();
  EXPECT_EQ(ParseError(&flags, {"--shards=0"}),
            "bad --shards='0': must be >= 1");
  EXPECT_EQ(ParseError(&flags, {"--checkpoint-interval=-1"}),
            "bad --checkpoint-interval='-1': must be >= 0");
  EXPECT_EQ(ParseError(&flags, {"--interval=0"}),
            "bad --interval='0': must be > 0");
  EXPECT_EQ(ParseError(&flags, {"--checkpoint-interval=0", "--shards=1",
                                "--interval=0.001"}),
            "");
}

TEST(FlagsTest, UnknownFlagNamesTheNearestDeclaredOne) {
  FlagSet flags = RunFlags();
  EXPECT_EQ(ParseError(&flags, {"--shard=4"}),
            "unknown flag --shard (did you mean --shards?)");
  EXPECT_EQ(ParseError(&flags, {"--chekpoint-interval=5"}),
            "unknown flag --chekpoint-interval (did you mean "
            "--checkpoint-interval?)");
  EXPECT_EQ(ParseError(&flags, {"--jsno"}),
            "unknown flag --jsno (did you mean --json?)");
  // Only "--name[=value]" arguments are flags.
  EXPECT_EQ(ParseError(&flags, {"w.ccl"}), "unexpected argument 'w.ccl'");
  EXPECT_EQ(ParseError(&flags, {"-shards=4"}),
            "unexpected argument '-shards=4'");
}

TEST(FlagsTest, BareValueFlagIsRefused) {
  FlagSet flags = RunFlags();
  EXPECT_EQ(ParseError(&flags, {"--shards"}),
            "--shards needs a value (use --shards=...)");
  EXPECT_EQ(ParseError(&flags, {"--workload"}),
            "--workload needs a value (use --workload=...)");
  EXPECT_EQ(ParseError(&flags, {"--interval"}),
            "--interval needs a value (use --interval=...)");
}

TEST(FlagsTest, OptionalValueFlags) {
  FlagSet flags = RunFlags();
  ASSERT_EQ(ParseError(&flags, {}), "");
  EXPECT_FALSE(flags.Has("stats"));
  EXPECT_FALSE(flags.Has("json"));

  ASSERT_EQ(ParseError(&flags, {"--stats", "--json"}), "");
  EXPECT_TRUE(flags.Has("stats"));
  EXPECT_EQ(flags.String("stats"), "");
  EXPECT_TRUE(flags.Has("json"));
  EXPECT_EQ(flags.String("json"), "");

  ASSERT_EQ(ParseError(&flags, {"--stats=json", "--json=plan.json"}), "");
  EXPECT_EQ(flags.String("stats"), "json");
  EXPECT_EQ(flags.String("json"), "plan.json");
}

TEST(FlagsTest, Switches) {
  FlagSet flags = RunFlags();
  ASSERT_EQ(ParseError(&flags, {}), "");
  EXPECT_FALSE(flags.Switch("once"));
  ASSERT_EQ(ParseError(&flags, {"--once"}), "");
  EXPECT_TRUE(flags.Switch("once"));
  ASSERT_EQ(ParseError(&flags, {"--once=1"}), "");
  EXPECT_TRUE(flags.Switch("once"));
  ASSERT_EQ(ParseError(&flags, {"--once=false"}), "");
  EXPECT_FALSE(flags.Switch("once"));
  EXPECT_TRUE(flags.Has("once"));
  EXPECT_EQ(ParseError(&flags, {"--once=yes"}),
            "bad --once='yes': a switch takes no value, or 1|0|true|false");
}

TEST(FlagsTest, HelpSkipsEveryOtherCheck) {
  FlagSet flags = RunFlags();
  ASSERT_EQ(ParseError(&flags, {"--shard=4", "--help"}), "");
  EXPECT_TRUE(flags.help_requested());
  ASSERT_EQ(ParseError(&flags, {"--shards=4"}), "");
  EXPECT_FALSE(flags.help_requested());
}

TEST(FlagsTest, CheckedEnvironmentDefault) {
  const char* kVar = "MOTTO_FLAGS_TEST_ITERS";
  FlagSet flags("usage: test",
                {{"iters", kInt, "40", kPositive, "cases", kVar}});
  unsetenv(kVar);
  ASSERT_EQ(ParseError(&flags, {}), "");
  EXPECT_EQ(flags.Int("iters"), 40);
  EXPECT_FALSE(flags.Has("iters"));

  setenv(kVar, "", 1);  // Empty counts as unset.
  ASSERT_EQ(ParseError(&flags, {}), "");
  EXPECT_EQ(flags.Int("iters"), 40);

  setenv(kVar, "7", 1);
  ASSERT_EQ(ParseError(&flags, {}), "");
  EXPECT_EQ(flags.Int("iters"), 7);
  EXPECT_TRUE(flags.Has("iters"));
  ASSERT_EQ(ParseError(&flags, {"--iters=3"}), "");  // The flag wins.
  EXPECT_EQ(flags.Int("iters"), 3);

  setenv(kVar, "abc", 1);
  EXPECT_EQ(ParseError(&flags, {}),
            "bad MOTTO_FLAGS_TEST_ITERS='abc': malformed integer 'abc'");
  setenv(kVar, "0", 1);
  EXPECT_EQ(ParseError(&flags, {}),
            "bad MOTTO_FLAGS_TEST_ITERS='0': must be >= 1");
  EXPECT_EQ(ParseError(&flags, {"--help"}), "");  // Help still prints.
  unsetenv(kVar);
}

TEST(FlagsTest, UsageListsEveryDeclaredFlag) {
  FlagSet flags = RunFlags();
  std::string usage = flags.Usage();
  EXPECT_EQ(usage.rfind("usage: motto run [flags]\n", 0), 0u) << usage;
  for (const char* row :
       {"--workload=STR ", "--shards=N ", "--checkpoint-interval=N ",
        "--interval=X ", "--ratio=X ", "--stats[=STR] ", "--json[=STR] ",
        "--once ", "--help "}) {
    EXPECT_NE(usage.find(std::string("\n  ") + row), std::string::npos)
        << row << " missing from:\n" << usage;
  }
  EXPECT_NE(usage.find("sharded replicas (default 1; >= 1)"),
            std::string::npos)
      << usage;
  EXPECT_NE(usage.find("seconds (default 2; > 0)"), std::string::npos)
      << usage;
  FlagSet env_flags("usage: test",
                    {{"iters", kInt, "40", kPositive, "cases", "SOME_VAR"}});
  EXPECT_NE(env_flags.Usage().find("default from $SOME_VAR"),
            std::string::npos);
}

}  // namespace
}  // namespace motto
