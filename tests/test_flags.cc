#include "util/flags.h"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace melody::util {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, KeyEqualsValue) {
  const Flags f = parse({"--workers=42"});
  EXPECT_TRUE(f.has("workers"));
  EXPECT_EQ(f.get_int("workers", 0), 42);
}

TEST(Flags, KeySpaceValue) {
  const Flags f = parse({"--budget", "123.5"});
  EXPECT_DOUBLE_EQ(f.get_double("budget", 0.0), 123.5);
}

TEST(Flags, BareSwitchIsTrue) {
  const Flags f = parse({"--quiet"});
  EXPECT_TRUE(f.get_bool("quiet", false));
}

TEST(Flags, SwitchFollowedByFlag) {
  const Flags f = parse({"--quiet", "--workers=5"});
  EXPECT_TRUE(f.get_bool("quiet", false));
  EXPECT_EQ(f.get_int("workers", 0), 5);
}

TEST(Flags, DefaultsWhenAbsent) {
  const Flags f = parse({});
  EXPECT_FALSE(f.has("anything"));
  EXPECT_EQ(f.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("x", 1.5), 1.5);
  EXPECT_EQ(f.get_string("s", "dflt"), "dflt");
  EXPECT_TRUE(f.get_bool("b", true));
}

TEST(Flags, PositionalArguments) {
  const Flags f = parse({"first", "--k=v", "second"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "first");
  EXPECT_EQ(f.positional()[1], "second");
}

TEST(Flags, BooleanSpellings) {
  EXPECT_TRUE(parse({"--a=yes"}).get_bool("a", false));
  EXPECT_TRUE(parse({"--a=1"}).get_bool("a", false));
  EXPECT_FALSE(parse({"--a=no"}).get_bool("a", true));
  EXPECT_FALSE(parse({"--a=0"}).get_bool("a", true));
  EXPECT_FALSE(parse({"--a=false"}).get_bool("a", true));
}

TEST(Flags, SwitchValuesParseLikeBooleans) {
  EXPECT_TRUE(parse({"--rolling"}).has_switch("rolling", "doc"));
  EXPECT_FALSE(parse({}).has_switch("rolling", "doc"));
  EXPECT_TRUE(parse({"--rolling=true"}).has_switch("rolling", "doc"));
  for (const char* off : {"--rolling=false", "--rolling=0", "--rolling=no"}) {
    EXPECT_FALSE(parse({off}).has_switch("rolling", "doc")) << off;
  }
  EXPECT_THROW(parse({"--rolling=maybe"}).has_switch("rolling", "doc"),
               std::invalid_argument);
}

TEST(Flags, TypeErrorsThrow) {
  EXPECT_THROW(parse({"--n=abc"}).get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(parse({"--n=12x"}).get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(parse({"--x=?"}).get_double("x", 0), std::invalid_argument);
  EXPECT_THROW(parse({"--b=maybe"}).get_bool("b", false), std::invalid_argument);
}

TEST(Flags, MalformedFlagThrows) {
  EXPECT_THROW(parse({"---x=1"}), std::invalid_argument);
  EXPECT_THROW(parse({"--"}), std::invalid_argument);
}

TEST(Flags, NegativeNumbersAsValues) {
  const Flags f = parse({"--delta=-3"});
  EXPECT_EQ(f.get_int("delta", 0), -3);
}

TEST(Flags, UnusedDetection) {
  const Flags f = parse({"--used=1", "--typo=2"});
  (void)f.get_int("used", 0);
  const auto unused = f.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Flags, DuplicateEqualsFormThrows) {
  EXPECT_THROW(parse({"--n=1", "--n=2"}), std::invalid_argument);
}

TEST(Flags, DuplicateSpaceFormThrows) {
  EXPECT_THROW(parse({"--n", "1", "--n", "2"}), std::invalid_argument);
}

TEST(Flags, DuplicateAcrossFormsThrows) {
  EXPECT_THROW(parse({"--n=1", "--n", "2"}), std::invalid_argument);
  EXPECT_THROW(parse({"--quiet", "--quiet"}), std::invalid_argument);
}

TEST(Flags, DistinctFlagsDoNotThrow) {
  const Flags f = parse({"--n=1", "--m", "2"});
  EXPECT_EQ(f.get_int("n", 0), 1);
  EXPECT_EQ(f.get_int("m", 0), 2);
}

// ------------------------------------------------------- CommandLine --

struct ToolOptions {
  std::int64_t n = 0;
};

ToolOptions read_tool_options(const Flags& flags) {
  ToolOptions o;
  o.n = flags.get_int("n", 0, "N", "a number");
  return o;
}

constexpr int kUsageCode = 3;

struct Outcome {
  std::optional<int> exit_code;
  std::string out;
  std::string err;
};

Outcome run_front_door(std::initializer_list<const char*> args,
                       std::int64_t* n = nullptr) {
  std::vector<const char*> argv{"tool"};
  argv.insert(argv.end(), args.begin(), args.end());
  CommandLine<ToolOptions> cli("tool", "A tool.", kUsageCode,
                               read_tool_options);
  Outcome outcome;
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  outcome.exit_code = cli.parse(static_cast<int>(argv.size()), argv.data());
  outcome.err = testing::internal::GetCapturedStderr();
  outcome.out = testing::internal::GetCapturedStdout();
  if (n != nullptr) *n = cli.options().n;
  return outcome;
}

TEST(CommandLine, MalformedOrRepeatedFlagPrintsUsage) {
  for (const Outcome& o :
       {run_front_door({"---x"}), run_front_door({"--n=1", "--n=2"})}) {
    EXPECT_EQ(o.exit_code, kUsageCode);
    EXPECT_EQ(o.err.rfind("usage: tool", 0), 0u) << o.err;
    EXPECT_NE(o.err.find("\nerror: Flags: "), std::string::npos) << o.err;
  }
}

TEST(CommandLine, HelpComesBeforeReadingTheOptions) {
  const Outcome o = run_front_door({"--help", "--n=abc", "stray"});
  EXPECT_EQ(o.exit_code, 0);
  EXPECT_EQ(o.out, "");
  EXPECT_EQ(o.err.find("error:"), std::string::npos) << o.err;
  // The tool's flags, then the shared --version and --help entries.
  const std::size_t n = o.err.find("--n N");
  const std::size_t version = o.err.find("--version");
  const std::size_t help = o.err.find("--help");
  ASSERT_NE(n, std::string::npos) << o.err;
  ASSERT_NE(version, std::string::npos) << o.err;
  ASSERT_NE(help, std::string::npos) << o.err;
  EXPECT_LT(n, version);
  EXPECT_LT(version, help);
  EXPECT_EQ(o.err.rfind("usage: tool [flags]\n  A tool.\n", 0), 0u) << o.err;
}

TEST(CommandLine, ReadErrorComesBeforeVersion) {
  const Outcome o = run_front_door({"--version", "--n=abc"});
  EXPECT_EQ(o.exit_code, kUsageCode);
  EXPECT_EQ(o.out, "");
  EXPECT_NE(o.err.find("error: Flags: --n expects an integer"),
            std::string::npos)
      << o.err;
}

TEST(CommandLine, VersionComesBeforeUnknownAndPositional) {
  const Outcome o = run_front_door({"stray", "--version", "--nope"});
  EXPECT_EQ(o.exit_code, 0);
  EXPECT_EQ(o.out.rfind("tool ", 0), 0u) << o.out;
  EXPECT_EQ(o.out.back(), '\n');
  EXPECT_EQ(o.err, "");
}

TEST(CommandLine, UnknownFlagComesBeforePositional) {
  const Outcome o = run_front_door({"stray", "--nope"});
  EXPECT_EQ(o.exit_code, kUsageCode);
  EXPECT_NE(o.err.find("\nerror: unknown flag --nope\n"), std::string::npos)
      << o.err;
}

TEST(CommandLine, PositionalArgumentIsRefused) {
  const Outcome o = run_front_door({"--n=2", "stray"});
  EXPECT_EQ(o.exit_code, kUsageCode);
  EXPECT_NE(o.err.find("\nerror: tool takes no positional arguments\n"),
            std::string::npos)
      << o.err;
}

TEST(CommandLine, WellFormedCommandLineGoesOn) {
  std::int64_t n = 0;
  const Outcome o = run_front_door({"--n", "5"}, &n);
  EXPECT_EQ(o.exit_code, std::nullopt);
  EXPECT_EQ(o.out, "");
  EXPECT_EQ(o.err, "");
  EXPECT_EQ(n, 5);
}

TEST(CommandLine, UsagePrintsHelpAndTheErrorAndReturnsTheCode) {
  const CommandLine<ToolOptions> cli("tool", "A tool.", kUsageCode,
                                     read_tool_options);
  testing::internal::CaptureStderr();
  EXPECT_EQ(cli.usage("--n must be odd"), kUsageCode);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.rfind("usage: tool", 0), 0u) << err;
  EXPECT_NE(err.find("\n\nerror: --n must be odd\n"), std::string::npos)
      << err;
}

}  // namespace
}  // namespace melody::util
