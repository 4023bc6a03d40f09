#include "util/flags.h"

#include <gtest/gtest.h>

#include <stdexcept>

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

}  // namespace
}  // namespace melody::util
