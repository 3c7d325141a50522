// CLI parser tests.
#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lumen::util {
namespace {

Cli make_cli() {
  Cli cli;
  cli.flag("n", "count", "32")
      .flag("rate", "a rate", "1.5")
      .flag("name", "a string", "default")
      .flag("verbose", "a boolean", "false")
      .flag("list", "comma ints", "1,2,3")
      .flag("out", "a path with no default");
  return cli;
}

TEST(Cli, DefaultsApply) {
  Cli cli = make_cli();
  const std::array argv = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv.data()));
  EXPECT_EQ(cli.get_int("n"), 32);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 1.5);
  EXPECT_EQ(cli.get("name"), "default");
  EXPECT_FALSE(cli.get_bool("verbose"));
  EXPECT_FALSE(cli.is_set("n"));
}

TEST(Cli, EqualsSyntax) {
  Cli cli = make_cli();
  const std::array argv = {"prog", "--n=64", "--rate=2.25", "--name=abc"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.get_int("n"), 64);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 2.25);
  EXPECT_EQ(cli.get("name"), "abc");
  EXPECT_TRUE(cli.is_set("n"));
}

TEST(Cli, SpaceSeparatedValue) {
  Cli cli = make_cli();
  const std::array argv = {"prog", "--n", "128"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.get_int("n"), 128);
}

TEST(Cli, BareBooleanFlag) {
  Cli cli = make_cli();
  const std::array argv = {"prog", "--verbose"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(Cli, UnknownFlagIsError) {
  Cli cli = make_cli();
  const std::array argv = {"prog", "--bogus=1"};
  EXPECT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_NE(cli.error().find("bogus"), std::string::npos);
}

TEST(Cli, PositionalArgumentsCollected) {
  Cli cli = make_cli();
  const std::array argv = {"prog", "input.txt", "--n=2", "more"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
  EXPECT_EQ(cli.positional()[1], "more");
}

TEST(Cli, HelpRequested) {
  Cli cli = make_cli();
  const std::array argv = {"prog", "--help"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(cli.help_requested());
  const std::string usage = cli.usage("prog", "test program");
  EXPECT_NE(usage.find("--n"), std::string::npos);
  EXPECT_NE(usage.find("count"), std::string::npos);
}

TEST(Cli, IntListParsing) {
  Cli cli = make_cli();
  const std::array argv = {"prog", "--list=8,16,32"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  std::vector<std::size_t> xs;
  ASSERT_TRUE(cli.read("list", xs));
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_EQ(xs[0], 8u);
  EXPECT_EQ(xs[2], 32u);
}

TEST(Cli, IntListDefault) {
  Cli cli = make_cli();
  const std::array argv = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv.data()));
  std::vector<std::size_t> xs;
  ASSERT_TRUE(cli.read("list", xs));
  EXPECT_EQ(xs.size(), 3u);
}

TEST(Cli, IntListRejectsMalformedLists) {
  // A typoed sweep list must fail loudly, not silently skip/garble entries.
  for (const char* bad : {"8,,16", "8x", "8,16,", ",8", "8;16", "1.5",
                          "9999999999999999999999"}) {
    Cli cli = make_cli();
    const std::string flag = std::string("--list=") + bad;
    const std::array argv = {"prog", flag.c_str()};
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data())) << bad;
    std::vector<std::size_t> xs = {7};
    EXPECT_FALSE(cli.read("list", xs)) << bad;
    EXPECT_EQ(xs, std::vector<std::size_t>{7}) << bad;
    EXPECT_NE(cli.error().find("--list"), std::string::npos) << cli.error();
  }
}

TEST(Cli, IntListRejectsNegativesAndSpaces) {
  for (const char* bad : {"-4,8", "8, 16", " 8"}) {
    Cli cli = make_cli();
    const std::string flag = std::string("--list=") + bad;
    const std::array argv = {"prog", flag.c_str()};
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data())) << bad;
    std::vector<std::size_t> xs;
    EXPECT_FALSE(cli.read("list", xs)) << bad;
  }
}

TEST(Cli, ListSeparatorIsTheCallers) {
  Cli cli = make_cli();
  const std::array argv = {"prog", "--name=1/4"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  std::vector<std::size_t> xs;
  ASSERT_TRUE(cli.read("name", xs, '/'));
  EXPECT_EQ(xs, (std::vector<std::size_t>{1, 4}));
}

TEST(Cli, EmptyDefaultValueFlagTakesASpaceSeparatedValue) {
  Cli cli = make_cli();
  const std::array argv = {"prog", "--out", "report.txt", "--n", "5"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.get("out"), "report.txt");
  EXPECT_EQ(cli.get_int("n"), 5);
  EXPECT_TRUE(cli.positional().empty());
}

TEST(Cli, SwitchNeverTakesTheNextToken) {
  Cli cli = make_cli();
  const std::array argv = {"prog", "--verbose", "stray", "--verbose=false"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_FALSE(cli.get_bool("verbose"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "stray");
}

TEST(Cli, ValueFlagWithoutAValueIsAnError) {
  for (const std::vector<const char*>& argv :
       {std::vector<const char*>{"prog", "--out"},
        std::vector<const char*>{"prog", "--out", "--verbose"},
        std::vector<const char*>{"prog", "--n="}}) {
    Cli cli = make_cli();
    EXPECT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data())) << argv[1];
    EXPECT_NE(cli.error().find("needs a value"), std::string::npos) << cli.error();
  }
}

TEST(Cli, ReadSetsOnlyWhatIsGivenOrDefaulted) {
  Cli cli = make_cli();
  const std::array argv = {"prog", "--n=64"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  std::size_t n = 0;
  double rate = 0.0;
  std::string out = "kept";
  ASSERT_TRUE(cli.read("n", n) && cli.read("rate", rate) && cli.read("out", out));
  EXPECT_EQ(n, 64u);
  EXPECT_DOUBLE_EQ(rate, 1.5);
  EXPECT_EQ(out, "kept");
}

TEST(Cli, MalformedNumbersAreErrorsNamingTheFlag) {
  const std::pair<const char*, const char*> integers[] = {
      {"--n=3x", "--n must be a non-negative integer"},
      {"--n=xyz", "--n must be a non-negative integer"},
      {"--n=+3", "--n must be a non-negative integer"},
      {"--n=-1", "--n must be non-negative"},
      {"--n=18446744073709551616", "--n must be a non-negative integer"}};
  for (const auto& [flag, message] : integers) {
    Cli cli = make_cli();
    const std::array argv = {"prog", flag};
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data())) << flag;
    std::uint64_t n = 7;
    EXPECT_FALSE(cli.read("n", n)) << flag;
    EXPECT_NE(cli.error().find(message), std::string::npos) << cli.error();
    EXPECT_EQ(n, 7u);
  }
  for (const char* flag : {"--rate=0.4x", "--rate=nan", "--rate=inf"}) {
    Cli cli = make_cli();
    const std::array argv = {"prog", flag};
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data())) << flag;
    double rate = 0.5;
    EXPECT_FALSE(cli.read("rate", rate)) << flag;
    EXPECT_NE(cli.error().find("--rate must be a finite number"), std::string::npos)
        << cli.error();
    EXPECT_EQ(rate, 0.5);
  }
}

TEST(Cli, NarrowUnsignedReadsCheckTheirRange) {
  Cli cli = make_cli();
  const std::array argv = {"prog", "--n=256"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  std::uint8_t n = 0;
  EXPECT_FALSE(cli.read("n", n));
  EXPECT_NE(cli.error().find("--n must be <= 255"), std::string::npos) << cli.error();
}

TEST(Cli, StrictAccessorsThrowOnMalformedNumbers) {
  Cli cli = make_cli();
  const std::array argv = {"prog", "--n=3x", "--rate=5s"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_THROW((void)cli.get_int("n"), std::invalid_argument);
  EXPECT_THROW((void)cli.get_double("rate"), std::invalid_argument);
}

TEST(Cli, ReadsANameThroughItsParser) {
  const auto parse_level = [](std::string_view text) -> std::optional<int> {
    if (text == "low") return 1;
    if (text == "high") return 2;
    return std::nullopt;
  };
  Cli cli = make_cli();
  const std::array argv = {"prog", "--name=high"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  int level = 0;
  ASSERT_TRUE(cli.read("name", level, parse_level));
  EXPECT_EQ(level, 2);

  Cli bad = make_cli();
  const std::array bad_argv = {"prog", "--name=medium"};
  ASSERT_TRUE(bad.parse(static_cast<int>(bad_argv.size()), bad_argv.data()));
  EXPECT_FALSE(bad.read("name", level, parse_level));
  EXPECT_EQ(bad.error(), "unknown --name \"medium\"");
  EXPECT_EQ(level, 2);
}

TEST(Cli, BoolTruthyValues) {
  Cli cli = make_cli();
  const std::array argv = {"prog", "--verbose=yes"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(Cli, UnregisteredGetReturnsEmpty) {
  Cli cli = make_cli();
  const std::array argv = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv.data()));
  EXPECT_EQ(cli.get("nothing"), "");
  EXPECT_EQ(cli.get_int("nothing"), 0);
}

}  // namespace
}  // namespace lumen::util
