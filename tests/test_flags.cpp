// The shared command-line parser (src/platform/flags.hpp) and the
// stop-signal helper every long-running tool installs.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "src/platform/flags.hpp"

namespace lockin {
namespace {

struct Parsed {
  bool quick = false;
  int threads = 4;
  std::uint64_t seed = 1;
  double seconds = 0;
  std::string lock = "MUTEX";
  std::string meter = "auto";
  std::vector<int> sweep;
};

void Register(FlagParser& flags, Parsed& parsed) {
  flags.Bool("--quick", &parsed.quick, "short run");
  flags.Int("--threads", &parsed.threads, 1, 4096, "worker threads");
  flags.Int<std::uint64_t>("--seed", &parsed.seed, 0, UINT64_MAX, "workload seed");
  flags.Double("--seconds", &parsed.seconds, 0.001, 86400, "run length");
  flags.String("--lock", &parsed.lock, "NAME", "lock algorithm");
  flags.Choice("--meter", &parsed.meter, {"auto", "model", "off"}, "energy meter");
  flags.IntList("--thread-sweep", &parsed.sweep, 1, 4096, "thread counts");
}

// Parses `args` (without the program name) into a fresh Parsed; returns
// the parser's error, "" on success.
std::string ParseInto(Parsed& parsed, std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args);
  FlagParser flags;
  Register(flags, parsed);
  return flags.TryParse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagParser, SetsEveryKind) {
  Parsed parsed;
  EXPECT_EQ(ParseInto(parsed, {"--quick", "--threads", "8", "--seconds", "0.5", "--lock",
                               "TICKET", "--meter", "model", "--thread-sweep", "1,2,4,8"}),
            "");
  EXPECT_TRUE(parsed.quick);
  EXPECT_EQ(parsed.threads, 8);
  EXPECT_DOUBLE_EQ(parsed.seconds, 0.5);
  EXPECT_EQ(parsed.lock, "TICKET");
  EXPECT_EQ(parsed.meter, "model");
  EXPECT_EQ(parsed.sweep, (std::vector<int>{1, 2, 4, 8}));
}

TEST(FlagParser, AcceptsTheFullUint64SeedRange) {
  for (const char* seed : {"0", "4000000000", "18446744073709551615"}) {
    Parsed parsed;
    EXPECT_EQ(ParseInto(parsed, {"--seed", seed}), "") << seed;
    EXPECT_EQ(parsed.seed, std::strtoull(seed, nullptr, 10));
  }
  Parsed parsed;
  EXPECT_EQ(ParseInto(parsed, {"--seed", "18446744073709551616"}),
            "invalid --seed value: 18446744073709551616");
  EXPECT_NE(ParseInto(parsed, {"--seed", "-1"}), "");
}

TEST(FlagParser, RejectsUnknownFlagsAndMissingValues) {
  Parsed parsed;
  EXPECT_EQ(ParseInto(parsed, {"--no-such-flag"}), "unrecognized argument: --no-such-flag");
  EXPECT_EQ(ParseInto(parsed, {"4"}), "unrecognized argument: 4");
  EXPECT_EQ(ParseInto(parsed, {"--threads"}), "--threads requires a value");
  EXPECT_EQ(ParseInto(parsed, {"--quick", "--lock"}), "--lock requires a value");
}

TEST(FlagParser, RejectsOutOfRangeAndTrailingGarbage) {
  for (const char* threads : {"0", "-1", "4097", "4x", "", " 4", "abc", "99999999999999999999"}) {
    Parsed parsed;
    EXPECT_EQ(ParseInto(parsed, {"--threads", threads}),
              std::string("invalid --threads value: ") + threads);
    EXPECT_EQ(parsed.threads, 4) << "a rejected value must not be stored";
  }
  for (const char* seconds : {"0", "1e300", "nan", "inf", "1s", "0.0001"}) {
    Parsed parsed;
    EXPECT_NE(ParseInto(parsed, {"--seconds", seconds}), "") << seconds;
  }
  for (const char* sweep : {"", "1,", ",1", "1,,2", "1,0", "1;2", "1,2x"}) {
    Parsed parsed;
    EXPECT_NE(ParseInto(parsed, {"--thread-sweep", sweep}), "") << sweep;
    EXPECT_TRUE(parsed.sweep.empty()) << sweep;
  }
}

TEST(FlagParser, RejectsAChoiceOutsideTheSet) {
  Parsed parsed;
  EXPECT_EQ(ParseInto(parsed, {"--meter", "rapl"}), "invalid --meter value: rapl");
  EXPECT_EQ(parsed.meter, "auto");
}

TEST(FlagParser, HelpStopsTheParseAndListsEveryFlag) {
  Parsed parsed;
  std::vector<const char*> argv = {"prog", "--help", "--no-such-flag"};
  FlagParser flags("--lock NAME [options]");
  Register(flags, parsed);
  EXPECT_EQ(flags.TryParse(static_cast<int>(argv.size()), argv.data()), "");
  EXPECT_TRUE(flags.help_requested());

  std::ostringstream usage;
  flags.PrintUsage(usage);
  EXPECT_EQ(usage.str().rfind("usage: prog --lock NAME [options]\n", 0), 0u) << usage.str();
  for (const char* line : {"--threads N", "[1..4096]", "--meter auto|model|off",
                           "--thread-sweep N,N,...", "--seconds X", "--help"}) {
    EXPECT_NE(usage.str().find(line), std::string::npos) << line;
  }
}

TEST(FlagParserDeathTest, ParseExitsZeroOnHelpAndTwoOnAnError) {
  const auto parse = [](std::vector<const char*> argv) {
    Parsed parsed;
    FlagParser flags;
    Register(flags, parsed);
    flags.Parse(static_cast<int>(argv.size()), argv.data());
    std::exit(7);  // not reached when Parse exits
  };
  EXPECT_EXIT(parse({"prog", "--help"}), ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(parse({"prog", "--no-such-flag"}), ::testing::ExitedWithCode(2),
              "prog: unrecognized argument: --no-such-flag");
  EXPECT_EXIT(parse({"prog", "--quick"}), ::testing::ExitedWithCode(7), "");
}

// The first signal only requests a stop; the second ends the process even
// when nothing polls the flag (a hung run).
TEST(StopSignalDeathTest, SecondSignalExitsAtOnce) {
  for (const int sig : {SIGINT, SIGTERM}) {
    EXPECT_EXIT(
        {
          InstallStopSignalHandlers();
          std::raise(sig);
          if (!StopFlag().load() || StopSignal() != sig) {
            std::exit(1);
          }
          std::raise(sig);
          std::exit(0);
        },
        ::testing::ExitedWithCode(128 + sig), "");
  }
}

}  // namespace
}  // namespace lockin
