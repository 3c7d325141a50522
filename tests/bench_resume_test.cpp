// End-to-end resume tests over the REAL lumen-bench binary (path injected
// as LUMEN_BENCH_BIN): a journal torn by a kill mid-append resumes (twice),
// lumen-bench names the dropped record, every resumed report is byte-identical
// to the uninterrupted one, `run` and `hunt`, which share the
// --out/--resume/--journal plumbing, reject the same unusable paths, `run`
// rejects negative integer flags and invalid resolved specs, `hunt`
// rejects a swarm of one and the flags of its deleted bandit strategy,
// `run --smoke` prints no row twice, and `describe` and the examples share
// the command front end (LUMEN_EXAMPLES_DIR holds the examples).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

namespace {

std::string bench() { return LUMEN_BENCH_BIN; }

// Per-process unique: ctest runs each TEST as its own process, possibly in
// parallel, so sibling tests must never share scratch paths.
std::string work_dir() {
  static const std::string dir = [] {
    std::string d = testing::TempDir() + "lumen_bench_resume." +
                    std::to_string(::getpid());
    std::filesystem::remove_all(d);
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream text;
  text << f.rdbuf();
  return text.str();
}

/// Runs `shell` to completion; returns its exit code (-1 on abnormal exit).
int run_shell(const std::string& shell) {
  const int status = std::system(shell.c_str());
  return status != -1 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Cuts the journal's last record in half and drops its newline: what a
/// process killed mid-append leaves behind.
void tear_last_line(const std::string& path) {
  std::string text = read_file(path);
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n');
  text.pop_back();
  const std::size_t start = text.rfind('\n') + 1;
  ASSERT_LT(start, text.size());
  text.resize(start + (text.size() - start) / 2);
  std::ofstream(path, std::ios::trunc) << text;
}

/// Journals `command`, tears the journal's last record, then resumes from it
/// `resumes` times. Only the first resume finds a torn record; every resume
/// reproduces the uninterrupted report.
void expect_torn_resume_matches(const std::string& command, const std::string& tag,
                                int resumes = 1) {
  const std::string base = work_dir() + "/" + tag;
  ASSERT_EQ(run_shell(bench() + command + " --journal=" + base + ".jsonl --out=" +
                      base + ".full 2>" + base + ".full.log"),
            0)
      << read_file(base + ".full.log");
  tear_last_line(base + ".jsonl");
  const std::string full = read_file(base + ".full");
  ASSERT_FALSE(full.empty());
  for (int i = 1; i <= resumes; ++i) {
    SCOPED_TRACE("resume " + std::to_string(i));
    const int code = run_shell(bench() + command + " --resume=" + base +
                               ".jsonl --out=" + base + ".resumed 2>" + base + ".resumed.log");
    const std::string log = read_file(base + ".resumed.log");
    ASSERT_EQ(code, 0) << log;
    EXPECT_EQ(log.find("(dropped a torn final record)") != std::string::npos, i == 1)
        << log;
    EXPECT_EQ(read_file(base + ".resumed"), full);
  }
}

/// `lumen-bench <command> <flags>` must exit 2 and name `message` on stderr.
void expect_usage_error(const std::string& command, const std::string& flags,
                        const std::string& message) {
  const std::string log = work_dir() + "/usage.log";
  EXPECT_EQ(run_shell(bench() + command + " " + flags + " 2>" + log), 2);
  EXPECT_NE(read_file(log).find(message), std::string::npos) << read_file(log);
}

TEST(BenchResume, HuntNamesTheTornRecordAndReproducesTheReport) {
  expect_torn_resume_matches(" hunt --smoke", "hunt");
}

TEST(BenchResume, RunNamesTheTornRecordAndReproducesTheReport) {
  expect_torn_resume_matches(" run collisions --smoke --format=json", "run");
}

TEST(BenchSmoke, DoublingPrintsNoRowTwice) {
  // E5 sweeps N = 64, 128; --smoke clamps both to 16, which must run once.
  const std::string base = work_dir() + "/doubling";
  ASSERT_EQ(run_shell(bench() + " run doubling --smoke --format=csv --out=" +
                      base + ".csv 2>" + base + ".log"),
            0)
      << read_file(base + ".log");
  std::istringstream csv(read_file(base + ".csv"));
  std::set<std::string> rows;
  std::size_t lines = 0;
  for (std::string line; std::getline(csv, line); ++lines) {
    EXPECT_TRUE(rows.insert(line).second) << "repeated row: " << line;
  }
  EXPECT_GT(lines, 1u);
}

TEST(BenchHelp, HuntHelpNamesEveryFlagItAccepts) {
  // `hunt --help` prints the command's own declared flags, so a flag the
  // parser accepts cannot be missing from its help.
  const std::string base = work_dir() + "/hunt-help";
  ASSERT_EQ(run_shell(bench() + " hunt --help >" + base + ".txt 2>&1"), 0)
      << read_file(base + ".txt");
  const std::string help = read_file(base + ".txt");
  for (const char* flag : {"--adversary", "--activation", "--population",
                           "--offspring", "--max-cycles", "--out"}) {
    EXPECT_NE(help.find(flag), std::string::npos) << flag << " missing from:\n" << help;
  }
}

struct BenchPlumbing : testing::TestWithParam<std::string> {
  std::string command() const {
    return GetParam() == "run" ? " run collisions --smoke --format=json" : " hunt --smoke";
  }
};

TEST_P(BenchPlumbing, ResumedTornJournalResumesAgain) {
  expect_torn_resume_matches(command(), GetParam(), 2);
}

TEST_P(BenchPlumbing, UnwritableOutIsAUsageError) {
  expect_usage_error(command(), "--out=" + work_dir(), "cannot open --out file");
}

TEST_P(BenchPlumbing, MissingResumeJournalIsAUsageError) {
  expect_usage_error(command(), "--resume=" + work_dir() + "/missing.jsonl",
                     "error: --resume: cannot open");
}

TEST_P(BenchPlumbing, UnopenableJournalIsAUsageError) {
  expect_usage_error(command(), "--journal=" + work_dir() + "/no-dir/j.jsonl",
                     "cannot open --journal file");
}

INSTANTIATE_TEST_SUITE_P(Verbs, BenchPlumbing, testing::Values("run", "hunt"),
                         [](const testing::TestParamInfo<std::string>& param) {
                           return param.param;
                         });

// `run` checks the form of each flag (a complete non-negative integer, a
// finite number, a value present) and then validates the resolved spec
// once: each (flag, message) pair must exit 2 naming the flag or the
// field. The deleted straggler flag is unknown.
struct RunUsageError
    : testing::TestWithParam<std::pair<std::string, std::string>> {};

TEST_P(RunUsageError, ExitsTwoNamingTheFlag) {
  expect_usage_error(" run colors --smoke", GetParam().first, GetParam().second);
}

/// Test name from a `--flag=value [--flag=value ...]` parameter: the flag
/// names joined by '_', with '-' as '_'; a bare positional names itself.
std::string flag_test_name(const std::string& flags) {
  if (!flags.starts_with("--")) return flags;
  std::string name;
  for (std::size_t at = flags.find("--"); at != std::string::npos;
       at = flags.find(" --", at + 2)) {
    const std::size_t start = flags.find("--", at) + 2;
    if (!name.empty()) name += '_';
    name += flags.substr(start, flags.find('=', start) - start);
  }
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Run, RunUsageError,
    testing::Values(
        std::pair{"--seed-base=-1", "--seed-base must be non-negative"},
        std::pair{"--seed-base=9223372036854775807 --runs=2",
                  "seed_base + runs - 1"},
        std::pair{"--runs=0", "runs must be >= 1"},
        std::pair{"--algorithm=bogus", "algorithm: unknown algorithm \"bogus\""},
        std::pair{"--shard=2/2", "shard_index must be < shard_count"},
        std::pair{"--straggler-factor=2", "unknown flag --straggler-factor"}),
    [](const auto& param) { return flag_test_name(param.param.first); });

// Malformed text is a usage error before any range rule runs.
INSTANTIATE_TEST_SUITE_P(
    Form, RunUsageError,
    testing::Values(
        std::pair{"--runs=3x", "--runs must be a non-negative integer"},
        std::pair{"--deadline-ms=5s", "--deadline-ms must be a non-negative integer"},
        std::pair{"--chaos-kill=0.4x", "--chaos-kill must be a finite number"},
        std::pair{"--journal", "--journal needs a value"},
        std::pair{"--smoke=ture", "--smoke must be true|1|yes|on or false|0|no|off"},
        std::pair{"--format=xml", "unknown --format \"xml\""}),
    [](const auto& param) { return flag_test_name(param.param.first); });

// Each (flag, message) pair must exit 2 naming the problem: a swarm of one
// has no robot pair to hunt, the deleted bandit strategy's flags are
// unknown, a malformed number names its flag, bounds are validated before
// they clamp anything, and hunt takes no positional argument.
struct HuntUsageError
    : testing::TestWithParam<std::pair<std::string, std::string>> {};

TEST_P(HuntUsageError, ExitsTwoNamingTheFlag) {
  expect_usage_error(" hunt --smoke --seed=5", GetParam().first,
                     GetParam().second);
}

INSTANTIATE_TEST_SUITE_P(
    Hunt, HuntUsageError,
    testing::Values(
        std::pair{"--n=1", "bounds.n_min must be >= 2"},
        std::pair{"--strategy=bandit", "unknown flag --strategy"},
        std::pair{"--epsilon=0.1", "unknown flag --epsilon"},
        std::pair{"--batch=4", "unknown flag --batch"},
        std::pair{"--crossover-rate=0.5", "unknown flag --crossover-rate"},
        std::pair{"--keep-fraction=1", "unknown flag --keep-fraction"},
        std::pair{"--seed=xyz", "--seed must be a non-negative integer"},
        std::pair{"--n-min=10 --n-max=5", "bounds.n_min must be <= bounds.n_max"},
        std::pair{"stray", "lumen-bench hunt takes no positional argument (got \"stray\")"}),
    [](const auto& param) { return flag_test_name(param.param.first); });

TEST(BenchGrammar, ListRejectsUnknownFlagsAndPositionals) {
  expect_usage_error(" list", "--bogus", "unknown flag --bogus");
  expect_usage_error(" list", "stray", "lumen-bench list takes no positional argument");
}

TEST(BenchGrammar, DescribeTakesExactlyOneName) {
  expect_usage_error(" describe", "colors extra --bogus", "unknown flag --bogus");
  expect_usage_error(" describe", "colors extra",
                     "takes at most 1 positional argument(s) (got \"extra\")");
  expect_usage_error(" describe", "", "describe needs an experiment or algorithm name");
  EXPECT_EQ(run_shell(bench() + " describe colors >/dev/null"), 0);
}

// The examples share lumen-bench's front end: --help prints usage and runs
// nothing, and a stray positional argument exits 2 naming it.
struct ExampleGrammar : testing::TestWithParam<std::string> {};

TEST_P(ExampleGrammar, HelpPrintsUsageAndRunsNothing) {
  const std::string out = work_dir() + "/" + GetParam() + ".help";
  ASSERT_EQ(run_shell(std::string(LUMEN_EXAMPLES_DIR) + "/" + GetParam() +
                      " --help >" + out),
            0);
  const std::string text = read_file(out);
  EXPECT_TRUE(text.starts_with(GetParam() + " — ")) << text;
  EXPECT_NE(text.find("Flags:"), std::string::npos) << text;
  EXPECT_EQ(text.find("converged="), std::string::npos) << text;
}

TEST_P(ExampleGrammar, StrayPositionalExitsTwo) {
  const std::string log = work_dir() + "/" + GetParam() + ".stray";
  EXPECT_EQ(run_shell(std::string(LUMEN_EXAMPLES_DIR) + "/" + GetParam() +
                      " 64 >/dev/null 2>" + log),
            2);
  EXPECT_NE(read_file(log).find(GetParam() +
                                " takes no positional argument (got \"64\")"),
            std::string::npos)
      << read_file(log);
}

INSTANTIATE_TEST_SUITE_P(Examples, ExampleGrammar,
                         testing::Values("quickstart", "diagnose", "render_run",
                                         "adversary_duel", "collinear_rescue"),
                         [](const testing::TestParamInfo<std::string>& param) {
                           return param.param;
                         });

TEST(BenchGrammar, SpaceSeparatedValuesReachTheirFlags) {
  // Run from a directory of its own: a value given after a space must reach
  // its flag, not turn the flag into a switch that writes a file `true`.
  const std::string dir = work_dir() + "/spaced";
  std::filesystem::create_directories(dir);
  const std::string in_dir = "cd " + dir + " && " + bench();
  ASSERT_EQ(run_shell(in_dir + " hunt --smoke --seed=5 --out=eq.txt 2>eq.log"), 0)
      << read_file(dir + "/eq.log");
  ASSERT_EQ(run_shell(in_dir + " hunt --smoke --seed 5 --journal j.jsonl --out s.txt"
                               " 2>s.log"),
            0)
      << read_file(dir + "/s.log");
  const std::string summary = read_file(dir + "/eq.txt");
  ASSERT_FALSE(summary.empty());
  EXPECT_EQ(read_file(dir + "/s.txt"), summary);
  EXPECT_NE(read_file(dir + "/j.jsonl").find("\"type\":\"cell\""), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(dir + "/true"));

  ASSERT_EQ(run_shell(in_dir + " hunt --smoke --seed 5 --resume j.jsonl --out r.txt"
                               " 2>r.log"),
            0)
      << read_file(dir + "/r.log");
  const std::string log = read_file(dir + "/r.log");
  EXPECT_NE(log.find("journaled cell(s) loaded from j.jsonl"), std::string::npos) << log;
  EXPECT_EQ(log.find("resume: 0 "), std::string::npos) << log;
  EXPECT_EQ(read_file(dir + "/r.txt"), summary);

  ASSERT_EQ(run_shell(in_dir + " run colors --smoke --runs 1 --out run.txt 2>run.log"), 0)
      << read_file(dir + "/run.log");
  EXPECT_FALSE(read_file(dir + "/run.txt").empty());
  EXPECT_FALSE(std::filesystem::exists(dir + "/true"));
}

}  // namespace
