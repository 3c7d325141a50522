// End-to-end resume tests over the REAL lumen-bench binary (path injected
// as LUMEN_BENCH_BIN): a journal torn by a kill mid-append resumes (twice),
// lumen-bench names the dropped record, every resumed report is byte-identical
// to the uninterrupted one, `run` and `hunt`, which share the
// --out/--resume/--journal plumbing, reject the same unusable paths, `run`
// rejects negative integer flags and invalid resolved specs, and `hunt`
// rejects a swarm of one and the flags of its deleted bandit strategy.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
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

// `run` sign-checks its integer flags before their unsigned casts and then
// validates the resolved spec once: each (flag, message) pair must exit 2
// naming the flag or the field.
struct RunUsageError
    : testing::TestWithParam<std::pair<std::string, std::string>> {};

TEST_P(RunUsageError, ExitsTwoNamingTheFlag) {
  expect_usage_error(" run colors --smoke", GetParam().first, GetParam().second);
}

/// Test name from a `--flag=value` parameter: "flag" with '-' as '_'.
std::string flag_test_name(const std::string& flag) {
  std::string name = flag.substr(2, flag.find('=') - 2);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Run, RunUsageError,
    testing::Values(
        std::pair{"--seed-base=-1", "--seed-base must be non-negative"},
        std::pair{"--runs=0", "runs must be >= 1"},
        std::pair{"--algorithm=bogus", "algorithm: unknown algorithm \"bogus\""},
        std::pair{"--shard=2/2", "shard_index must be < shard_count"}),
    [](const auto& param) { return flag_test_name(param.param.first); });

// Each (flag, message) pair must exit 2 naming the problem: a swarm of one
// has no robot pair to hunt, and the deleted bandit strategy's flags are
// unknown.
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
        std::pair{"--keep-fraction=1", "unknown flag --keep-fraction"}),
    [](const auto& param) { return flag_test_name(param.param.first); });

}  // namespace
