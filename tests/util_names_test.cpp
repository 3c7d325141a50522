// Every closed set's name table (util/strings.hpp): each name parses back
// to its value under the one case rule, in any case, and nothing else
// parses. The module parsers are checked through the same cases.
#include "analysis/campaign.hpp"
#include "analysis/experiments.hpp"
#include "analysis/reporter.hpp"
#include "core/view.hpp"
#include "fabric/protocol.hpp"
#include "fault/events.hpp"
#include "fault/plan.hpp"
#include "gen/generators.hpp"
#include "geom/simd.hpp"
#include "model/algorithm.hpp"
#include "model/light.hpp"
#include "sched/activation.hpp"
#include "sched/adversary.hpp"
#include "search/fitness.hpp"
#include "search/hunt.hpp"
#include "sim/run.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

namespace lumen {
namespace {

using util::iequals;
using util::name_of;
using util::parse_name;

/// `name` with every letter upper-cased, or with letters alternating
/// upper/lower case.
std::string recase(std::string_view name, bool alternate) {
  std::string out(name);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto c = static_cast<unsigned char>(out[i]);
    out[i] = static_cast<char>(!alternate || i % 2 == 0 ? std::toupper(c)
                                                        : std::tolower(c));
  }
  return out;
}

/// Checks one table, and its module's to_string and (when it has one)
/// *_from_string against it.
template <const auto& kTable, auto kFromString = nullptr>
void check_table() {
  for (std::size_t i = 0; i < kTable.size(); ++i) {
    const auto [value, name] = kTable[i];
    SCOPED_TRACE(std::string(name));
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(to_string(value), name);
    EXPECT_EQ(name_of(kTable, value), name);
    EXPECT_EQ(parse_name(kTable, name), value);
    EXPECT_EQ(parse_name(kTable, recase(name, false)), value);
    EXPECT_EQ(parse_name(kTable, recase(name, true)), value);
    if constexpr (!std::is_null_pointer_v<decltype(kFromString)>) {
      EXPECT_EQ(kFromString(to_string(value)), value);
      EXPECT_EQ(kFromString(recase(name, false)), value);
      EXPECT_EQ(kFromString(recase(name, true)), value);
    }
    // Names are distinct under the case rule, so parsing is unambiguous.
    for (std::size_t j = 0; j < i; ++j) EXPECT_FALSE(iequals(kTable[j].name, name));
  }
  for (const std::string_view bad : {"", "?", "no-such-name", " uniform"}) {
    EXPECT_EQ(parse_name(kTable, bad), std::nullopt) << '"' << bad << '"';
    if constexpr (!std::is_null_pointer_v<decltype(kFromString)>) {
      EXPECT_EQ(kFromString(bad), std::nullopt) << '"' << bad << '"';
    }
  }
}

struct TableCase {
  const char* name;
  void (*check)();
};

struct NameTables : testing::TestWithParam<TableCase> {};

TEST_P(NameTables, EveryNameRoundTripsUnderOneCaseRule) { GetParam().check(); }

INSTANTIATE_TEST_SUITE_P(
    Enums, NameTables,
    testing::Values(
        TableCase{"SchedulerKind",
                  check_table<sim::kSchedulerNames, sim::scheduler_from_string>},
        TableCase{"RunOutcome", check_table<sim::kOutcomeNames, sim::outcome_from_string>},
        TableCase{"AdversaryKind",
                  check_table<sched::kAdversaryNames, sched::adversary_from_string>},
        TableCase{"ActivationKind",
                  check_table<sched::kActivationNames, sched::activation_from_string>},
        TableCase{"ConfigFamily", check_table<gen::kFamilyNames, gen::family_from_string>},
        TableCase{"FitnessKind",
                  check_table<search::kFitnessNames, search::fitness_from_string>},
        TableCase{"StrategyKind", check_table<search::kStrategyNames>},
        TableCase{"CrashScheduleKind",
                  check_table<fault::kCrashScheduleNames, fault::crash_schedule_from_string>},
        TableCase{"CorruptionMode", check_table<fault::kCorruptionModeNames,
                                                fault::corruption_mode_from_string>},
        TableCase{"FaultChannel",
                  check_table<fault::kFaultChannelNames, fault::channel_from_string>},
        TableCase{"CampaignErrorKind",
                  check_table<analysis::kCampaignErrorKindNames,
                              analysis::campaign_error_kind_from_string>},
        TableCase{"WorkerEventKind", check_table<fabric::kWorkerEventKindNames>},
        TableCase{"Growth", check_table<util::kGrowthNames>},
        TableCase{"Verdict", check_table<analysis::kVerdictNames>},
        TableCase{"Level", check_table<geom::simd::kLevelNames>},
        TableCase{"MotionModel", check_table<model::kMotionModelNames>},
        TableCase{"Light", check_table<model::kLightNames>},
        TableCase{"ReportFormat", check_table<analysis::kReportFormatNames,
                                              analysis::report_format_from_string>},
        TableCase{"Role", check_table<core::kRoleNames>}),
    [](const testing::TestParamInfo<TableCase>& param) { return param.param.name; });

// The printed names are part of every journal, spec, scenario and report,
// and hunt_digest hashes the outcome names: spot-check their exact bytes.
TEST(NameTables, PrintedNamesKeepTheirBytes) {
  EXPECT_EQ(to_string(sim::SchedulerKind::kAsync), "ASYNC");
  EXPECT_EQ(to_string(sim::RunOutcome::kBudgetExhausted), "budget-exhausted");
  EXPECT_EQ(to_string(sched::AdversaryKind::kStallOne), "stall-one");
  EXPECT_EQ(to_string(sched::ActivationKind::kRandomSingle), "ssync-rand1");
  EXPECT_EQ(to_string(gen::ConfigFamily::kLattice), "lattice");
  EXPECT_EQ(to_string(search::StrategyKind::kMuPlusLambda), "mu-lambda");
  EXPECT_EQ(to_string(model::Light::kLineEnd), "LineEnd");
  EXPECT_EQ(to_string(core::Role::kLineEnd), "line-end");
  EXPECT_EQ(to_string(analysis::Verdict::kUndecided), "undecided");
}

}  // namespace
}  // namespace lumen
