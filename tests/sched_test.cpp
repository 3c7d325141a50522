// Scheduler-substrate tests: adversary determinism and ranges, activation
// policy contracts, and the epoch timeline reconstruction.
#include "sched/activation.hpp"
#include "sched/adversary.hpp"
#include "sched/epoch.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "util/prng.hpp"

namespace lumen::sched {
namespace {

class AdversaryContractTest : public ::testing::TestWithParam<AdversaryKind> {};

TEST_P(AdversaryContractTest, TimingsArePositiveAndFinite) {
  util::Prng rng{42};
  for (std::size_t robot = 0; robot < 8; ++robot) {
    for (int cycle = 0; cycle < 500; ++cycle) {
      const PhaseTiming t = sample_timing(GetParam(), robot, rng);
      EXPECT_GT(t.wait, 0.0);
      EXPECT_GT(t.compute, 0.0);
      EXPECT_GT(t.move_duration, 0.0);
      EXPECT_TRUE(std::isfinite(t.wait + t.compute + t.move_duration));
    }
  }
}

TEST_P(AdversaryContractTest, DeterministicGivenSameStream) {
  util::Prng rng1{7}, rng2{7};
  for (int i = 0; i < 100; ++i) {
    const PhaseTiming a = sample_timing(GetParam(), 3, rng1);
    const PhaseTiming b = sample_timing(GetParam(), 3, rng2);
    EXPECT_EQ(a.wait, b.wait);
    EXPECT_EQ(a.compute, b.compute);
    EXPECT_EQ(a.move_duration, b.move_duration);
  }
}

TEST_P(AdversaryContractTest, KindRoundTrips) {
  EXPECT_NE(to_string(GetParam()), "?");
  EXPECT_EQ(adversary_from_string(to_string(GetParam())), GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllAdversaries, AdversaryContractTest,
                         ::testing::ValuesIn(util::values_of(kAdversaryNames)));

// The first 16 timings each adversary draws from Prng{2024}, alternating
// robots 0 and 1 on one stream as the engine interleaves them. Recorded
// from the class-hierarchy implementation this switch replaced: any change
// to an adversary's draws, their order or their arithmetic shows here.
constexpr std::array<std::array<std::array<double, 3>, 16>, 4> kPinnedTimings = {{
    {{  // uniform
        {0.54820996438714364, 0.18270751526009293, 0.8653268736590527},
        {0.45057345322849018, 0.38668559653613327, 1.7124482511068815},
        {0.97960052103925377, 0.34833253635831762, 0.64251356980597674},
        {0.41325837146402111, 0.31567029859500456, 1.7250743457238213},
        {0.56148036936223844, 0.27388252639141153, 1.0320120952339846},
        {0.87488854533949589, 0.21268444575082629, 0.89805540476103052},
        {0.91298107213973034, 0.3768431966691731, 1.497968396672241},
        {0.51047922051641859, 0.32276002961183153, 0.89412374279538454},
        {0.48402725070073566, 0.21202320277884029, 0.5037384303739969},
        {0.52914033075079636, 0.25207108885211699, 1.6442383447631261},
        {0.65287336813796304, 0.34399916083562077, 1.5137108705617206},
        {0.49542502572610991, 0.48317791037404684, 1.5047402835863397},
        {0.14540684108242749, 0.18164744018391066, 1.2521405618720958},
        {0.054849244648759413, 0.17291584596861614, 0.74720652120988151},
        {0.7768235828893888, 0.46088702222821176, 0.67766138178387647},
        {0.97705667849184652, 0.17135328604969424, 1.4487288548393797},
    }},
    {{  // bursty
        {0.066032061998705899, 0.080629862240750166, 0.79855217161979253},
        {0.19592010420785078, 0.20225874565313801, 5.6766406318401561},
        {0.16517608379168405, 0.16613611275268328, 0.48373978412479179},
        {0.07868898820590442, 0.08695737825379922, 0.78105457185630778},
        {0.10209584410328372, 0.18577868574984699, 0.56549663216904067},
        {0.0104735345140396, 0.15626389043971681, 0.81026045054033391},
        {0.13413297901948432, 0.20598410164193268, 0.97009406288719435},
        {0.029081368216485499, 0.094839461451853527, 0.20408357444106057},
        {0.041312826019918328, 0.23187246214518184, 0.29475273695140081},
        {0.061238054109870897, 0.19342091193561339, 0.61417530001216436},
        {0.039282968865948793, 0.28268356718205151, 7.3428709727842625},
        {0.011449342513988405, 0.21749630092792588, 3.1091824554130207},
        {0.075067329593292917, 0.1341996909263686, 0.79733200562659645},
        {1.9561305598951326, 0.28270812429623132, 0.49640406669923237},
        {0.19204673906597219, 0.086640858093673181, 0.44434843468694452},
        {0.15820437581240898, 0.053577675793902511, 7.3574382859717113},
    }},
    {{  // stall-one
        {6.5785195726457237, 2.192490183121115, 10.383922483908632},
        {0.45057345322849018, 0.38668559653613327, 1.7124482511068815},
        {11.755206252471044, 4.1799904362998115, 7.7101628376717208},
        {0.41325837146402111, 0.31567029859500456, 1.7250743457238213},
        {6.7377644323468608, 3.2865903166969384, 12.384145142807816},
        {0.87488854533949589, 0.21268444575082629, 0.89805540476103052},
        {10.955772865676764, 4.5221183600300776, 17.975620760066892},
        {0.51047922051641859, 0.32276002961183153, 0.89412374279538454},
        {5.8083270084088277, 2.5442784333460837, 6.0448611644879628},
        {0.52914033075079636, 0.25207108885211699, 1.6442383447631261},
        {7.8344804176555565, 4.1279899300274492, 18.164530446740649},
        {0.49542502572610991, 0.48317791037404684, 1.5047402835863397},
        {1.7448820929891298, 2.1797692822069279, 15.025686742465149},
        {0.054849244648759413, 0.17291584596861614, 0.74720652120988151},
        {9.3218829946726665, 5.5306442667385411, 8.1319365814065172},
        {0.97705667849184652, 0.17135328604969424, 1.4487288548393797},
    }},
    {{  // lockstep
        {0.5005244315414602, 0.10029490558946688, 1},
        {0.50024355124910602, 0.10042165626655632, 1},
        {0.50074819021452477, 0.10080829883407126, 1},
        {0.50097852686425182, 0.10066296119190737, 1},
        {0.50009500904653736, 0.10038237723312003, 1},
        {0.50059037844132226, 0.10081671623048255, 1},
        {0.50053840038880237, 0.10049751672531425, 1},
        {0.50035467473015593, 0.10086830373193632, 1},
        {0.50036152099055742, 0.1002653702698407, 1},
        {0.50090840112856816, 0.10072631821482039, 1},
        {0.50066531226444821, 0.10048471496896466, 1},
        {0.5006061333991374, 0.10026274916186359, 1},
        {0.50045687079021128, 0.10036005156173076, 1},
        {0.50000249228691596, 0.10050435824289558, 1},
        {0.50044904686411584, 0.10076282556317542, 1},
        {0.50063460354540834, 0.10065333146852361, 1},
    }},
}};

TEST(Adversaries, FirstTimingsMatchTheRecordedStream) {
  for (std::size_t k = 0; k < kAdversaryNames.size(); ++k) {
    util::Prng rng{2024};
    for (std::size_t i = 0; i < 16; ++i) {
      const PhaseTiming t = sample_timing(kAdversaryNames[k].value, i % 2, rng);
      const auto& want = kPinnedTimings[k][i];
      EXPECT_EQ(t.wait, want[0]) << kAdversaryNames[k].name << " #" << i;
      EXPECT_EQ(t.compute, want[1]) << kAdversaryNames[k].name << " #" << i;
      EXPECT_EQ(t.move_duration, want[2]) << kAdversaryNames[k].name << " #" << i;
    }
  }
}

TEST(StallOneAdversary, RobotZeroIsSlower) {
  util::Prng rng{1};
  double slow_sum = 0.0, fast_sum = 0.0;
  for (int i = 0; i < 1000; ++i) {
    slow_sum += sample_timing(AdversaryKind::kStallOne, 0, rng).wait;
    fast_sum += sample_timing(AdversaryKind::kStallOne, 1, rng).wait;
  }
  EXPECT_GT(slow_sum, 5.0 * fast_sum);
}

class ActivationContractTest : public ::testing::TestWithParam<ActivationKind> {};

TEST_P(ActivationContractTest, NonEmptySortedUniqueInRange) {
  util::Prng rng{9};
  std::vector<std::size_t> active;
  for (std::uint64_t round = 0; round < 200; ++round) {
    activate(GetParam(), 13, round, rng, active);
    ASSERT_FALSE(active.empty());
    for (std::size_t k = 0; k < active.size(); ++k) {
      EXPECT_LT(active[k], 13u);
      if (k > 0) {
        EXPECT_LT(active[k - 1], active[k]);
      }
    }
  }
}

TEST_P(ActivationContractTest, FairnessEveryRobotActivatedEventually) {
  util::Prng rng{10};
  std::set<std::size_t> seen;
  std::vector<std::size_t> active;
  for (std::uint64_t round = 0; round < 2000 && seen.size() < 9; ++round) {
    activate(GetParam(), 9, round, rng, active);
    seen.insert(active.begin(), active.end());
  }
  EXPECT_EQ(seen.size(), 9u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ActivationContractTest,
                         ::testing::ValuesIn(util::values_of(kActivationNames)));

// The first 16 activation sets (bit i = robot i) each policy picks for
// n = 7 from Prng{2024}, recorded like kPinnedTimings.
constexpr std::array<std::array<unsigned, 16>, 4> kPinnedActivations = {{
    {0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f},  // fsync-all
    {0x0e, 0x46, 0x0d, 0x3d, 0x21, 0x76, 0x54, 0x14, 0x6d, 0x64, 0x15, 0x1b, 0x28, 0x01, 0x71, 0x66},  // ssync-half
    {0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x01, 0x02},  // ssync-singleton
    {0x08, 0x04, 0x02, 0x04, 0x20, 0x20, 0x40, 0x10, 0x01, 0x04, 0x10, 0x20, 0x08, 0x08, 0x04, 0x40},  // ssync-rand1
}};

TEST(ActivationPolicies, FirstSetsMatchTheRecordedStream) {
  std::vector<std::size_t> active;
  for (std::size_t k = 0; k < kActivationNames.size(); ++k) {
    util::Prng rng{2024};
    for (std::uint64_t round = 0; round < 16; ++round) {
      activate(kActivationNames[k].value, 7, round, rng, active);
      unsigned mask = 0;
      for (const std::size_t r : active) mask |= 1u << r;
      EXPECT_EQ(mask, kPinnedActivations[k][round])
          << kActivationNames[k].name << " round " << round;
    }
  }
}

TEST(ActivationPolicies, AllActivatesEveryone) {
  util::Prng rng{1};
  std::vector<std::size_t> active = {4, 4, 4, 4, 4, 4, 4, 4};
  activate(ActivationKind::kAll, 5, 0, rng, active);
  EXPECT_EQ(active, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ActivationPolicies, SingletonIsRoundRobin) {
  util::Prng rng{1};
  std::vector<std::size_t> active;
  for (std::uint64_t round = 0; round < 10; ++round) {
    activate(ActivationKind::kSingleton, 4, round, rng, active);
    ASSERT_EQ(active.size(), 1u);
    EXPECT_EQ(active[0], round % 4);
  }
}

TEST(EpochTimeline, FsyncLikeRoundsCountExactly) {
  // 3 robots, each completes a cycle in every unit interval.
  EpochTimeline tl(3);
  for (int round = 0; round < 5; ++round) {
    for (std::size_t r = 0; r < 3; ++r) {
      tl.add_cycle({r, static_cast<double>(round), static_cast<double>(round) + 1});
    }
  }
  EXPECT_EQ(tl.count_epochs(5.0), 5u);
  EXPECT_EQ(tl.count_epochs(2.5), 2u);
  EXPECT_EQ(tl.cycle_count(), 15u);
}

TEST(EpochTimeline, SlowRobotStretchesEpochs) {
  // Robot 0 cycles at 10x the period of robot 1: epochs follow robot 0.
  EpochTimeline tl(2);
  for (int i = 0; i < 4; ++i) {
    tl.add_cycle({0, 10.0 * i, 10.0 * (i + 1)});
  }
  for (int i = 0; i < 40; ++i) {
    tl.add_cycle({1, 1.0 * i, 1.0 * (i + 1)});
  }
  EXPECT_EQ(tl.count_epochs(40.0), 4u);
}

TEST(EpochTimeline, EpochRequiresCycleStartedInside) {
  // One robot's only cycle spans [0, 8]; the other cycles fast. The first
  // epoch ends at 8; afterwards no further epoch can complete.
  EpochTimeline tl(2);
  tl.add_cycle({0, 0.0, 8.0});
  for (int i = 0; i < 10; ++i) {
    tl.add_cycle({1, 1.0 * i, 1.0 * (i + 1)});
  }
  const auto bounds = tl.epoch_boundaries(10.0);
  ASSERT_EQ(bounds.size(), 1u);
  EXPECT_DOUBLE_EQ(bounds[0], 8.0);
}

TEST(EpochTimeline, RejectsOutOfRangeAndOutOfOrder) {
  EpochTimeline tl(2);
  EXPECT_THROW(tl.add_cycle({5, 0.0, 1.0}), std::out_of_range);
  tl.add_cycle({0, 5.0, 6.0});
  EXPECT_THROW(tl.add_cycle({0, 4.0, 4.5}), std::invalid_argument);
}

TEST(EpochTimeline, EmptyTimelineHasNoEpochs) {
  EpochTimeline tl(2);
  EXPECT_EQ(tl.count_epochs(100.0), 0u);
  EpochTimeline none(0);
  EXPECT_EQ(none.count_epochs(100.0), 0u);
}

}  // namespace
}  // namespace lumen::sched
