// Plugin-contract tests of the algorithm registry and the success-predicate
// resolver: error paths name every valid choice, and the advertised
// AlgorithmInfo traits match what the constructed instances declare.
#include "core/registry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "geom/vec2.hpp"
#include "sim/monitors.hpp"

namespace lumen::core {
namespace {

using geom::Vec2;

TEST(RegistryContract, NamesAndInfosAlign) {
  const auto names = algorithm_names();
  const auto infos = algorithm_infos();
  ASSERT_EQ(names.size(), infos.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(infos[i].name, names[i]);
  }
}

TEST(RegistryContract, InfosMatchConstructedInstances) {
  for (const auto& info : algorithm_infos()) {
    const auto algo = make_algorithm(info.name);
    ASSERT_NE(algo, nullptr);
    EXPECT_EQ(algo->name(), info.name);
    EXPECT_EQ(algo->motion_model(), info.motion_model);
    EXPECT_EQ(algo->palette().size(), info.palette_size);
    EXPECT_EQ(algo->success_predicate(), info.success_predicate);
  }
}

TEST(RegistryContract, PluginsDeclareTheirTraits) {
  EXPECT_EQ(make_algorithm("grid-cv")->motion_model(),
            model::MotionModel::kGrid);
  EXPECT_EQ(make_algorithm("grid-cv")->success_predicate(),
            "mutual-visibility");
  EXPECT_EQ(make_algorithm("mutual-vis")->motion_model(),
            model::MotionModel::kContinuous);
  EXPECT_EQ(make_algorithm("mutual-vis")->success_predicate(),
            "mutual-visibility");
  // The paper's algorithms keep the defaults.
  EXPECT_EQ(make_algorithm("async-log")->motion_model(),
            model::MotionModel::kContinuous);
  EXPECT_EQ(make_algorithm("async-log")->success_predicate(),
            "complete-visibility");
}

TEST(RegistryContract, UnknownNameThrowListsEveryRegisteredName) {
  try {
    (void)make_algorithm("no-such-algorithm");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-algorithm"), std::string::npos);
    for (const auto& name : algorithm_names()) {
      EXPECT_NE(what.find(std::string(name)), std::string::npos)
          << "message must list " << name;
    }
  }
}

TEST(RegistryContract, JoinedNamesUseCommaSeparators) {
  const std::string joined = algorithm_names_joined();
  for (const auto& name : algorithm_names()) {
    EXPECT_NE(joined.find(std::string(name)), std::string::npos);
  }
  EXPECT_NE(joined.find(", "), std::string::npos);
}

TEST(MotionModelNames, ToStringCoversBothModels) {
  EXPECT_EQ(model::to_string(model::MotionModel::kContinuous), "continuous");
  EXPECT_EQ(model::to_string(model::MotionModel::kGrid), "grid");
}

// --- sim::verify_success, the predicate the plugin contract resolves to ----

TEST(SuccessPredicates, UnknownPredicateThrowListsValidNames) {
  const Vec2 square[] = {{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  try {
    (void)sim::verify_success("no-such-predicate", square);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const auto& name : sim::success_predicate_names()) {
      EXPECT_NE(what.find(std::string(name)), std::string::npos)
          << "message must list " << name;
    }
  }
}

TEST(SuccessPredicates, ConvexSetSatisfiesBoth) {
  const Vec2 square[] = {{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  EXPECT_TRUE(sim::verify_success("complete-visibility", square).satisfied);
  EXPECT_TRUE(sim::verify_success("mutual-visibility", square).satisfied);
}

TEST(SuccessPredicates, ConcaveButUnobstructedSplitsThePredicates) {
  // (1,1) is interior to the triangle hull, so the set is not strictly
  // convex — yet no robot lies ON a segment between two others, so every
  // pair still sees each other.
  const Vec2 concave[] = {{0, 0}, {4, 0}, {0, 4}, {1, 1}};
  const auto complete = sim::verify_success("complete-visibility", concave);
  const auto mutual = sim::verify_success("mutual-visibility", concave);
  EXPECT_FALSE(complete.satisfied);
  EXPECT_TRUE(mutual.satisfied);
  EXPECT_TRUE(sim::verify_complete_visibility(concave).mutually_visible);
}

TEST(SuccessPredicates, ObstructedLineFailsBoth) {
  const Vec2 line[] = {{0, 0}, {2, 0}, {4, 0}};
  EXPECT_FALSE(sim::verify_success("complete-visibility", line).satisfied);
  EXPECT_FALSE(sim::verify_success("mutual-visibility", line).satisfied);
}

}  // namespace
}  // namespace lumen::core
