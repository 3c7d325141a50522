// Campaign-runner tests: determinism under parallel execution, metric
// correctness, and the N-sweep plumbing the benches are built on.
#include "analysis/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

namespace lumen::analysis {
namespace {

CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.algorithm = "async-log";
  spec.family = gen::ConfigFamily::kUniformDisk;
  spec.n = 16;
  spec.runs = 6;
  spec.seed_base = 100;
  return spec;
}

TEST(Campaign, AllRunsConvergeAndVerify) {
  const auto result = run_campaign(small_spec());
  ASSERT_EQ(result.runs.size(), 6u);
  EXPECT_EQ(result.converged_count(), 6u);
  EXPECT_EQ(result.visibility_ok_count(), 6u);
  EXPECT_EQ(result.collision_free_count(), 6u);
  EXPECT_LE(result.max_colors(), model::kLightCount);
  const auto epochs = result.epochs();
  EXPECT_EQ(epochs.count, 6u);
  EXPECT_GT(epochs.mean, 0.0);
}

TEST(Campaign, SeedsAreSequentialFromBase) {
  const auto result = run_campaign(small_spec());
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    EXPECT_EQ(result.runs[i].seed, 100 + i);
  }
}

// Exact equality on every field — doubles included, so "identical" means
// bit-identical, which is what the sharding contract promises.
void expect_identical(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.moves, b.moves);
  EXPECT_EQ(a.distance, b.distance);
  EXPECT_EQ(a.colors, b.colors);
  EXPECT_EQ(a.visibility_ok, b.visibility_ok);
  EXPECT_EQ(a.collision_free, b.collision_free);
  EXPECT_EQ(a.min_observed_separation, b.min_observed_separation);
  EXPECT_EQ(a.path_crossings, b.path_crossings);
  EXPECT_EQ(a.position_collisions, b.position_collisions);
}

TEST(Campaign, DeterministicAcrossPoolSizes) {
  util::ThreadPool serial{1};
  util::ThreadPool wide{8};
  const auto a = run_campaign(small_spec(), &serial);
  const auto b = run_campaign(small_spec(), &wide);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(a.runs[i], b.runs[i]);
  }
}

TEST(Campaign, ShardsReassembleToUnshardedResult) {
  CampaignSpec spec = small_spec();
  spec.runs = 7;  // Deliberately not divisible by the shard count.
  const auto whole = run_campaign(spec);

  std::map<std::uint64_t, RunMetrics> merged;
  for (std::size_t shard = 0; shard < 3; ++shard) {
    CampaignSpec part = spec;
    part.shard_index = shard;
    part.shard_count = 3;
    const auto result = run_campaign(part);
    for (const auto& m : result.runs) {
      const bool inserted = merged.emplace(m.seed, m).second;
      EXPECT_TRUE(inserted) << "seed " << m.seed << " ran in two shards";
    }
  }

  ASSERT_EQ(merged.size(), whole.runs.size());
  for (const auto& m : whole.runs) {
    SCOPED_TRACE(m.seed);
    ASSERT_TRUE(merged.count(m.seed));
    expect_identical(m, merged.at(m.seed));
  }
}

TEST(Campaign, ShardBeyondRunCountIsEmpty) {
  CampaignSpec spec = small_spec();
  spec.runs = 2;
  spec.shard_index = 2;
  spec.shard_count = 5;
  EXPECT_TRUE(run_campaign(spec).runs.empty());
}

// The fabric splits shard s of c into S sub-shards, sub-shard j being shard
// s + c*j of c*S. Over a grid of (runs, c, s, S), shard_seeds must list each
// shard's seeds ascending, and the S sub-shards must be disjoint with the
// spec's own shard as their union.
TEST(Campaign, ShardSeedsComposeIntoSubShards) {
  for (std::size_t runs : {1u, 2u, 7u, 12u, 31u}) {
    for (std::size_t c = 1; c <= 4; ++c) {
      for (std::size_t s = 0; s < c; ++s) {
        CampaignSpec spec = small_spec();
        spec.runs = runs;
        spec.seed_base = 1000;
        spec.shard_index = s;
        spec.shard_count = c;
        std::vector<std::uint64_t> own;
        for (std::size_t i = 0; i < runs; ++i) {
          if (i % c == s) own.push_back(spec.seed_base + i);
        }
        ASSERT_EQ(shard_seeds(spec), own);
        for (std::size_t sub = 1; sub <= 5; ++sub) {
          SCOPED_TRACE(testing::Message() << "runs " << runs << " shard " << s
                                          << "/" << c << " into " << sub);
          std::vector<std::uint64_t> united;
          for (std::size_t j = 0; j < sub; ++j) {
            CampaignSpec part = spec;
            part.shard_index = s + c * j;
            part.shard_count = c * sub;
            const auto seeds = shard_seeds(part);
            EXPECT_TRUE(std::is_sorted(seeds.begin(), seeds.end()));
            united.insert(united.end(), seeds.begin(), seeds.end());
          }
          std::sort(united.begin(), united.end());
          EXPECT_EQ(std::adjacent_find(united.begin(), united.end()), united.end())
              << "a seed sits in two sub-shards";
          EXPECT_EQ(united, own);
        }
      }
    }
  }
}

TEST(Campaign, CollisionAuditCanBeDisabled) {
  CampaignSpec spec = small_spec();
  spec.audit_collisions = false;
  const auto result = run_campaign(spec);
  for (const auto& m : result.runs) {
    EXPECT_TRUE(m.collision_free);  // Default, not audited.
    EXPECT_EQ(m.min_observed_separation, 0.0);
  }
}

TEST(Campaign, UnknownAlgorithmRecordsSpecInvalidError) {
  CampaignSpec spec = small_spec();
  spec.algorithm = "bogus";
  const auto result = run_campaign(spec);
  EXPECT_TRUE(result.runs.empty());
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].kind, CampaignErrorKind::kSpecInvalid);
  EXPECT_NE(result.errors[0].detail.find("algorithm"), std::string::npos);
  EXPECT_FALSE(result.complete());
}

TEST(Campaign, SweepProducesOnePointPerN) {
  const std::vector<std::size_t> ns = {8, 16, 32};
  CampaignSpec spec = small_spec();
  spec.runs = 3;
  std::vector<CampaignResult> points;
  for (const std::size_t n : ns) {
    spec.n = n;
    points.push_back(run_campaign(spec));
  }
  for (std::size_t i = 0; i < ns.size(); ++i) {
    EXPECT_EQ(points[i].spec.n, ns[i]);
    EXPECT_EQ(points[i].converged_count(), 3u);
  }
  // Epochs grow with N in expectation.
  EXPECT_LE(points[0].epochs().mean, points[2].epochs().mean * 1.5);
}

TEST(Campaign, BaselineTakesMoreEpochsThanAsyncLog) {
  CampaignSpec fast = small_spec();
  fast.n = 32;
  CampaignSpec slow = fast;
  slow.algorithm = "seq-baseline";
  const auto fast_result = run_campaign(fast);
  const auto slow_result = run_campaign(slow);
  ASSERT_GT(fast_result.epochs().count, 0u);
  ASSERT_GT(slow_result.epochs().count, 0u);
  EXPECT_GT(slow_result.epochs().mean, fast_result.epochs().mean);
}

}  // namespace
}  // namespace lumen::analysis
