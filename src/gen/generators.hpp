// lumen_gen: initial-configuration generators.
//
// All generators are seeded and deterministic, produce pairwise-distinct
// positions with a minimum separation (the real-RAM substitute documented in
// DESIGN.md §3), and cover the families the claims must hold over: generic
// random clouds, clustered blobs, boundary-heavy rings, structured grids,
// and the degenerate collinear family the line rules exist for.
#pragma once

#include "geom/vec2.hpp"
#include "util/prng.hpp"
#include "util/strings.hpp"

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace lumen::gen {

enum class ConfigFamily {
  kUniformDisk,    ///< Uniform in a disk of radius 100.
  kUniformSquare,  ///< Uniform in a 200x200 square.
  kGaussianBlob,   ///< One isotropic Gaussian cluster.
  kMultiCluster,   ///< 2-5 Gaussian clusters spread over the plane.
  kRingWithCore,   ///< Most robots on a circle, a core cluster inside.
  kGrid,           ///< Perturbed square lattice.
  kCollinear,      ///< EXACTLY collinear, evenly spaced with jitter along
                   ///< the line — exercises the line-escape rules.
  kNearCollinear,  ///< A line with tiny perpendicular noise (almost
                   ///< degenerate, but 2-D: stresses the predicates).
  kDenseDiameter,  ///< Adversarial: half the robots packed near the segment
                   ///< between two far-apart anchors (deep obstruction).
  kLattice,        ///< Distinct INTEGER lattice points in the world square —
                   ///< the native family for grid-motion algorithms
                   ///< (model::MotionModel::kGrid). Appended last: the
                   ///< family's enum value salts its generator stream, so
                   ///< new entries must never reorder existing ones.
};

inline constexpr auto kFamilyNames = std::to_array<util::Named<ConfigFamily>>({
    {ConfigFamily::kUniformDisk, "uniform-disk"},
    {ConfigFamily::kUniformSquare, "uniform-square"},
    {ConfigFamily::kGaussianBlob, "gaussian-blob"},
    {ConfigFamily::kMultiCluster, "multi-cluster"},
    {ConfigFamily::kRingWithCore, "ring-with-core"},
    {ConfigFamily::kGrid, "grid"},
    {ConfigFamily::kCollinear, "collinear"},
    {ConfigFamily::kNearCollinear, "near-collinear"},
    {ConfigFamily::kDenseDiameter, "dense-diameter"},
    {ConfigFamily::kLattice, "lattice"},
});

[[nodiscard]] constexpr std::string_view to_string(ConfigFamily f) noexcept {
  return util::name_of(kFamilyNames, f);
}

/// THE family parser — CLI boundaries must error out on nullopt instead of
/// defaulting (a typoed --family silently running uniform-disk is how
/// sweeps lie).
[[nodiscard]] constexpr std::optional<ConfigFamily> family_from_string(
    std::string_view name) noexcept {
  return util::parse_name(kFamilyNames, name);
}

inline constexpr auto kAllFamilies = util::values_of(kFamilyNames);

/// All families, in presentation order.
[[nodiscard]] constexpr std::span<const ConfigFamily> all_families() noexcept {
  return kAllFamilies;
}

/// Generates `n` pairwise-distinct positions of the given family.
/// Guarantees min pairwise separation >= min_separation (rescaling or
/// rejection internally; throws std::invalid_argument only if n is so large
/// that the family cannot host it, which none of the benches approach).
[[nodiscard]] std::vector<geom::Vec2> generate(ConfigFamily family, std::size_t n,
                                               std::uint64_t seed,
                                               double min_separation = 1e-3);

}  // namespace lumen::gen
