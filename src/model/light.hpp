// lumen_model: the constant-size light palette.
//
// The robots-with-lights model gives every robot one externally visible
// color from an O(1) palette — the only persistent, communicable state a
// robot has. The reproduction's palette has 7 colors (claim C3 in DESIGN.md:
// the count must not grow with N; bench_colors audits this).
#pragma once

#include "util/strings.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace lumen::model {

enum class Light : std::uint8_t {
  kOff = 0,      ///< Initial color of every robot.
  kCorner,       ///< "I am a strict vertex of the hull; I will not move."
  kSide,         ///< "I am on a hull edge's interior" (announced before popping out).
  kInterior,     ///< "I am strictly inside the hull."
  kTransit,      ///< "I INTEND to exit through my gate" — stationary intent,
                 ///< the first half of the beacon handshake.
  kMoving,       ///< "I am IN FLIGHT to my exit slot" — committed movement;
                 ///< everyone whose path could meet mine must yield.
  kLine,         ///< "My whole snapshot is collinear and I am not an endpoint."
  kLineEnd,      ///< "My whole snapshot is collinear and I am an endpoint."
};

inline constexpr auto kLightNames = std::to_array<util::Named<Light>>({
    {Light::kOff, "Off"},
    {Light::kCorner, "Corner"},
    {Light::kSide, "Side"},
    {Light::kInterior, "Interior"},
    {Light::kTransit, "Transit"},
    {Light::kMoving, "Moving"},
    {Light::kLine, "Line"},
    {Light::kLineEnd, "LineEnd"},
});

[[nodiscard]] constexpr std::string_view to_string(Light l) noexcept {
  return util::name_of(kLightNames, l);
}

inline constexpr std::size_t kLightCount = kLightNames.size();

/// Every color, in enum order.
inline constexpr std::array<Light, kLightCount> kAllLights = util::values_of(kLightNames);

}  // namespace lumen::model
