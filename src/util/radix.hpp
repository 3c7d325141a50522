// lumen_util: record sorting for the geometry kernels.
//
// The visibility sweep presorts by a 32-bit approximate key (a float
// pseudo-angle) with the robot index packed into the low half; the convex
// hull sorts its fringe by an exact 64-bit coordinate image. Both keep the
// element id beside the key, so a sort moves one small record per element.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace lumen::util {

/// One element of an exact 64-bit-keyed sort (the convex hull's fringe
/// sort in geom/hull.cpp): the full key (the monotone bit image of a double
/// coordinate) plus the element's slot id. Unlike the packed 32-bit records
/// below, key and payload are separate fields, so EQUAL keys are genuinely
/// equal values.
struct Key64Record {
  std::uint64_t key;
  std::uint32_t slot;
};

/// Below this many records the hull's fringe sort compare-sorts instead of
/// bucketing.
inline constexpr std::size_t kRadixMinRecords = 96;

/// Below this many records sort_high32_records runs std::sort on the packed
/// words instead of the radix passes.
inline constexpr std::size_t kLsdMinRecords = 64;

/// Sorts packed (key << 32 | payload) records stably by their 32-bit key:
/// an LSD radix of four 8-bit passes, where a pass whose digit is the same
/// in every record is skipped (the diamond pseudo-angles in [0, 2] share
/// most of their top byte). Small inputs take std::sort of the full words,
/// which is the same order whenever the payloads of equal keys arrive in
/// ascending order — the visibility records carry the robot index, and
/// the key build emits them by rising index. `tmp` is the scatter buffer;
/// it keeps its capacity across calls.
inline void sort_high32_records(std::vector<std::uint64_t>& records,
                                std::vector<std::uint64_t>& tmp) {
  const std::size_t m = records.size();
  if (m < kLsdMinRecords) {
    std::sort(records.begin(), records.end());
    return;
  }
  std::uint32_t counts[4][256] = {};
  for (const std::uint64_t rec : records) {
    const auto key = static_cast<std::uint32_t>(rec >> 32);
    ++counts[0][key & 0xffu];
    ++counts[1][(key >> 8) & 0xffu];
    ++counts[2][(key >> 16) & 0xffu];
    ++counts[3][key >> 24];
  }
  tmp.resize(m);
  std::uint64_t* src = records.data();
  std::uint64_t* dst = tmp.data();
  for (unsigned pass = 0; pass < 4; ++pass) {
    const unsigned shift = 32 + 8 * pass;
    std::uint32_t* const cursor = counts[pass];
    if (cursor[(src[0] >> shift) & 0xffu] == m) continue;
    std::uint32_t sum = 0;
    for (std::size_t d = 0; d < 256; ++d) {
      const std::uint32_t count = cursor[d];
      cursor[d] = sum;
      sum += count;
    }
    for (std::size_t k = 0; k < m; ++k) {
      dst[cursor[(src[k] >> shift) & 0xffu]++] = src[k];
    }
    std::swap(src, dst);
  }
  if (src != records.data()) {
    std::memcpy(records.data(), src, m * sizeof(std::uint64_t));
  }
}

}  // namespace lumen::util
