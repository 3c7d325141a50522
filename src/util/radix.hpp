// lumen_util: value-bucketed sorting for packed (key << 32 | slot) records.
//
// The geometry kernels presort by a 32-bit approximate key (a float
// pseudo-angle) with the element's slot id packed into the low half.
// Sorting the full 64-bit word ascending then means "by key, ties in slot
// order". Because the key's value lives in a known small interval, one
// value-proportional bucket scatter establishes almost all of that order
// in O(n), and the leftover per-bucket runs are tiny comparison sorts.
#pragma once

#include <algorithm>
#include <bit>
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

/// Below this many records a plain comparison sort of the packed words
/// beats the bucket scatter.
inline constexpr std::size_t kRadixMinRecords = 96;

/// Finishing pass of a value-bucketed sort: `bucket_ends[b]` is the END
/// offset of bucket b in `dst` (what the scatter's post-increment cursors
/// hold). Buckets are already ordered by key; comparison-sort each
/// multi-record bucket on the full word (insertion for the common tiny
/// runs) and the whole array is exactly ascending.
inline void sort_bucketed_runs(std::uint64_t* dst,
                               const std::uint64_t* bucket_ends,
                               std::size_t nb) {
  std::uint64_t begin = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    const std::uint64_t end = bucket_ends[b];
    const std::uint64_t len = end - begin;
    if (len > 1) {
      if (len <= 32) {
        for (std::uint64_t* p = dst + begin + 1; p < dst + end; ++p) {
          const std::uint64_t v = *p;
          std::uint64_t* q = p;
          while (q > dst + begin && q[-1] > v) {
            *q = q[-1];
            --q;
          }
          *q = v;
        }
      } else {
        std::sort(dst + begin, dst + end);
      }
    }
    begin = end;
  }
}

/// Sorts packed (float_bits << 32 | slot) records ascending by full 64-bit
/// value, specialised for keys that are the bit images of finite,
/// non-negative floats bounded by `max_key` (values landing exactly on
/// max_key are clamped into the last bucket). With ~one record per
/// bucket, almost all order is established by the single scatter, and the
/// leftover per-bucket runs are tiny comparison sorts. Produces exactly the
/// full ascending 64-bit order (bucket boundaries are monotone in the key,
/// the scatter is stable, and each bucket is comparison-sorted on the whole
/// word). `tmp` holds the bucket cursors and the scatter destination; it
/// keeps its capacity across calls.
inline void sort_f32key_records(std::vector<std::uint64_t>& records,
                                std::vector<std::uint64_t>& tmp,
                                float max_key) {
  const std::size_t m = records.size();
  if (m < kRadixMinRecords) {
    std::sort(records.begin(), records.end());
    return;
  }
  // Largest power of two NOT ABOVE m (capped): mean occupancy lands in
  // [1, 2), and the cursor array stays within the record footprint so the
  // histogram/scatter working set does not fall out of cache right when m
  // crosses a power of two.
  std::size_t nb = std::bit_floor(m);
  if (nb > (std::size_t{1} << 13)) nb = std::size_t{1} << 13;
  const float scale = static_cast<float>(nb) / max_key;
  tmp.resize(nb + m);
  std::uint64_t* const cursors = tmp.data();
  std::uint64_t* const dst = tmp.data() + nb;
  std::fill_n(cursors, nb, std::uint64_t{0});
  const auto bucket_of = [nb, scale](std::uint64_t rec) noexcept {
    const float key =
        std::bit_cast<float>(static_cast<std::uint32_t>(rec >> 32));
    const auto b = static_cast<std::size_t>(key * scale);
    return b < nb ? b : nb - 1;
  };
  for (const std::uint64_t rec : records) ++cursors[bucket_of(rec)];
  std::uint64_t sum = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    const std::uint64_t count = cursors[b];
    cursors[b] = sum;
    sum += count;
  }
  for (const std::uint64_t rec : records) dst[cursors[bucket_of(rec)]++] = rec;
  sort_bucketed_runs(dst, cursors, nb);
  std::memcpy(records.data(), dst, m * sizeof(std::uint64_t));
}

}  // namespace lumen::util
