// lumen_geom: internals of the obstructed-visibility kernel.
//
// Shared by visibility.cpp (the one-shot per-observer sweep),
// visibility_cache.cpp (the incremental per-observer maintenance) and the
// batch key build in geom/simd: the key formulas, the two-tier exact sort
// (float diamond-angle presort + exact fixup of suspect chains) and the
// equal-direction run emission.
// Everything here preserves the bit-identity contract documented in
// visibility.hpp — the sorted sequence is the unique exact angular order,
// and emission applies the exact on_segment_open blocking relation — so
// any composition of these pieces over the same point set yields the same
// visible-id sequence.
#pragma once

#include "geom/predicates.hpp"
#include "geom/simd.hpp"
#include "geom/visibility.hpp"
#include "util/radix.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace lumen::geom::detail {

/// Half-plane index for the exact angular order around an origin:
/// 0 for directions with angle in [0, pi) — dy > 0, or dy == 0 && dx > 0 —
/// 1 otherwise. Opposite directions always land in different halves.
inline std::uint8_t half_of(Vec2 d) noexcept {
  if (d.y > 0.0) return 0;
  if (d.y < 0.0) return 1;
  return d.x > 0.0 ? 0 : 1;
}

/// Diamond pseudo-angle of an upper-half direction (d.y > 0, or d.y == +-0
/// with d.x > 0), monotone in the true angle over [0, pi): 0 on the +x
/// ray, 1 on the +y ray, -> 2 approaching the -x ray. Lower-half callers
/// pass -d (negation preserves the within-half orient2d order). Total
/// uncertainty vs the exact angle order is bounded by the f32 rounding
/// (half-ulp at t < 2 is ~1.2e-7; the double-precision divide contributes
/// ~1e-16) — far below kSuspectEps, so keys further apart than
/// kSuspectEps are GUARANTEED exactly ordered and only closer pairs need
/// the exact comparator.
inline float diamond_key(Vec2 d) noexcept {
  const double t =
      d.x >= 0.0 ? d.y / (d.x + d.y) : 1.0 + (-d.x) / (d.y - d.x);
  // + 0.0f canonicalizes a -0.0 quotient (possible when d.y is a negative
  // zero) so the bit-pattern radix order matches numeric order.
  return static_cast<float>(t) + 0.0f;
}

/// The angular-sort key of point j seen from `o` (d = p - o, nonzero).
inline AngularKey make_key(Vec2 d, std::size_t j) noexcept {
  const float akey =
      half_of(d) == 0 ? diamond_key(d) : diamond_key(Vec2{-d.x, -d.y});
  return AngularKey{d, norm_sq(d), akey, static_cast<std::uint32_t>(j)};
}

/// Pseudo-angle separation below which two keys' exact order is not
/// certified by the float presort. ~40x the worst-case key uncertainty.
inline constexpr float kSuspectEps = 1e-5f;

/// Minimum observer count before compute_visibility fans out: below this
/// the pool's task handshake costs more than the sweep itself.
inline constexpr std::size_t kMinParallelObservers = 32;

inline std::uint32_t slot_of(std::uint64_t rec) noexcept {
  return static_cast<std::uint32_t>(rec);
}

/// The float pseudo-angle a presort record was built from, recovered from
/// its high 32 bits — EXACTLY keys[slot_of(rec)].akey, bit for bit, without
/// the random gather into the key array. The rank scans in sort_records and
/// emit_half_records only need the akey, so reading it out of the already-
/// resident record halves their cache traffic.
inline float akey_of(std::uint64_t rec) noexcept {
  return std::bit_cast<float>(static_cast<std::uint32_t>(rec >> 32));
}

/// The exact strict total order on keys within one half-plane: orientation
/// around `o` (via the precomputed diffs), then squared distance, then
/// index. Identical to the comparator the direct exact sort would use.
template <class PtFn>
[[nodiscard]] inline bool exact_key_less(const PtFn& pt, Vec2 o,
                                         const AngularKey& a,
                                         const AngularKey& b) noexcept {
  const int orientation =
      orient2d_around(a.diff, b.diff, pt(a.index), pt(b.index), o);
  if (orientation != 0) return orientation > 0;
  if (a.dist2 != b.dist2) return a.dist2 < b.dist2;
  return a.index < b.index;  // Full ties: deterministic order.
}

/// Emits the visible members of one equal-direction run [b, e): the exact
/// nearest point plus everything coincident with it. A point strictly
/// inside the open segment (o, target) lies on the same ray from o, so it
/// belongs to the same run — which makes this emission exactly the naive
/// blocking relation, and therefore symmetric (set_half relies on that).
/// The rounded dist2 sort key only pre-orders the run; the nearest is
/// re-derived with the exact on_segment_open predicate, so even adversarial
/// dist2 rounding ties cannot pick the wrong survivor. `key_at(k)` resolves
/// rank k to its key (indirect through radix records, or contiguous).
template <class PtFn, class KeyAt>
void emit_run(const PtFn& pt, Vec2 o, const KeyAt& key_at, std::size_t b,
              std::size_t e, std::vector<std::size_t>& out) {
  if (e - b == 1) {
    out.push_back(key_at(b).index);
    return;
  }
  std::size_t lead = b;
  for (std::size_t m = b + 1; m < e; ++m) {
    if (on_segment_open(o, pt(key_at(lead).index), pt(key_at(m).index))) {
      lead = m;
    }
  }
  const Vec2 nearest = pt(key_at(lead).index);
  for (std::size_t m = b; m < e; ++m) {
    const std::size_t j = key_at(m).index;
    if (pt(j) == nearest) out.push_back(j);
  }
}

/// Splits ranks [0, m) into equal-direction runs and emits each. An akey
/// gap above kSuspectEps certifies a direction change without touching the
/// predicate; only near-ties pay for orient2d_around. (Within a fixed-up
/// suspect chain akeys may dip non-monotone by up to the key uncertainty —
/// a negative gap simply takes the exact branch, which is always sound.)
template <class PtFn, class KeyAt>
void emit_half(const PtFn& pt, Vec2 o, const KeyAt& key_at, std::size_t m,
               std::vector<std::size_t>& out) {
  if (m == 0) return;
  std::size_t run_begin = 0;
  const AngularKey* prev_key = &key_at(0);
  for (std::size_t k = 1; k < m; ++k) {
    const AngularKey& cur_key = key_at(k);
    const bool boundary =
        (cur_key.akey - prev_key->akey > kSuspectEps) ||
        orient2d_around(prev_key->diff, cur_key.diff, pt(prev_key->index),
                        pt(cur_key.index), o) != 0;
    if (boundary) {
      emit_run(pt, o, key_at, run_begin, k, out);
      run_begin = k;
    }
    prev_key = &cur_key;
  }
  emit_run(pt, o, key_at, run_begin, m, out);
}

/// emit_half over exact-sorted records: identical run splitting and
/// emission, but the akey-gap certificate reads the records (akey_of)
/// instead of gathering each ranked key — the key array is only touched at
/// suspect boundaries (orient2d operands) and for the emitted points
/// themselves. Same boundaries, same runs, same output as emit_half: the
/// record akeys are bit-equal to the gathered ones.
template <class PtFn>
void emit_half_records(const PtFn& pt, Vec2 o,
                       const std::vector<AngularKey>& keys,
                       const std::vector<std::uint64_t>& order,
                       std::vector<std::size_t>& out) {
  const std::size_t m = order.size();
  if (m == 0) return;
  const auto key_at = [&](std::size_t k) -> const AngularKey& {
    return keys[slot_of(order[k])];
  };
  std::size_t run_begin = 0;
  float prev = akey_of(order[0]);
  for (std::size_t k = 1; k < m; ++k) {
    const float cur = akey_of(order[k]);
    const bool boundary =
        (cur - prev > kSuspectEps) ||
        orient2d_around(key_at(k - 1).diff, key_at(k).diff,
                        pt(key_at(k - 1).index), pt(key_at(k).index), o) != 0;
    if (boundary) {
      emit_run(pt, o, key_at, run_begin, k, out);
      run_begin = k;
    }
    prev = cur;
  }
  emit_run(pt, o, key_at, run_begin, m, out);
}

/// Exact CCW sort of one half-plane's keys over PREBUILT (akey << 32 |
/// slot) records: radix-presort by float pseudo-angle (ties fall back to
/// insertion = index order), then exact-sort every maximal chain of keys
/// whose consecutive presorted akeys are within kSuspectEps. Keys in
/// different chains are separated by > kSuspectEps, which certifies their
/// exact order (see diamond_key), so per-chain exact sorting yields the
/// one globally exact-sorted sequence — the same unique permutation a full
/// exact std::sort would produce. Within one half no two directions are
/// opposite, so orient2d alone orders them; the keyed predicate returns
/// exactly orient2d(o, pts[a], pts[b]) (see orient2d_around), making the
/// order bit-identical to the direct formulation.
///
/// The records come fused out of the batched key build (geom/simd.hpp),
/// so no pass gathers them out of the keys.
template <class PtFn>
void sort_records(const PtFn& pt, Vec2 o, const std::vector<AngularKey>& keys,
                  std::vector<std::uint64_t>& order,
                  std::vector<std::uint64_t>& tmp) {
  const std::size_t m = order.size();
  if (m == 0) return;
  // The akeys are diamond pseudo-angles: finite floats in [0, 2] (2.0 only
  // via quotient rounding at the half boundary), which is exactly the
  // precondition of the value-bucketed sort — one scatter instead of four
  // radix passes, with the float->bucket mapping batched per SIMD level.
  simd::sort_angular_records(order, tmp, 2.0f);

  const auto exact_less = [&](std::uint64_t ra, std::uint64_t rb) {
    return exact_key_less(pt, o, keys[slot_of(ra)], keys[slot_of(rb)]);
  };
  // Suspect-chain fixup. The presorted akeys are ascending, so chains are
  // found with one forward scan reading akeys straight out of the records
  // (akey_of — no gather); `prev` is always read before the chain ending at
  // that position is re-sorted, so the scan sees presort values.
  std::size_t chain_begin = 0;
  float prev = akey_of(order[0]);
  const auto ord = [&](std::size_t k) {
    return order.begin() + static_cast<std::ptrdiff_t>(k);
  };
  for (std::size_t k = 1; k < m; ++k) {
    const float cur = akey_of(order[k]);
    if (cur - prev > kSuspectEps) {
      if (k - chain_begin > 1) std::sort(ord(chain_begin), ord(k), exact_less);
      chain_begin = k;
    }
    prev = cur;
  }
  if (m - chain_begin > 1) std::sort(ord(chain_begin), order.end(), exact_less);
}

/// Sort + emit for one half whose presort records were PREBUILT by the
/// batched key build; `order` is that half's record vector
/// (scratch.upper_order / lower_order), exact-sorted in place.
template <class PtFn>
void sort_and_dedup_half_records(const PtFn& pt, Vec2 o,
                                 const std::vector<AngularKey>& keys,
                                 std::vector<std::uint64_t>& order,
                                 std::vector<std::uint64_t>& tmp,
                                 std::vector<std::size_t>& out) {
  if (keys.empty()) return;
  sort_records(pt, o, keys, order, tmp);
  emit_half_records(pt, o, keys, order, out);
}

/// The one-shot per-observer sweep: the runtime-dispatched batch key build
/// (geom/simd.hpp) fills keys AND presort records in one pass over the
/// split coordinate arrays, then each half is exact-sorted and emitted.
/// Every dispatch level builds byte-identical keys, so the output is the
/// same at every level.
inline void visible_from_soa_impl(const double* xs, const double* ys,
                                  std::size_t n, std::size_t i,
                                  VisibilityScratch& scratch,
                                  std::vector<std::size_t>& out) {
  const Vec2 o{xs[i], ys[i]};
  simd::build_keys_soa(xs, ys, n, i, o, scratch);
  const auto pt = [xs, ys](std::size_t j) noexcept {
    return Vec2{xs[j], ys[j]};
  };
  out.clear();
  out.reserve(scratch.upper.size() + scratch.lower.size());
  sort_and_dedup_half_records(pt, o, scratch.upper, scratch.upper_order,
                              scratch.order_tmp, out);
  sort_and_dedup_half_records(pt, o, scratch.lower, scratch.lower_order,
                              scratch.order_tmp, out);
}

}  // namespace lumen::geom::detail
