// lumen_geom: internals of the obstructed-visibility kernel.
//
// Shared by visibility.cpp (the one-shot per-observer sweep),
// visibility_cache.cpp (the incremental per-observer maintenance) and the
// batch record build in geom/simd: the key formulas, the 8-byte sort
// record, the two-tier exact sort (radix presort by float diamond angle +
// exact fixup of suspect chains) and the equal-direction run emission.
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

/// The diamond pseudo-angle of direction d (nonzero) within its half.
inline float akey_within_half(Vec2 d) noexcept {
  return half_of(d) == 0 ? diamond_key(d) : diamond_key(Vec2{-d.x, -d.y});
}

/// The sort record of robot j: its pseudo-angle's bits over its index, so
/// the unsigned order of records is the akey order (the bit images of
/// non-negative floats are monotone), ties by index.
inline std::uint64_t make_record(float akey, std::uint32_t j) noexcept {
  return (std::uint64_t{std::bit_cast<std::uint32_t>(akey)} << 32) | j;
}

/// The pseudo-angle and robot index of a sort record or a stored key, so
/// one emission runs over either.
inline float akey_of(std::uint64_t rec) noexcept {
  return std::bit_cast<float>(static_cast<std::uint32_t>(rec >> 32));
}
inline std::uint32_t index_of(std::uint64_t rec) noexcept {
  return static_cast<std::uint32_t>(rec);
}
inline float akey_of(const AngularKey& key) noexcept { return key.akey; }
inline std::uint32_t index_of(const AngularKey& key) noexcept {
  return key.index;
}

/// The angular-sort key of point j seen from `o` (d = p - o, nonzero).
inline AngularKey make_key(Vec2 d, std::uint32_t j) noexcept {
  return AngularKey{d, norm_sq(d), akey_within_half(d), j};
}

/// The key of a record, its direction and squared distance recomputed from
/// the coordinates: the same IEEE operations on the same operands as
/// make_key (contraction is off), so the key is bit-equal to make_key's.
template <class PtFn>
[[nodiscard]] inline AngularKey key_of(const PtFn& pt, Vec2 o,
                                       std::uint64_t rec) noexcept {
  const Vec2 d = pt(index_of(rec)) - o;
  return AngularKey{d, norm_sq(d), akey_of(rec), index_of(rec)};
}

/// Pseudo-angle separation below which two keys' exact order is not
/// certified by the float presort. ~40x the worst-case key uncertainty.
inline constexpr float kSuspectEps = 1e-5f;

/// Minimum observer count before compute_visibility fans out: below this
/// the pool's task handshake costs more than the sweep itself.
inline constexpr std::size_t kMinParallelObservers = 32;

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

/// Emits the visible members of one equal-direction run ranked[b, e): the
/// exact nearest point plus everything coincident with it. A point strictly
/// inside the open segment (o, target) lies on the same ray from o, so it
/// belongs to the same run — which makes this emission exactly the naive
/// blocking relation, and therefore symmetric (set_half relies on that).
/// The rounded dist2 sort key only pre-orders the run; the nearest is
/// re-derived with the exact on_segment_open predicate, so even adversarial
/// dist2 rounding ties cannot pick the wrong survivor.
template <class PtFn, class Ranked>
void emit_run(const PtFn& pt, Vec2 o, std::span<const Ranked> ranked,
              std::size_t b, std::size_t e, std::vector<std::size_t>& out) {
  if (e - b == 1) {
    out.push_back(index_of(ranked[b]));
    return;
  }
  std::size_t lead = b;
  for (std::size_t m = b + 1; m < e; ++m) {
    if (on_segment_open(o, pt(index_of(ranked[lead])),
                        pt(index_of(ranked[m])))) {
      lead = m;
    }
  }
  const Vec2 nearest = pt(index_of(ranked[lead]));
  for (std::size_t m = b; m < e; ++m) {
    const std::size_t j = index_of(ranked[m]);
    if (pt(j) == nearest) out.push_back(j);
  }
}

/// Splits one exactly sorted half — sort records or the cache's stored
/// keys — into equal-direction runs and emits each. An akey gap above
/// kSuspectEps certifies a direction change without touching the
/// predicate; only near-ties pay for orient2d_around, on directions
/// recomputed from the coordinates. (Within a fixed-up suspect chain akeys
/// may dip non-monotone by up to the key uncertainty — a negative gap
/// simply takes the exact branch, which is always sound.)
template <class PtFn, class Ranked>
void emit_half(const PtFn& pt, Vec2 o, std::span<const Ranked> ranked,
               std::vector<std::size_t>& out) {
  const std::size_t m = ranked.size();
  if (m == 0) return;
  std::size_t run_begin = 0;
  for (std::size_t k = 1; k < m; ++k) {
    const Ranked& prev = ranked[k - 1];
    const Ranked& cur = ranked[k];
    bool boundary = akey_of(cur) - akey_of(prev) > kSuspectEps;
    if (!boundary) {
      const Vec2 p = pt(index_of(prev));
      const Vec2 q = pt(index_of(cur));
      boundary = orient2d_around(p - o, q - o, p, q, o) != 0;
    }
    if (boundary) {
      emit_run(pt, o, ranked, run_begin, k, out);
      run_begin = k;
    }
  }
  emit_run(pt, o, ranked, run_begin, m, out);
}

/// Exact CCW sort of one half-plane's records: radix-presort by float
/// pseudo-angle (ties keep index order), then exact-sort every maximal
/// chain of records whose consecutive presorted akeys are within
/// kSuspectEps. Records in different chains are separated by
/// > kSuspectEps, which certifies their exact order (see diamond_key), so
/// per-chain exact sorting yields the one globally exact-sorted sequence —
/// the same unique permutation a full exact std::sort would produce.
/// Within one half no two directions are opposite, so orient2d alone
/// orders them; the keyed predicate returns exactly orient2d(o, pts[a],
/// pts[b]) (see orient2d_around), making the order bit-identical to the
/// direct formulation.
template <class PtFn>
void sort_records(const PtFn& pt, Vec2 o, std::vector<std::uint64_t>& records,
                  std::vector<std::uint64_t>& tmp) {
  const std::size_t m = records.size();
  if (m == 0) return;
  util::sort_high32_records(records, tmp);

  const auto exact_less = [&](std::uint64_t ra, std::uint64_t rb) {
    return exact_key_less(pt, o, key_of(pt, o, ra), key_of(pt, o, rb));
  };
  // Suspect-chain fixup. The presorted akeys are ascending, so chains are
  // found with one forward scan; `prev` is always read before the chain
  // ending at that position is re-sorted, so the scan sees presort values.
  std::size_t chain_begin = 0;
  float prev = akey_of(records[0]);
  const auto at = [&](std::size_t k) {
    return records.begin() + static_cast<std::ptrdiff_t>(k);
  };
  for (std::size_t k = 1; k < m; ++k) {
    const float cur = akey_of(records[k]);
    if (cur - prev > kSuspectEps) {
      if (k - chain_begin > 1) std::sort(at(chain_begin), at(k), exact_less);
      chain_begin = k;
    }
    prev = cur;
  }
  if (m - chain_begin > 1) {
    std::sort(at(chain_begin), records.end(), exact_less);
  }
}

/// The one-shot per-observer sweep: the runtime-dispatched batch record
/// build (geom/simd.hpp) fills both halves in one pass over the split
/// coordinate arrays, then each half is exact-sorted in place and
/// emitted. Every dispatch level builds byte-identical records, so the
/// output is the same at every level. scratch.upper/lower are left holding
/// the sorted halves (the cache's storing rebuild reads them).
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
  for (std::vector<std::uint64_t>* half : {&scratch.upper, &scratch.lower}) {
    sort_records(pt, o, *half, scratch.sort_tmp);
    emit_half(pt, o, std::span<const std::uint64_t>(*half), out);
  }
}

}  // namespace lumen::geom::detail
