#include "geom/visibility_cache.hpp"

#include "geom/visibility_detail.hpp"

#include <algorithm>

namespace lumen::geom {

void VisibilityCache::reset(std::size_t n, std::size_t budget_bytes) {
  n_ = n;
  const std::size_t per_observer = n == 0 ? 1 : n * kBytesPerRobot;
  cap_ = std::min(n, budget_bytes / std::max<std::size_t>(per_observer, 1));
  if (entries_.size() < cap_) entries_.resize(cap_);
  // Invalidate but keep capacity: version counters restart with each run,
  // so a stale entry from a previous run must never be trusted.
  for (Entry& e : entries_) {
    e.valid = false;
    e.touches = 0;
    e.version = 0;
  }
  replays_.store(0, std::memory_order_relaxed);
  repairs_.store(0, std::memory_order_relaxed);
  rebuilds_.store(0, std::memory_order_relaxed);
}

void VisibilityCache::rebuild(std::span<const double> xs,
                              std::span<const double> ys, std::size_t i,
                              Entry* e, std::uint64_t version, bool storable,
                              VisibilityScratch& scratch,
                              std::vector<std::size_t>& out) {
  rebuilds_.fetch_add(1, std::memory_order_relaxed);
  detail::visible_from_soa_impl(xs.data(), ys.data(), xs.size(), i, scratch,
                                out);
  if (!storable || e == nullptr) return;
  // Storing rebuild: the sweep left both halves' exactly sorted records in
  // the scratch; the entry keeps one key per record, in rank order, so
  // later Looks can repair in place.
  const auto pt = [xs, ys](std::size_t j) noexcept {
    return Vec2{xs[j], ys[j]};
  };
  const Vec2 o = pt(i);
  const auto store = [&](const std::vector<std::uint64_t>& records,
                         std::vector<AngularKey>& stored) {
    stored.clear();
    stored.reserve(records.size());
    for (const std::uint64_t rec : records) {
      stored.push_back(detail::key_of(pt, o, rec));
    }
  };
  store(scratch.upper, e->upper);
  store(scratch.lower, e->lower);
  e->ids = out;
  e->version = version;
  e->valid = true;
}

void VisibilityCache::visible_from(std::span<const double> xs,
                                   std::span<const double> ys, std::size_t i,
                                   std::span<const std::uint32_t> write_log,
                                   std::size_t moving_count,
                                   VisibilityScratch& scratch,
                                   std::vector<std::size_t>& out) {
  const std::uint64_t version = write_log.size();
  Entry* e = i < cap_ ? &entries_[i] : nullptr;
  // In-flight movers mean xs/ys hold interpolated positions the write log
  // knows nothing about: neither replay nor store is sound, so this Look is
  // served transiently and the entry is left for the next committed Look.
  if (moving_count > 0 || e == nullptr) {
    // A transient Look still counts toward admission: the observer is
    // active, so its next committed Look should store.
    if (e != nullptr && e->touches == 0) e->touches = 1;
    rebuild(xs, ys, i, nullptr, version, /*storable=*/false, scratch, out);
    return;
  }
  if (!e->valid) {
    // Admission on second rebuild (see Entry::touches): the first Look of a
    // run is served without the store, so observers that never Look again
    // cost nothing beyond the one-shot kernel.
    if (e->touches == 0) {
      e->touches = 1;
      rebuild(xs, ys, i, nullptr, version, /*storable=*/false, scratch, out);
    } else {
      rebuild(xs, ys, i, e, version, /*storable=*/true, scratch, out);
    }
    return;
  }
  const std::size_t suffix_len =
      static_cast<std::size_t>(version - e->version);
  if (suffix_len == 0) {
    // Nothing committed since the entry was built: the world arrays are
    // bit-identical to the ones it was built from.
    replays_.fetch_add(1, std::memory_order_relaxed);
    out.assign(e->ids.begin(), e->ids.end());
    return;
  }
  if (suffix_len > n_) {
    // Walking a megabyte log suffix costs more than resorting; bail early.
    rebuild(xs, ys, i, e, version, /*storable=*/true, scratch, out);
    return;
  }
  // Dedup the log suffix into the dirty set (a robot may commit many moves
  // between two Looks of this observer).
  if (scratch.mark.size() != n_) scratch.mark.assign(n_, 0);
  std::vector<std::uint32_t>& dirty = scratch.dirty;
  dirty.clear();
  bool self_dirty = false;
  for (std::size_t k = e->version; k < version; ++k) {
    const std::uint32_t r = write_log[k];
    if (r == i) self_dirty = true;
    if (scratch.mark[r] == 0) {
      scratch.mark[r] = 1;
      dirty.push_back(r);
    }
  }
  const bool repairable =
      !self_dirty && dirty.size() <= std::max<std::size_t>(n_ / kRepairDivisor, 1);
  if (!repairable) {
    for (const std::uint32_t r : dirty) scratch.mark[r] = 0;
    rebuild(xs, ys, i, e, version, /*storable=*/true, scratch, out);
    return;
  }
  repairs_.fetch_add(1, std::memory_order_relaxed);
  const auto pt = [xs, ys](std::size_t j) noexcept {
    return Vec2{xs[j], ys[j]};
  };
  const Vec2 o = pt(i);
  // Delete the dirty robots' stale keys (their old position may sit in
  // either half), then exact-insert the recomputed keys. Every surviving
  // key is bit-unchanged (its robot and the observer both kept their
  // committed positions), so after insertion each half is again the unique
  // exactly-sorted key sequence of the current world.
  const auto is_dirty = [&](const AngularKey& k) {
    return scratch.mark[k.index] != 0;
  };
  std::erase_if(e->upper, is_dirty);
  std::erase_if(e->lower, is_dirty);
  const auto exact_less = [&](const AngularKey& a, const AngularKey& b) {
    return detail::exact_key_less(pt, o, a, b);
  };
  for (const std::uint32_t r : dirty) {
    scratch.mark[r] = 0;
    const Vec2 p = pt(r);
    if (p == o) continue;  // Coincident with the observer: never visible.
    const AngularKey key = detail::make_key(p - o, r);
    std::vector<AngularKey>& half =
        detail::half_of(p - o) == 0 ? e->upper : e->lower;
    half.insert(std::lower_bound(half.begin(), half.end(), key, exact_less),
                key);
  }
  out.clear();
  out.reserve(e->upper.size() + e->lower.size());
  detail::emit_half(pt, o, std::span<const AngularKey>(e->upper), out);
  detail::emit_half(pt, o, std::span<const AngularKey>(e->lower), out);
  e->ids = out;
  e->version = version;
}

}  // namespace lumen::geom
