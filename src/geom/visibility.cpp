#include "geom/visibility.hpp"

#include "geom/predicates.hpp"
#include "geom/visibility_detail.hpp"
#include "util/thread_pool.hpp"

#include <bit>

namespace lumen::geom {

std::size_t VisibilityGraph::edge_count() const noexcept {
  // Upper-triangle popcount: row i contributes its bits j > i, so the count
  // is exact whether or not the lower triangle has been mirrored yet.
  std::size_t c = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    const std::uint64_t* row = bits_.data() + i * words_;
    const std::size_t first = (i + 1) >> 6;
    const std::size_t shift = (i + 1) & 63;
    for (std::size_t w = first; w < words_; ++w) {
      std::uint64_t word = row[w];
      if (w == first && shift != 0) {
        word &= ~((std::uint64_t{1} << shift) - 1);
      }
      c += static_cast<std::size_t>(std::popcount(word));
    }
  }
  return c;
}

bool VisibilityGraph::complete() const noexcept {
  if (n_ <= 1) return true;
  // Row i must be all-ones over the first n_ bits except bit i itself;
  // bail out on the first block that misses a pair.
  const std::uint64_t last_mask = ((n_ & 63) == 0)
                                      ? ~std::uint64_t{0}
                                      : (std::uint64_t{1} << (n_ & 63)) - 1;
  for (std::size_t i = 0; i < n_; ++i) {
    const std::uint64_t* row = bits_.data() + i * words_;
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t expected = (w + 1 == words_) ? last_mask : ~std::uint64_t{0};
      if (w == (i >> 6)) expected &= ~(std::uint64_t{1} << (i & 63));
      if (row[w] != expected) return false;
    }
  }
  return true;
}

void visible_from(std::span<const double> xs, std::span<const double> ys,
                  std::size_t i, VisibilityScratch& scratch,
                  std::vector<std::size_t>& out) {
  detail::visible_from_soa_impl(xs.data(), ys.data(), xs.size(), i, scratch,
                                out);
}

VisibilityGraph compute_visibility(std::span<const Vec2> pts,
                                   util::ThreadPool* pool) {
  const std::size_t n = pts.size();
  std::vector<double> xs, ys;
  xs.reserve(n);
  ys.reserve(n);
  for (const Vec2 p : pts) {
    xs.push_back(p.x);
    ys.push_back(p.y);
  }
  VisibilityGraph g(n);
  if (pool != nullptr && n >= detail::kMinParallelObservers) {
    // Every observer writes only its own row; the per-observer relation is
    // exactly the (symmetric) naive blocking relation — see emit_run — so
    // the mirrored bits arrive from the mirrored sweeps and the result is
    // bit-identical to the serial fill for any pool size.
    struct ObserverScratch {
      VisibilityScratch scratch;
      std::vector<std::size_t> out;
    };
    std::vector<ObserverScratch> slots(pool->slot_count());
    pool->parallel_for_slots(
        n,
        [&](std::size_t slot, std::size_t i) {
          ObserverScratch& s = slots[slot];
          visible_from(xs, ys, i, s.scratch, s.out);
          for (const std::size_t j : s.out) g.set_half(i, j);
        },
        /*grain=*/4);
    return g;
  }
  VisibilityScratch scratch;
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    visible_from(xs, ys, i, scratch, out);
    for (const std::size_t j : out) g.set_half(i, j);
  }
  return g;
}

bool visible_naive(std::span<const Vec2> pts, std::size_t i, std::size_t j) {
  if (i == j || pts[i] == pts[j]) return false;
  for (std::size_t k = 0; k < pts.size(); ++k) {
    if (k == i || k == j) continue;
    if (on_segment_open(pts[i], pts[j], pts[k])) return false;
  }
  return true;
}

VisibilityGraph compute_visibility_naive(std::span<const Vec2> pts) {
  VisibilityGraph g(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      if (visible_naive(pts, i, j)) g.set(i, j);
    }
  }
  return g;
}

}  // namespace lumen::geom
