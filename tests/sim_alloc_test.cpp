// Steady-state allocation audit for the Look path.
//
// The engines snapshot the world on every Look; geom::visible_from and
// model::build_snapshot must therefore be heap-free
// once their buffers are warm, or a long campaign spends its time in the
// allocator. The test TU replaces global operator new/delete with counting
// versions and asserts zero allocations across warmed-up calls.
#include "geom/visibility.hpp"
#include "model/frame.hpp"
#include "model/snapshot.hpp"
#include "split_points.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

namespace {

std::size_t g_alloc_count = 0;
std::size_t g_alloc_bytes = 0;

}  // namespace

// GCC inlines these replacements into gtest's test factories and then flags
// free() on a new-pointer; the malloc/free pairing across the replaced
// operators is intentional (same suppression as bench/bench_micro.cpp).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  ++g_alloc_count;
  g_alloc_bytes += size;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_alloc_count;
  g_alloc_bytes += size;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace lumen {
namespace {

using geom::Vec2;

std::vector<Vec2> ring_of_points(std::size_t n) {
  util::Prng rng(99);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(Vec2{rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)});
  }
  return pts;
}

TEST(LookPathAllocations, VisibleFromSoAOverloadIsAllocationFree) {
  const auto pts = ring_of_points(64);
  const auto [xs, ys] = testutil::split_points(pts);
  geom::VisibilityScratch scratch;
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    geom::visible_from(xs, ys, i, scratch, out);
  }
  const std::size_t before = g_alloc_count;
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < pts.size(); ++i) {
      geom::visible_from(xs, ys, i, scratch, out);
      ASSERT_FALSE(out.empty());
    }
  }
  EXPECT_EQ(g_alloc_count, before)
      << "the warm SoA visible_from must not touch the heap";
}

TEST(LookPathAllocations, ColdSoAKeyBuildReservesTheExactSplit) {
  // The batched key build counts the upper/lower split before sizing, so a
  // COLD call allocates the true split (~32+8 bytes per point across the
  // four scratch vectors) plus the sort/output workspace — NOT a 2x-of-n
  // guess that reserves n for both halves. The bound below sits between
  // the two: exact sizing passes with plenty of headroom, a both-halves
  // reserve(n) (64 bytes/point for the key vectors alone, ~112 total)
  // trips it.
  const std::size_t n = 1024;
  const auto pts = ring_of_points(n);
  const auto [xs, ys] = testutil::split_points(pts);
  geom::VisibilityScratch scratch;
  std::vector<std::size_t> out;
  const std::size_t before = g_alloc_bytes;
  geom::visible_from(xs, ys, 0, scratch, out);
  const std::size_t cold_bytes = g_alloc_bytes - before;
  EXPECT_LT(cold_bytes, 75 * n)
      << "cold SoA visible_from allocated " << cold_bytes
      << " bytes for n=" << n << "; the key build is over-reserving";
}

TEST(LookPathAllocations, BuildSnapshotScratchOverloadIsAllocationFree) {
  const auto pts = ring_of_points(64);
  const auto [xs, ys] = testutil::split_points(pts);
  const std::vector<model::Light> lights(pts.size(), model::Light::kOff);
  util::Prng frame_rng(7);
  model::SnapshotScratch scratch;
  model::Snapshot snap;
  // Warm up: every observer once, so visible-list capacities peak.
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const model::LocalFrame frame = model::LocalFrame::random(pts[i], frame_rng);
    model::build_snapshot(xs, ys, lights, i, frame, scratch, snap);
  }
  const std::size_t before = g_alloc_count;
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const model::LocalFrame frame =
          model::LocalFrame::random(pts[i], frame_rng);
      model::build_snapshot(xs, ys, lights, i, frame, scratch, snap);
      ASSERT_GT(snap.visible_count(), 0u);
    }
  }
  EXPECT_EQ(g_alloc_count, before)
      << "the warmed Look snapshot path must not touch the heap";
}

TEST(LookPathAllocations, AllocationCounterActuallyCounts) {
  const std::size_t before = g_alloc_count;
  std::vector<int>* v = new std::vector<int>(100);
  EXPECT_GT(g_alloc_count, before);
  delete v;
}

}  // namespace
}  // namespace lumen
