// Thread pool tests: correctness of parallel_for, exception propagation,
// and determinism of campaign-style usage (order-independent reductions).
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace lumen::util {
namespace {

TEST(ThreadPool, ParallelForCoversAllIndicesExactlyOnce) {
  ThreadPool pool{4};
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForWithGrain) {
  ThreadPool pool{3};
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(i); }, 16);
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool{2};
  bool touched = false;
  pool.parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool{1};
  std::atomic<int> n{0};
  pool.parallel_for(50, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 50);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool{4};
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool remains usable afterwards.
  std::atomic<int> n{0};
  pool.parallel_for(10, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 10);
}

TEST(ThreadPool, ConcurrentThrowersDeliverExactlyOneException) {
  // Many indices throw at once; exactly one exception must reach the caller
  // and the rest must be swallowed without crashing or leaking state into
  // subsequent parallel_for calls.
  ThreadPool pool{4};
  for (int round = 0; round < 3; ++round) {
    try {
      pool.parallel_for(64, [&](std::size_t i) {
        throw std::runtime_error("boom " + std::to_string(i));
      });
      FAIL() << "parallel_for swallowed every exception";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("boom ", 0), 0u) << e.what();
    }
    // The pool is immediately reusable after each throwing round.
    std::atomic<int> n{0};
    pool.parallel_for(16, [&](std::size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 16);
  }
}

TEST(ThreadPool, SizeReflectsConstruction) {
  ThreadPool pool{3};
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_GE(global_pool().size(), 1u);
}

TEST(ThreadPool, ParallelForSlotsCoversAllIndicesWithValidSlots) {
  ThreadPool pool{4};
  EXPECT_EQ(pool.slot_count(), 4u);
  std::vector<std::atomic<int>> hits(777);
  std::atomic<bool> slot_ok{true};
  pool.parallel_for_slots(777, [&](std::size_t slot, std::size_t i) {
    if (slot >= pool.slot_count()) slot_ok = false;
    hits[i].fetch_add(1);
  });
  EXPECT_TRUE(slot_ok.load());
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForSlotsNeverRunsOneSlotConcurrently) {
  // The slot contract: tasks sharing a slot id are serialized, so per-slot
  // scratch needs no synchronization. Flag any overlapping entry.
  ThreadPool pool{4};
  std::vector<std::atomic<int>> in_slot(pool.slot_count());
  std::atomic<bool> overlapped{false};
  pool.parallel_for_slots(
      500,
      [&](std::size_t slot, std::size_t) {
        if (in_slot[slot].fetch_add(1) != 0) overlapped = true;
        in_slot[slot].fetch_sub(1);
      },
      /*grain=*/8);
  EXPECT_FALSE(overlapped.load());
}

TEST(ThreadPool, NestedParallelForRunsInlineInsteadOfDeadlocking) {
  // Campaign topology: a pool worker's task fans out on the SAME pool. The
  // nested call must degrade to an inline serial loop (a worker blocking in
  // wait_idle on its own pool would deadlock).
  ThreadPool pool{2};
  std::vector<std::atomic<int>> outer_hits(8);
  std::atomic<int> inner_total{0};
  pool.parallel_for(8, [&](std::size_t i) {
    outer_hits[i].fetch_add(1);
    pool.parallel_for_slots(50, [&](std::size_t slot, std::size_t) {
      EXPECT_EQ(slot, 0u);  // Inline nested execution pins slot 0.
      inner_total.fetch_add(1);
    });
  });
  for (const auto& h : outer_hits) {
    EXPECT_EQ(h.load(), 1);
  }
  EXPECT_EQ(inner_total.load(), 8 * 50);
}

TEST(ThreadPool, NestedCallOnADifferentPoolStillRunsParallel) {
  ThreadPool outer{2};
  ThreadPool inner{2};
  std::atomic<int> total{0};
  outer.parallel_for(4, [&](std::size_t) {
    inner.parallel_for_slots(25, [&](std::size_t, std::size_t) {
      total.fetch_add(1);
    });
  });
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPool, OrderIndependentReductionMatchesSerial) {
  // The campaign pattern: per-index slots written in parallel equal the
  // serial result exactly.
  ThreadPool pool{8};
  std::vector<double> parallel_out(500), serial_out(500);
  const auto work = [](std::size_t i) {
    double x = static_cast<double>(i);
    for (int k = 0; k < 50; ++k) x = x * 1.000001 + 0.5;
    return x;
  };
  pool.parallel_for(500, [&](std::size_t i) { parallel_out[i] = work(i); });
  for (std::size_t i = 0; i < 500; ++i) serial_out[i] = work(i);
  EXPECT_EQ(parallel_out, serial_out);
}

}  // namespace
}  // namespace lumen::util
