// lumen_util: fixed-size worker pool with a blocking parallel_for.
//
// Campaign sweeps (thousands of independent simulations) are embarrassingly
// parallel; ThreadPool::parallel_for partitions the index space dynamically
// (atomic chunk grabbing) so uneven run lengths balance automatically.
// Exceptions thrown by a loop body are captured and rethrown on the caller
// thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lumen::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Runs body(i) for i in [0, count), distributing dynamically across the
  /// pool and blocking until done. `grain` indices are claimed at a time.
  /// Rethrows the first exception thrown by any invocation; the remaining
  /// chunks are cancelled (indices not yet claimed may never run). Errors
  /// are per-invocation: concurrent parallel regions on the same pool never
  /// observe each other's exceptions, and the pool stays usable after.
  ///
  /// Reentrant: called from one of this pool's own worker threads (a nested
  /// parallel region), the loop runs inline on that worker instead of
  /// enqueuing — queueing and then blocking on the region from inside a
  /// task would deadlock the pool. Nesting therefore serializes, which is
  /// exactly the right degradation: the outer region already owns all the
  /// workers.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                    std::size_t grain = 1);

  /// As parallel_for, but hands the body a stable slot id in
  /// [0, slot_count()) alongside the index. Two invocations with the same
  /// slot never run concurrently, so slot-indexed scratch buffers need no
  /// synchronization. Nested (inline) execution uses slot 0.
  void parallel_for_slots(
      std::size_t count,
      const std::function<void(std::size_t, std::size_t)>& body,
      std::size_t grain = 1);

  /// Upper bound (exclusive) on the slot ids parallel_for_slots passes.
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return workers_.empty() ? 1 : workers_.size();
  }

 private:
  /// Enqueues a task; parallel_for_slots' chunk loops are the only tasks.
  void submit(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  bool stopping_ = false;
};

/// Shared process-wide pool sized to the machine; lazily constructed.
ThreadPool& global_pool();

}  // namespace lumen::util
