#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <memory>

namespace lumen::util {

namespace {
/// The pool whose worker_loop is running on this thread (nullptr on
/// non-worker threads) — how parallel_for detects nested invocation.
thread_local const ThreadPool* t_worker_of = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  std::size_t n = threads;
  if (n == 0) n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::worker_loop() {
  t_worker_of = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body,
                              std::size_t grain) {
  parallel_for_slots(
      count, [&body](std::size_t, std::size_t i) { body(i); }, grain);
}

void ThreadPool::parallel_for_slots(
    std::size_t count, const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t grain) {
  if (count == 0) return;
  if (grain == 0) grain = 1;
  if (t_worker_of == this) {
    // Nested region on one of our own workers: run inline (see header).
    for (std::size_t i = 0; i < count; ++i) body(0, i);
    return;
  }
  // Per-invocation completion/error state. Errors stay with THIS caller —
  // two concurrent parallel_for regions on the same pool can never observe
  // each other's exceptions; a task never throws, because its chunk loop
  // catches every invocation. The first exception wins; the cancel flag
  // stops the remaining chunk loops from claiming more work, so a throwing
  // campaign shard fails fast instead of burning the whole index space.
  struct ForState {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> cancelled{false};
    std::mutex mutex;
    std::condition_variable done;
    std::size_t pending = 0;
    std::exception_ptr error;
  };
  auto state = std::make_shared<ForState>();
  const std::size_t tasks = std::min(workers_.size(), (count + grain - 1) / grain);
  state->pending = tasks;
  for (std::size_t t = 0; t < tasks; ++t) {
    submit([state, count, grain, &body, t] {
      while (!state->cancelled.load(std::memory_order_relaxed)) {
        const std::size_t begin = state->next.fetch_add(grain);
        if (begin >= count) break;
        const std::size_t end = std::min(begin + grain, count);
        try {
          for (std::size_t i = begin; i < end; ++i) body(t, i);
        } catch (...) {
          std::lock_guard lock(state->mutex);
          if (!state->error) state->error = std::current_exception();
          state->cancelled.store(true, std::memory_order_relaxed);
          break;
        }
      }
      std::lock_guard lock(state->mutex);
      if (--state->pending == 0) state->done.notify_all();
    });
  }
  std::unique_lock lock(state->mutex);
  state->done.wait(lock, [&] { return state->pending == 0; });
  if (state->error) std::rethrow_exception(state->error);
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace lumen::util
