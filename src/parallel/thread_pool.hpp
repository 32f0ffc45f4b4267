// Deterministic fixed-size thread pool and data-parallel helpers.
//
// The tuner's hot loops (multistart L-BFGS fit starts, differential-
// evolution population evaluation, per-source GP fits, Saltelli-matrix
// predictions) are embarrassingly parallel: every unit of work is a pure
// function of its index. This module runs such loops across a fixed set of
// worker threads while keeping results BITWISE IDENTICAL to a serial run:
//
//   - every parallel unit writes only to its own index's slot;
//   - reductions happen on the calling thread in fixed index order;
//   - any randomness is drawn from a pre-split, index-keyed RNG stream
//     (rng::Rng::split), never from a shared sequential generator.
//
// There is deliberately no work stealing and no task dependency graph: a
// simple shared-counter loop is deterministic-by-construction and is all the
// tuner needs. Nested parallel_for calls (e.g. an LCM likelihood evaluated
// inside a parallel multistart) run inline on the worker thread, so nesting
// can never deadlock.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace gptc::parallel {

/// Fixed set of worker threads consuming a shared FIFO task queue. Tasks
/// queued before destruction are drained; the destructor joins all workers.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers. A pool of size 0 is legal and makes every
  /// parallel_for/parallel_map run serially on the calling thread.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// True when called from one of *any* pool's worker threads. Used to run
  /// nested parallel loops inline instead of re-entering the queue (which
  /// could deadlock: the outer tasks occupy every worker).
  static bool on_worker_thread();

  /// Low-level: pushes a type-erased task onto the queue (parallel_for's
  /// building block; prefer parallel_for).
  void enqueue(std::function<void()> task);

 private:
  void worker_loop() noexcept;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;  // guarded_by: mutex_
  bool stop_ = false;                        // guarded_by: mutex_
  // guard-ok: written by the constructor and destructor only
  std::vector<std::thread> workers_;
};

/// Runs body(0) .. body(n-1), each exactly once, across the pool's workers.
/// Blocks until all iterations finish. Iterations must be independent (no
/// iteration may read state another writes). Serial fallback — identical
/// code path, identical results — when `pool` is null, has no workers, n<=1,
/// or the caller is itself a pool worker (nested loop).
///
/// If iterations throw, the exception with the lowest iteration index among
/// those that ran is rethrown on the calling thread and remaining iterations
/// are abandoned.
void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

inline void parallel_for(const std::shared_ptr<ThreadPool>& pool,
                         std::size_t n,
                         const std::function<void(std::size_t)>& body) {
  parallel_for(pool.get(), n, body);
}

/// parallel_for that collects fn(i) into a vector, in index order. The
/// result type must be default-constructible.
template <typename F>
auto parallel_map(ThreadPool* pool, std::size_t n, F&& fn)
    -> std::vector<std::decay_t<std::invoke_result_t<F&, std::size_t>>> {
  std::vector<std::decay_t<std::invoke_result_t<F&, std::size_t>>> out(n);
  parallel_for(pool, n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

template <typename F>
auto parallel_map(const std::shared_ptr<ThreadPool>& pool, std::size_t n,
                  F&& fn) {
  return parallel_map(pool.get(), n, std::forward<F>(fn));
}

}  // namespace gptc::parallel
