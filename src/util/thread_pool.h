// Persistent work-sharing thread pool behind parallel_for.
//
// The seed runtime spawned and joined fresh std::threads on every
// parallel_for call, which dominates the cost of the many small parallel
// regions the filter/convolution kernels issue per inference. This pool keeps
// one set of workers alive for the lifetime of the process and hands them
// chunk indices through an atomic counter, so a parallel region costs a
// wakeup instead of thread creation.
//
// Concurrency model: one job runs at a time. The thread that calls run()
// participates in the job, so a pool with parallelism P uses P-1 background
// workers. When the pool is busy (a concurrent or nested parallel region) the
// caller simply runs every chunk inline — the pool never blocks a second
// producer and nested parallel_for calls cannot deadlock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/lockdep.h"

namespace blurnet::util {

class ThreadPool {
 public:
  /// Process-wide pool, created on first use with parallel_workers() lanes.
  static ThreadPool& instance();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  /// Total parallelism (background workers + the calling thread).
  int parallelism() const { return parallelism_.load(std::memory_order_relaxed); }

  /// Retarget the pool to `parallelism` lanes (>= 1), joining or spawning
  /// workers as needed. Blocks until any in-flight job finishes. No-op when
  /// the pool already has that many lanes.
  void ensure_parallelism(int parallelism);

  /// Run fn(chunk) for every chunk in [0, chunks). The caller participates;
  /// the call returns once every chunk has executed. The first exception
  /// thrown by fn is rethrown here (remaining chunks may be skipped).
  void run(std::int64_t chunks, const std::function<void(std::int64_t)>& fn);

  /// True when the current thread is one of the pool's background workers.
  static bool on_worker_thread();

  /// Jobs handed to background workers since the pool was created. run()
  /// calls that execute inline (nested, concurrent, or no workers) do not
  /// count. A read-only probe for tests of the parallel_for work floor.
  std::int64_t jobs_dispatched() const {
    return jobs_dispatched_.load(std::memory_order_relaxed);
  }

 private:
  explicit ThreadPool(int parallelism);

  void spawn_workers(int count);
  void stop_workers();
  void worker_loop();
  void record_error() noexcept;

  // Lock hierarchy: run_mutex_ (producer serialization) above mutex_ (job
  // state) — ensure_parallelism() and run() both take run first.
  // Guards job state and worker lifecycle; never held while running fn.
  DebugMutex mutex_ BLURNET_LOCK_CLASS("util::ThreadPool::state");
  DebugConditionVariable job_cv_;   // workers: new job available / stop
  DebugConditionVariable done_cv_;  // producer: all arrived workers finished
  std::vector<std::thread> workers_;
  std::atomic<int> parallelism_{1};

  // Current job. job_fn_ is only non-null between post and completion, and is
  // always read under mutex_, so a late-waking worker can never touch a
  // function object whose run() call already returned.
  std::uint64_t job_generation_ = 0;
  const std::function<void(std::int64_t)>* job_fn_ = nullptr;
  std::int64_t job_chunks_ = 0;
  std::atomic<std::int64_t> next_chunk_{0};
  std::int64_t active_workers_ = 0;
  std::exception_ptr job_error_;
  bool stop_ = false;
  std::atomic<std::int64_t> jobs_dispatched_{0};

  // Serializes producers: run() try-locks this and falls back to inline
  // execution when another parallel region is already using the workers.
  DebugMutex run_mutex_ BLURNET_LOCK_CLASS("util::ThreadPool::run");
};

}  // namespace blurnet::util
