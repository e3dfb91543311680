#include "src/util/thread_pool.h"

#include <stdexcept>

#include "src/util/parallel.h"

namespace blurnet::util {

namespace {
thread_local bool t_on_worker_thread = false;
// True while this thread is the producer inside run(). Guards the nested-run
// inline fallback: try_lock on a mutex the thread already owns is UB, so the
// re-entrancy check must not rely on run_mutex_.
thread_local bool t_in_run = false;
}  // namespace

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool(parallel_workers());
  return pool;
}

ThreadPool::ThreadPool(int parallelism) {
  parallelism_.store(parallelism < 1 ? 1 : parallelism);
  spawn_workers(parallelism_.load() - 1);
}

ThreadPool::~ThreadPool() { stop_workers(); }

bool ThreadPool::on_worker_thread() { return t_on_worker_thread; }

void ThreadPool::spawn_workers(int count) {
  workers_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ThreadPool::stop_workers() {
  {
    std::lock_guard<DebugMutex> lock(mutex_);
    stop_ = true;
  }
  job_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  std::lock_guard<DebugMutex> lock(mutex_);
  stop_ = false;
}

void ThreadPool::ensure_parallelism(int parallelism) {
  if (parallelism < 1) {
    throw std::invalid_argument("ThreadPool: parallelism must be positive");
  }
  if (parallelism_.load(std::memory_order_relaxed) == parallelism) return;
  // A nested region runs inline anyway; resizing from inside a job on this
  // thread would self-deadlock on run_mutex_.
  if (t_in_run || t_on_worker_thread) return;
  // Wait out any in-flight job, and keep new producers inline while resizing.
  std::lock_guard<DebugMutex> busy(run_mutex_);
  if (parallelism_.load(std::memory_order_relaxed) == parallelism) return;
  stop_workers();
  parallelism_.store(parallelism);
  spawn_workers(parallelism - 1);
}

void ThreadPool::record_error() noexcept {
  std::lock_guard<DebugMutex> lock(mutex_);
  if (!job_error_) job_error_ = std::current_exception();
}

void ThreadPool::worker_loop() {
  t_on_worker_thread = true;
  std::uint64_t seen_generation = 0;
  std::unique_lock<DebugMutex> lock(mutex_);
  for (;;) {
    job_cv_.wait(lock, [&] {
      return stop_ || (job_generation_ != seen_generation && job_fn_ != nullptr);
    });
    if (stop_) return;
    seen_generation = job_generation_;
    const auto* fn = job_fn_;
    const std::int64_t chunks = job_chunks_;
    ++active_workers_;
    lock.unlock();

    std::int64_t chunk;
    while ((chunk = next_chunk_.fetch_add(1, std::memory_order_relaxed)) < chunks) {
      try {
        (*fn)(chunk);
      } catch (...) {
        record_error();
        break;
      }
    }

    lock.lock();
    if (--active_workers_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::run(std::int64_t chunks, const std::function<void(std::int64_t)>& fn) {
  if (chunks <= 0) return;
  if (t_in_run || t_on_worker_thread) {
    // Nested parallel region (from the producer or a worker): inline.
    for (std::int64_t chunk = 0; chunk < chunks; ++chunk) fn(chunk);
    return;
  }
  std::unique_lock<DebugMutex> busy(run_mutex_, std::try_to_lock);
  if (!busy.owns_lock() || workers_.empty()) {
    // Pool busy with a concurrent region, or no background workers: run
    // everything on the calling thread.
    for (std::int64_t chunk = 0; chunk < chunks; ++chunk) fn(chunk);
    return;
  }
  struct InRunScope {
    InRunScope() { t_in_run = true; }
    ~InRunScope() { t_in_run = false; }
  } in_run_scope;
  jobs_dispatched_.fetch_add(1, std::memory_order_relaxed);

  {
    std::lock_guard<DebugMutex> lock(mutex_);
    job_fn_ = &fn;
    job_chunks_ = chunks;
    next_chunk_.store(0, std::memory_order_relaxed);
    job_error_ = nullptr;
    ++job_generation_;
  }
  // Wake only as many workers as there are chunks beyond the producer's
  // share: notify_all on a wide machine would stampede every idle worker
  // through the mutex for a job most of them would find already drained.
  const std::size_t to_wake =
      std::min<std::size_t>(workers_.size(), static_cast<std::size_t>(chunks - 1));
  if (to_wake == workers_.size()) {
    job_cv_.notify_all();
  } else {
    for (std::size_t i = 0; i < to_wake; ++i) job_cv_.notify_one();
  }

  // The producer works too — on small jobs it may drain every chunk before a
  // worker even wakes up, which is exactly the cheap path we want.
  std::int64_t chunk;
  while ((chunk = next_chunk_.fetch_add(1, std::memory_order_relaxed)) < chunks) {
    try {
      fn(chunk);
    } catch (...) {
      record_error();
      break;
    }
  }

  std::unique_lock<DebugMutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return active_workers_ == 0; });
  job_fn_ = nullptr;  // late-waking workers see null and go back to sleep
  if (job_error_) {
    std::exception_ptr error = job_error_;
    job_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

}  // namespace blurnet::util
