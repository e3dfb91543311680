#include "src/util/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "src/util/thread_pool.h"

namespace blurnet::util {

namespace {
std::atomic<int> g_workers{0};
// BLURNET_WORKERS, read once at first use and cached: getenv on the dispatch
// hot path would both cost a linear environ scan per parallel region and race
// (UB) against any concurrent setenv. -1 = not read yet; 0 = unset/invalid.
std::atomic<int> g_env_workers{-1};

int read_env_workers() {
  if (const char* raw = std::getenv("BLURNET_WORKERS")) {
    const int value = std::atoi(raw);
    if (value > 0) return value;
  }
  return 0;
}
}  // namespace

int parallel_workers() {
  const int override_count = g_workers.load(std::memory_order_relaxed);
  if (override_count > 0) return override_count;
  int from_env = g_env_workers.load(std::memory_order_relaxed);
  if (from_env < 0) {
    from_env = read_env_workers();
    g_env_workers.store(from_env, std::memory_order_relaxed);
  }
  if (from_env > 0) return from_env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void set_parallel_workers(int workers) {
  if (workers <= 0) {
    throw std::invalid_argument("set_parallel_workers: workers must be positive");
  }
  g_workers.store(workers);
}

void reset_parallel_workers() {
  g_workers.store(0);
  // Re-read the environment so tests (and long-lived processes) can refresh
  // the cached BLURNET_WORKERS value at a safe point.
  g_env_workers.store(read_env_workers(), std::memory_order_relaxed);
}

void parallel_for(std::int64_t n,
                  const std::function<void(std::int64_t, std::int64_t)>& fn,
                  std::int64_t min_chunk, std::int64_t cost) {
  if (n <= 0) return;
  std::int64_t least = std::max<std::int64_t>(min_chunk, 1);
  if (cost > 0) least = std::max(least, (kWorkFloor + cost - 1) / cost);
  const std::int64_t chunks = std::max<std::int64_t>(1, n / least);
  if (chunks <= 1) {
    fn(0, n);
    return;
  }
  // Equal split: the first n % chunks chunks take one extra item, and every
  // chunk holds at least n / chunks >= least items.
  const std::int64_t base = n / chunks, extra = n % chunks;
  const auto run_chunk = [&](std::int64_t c) {
    const std::int64_t begin = c * base + std::min(c, extra);
    fn(begin, begin + base + (c < extra ? 1 : 0));
  };
  const int workers = parallel_workers();
  if (workers <= 1 || ThreadPool::on_worker_thread()) {
    for (std::int64_t c = 0; c < chunks; ++c) run_chunk(c);
    return;
  }
  auto& pool = ThreadPool::instance();
  pool.ensure_parallelism(workers);
  pool.run(chunks, run_chunk);
}

}  // namespace blurnet::util
