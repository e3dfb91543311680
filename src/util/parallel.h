// Data-parallel helper used by the convolution / attack kernels.
//
// parallel_for splits [0, n) into contiguous chunks and executes them on the
// persistent process-wide ThreadPool (src/util/thread_pool.h). The work
// function must be safe to run concurrently on disjoint index ranges.
//
// Work floor: every call states its per-item cost (estimated MACs, taps or
// element ops), and a chunk holds at least kWorkFloor of work:
//
//   least  = max(min_chunk, ceil(kWorkFloor / cost))
//   chunks = max(1, floor(n / least))
//
// and [0, n) is split into `chunks` equal ranges (sizes differ by at most
// one item), so no short tail chunk holds a region open: 128 blur planes of
// 25.6k taps run as 43, 43, 42 rather than 41, 41, 41, 5. A range of fewer
// than 2 * least items is a single chunk and runs inline on the caller,
// without waking a worker: a pool hand-off costs microseconds of CPU on both
// sides, which a small range (a batch-1 layer, a tiny GEMM block) cannot win
// back. Chunk boundaries depend only on
// (n, min_chunk, cost), never on the worker count, and fn sees the same
// ranges whether they run on the pool or inline (one worker, a nested
// region, a busy pool), so results are reproducible under any parallelism.
#pragma once

#include <cstdint>
#include <functional>

namespace blurnet::util {

/// Least work, in parallel_for cost units, one chunk carries. One unit is
/// roughly one packed-GEMM MAC. Calibration (Release, 4-core AVX2 Xeon):
/// BM_ParallelForDispatch/4 costs ~4 us wall and ~7 us of process CPU per
/// region, and the GEMM microkernel runs ~25 GMAC/s on one core, so a
/// 2^20-unit chunk (~40 us of GEMM) keeps a hand-off at about a sixth of
/// the work it buys or less. The floor also keeps every region of a
/// paper-size batch-1 forward inline; the largest, conv3's first GEMM
/// k-block, is exactly one floor.
inline constexpr std::int64_t kWorkFloor = std::int64_t{1} << 20;

/// Number of worker lanes used by parallel_for. Resolution order: the
/// set_parallel_workers override, then the BLURNET_WORKERS environment
/// variable (read once at first use and cached), then
/// std::thread::hardware_concurrency() (uncapped).
int parallel_workers();

/// Override the worker count. Throws std::invalid_argument when workers is
/// not positive; use reset_parallel_workers() to restore the default.
void set_parallel_workers(int workers);

/// Drop any override and return to the environment/hardware default. Also
/// re-reads BLURNET_WORKERS, so call this after changing it at runtime.
void reset_parallel_workers();

/// Invoke fn(begin, end) once per chunk of [0, n): floor(n / least) equal
/// chunks (at least one), least = max(min_chunk, ceil(kWorkFloor / cost)).
/// `cost` is the estimated work of one item; code in src must state it
/// (tools/lint.py `parallel-cost`). cost == 0 applies no floor: least is
/// min_chunk.
void parallel_for(std::int64_t n,
                  const std::function<void(std::int64_t, std::int64_t)>& fn,
                  std::int64_t min_chunk = 256, std::int64_t cost = 0);

}  // namespace blurnet::util
