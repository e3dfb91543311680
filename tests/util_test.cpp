#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/util/arena.h"
#include "src/util/cli.h"
#include "src/util/env.h"
#include "src/util/lockdep.h"
#include "src/util/parallel.h"
#include "src/util/ppm.h"
#include "src/util/rng.h"
#include "src/util/serialize.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"

namespace blurnet::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.next_u64() != b.next_u64()) ++differing;
  }
  EXPECT_GT(differing, 12);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIndexUnbiasedCoverage) {
  Rng rng(9);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) counts[static_cast<std::size_t>(rng.uniform_index(5))]++;
  for (const int c : counts) EXPECT_NEAR(c, 1000, 150);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(17);
  Rng child = parent.fork();
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

TEST(Rng, UniformIndexZeroThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(Cli, ParsesFlagsAndDefaults) {
  CliParser cli;
  cli.add_flag("count", "3", "a count");
  cli.add_flag("name", "x", "a name");
  cli.add_flag("fast", "false", "boolean");
  const char* argv[] = {"prog", "--count=5", "--fast", "pos1"};
  cli.parse(4, argv);
  EXPECT_EQ(cli.get_int("count"), 5);
  EXPECT_EQ(cli.get_string("name"), "x");
  EXPECT_TRUE(cli.get_bool("fast"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, SpaceSeparatedValue) {
  CliParser cli;
  cli.add_flag("lr", "0.1", "learning rate");
  const char* argv[] = {"prog", "--lr", "0.5"};
  cli.parse(3, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("lr"), 0.5);
}

TEST(Cli, NoPrefixDisablesBool) {
  CliParser cli;
  cli.add_flag("verbose", "true", "verbosity");
  const char* argv[] = {"prog", "--no-verbose"};
  cli.parse(2, argv);
  EXPECT_FALSE(cli.get_bool("verbose"));
}

TEST(Cli, UnknownFlagThrows) {
  CliParser cli;
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW(cli.parse(2, argv), std::invalid_argument);
}

TEST(Table, RendersAlignedAndCsv) {
  Table table({"A", "Long header"});
  table.add_row({"x", "1"});
  table.add_row({"longer", "2"});
  const auto text = table.to_string();
  EXPECT_NE(text.find("| A "), std::string::npos);
  EXPECT_NE(text.find("longer"), std::string::npos);
  const auto csv = table.to_csv();
  EXPECT_EQ(csv, "A,Long header\nx,1\nlonger,2\n");
}

TEST(Table, PctAndNumFormat) {
  EXPECT_EQ(Table::pct(0.175), "17.5%");
  EXPECT_EQ(Table::pct(0.9, 0), "90%");
  EXPECT_EQ(Table::num(0.2071, 3), "0.207");
}

TEST(Table, RowWidthMismatchThrows) {
  Table table({"A", "B"});
  EXPECT_THROW(table.add_row({"only one"}), std::invalid_argument);
}

TEST(Serialize, RoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "blurnet_ser_test.bin";
  {
    BinaryWriter writer(path.string());
    writer.write_u32(42);
    writer.write_i64(-7);
    writer.write_f32(2.5f);
    writer.write_string("hello");
    const float data[] = {1.0f, 2.0f, 3.0f};
    writer.write_f32_array(data, 3);
    writer.close();
  }
  BinaryReader reader(path.string());
  EXPECT_EQ(reader.read_u32(), 42u);
  EXPECT_EQ(reader.read_i64(), -7);
  EXPECT_FLOAT_EQ(reader.read_f32(), 2.5f);
  EXPECT_EQ(reader.read_string(), "hello");
  const auto array = reader.read_f32_array();
  ASSERT_EQ(array.size(), 3u);
  EXPECT_FLOAT_EQ(array[2], 3.0f);
  EXPECT_TRUE(reader.at_end());
  std::filesystem::remove(path);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(BinaryReader("/nonexistent/path.bin"), std::runtime_error);
}

TEST(Ppm, QuantizeClampsAndRoundTrips) {
  const float data[] = {-0.5f, 0.0f, 0.5f, 1.5f};  // 1 channel, 2x2
  const auto image = quantize_chw(data, 1, 2, 2);
  EXPECT_EQ(image.pixels[0], 0);
  EXPECT_EQ(image.pixels[1], 0);
  EXPECT_EQ(image.pixels[2], 128);
  EXPECT_EQ(image.pixels[3], 255);

  const auto path = std::filesystem::temp_directory_path() / "blurnet_ppm_test.pgm";
  write_pnm(path.string(), image);
  const auto loaded = read_pnm(path.string());
  EXPECT_EQ(loaded.width, 2);
  EXPECT_EQ(loaded.height, 2);
  EXPECT_EQ(loaded.channels, 1);
  EXPECT_EQ(loaded.pixels, image.pixels);
  std::filesystem::remove(path);
}

TEST(Parallel, CoversRangeOnceSerialAndParallel) {
  for (const int workers : {1, 4}) {
    set_parallel_workers(workers);
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(1000, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
    }, /*min_chunk=*/16);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
  reset_parallel_workers();
}

// The work floor: chunk ranges are a pure function of (n, min_chunk, cost)
// and fn sees exactly those ranges at any worker count — one worker runs
// them inline in order, a pool in any order.
TEST(Parallel, ChunkRangesDependOnlyOnShapeAndCost) {
  struct Case {
    std::int64_t n, min_chunk, cost;
  };
  const Case cases[] = {
      {1000, 16, 0},                      // no cost: min_chunk items
      {1000, 1, 0},                       // no cost, one item per chunk
      {16, 1, 25600},                     // batch-1 blur planes: under one floor
      {128, 1, 25600},                    // batch-8 blur planes: 43, 43, 42
      {1024, 1, 25600},                   // batch-64 blur planes
      {64, 1, 1228800},                   // batch-64 conv1 images
      {7, 3, kWorkFloor},                 // one floor per item
      {5, 1, kWorkFloor * 4},             // items above the floor
      {100, 40, kWorkFloor / 100},        // min_chunk below the floor's chunk
  };
  for (const Case& c : cases) {
    // floor(n / least) chunks of equal size (the first n % chunks one item
    // longer), least = max(min_chunk, ceil(kWorkFloor / cost)).
    std::int64_t least = std::max<std::int64_t>(c.min_chunk, 1);
    if (c.cost > 0) least = std::max(least, (kWorkFloor + c.cost - 1) / c.cost);
    const std::int64_t chunks = std::max<std::int64_t>(1, c.n / least);
    std::vector<std::pair<std::int64_t, std::int64_t>> expected;
    for (std::int64_t k = 0, begin = 0; k < chunks; ++k) {
      const std::int64_t size = c.n / chunks + (k < c.n % chunks ? 1 : 0);
      if (chunks > 1) ASSERT_GE(size, least);
      expected.emplace_back(begin, begin + size);
      begin += size;
    }
    ASSERT_EQ(expected.back().second, c.n);
    for (const int workers : {1, 2, 4}) {
      set_parallel_workers(workers);
      std::mutex mutex;
      std::vector<std::pair<std::int64_t, std::int64_t>> seen;
      parallel_for(c.n, [&](std::int64_t lo, std::int64_t hi) {
        std::lock_guard<std::mutex> lock(mutex);
        seen.emplace_back(lo, hi);
      }, c.min_chunk, c.cost);
      std::sort(seen.begin(), seen.end());
      EXPECT_EQ(seen, expected) << "n=" << c.n << " min_chunk=" << c.min_chunk
                                << " cost=" << c.cost << " workers=" << workers;
    }
  }
  reset_parallel_workers();
}

TEST(Parallel, RangeUnderOneFloorDispatchesNoJob) {
  set_parallel_workers(4);
  auto& pool = ThreadPool::instance();
  pool.ensure_parallelism(4);
  std::atomic<std::int64_t> covered{0};
  const auto count = [&](std::int64_t lo, std::int64_t hi) { covered += hi - lo; };
  const std::int64_t before = pool.jobs_dispatched();
  parallel_for(16, count, /*min_chunk=*/1, /*cost=*/kWorkFloor / 16);
  EXPECT_EQ(pool.jobs_dispatched(), before);
  parallel_for(16, count, /*min_chunk=*/1, /*cost=*/kWorkFloor);
  EXPECT_EQ(pool.jobs_dispatched(), before + 1);
  EXPECT_EQ(covered.load(), 32);
  reset_parallel_workers();
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(0, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, SetWorkersRejectsNonPositive) {
  EXPECT_THROW(set_parallel_workers(0), std::invalid_argument);
  EXPECT_THROW(set_parallel_workers(-3), std::invalid_argument);
}

TEST(Parallel, NoArtificialWorkerCap) {
  // The seed clamped the worker count to 8; large overrides must stick.
  set_parallel_workers(33);
  EXPECT_EQ(parallel_workers(), 33);
  reset_parallel_workers();
}

TEST(Parallel, WorkerCountFromEnvironment) {
  // The env value is cached; reset_parallel_workers() re-reads it.
  ::setenv("BLURNET_WORKERS", "12", 1);
  reset_parallel_workers();
  EXPECT_EQ(parallel_workers(), 12);
  ::unsetenv("BLURNET_WORKERS");
  reset_parallel_workers();
  EXPECT_GE(parallel_workers(), 1);
}

TEST(Parallel, OverrideBeatsEnvironment) {
  ::setenv("BLURNET_WORKERS", "12", 1);
  set_parallel_workers(2);
  EXPECT_EQ(parallel_workers(), 2);
  ::unsetenv("BLURNET_WORKERS");
  reset_parallel_workers();
}

TEST(ThreadPoolTest, RunsEveryChunkExactlyOnce) {
  ThreadPool::instance().ensure_parallelism(4);
  std::vector<std::atomic<int>> hits(64);
  ThreadPool::instance().run(64, [&](std::int64_t chunk) {
    hits[static_cast<std::size_t>(chunk)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, NestedRunFallsBackToInline) {
  ThreadPool::instance().ensure_parallelism(4);
  std::atomic<int> total{0};
  ThreadPool::instance().run(4, [&](std::int64_t) {
    // A nested region must execute inline on this thread, not deadlock.
    ThreadPool::instance().run(8, [&](std::int64_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPoolTest, PropagatesFirstException) {
  ThreadPool::instance().ensure_parallelism(4);
  EXPECT_THROW(ThreadPool::instance().run(16, [&](std::int64_t chunk) {
    if (chunk == 3) throw std::runtime_error("boom");
  }), std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<int> total{0};
  ThreadPool::instance().run(8, [&](std::int64_t) { ++total; });
  EXPECT_EQ(total.load(), 8);
}

TEST(ThreadPoolTest, ResizeKeepsWorking) {
  auto& pool = ThreadPool::instance();
  for (const int parallelism : {1, 2, 6, 3}) {
    pool.ensure_parallelism(parallelism);
    EXPECT_EQ(pool.parallelism(), parallelism);
    std::atomic<int> total{0};
    pool.run(32, [&](std::int64_t) { ++total; });
    EXPECT_EQ(total.load(), 32);
  }
}

TEST(ThreadPoolTest, ConcurrentProducersAllComplete) {
  ThreadPool::instance().ensure_parallelism(4);
  std::vector<std::thread> producers;
  std::atomic<int> total{0};
  for (int t = 0; t < 6; ++t) {
    producers.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        parallel_for(512, [&](std::int64_t lo, std::int64_t hi) {
          total += static_cast<int>(hi - lo);
        }, /*min_chunk=*/16);
      }
    });
  }
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(total.load(), 6 * 20 * 512);
}

TEST(Env, FlagParsing) {
  ::setenv("BLURNET_TEST_FLAG", "1", 1);
  EXPECT_TRUE(env_flag("BLURNET_TEST_FLAG"));
  ::setenv("BLURNET_TEST_FLAG", "off", 1);
  EXPECT_FALSE(env_flag("BLURNET_TEST_FLAG"));
  ::unsetenv("BLURNET_TEST_FLAG");
  EXPECT_FALSE(env_flag("BLURNET_TEST_FLAG"));
  EXPECT_EQ(env_int("BLURNET_TEST_FLAG", 9), 9);
}

TEST(Arena, RespectsAlignment) {
  Arena arena(1024);
  for (const std::size_t align : {std::size_t(8), std::size_t(16), std::size_t(64),
                                  std::size_t(128)}) {
    for (const std::size_t bytes : {std::size_t(1), std::size_t(7), std::size_t(100)}) {
      void* p = arena.allocate(bytes, align);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
          << bytes << " bytes at alignment " << align;
    }
  }
}

TEST(Arena, ResetReplaysIdenticalPointersWithoutHeapTraffic) {
  Arena arena;
  std::vector<void*> first;
  for (int i = 0; i < 32; ++i) first.push_back(arena.allocate(1000, 64));
  const std::size_t blocks = arena.block_count();
  const std::int64_t heap_before = scratch_heap_allocations();
  for (int round = 0; round < 5; ++round) {
    arena.reset();
    // The first-fit walk replays the same sequence onto the same addresses —
    // the property the bitwise-determinism contract of the serving path
    // leans on — and a warmed arena never touches the heap again.
    for (int i = 0; i < 32; ++i) {
      EXPECT_EQ(arena.allocate(1000, 64), first[static_cast<std::size_t>(i)])
          << "round " << round << " allocation " << i;
    }
  }
  EXPECT_EQ(arena.block_count(), blocks);
  EXPECT_EQ(scratch_heap_allocations(), heap_before);
}

TEST(Arena, OversizedRequestGetsDedicatedBlock) {
  Arena arena(1024);  // block size far below the request
  void* big = arena.allocate(1 << 16, 64);
  ASSERT_NE(big, nullptr);
  EXPECT_GE(arena.capacity(), std::size_t(1) << 16);
  // The oversized block joins the chain and is reused after reset.
  arena.reset();
  EXPECT_EQ(arena.allocate(1 << 16, 64), big);
}

TEST(Arena, MarkRewindReleasesOnlyInnerAllocations) {
  Arena arena(512);
  void* outer = arena.allocate(100, 16);
  const Arena::Mark mark = arena.mark();
  const std::size_t used_at_mark = arena.used();
  void* inner1 = arena.allocate(200, 16);
  EXPECT_NE(inner1, outer);
  arena.rewind(mark);
  EXPECT_EQ(arena.used(), used_at_mark);
  // Inner memory is reusable, outer memory untouched.
  EXPECT_EQ(arena.allocate(200, 16), inner1);
}

TEST(ArenaScope, BindsAndRestoresThreadLocalArena) {
  EXPECT_EQ(current_arena(), nullptr);
  Arena outer_arena, inner_arena;
  {
    ArenaScope outer(outer_arena);
    EXPECT_EQ(current_arena(), &outer_arena);
    {
      ArenaScope inner(inner_arena);
      EXPECT_EQ(current_arena(), &inner_arena);
    }
    EXPECT_EQ(current_arena(), &outer_arena);
  }
  EXPECT_EQ(current_arena(), nullptr);
}

TEST(ArenaScope, ScopeExitRewindsItsOwnFrame) {
  Arena arena;
  ArenaScope outer_frame(arena);
  void* outer = scratch_alloc(64);
  const std::size_t used_before = arena.used();
  {
    ArenaScope inner_frame(arena);
    scratch_alloc(4096);
    EXPECT_GT(arena.used(), used_before);
  }
  EXPECT_EQ(arena.used(), used_before);  // inner frame fully reclaimed
  scratch_free(outer);                   // no-op for arena memory
  EXPECT_EQ(arena.used(), used_before);  // ...so usage is unchanged
}

TEST(ScratchAlloc, HeapFallbackIsCountedArenaPathIsNot) {
  // Unbound: every scratch_alloc is a counted heap allocation.
  const std::int64_t before = scratch_heap_allocations();
  void* heap_block = scratch_alloc(128);
  EXPECT_EQ(scratch_heap_allocations(), before + 1);
  scratch_free(heap_block);

  Arena arena;
  {
    ArenaScope scope(arena);
    scratch_alloc(128);  // warms the arena: one counted block growth
  }
  const std::int64_t warmed = scratch_heap_allocations();
  {
    ArenaScope scope(arena);
    for (int i = 0; i < 100; ++i) scratch_free(scratch_alloc(128));
  }
  // A warmed arena serves any number of scratch blocks heap-free.
  EXPECT_EQ(scratch_heap_allocations(), warmed);
}

#if BLURNET_LOCKDEP

// Handlers are plain function pointers, so captured reports go through a
// file-scope slot. Tests run single-threaded through these helpers.
std::vector<LockdepReport>& captured_reports() {
  static std::vector<LockdepReport> reports;
  return reports;
}

void capture_report(const LockdepReport& report) {
  captured_reports().push_back(report);
}

class LockdepCapture {
 public:
  LockdepCapture() : previous_(lockdep_set_handler(&capture_report)) {
    captured_reports().clear();
    lockdep_reset_edges();
  }
  ~LockdepCapture() {
    lockdep_set_handler(previous_);
    captured_reports().clear();
    lockdep_reset_edges();
  }

 private:
  LockdepHandler previous_;
};

TEST(Lockdep, SeededInversionIsDetectedWithBothStacks) {
  LockdepCapture capture;
  DebugMutex a BLURNET_LOCK_CLASS("lockdep_test::A");
  DebugMutex b BLURNET_LOCK_CLASS("lockdep_test::B");

  // Establish A -> B ...
  a.lock();
  b.lock();
  b.unlock();
  a.unlock();
  ASSERT_TRUE(captured_reports().empty());

  // ... then take them in the reverse order: the cycle is reported on the
  // spot even though no thread is deadlocked.
  b.lock();
  a.lock();
  a.unlock();
  b.unlock();

  ASSERT_EQ(captured_reports().size(), 1u);
  const LockdepReport& report = captured_reports().front();
  EXPECT_EQ(report.kind, "order-inversion");
  EXPECT_EQ(report.acquiring, "lockdep_test::A");
  EXPECT_EQ(report.held, "lockdep_test::B");
  // Both acquisition sites: the stack closing the cycle now, and the stack
  // recorded when the reverse edge was first taken.
  EXPECT_FALSE(report.current_stack.empty());
  EXPECT_FALSE(report.prior_stack.empty());
  EXPECT_NE(report.message.find("lockdep_test::A"), std::string::npos);
  EXPECT_NE(report.message.find("lockdep_test::B"), std::string::npos);
}

TEST(Lockdep, ConsistentHierarchyStaysQuiet) {
  LockdepCapture capture;
  DebugMutex outer BLURNET_LOCK_CLASS("lockdep_test::outer");
  DebugMutex inner BLURNET_LOCK_CLASS("lockdep_test::inner");

  auto take_in_order = [&] {
    for (int i = 0; i < 10; ++i) {
      std::lock_guard<DebugMutex> g_outer(outer);
      std::lock_guard<DebugMutex> g_inner(inner);
    }
  };
  take_in_order();
  std::thread other(take_in_order);
  other.join();

  EXPECT_TRUE(captured_reports().empty());
  // The whole exercise records exactly one class edge: outer -> inner.
  EXPECT_EQ(lockdep_edge_count(), 1u);
}

TEST(Lockdep, SameClassNestingIsARecursionHazard) {
  LockdepCapture capture;
  // Two *instances* of one class: there is no defined order between them, so
  // nesting them is reported even before any reverse path exists.
  DebugMutex first BLURNET_LOCK_CLASS("lockdep_test::peer");
  DebugMutex second BLURNET_LOCK_CLASS("lockdep_test::peer");

  first.lock();
  second.lock();
  second.unlock();
  first.unlock();

  ASSERT_EQ(captured_reports().size(), 1u);
  EXPECT_EQ(captured_reports().front().kind, "recursive-acquisition");
}

TEST(Lockdep, TryLockRecordsNoEdges) {
  LockdepCapture capture;
  DebugMutex a BLURNET_LOCK_CLASS("lockdep_test::try_a");
  DebugMutex b BLURNET_LOCK_CLASS("lockdep_test::try_b");

  a.lock();
  ASSERT_TRUE(b.try_lock());  // non-blocking: can never be the blocked edge
  b.unlock();
  a.unlock();
  EXPECT_EQ(lockdep_edge_count(), 0u);

  // The reverse blocking order is therefore legal afterwards.
  b.lock();
  a.lock();
  a.unlock();
  b.unlock();
  EXPECT_TRUE(captured_reports().empty());
}

// Regression (found by the ASan+UBSan CI job): exit() destroys thread_locals
// BEFORE static objects, and static objects lock DebugMutexes while tearing
// down — the global ThreadPool's stop_workers() does exactly that. When the
// lockdep held set was a thread_local std::vector, that late lock() pushed
// into a freed vector (heap-use-after-free after every suite had already
// printed PASSED). The held set is now trivially destructible, so locking
// after TLS teardown is safe; this static object re-creates the crash shape
// at every util_test exit and ASan arbitrates.
struct LocksDuringStaticDestruction {
  DebugMutex mutex;
  ~LocksDuringStaticDestruction() {
    mutex.lock();
    mutex.unlock();
  }
};

TEST(Lockdep, LockingDuringStaticDestructionIsSafe) {
  static LocksDuringStaticDestruction late_locker;
  // Touch it under a held lock too, so the held set is exercised both now
  // and in the destructor after this thread's TLS is gone.
  late_locker.mutex.lock();
  late_locker.mutex.unlock();
}

#else  // !BLURNET_LOCKDEP

TEST(Lockdep, ReleaseAliasIsPlainStdMutex) {
  // In Release the checker must vanish entirely: DebugMutex IS std::mutex
  // (an alias, not a wrapper), so it costs nothing and cannot diverge in
  // layout or semantics.
  static_assert(std::is_same_v<DebugMutex, std::mutex>);
  static_assert(std::is_same_v<DebugConditionVariable, std::condition_variable>);
  EXPECT_EQ(sizeof(DebugMutex), sizeof(std::mutex));
}

#endif  // BLURNET_LOCKDEP

}  // namespace
}  // namespace blurnet::util
