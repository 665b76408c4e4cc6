// Fixed-size thread pool with ParallelFor/ParallelMap helpers.
//
// The Monte-Carlo grid search, bootstrap replication, and dynamic bucket
// split scans are embarrassingly parallel: many independent evaluations whose
// results are written to disjoint slots. This pool serves exactly that shape:
//
//  * `num_threads` is the TOTAL parallelism, caller included — the pool
//    spawns num_threads−1 workers and the calling thread participates in
//    every ParallelFor, so ThreadPool(1) runs fully inline with no threads
//    (the debugging / determinism-check configuration).
//  * ParallelFor(b, e, fn) runs fn(i) for i in [b, e) with dynamic index
//    claiming, blocks until every claimed index finished, and rethrows the
//    first exception fn threw. Remaining indices are abandoned after an
//    exception (like a serial loop that threw).
//  * Nested ParallelFor on the SAME pool runs inline on the worker thread —
//    no deadlock, no oversubscription. Nested use across different pools is
//    allowed.
//  * Determinism contract: ParallelFor imposes no ordering, so callers that
//    need run-to-run stable results must give each index its own
//    pre-derived state (e.g. one Rng::Split() stream per index) and write
//    only to slot i. Every parallel call site in uuq follows this rule, so
//    results are bit-identical for ANY thread count, including 1.
//
// The process-wide default pool is sized by the UUQ_THREADS environment
// variable when set (UUQ_THREADS=1 forces serial execution everywhere), else
// by std::thread::hardware_concurrency().
//
// POOL SHARING ACROSS CONCURRENT QUERIES (the serving layer's scheme).
// Engines written against this pool assume they own ALL of it — a
// ParallelFor fans out to every worker plus the caller. When W serving
// workers each drive engines on the shared Default() pool, total live
// parallelism is W callers + (num_threads − 1) workers, i.e. the box is
// oversubscribed by almost a factor of two (and worse once W grows). The
// serving layer therefore multiplexes by BOUNDED PER-QUERY SLICES instead:
// it clamps its worker count to DefaultNumThreads() and gives each worker a
// PRIVATE slice pool, sizing the slices so they sum to exactly
// DefaultNumThreads() (each serving worker is its slice's caller-
// participant, so a slice of size k contributes exactly k live threads).
// Whatever the configured worker count, total live engine parallelism never
// exceeds DefaultNumThreads(). Slice sizing only changes scheduling, never
// results: every engine is bit-identical at any thread count.
//
// The occupancy gauge below (CurrentOccupancy / MaxOccupancy) instruments
// that invariant: it counts, process-wide, the threads currently executing
// ParallelFor work — pool workers and calling threads, inline calls
// included, nested calls counted once — so a test can drive concurrent load
// and assert the high-water mark stays within budget.
#ifndef UUQ_COMMON_THREAD_POOL_H_
#define UUQ_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace uuq {

class ThreadPool {
 public:
  /// Spawns num_threads−1 workers; values < 1 are clamped to 1 (inline).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism of ParallelFor (workers + the calling thread).
  int num_threads() const { return num_threads_; }

  /// Runs fn(i) for every i in [begin, end); returns when all have finished.
  /// The calling thread participates. Rethrows the first exception raised by
  /// fn; later indices are then skipped. Empty or inverted ranges no-op.
  void ParallelFor(int64_t begin, int64_t end,
                   const std::function<void(int64_t)>& fn);

  /// Maps fn over [0, n) into a vector with out[i] = fn(i). The result type
  /// must be default-constructible and must not be bool: std::vector<bool>
  /// packs neighbouring elements into one byte, so concurrent slot writes
  /// would race. Map to int/char instead.
  template <typename Fn>
  auto ParallelMap(int64_t n, Fn&& fn) -> std::vector<decltype(fn(int64_t{}))> {
    static_assert(!std::is_same_v<decltype(fn(int64_t{})), bool>,
                  "ParallelMap<bool> would race on std::vector<bool>'s "
                  "bit-packed storage; return int instead");
    std::vector<decltype(fn(int64_t{}))> out(n > 0 ? static_cast<size_t>(n)
                                                   : 0);
    ParallelFor(0, n, [&](int64_t i) { out[static_cast<size_t>(i)] = fn(i); });
    return out;
  }

  /// The lazily-created process-wide pool, sized by DefaultNumThreads().
  /// Never destroyed (workers must outlive static teardown).
  static ThreadPool* Default();

  /// Resolves an optional per-call pool: `pool` when non-null, else Default().
  static ThreadPool* OrDefault(ThreadPool* pool) {
    return pool != nullptr ? pool : Default();
  }

  /// UUQ_THREADS when set to a positive integer, else hardware_concurrency
  /// (minimum 1). Read on every call so tests can vary the environment; the
  /// Default() pool samples it once at first use.
  static int DefaultNumThreads();

  /// Process-wide engine-occupancy gauge (see header comment): the number
  /// of threads currently executing ParallelFor work across ALL pools —
  /// callers and pool workers alike, the inline serial path included, each
  /// thread counted once however deeply its calls nest. Relaxed atomics:
  /// exact under quiescence, a faithful high-water under load.
  static int64_t CurrentOccupancy();
  /// High-water mark of CurrentOccupancy() since the last reset.
  static int64_t MaxOccupancy();
  static void ResetMaxOccupancy();

 private:
  struct ForState;

  /// True when a ParallelFor over `n` items from the CURRENT thread takes
  /// the inline serial path (1-thread pool, single item, or a nested call
  /// from one of this pool's own workers).
  bool WouldRunInline(int64_t n) const;

  void WorkerLoop();
  /// Claims and runs indices from `state` until none remain.
  static void Drain(ForState* state);

  const int num_threads_;
  /// Written only by the constructor and joined by the destructor; workers
  /// never touch it, so it needs no guard.
  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar work_available_;
  std::deque<std::function<void()>> queue_ UUQ_GUARDED_BY(mu_);
  bool shutting_down_ UUQ_GUARDED_BY(mu_) = false;
};

}  // namespace uuq

#endif  // UUQ_COMMON_THREAD_POOL_H_
