// Persistent worker pool with a deterministic parallel-for.
//
// Design constraints, in priority order:
//  1. Bitwise reproducibility at any thread count. parallel_for splits
//     [begin, end) into fixed-size blocks whose boundaries depend only on
//     `grain` — never on the number of workers — and every block is
//     processed exactly once by exactly one thread. Kernels that keep each
//     block's arithmetic self-contained (all of ours do) therefore produce
//     identical bits whether the pool has 1 or 64 threads.
//  2. No per-call thread spawn. Workers are started once and parked on a
//     condition variable; a parallel_for wakes them, the calling thread
//     works too, and everyone races down a shared atomic block counter.
//  3. Graceful degradation. Nested parallel_for calls (a threaded kernel
//     calling another threaded kernel) and single-thread pools run the
//     loop inline on the caller — no deadlock, no oversubscription.
//
// Thread count resolution: GBO_NUM_THREADS env var if set (>= 1),
// otherwise std::thread::hardware_concurrency(). Tests and benches can
// override at runtime with set_num_threads().
#pragma once

#include <cstddef>
#include <functional>

namespace gbo {

class ThreadPool {
 public:
  /// The process-wide pool. Lazily constructed on first use; workers are
  /// joined at process exit.
  static ThreadPool& instance();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return num_threads_; }

  /// Resizes the worker set (joins the old workers first). Intended for
  /// tests and benches; callers must not race this with parallel_for.
  void set_num_threads(std::size_t n);

  /// Stable integer id of the calling thread within the pool: 0 for the
  /// main/calling thread (which participates in every job) and any thread
  /// the pool does not own, 1..n-1 for the spawned workers. Ids survive
  /// parking between jobs; set_num_threads reassigns them. Trace events
  /// and the Perfetto export use this as the thread track.
  static unsigned current_worker_id();

  /// Runs fn(lo, hi) over a deterministic partition of [begin, end) into
  /// blocks of `grain` (the final block may be short). Blocks are claimed
  /// dynamically by the workers and the calling thread; the call returns
  /// once every block has finished. The first exception thrown by any
  /// block is rethrown on the caller.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// True when a parallel_for of `num_blocks` blocks issued from the
  /// calling thread would run inline: one block, a one-thread pool, or a
  /// caller already inside a parallel region.
  bool runs_inline(std::size_t num_blocks) const;

 private:
  ThreadPool();
  struct Impl;
  Impl* impl_;
  std::size_t num_threads_ = 1;
};

/// Convenience wrapper over ThreadPool::instance().parallel_for. An inline
/// run calls fn block by block directly, and a pooled run hands the pool a
/// reference to fn, so neither wraps fn in an allocating std::function.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  Fn&& fn) {
  if (begin >= end) return;
  if (grain < 1) grain = 1;
  ThreadPool& pool = ThreadPool::instance();
  if (pool.runs_inline((end - begin + grain - 1) / grain)) {
    for (std::size_t lo = begin; lo < end; lo += grain)
      fn(lo, lo + grain < end ? lo + grain : end);
    return;
  }
  pool.parallel_for(begin, end, grain,
                    std::function<void(std::size_t, std::size_t)>(
                        std::ref(fn)));
}

}  // namespace gbo
