#include "common/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#endif

namespace gbo {

namespace {

// True while the current thread is executing blocks of a parallel_for;
// nested calls run inline to avoid deadlocking on the single shared job.
thread_local bool in_parallel_region = false;

// Stable id of this thread within the pool: 0 for the caller/main thread,
// 1..n-1 for spawned workers (assigned at spawn, reassigned on resize).
thread_local unsigned pool_worker_id = 0;

void name_current_thread(unsigned id) {
#if defined(__linux__)
  char name[16];  // pthread limit incl. NUL
  std::snprintf(name, sizeof(name), "gbo-pool-%u", id);
  pthread_setname_np(pthread_self(), name);
#else
  (void)id;
#endif
}

std::size_t default_num_threads() {
  if (const char* env = std::getenv("GBO_NUM_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v >= 1) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void run_serial(std::size_t begin, std::size_t end, std::size_t grain,
                const std::function<void(std::size_t, std::size_t)>& fn) {
  for (std::size_t lo = begin; lo < end; lo += grain)
    fn(lo, lo + grain < end ? lo + grain : end);
}

// One parallel_for invocation. Immutable after construction except for the
// claim/progress atomics, so a worker that wakes late and grabs an already-
// finished job just sees an exhausted counter and goes back to sleep.
struct Job {
  Job(std::uint64_t id_, const std::function<void(std::size_t, std::size_t)>& fn_,
      std::size_t begin_, std::size_t end_, std::size_t grain_,
      std::size_t num_blocks_)
      : id(id_), fn(&fn_), begin(begin_), end(end_), grain(grain_),
        num_blocks(num_blocks_) {}

  const std::uint64_t id;
  // Borrowed from the caller; only dereferenced while a claimed block runs,
  // and parallel_for does not return (ending fn's lifetime) until every
  // block has finished.
  const std::function<void(std::size_t, std::size_t)>* fn;
  const std::size_t begin, end, grain, num_blocks;

  std::atomic<std::size_t> next_block{0};
  std::atomic<std::size_t> blocks_done{0};
  std::mutex err_mu;
  std::exception_ptr first_error;  // guarded by err_mu
};

// Claims and runs blocks until the job's counter is exhausted.
void run_blocks(Job& job) {
  in_parallel_region = true;
  std::size_t completed = 0;
  for (;;) {
    const std::size_t b = job.next_block.fetch_add(1, std::memory_order_relaxed);
    if (b >= job.num_blocks) break;
    const std::size_t lo = job.begin + b * job.grain;
    const std::size_t hi = lo + job.grain < job.end ? lo + job.grain : job.end;
    try {
      (*job.fn)(lo, hi);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.err_mu);
      if (!job.first_error) job.first_error = std::current_exception();
    }
    ++completed;
  }
  in_parallel_region = false;
  job.blocks_done.fetch_add(completed, std::memory_order_acq_rel);
}

}  // namespace

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;   // workers wait here for a job
  std::condition_variable done_cv;   // the caller waits here for completion
  std::vector<std::thread> workers;
  std::shared_ptr<Job> current;      // guarded by mu
  std::uint64_t next_job_id = 1;
  bool shutting_down = false;

  // Serializes concurrent parallel_for callers (one job at a time).
  std::mutex job_mu;

  void worker_loop() {
    std::uint64_t seen_id = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mu);
        work_cv.wait(lock, [&] {
          return shutting_down || (current && current->id != seen_id);
        });
        if (shutting_down) return;
        job = current;
        seen_id = job->id;
      }
      run_blocks(*job);
      if (job->blocks_done.load(std::memory_order_acquire) == job->num_blocks) {
        std::lock_guard<std::mutex> lock(mu);
        done_cv.notify_all();
      }
    }
  }

  void stop_workers() {
    {
      std::lock_guard<std::mutex> lock(mu);
      shutting_down = true;
    }
    work_cv.notify_all();
    for (std::thread& t : workers) t.join();
    workers.clear();
    {
      std::lock_guard<std::mutex> lock(mu);
      shutting_down = false;
    }
  }
};

ThreadPool::ThreadPool() : impl_(new Impl) {
  set_num_threads(default_num_threads());
}

ThreadPool::~ThreadPool() {
  impl_->stop_workers();
  delete impl_;
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::set_num_threads(std::size_t n) {
  if (n < 1) n = 1;
  std::lock_guard<std::mutex> job_lock(impl_->job_mu);  // no job in flight
  impl_->stop_workers();
  // The caller participates in every job, so a pool of n threads runs n-1
  // dedicated workers.
  num_threads_ = n;
  impl_->workers.reserve(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i)
    impl_->workers.emplace_back([this, i] {
      pool_worker_id = static_cast<unsigned>(i + 1);
      name_current_thread(pool_worker_id);
      impl_->worker_loop();
    });
}

unsigned ThreadPool::current_worker_id() { return pool_worker_id; }

bool ThreadPool::runs_inline(std::size_t num_blocks) const {
  return num_threads_ == 1 || num_blocks == 1 || in_parallel_region;
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  if (grain < 1) grain = 1;
  const std::size_t num_blocks = (end - begin + grain - 1) / grain;
  if (runs_inline(num_blocks)) {
    run_serial(begin, end, grain, fn);
    return;
  }

  std::lock_guard<std::mutex> job_lock(impl_->job_mu);
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    job = std::make_shared<Job>(impl_->next_job_id++, fn, begin, end, grain,
                                num_blocks);
    impl_->current = job;
  }
  impl_->work_cv.notify_all();
  run_blocks(*job);  // the caller works too

  {
    std::unique_lock<std::mutex> lock(impl_->mu);
    impl_->done_cv.wait(lock, [&] {
      return job->blocks_done.load(std::memory_order_acquire) ==
             job->num_blocks;
    });
    impl_->current.reset();
  }
  if (job->first_error) std::rethrow_exception(job->first_error);
}

}  // namespace gbo
