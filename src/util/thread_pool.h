// Shared worker pool for the compile pipeline.
//
// The hot paths this repo parallelizes — sibling-subtree / segment fills
// in the placement DP, submitAll compiles and per-device synthesis — are
// fork/join loops over independent indices, so the pool exposes exactly
// one primitive: parallelFor(n, fn).
//
// Design constraints, in order:
//  1. Determinism stays with the caller. The pool guarantees only that
//     every index runs exactly once and that all writes made by the
//     iterations happen-before parallelFor returns (the completion wait
//     synchronizes through the pool mutex). Callers keep results
//     bit-identical to their sequential loops by giving each index its
//     own output slot and merging in index order afterwards.
//  2. Nesting must not deadlock. The placement DP calls parallelFor from
//     inside tasks (a subtree solve fans out its node's segment fills).
//     The caller of parallelFor therefore *participates*: it claims and
//     runs iterations of its own job until none are left, and only then
//     blocks — and only on iterations that other threads are actively
//     running. A blocked thread's job is always being drained by running
//     threads, so progress is inductive; no thread ever waits on queue
//     capacity.
//  3. Iterations are claimed dynamically (one atomic fetch-add per
//     index), so uneven costs — placeCompact calls vary by orders of
//     magnitude across segments — balance without tuning.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace clickinc::util {

class ThreadPool {
 public:
  // `threads` is the total concurrency including the calling thread, so
  // the pool spawns threads-1 workers; <= 1 means "no workers" and every
  // parallelFor runs inline. 0 resolves to hardwareConcurrency().
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threadCount() const { return threads_; }

  // Runs fn(0) .. fn(n-1), returning when all have completed. Iterations
  // may run concurrently and in any order; fn must confine its writes to
  // per-index data (or synchronize itself). Reentrant: fn may call
  // parallelFor on the same pool. If any iteration throws, the remaining
  // iterations still run and the first exception (in completion order) is
  // rethrown here.
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  // std::thread::hardware_concurrency with a floor of 1.
  static int hardwareConcurrency();

 private:
  struct Job {
    std::size_t n = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> next{0};  // next index to claim
    std::atomic<std::size_t> done{0};  // completed count (lock-free; mu_
                                       // is taken only for the final
                                       // increment's notify)
    std::exception_ptr error;          // first failure; guarded by mu_
    std::condition_variable done_cv;   // caller waits for done == n
  };

  // Claims and runs one iteration; false when the job has none left.
  bool runOne(Job& job);
  void workerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::vector<std::shared_ptr<Job>> open_jobs_;  // jobs with unclaimed work
  bool stop_ = false;
  int threads_ = 1;
  std::vector<std::thread> workers_;
};

}  // namespace clickinc::util
