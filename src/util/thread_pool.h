// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// A fixed-size worker pool with a bounded task queue. This is the
// concurrency substrate of the batch-extraction engine (see
// ExtractionContext::ExtractCorpusInto in extract/extraction_context.h):
// corpus-scale extraction fans documents out across the pool while
// compiled recognizers are shared read-only.
//
// Design notes:
//  - Submit() returns a std::future; an exception escaping the task is
//    captured by the packaged task and rethrown from future::get() in the
//    caller's thread, so worker threads never die silently.
//  - The queue is bounded: Submit() blocks once `queue_capacity` tasks are
//    waiting, which gives natural backpressure when producers outrun the
//    workers (a corpus reader feeding a slow extraction stage cannot
//    balloon memory).
//  - A Submit() from one of the pool's OWN worker threads always runs the
//    task inline in that worker ("caller runs"). Blocking a worker on the
//    bounded queue would deadlock once every worker is a producer (none
//    left to consume), and even queueing without blocking deadlocks the
//    moment all workers wait on futures of tasks still sitting in the
//    queue — so nested submissions never touch the queue at all.
//  - Shutdown() (also run by the destructor) drains every queued task and
//    joins the workers. Submitting after shutdown runs the task inline in
//    the caller's thread, so no work is ever lost.
//  - All synchronization is one annotated Mutex plus two CondVars (see
//    util/mutex.h): the guarded fields carry WEBRBD_GUARDED_BY and the
//    locking methods WEBRBD_EXCLUDES, so both clang's -Wthread-safety CI
//    pass and webrbd_lint's lock-discipline rule verify the discipline.
//    The class is ThreadSanitizer-clean under WEBRBD_SANITIZE=thread.
//  - Observability (see docs/observability.md): queue depth, executed
//    task and inline-run counts, cumulative worker busy time, and
//    submit-block latency are reported to the global metrics registry;
//    Shutdown() publishes the pool's lifetime worker utilization. Timing
//    costs are only paid while obs::MetricsEnabled().

#ifndef WEBRBD_UTIL_THREAD_POOL_H_
#define WEBRBD_UTIL_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/stages.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace webrbd {

/// Fixed-size thread pool with a bounded FIFO task queue.
class ThreadPool {
 public:
  /// Default bound on the number of queued (not yet running) tasks.
  static constexpr size_t kDefaultQueueCapacity = 1024;

  /// Starts `num_threads` workers (0 means std::thread::hardware_concurrency,
  /// itself clamped to at least 1). `queue_capacity` bounds the number of
  /// queued tasks; it is clamped to at least 1.
  explicit ThreadPool(int num_threads = 0,
                      size_t queue_capacity = kDefaultQueueCapacity);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Schedules `fn` and returns a future for its result. Blocks while the
  /// queue is at capacity (backpressure). If the pool is already shut
  /// down, or the calling thread is one of this pool's own workers, the
  /// task runs inline in the calling thread before Submit returns (the
  /// worker case prevents nested-submit deadlock; the returned future is
  /// already satisfied). An exception thrown by `fn` is delivered through
  /// the returned future in every mode.
  template <typename F>
  std::future<std::invoke_result_t<std::decay_t<F>>> Submit(F&& fn) {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Enqueue([task]() { (*task)(); });
    return future;
  }

  /// Finishes every queued task, then joins the workers. Idempotent AND
  /// safe to call concurrently from any number of threads: exactly one
  /// caller joins the workers; every other caller blocks until that join
  /// completes, so no Shutdown() ever returns while workers are still
  /// running. Safe to race with Submit() — a submission that loses the
  /// race runs caller-inline (see Submit). A worker thread must not call
  /// Shutdown() on its own pool (it would join itself); that is a
  /// programming error, not a supported drain path.
  void Shutdown() WEBRBD_EXCLUDES(mu_);

  /// Number of worker threads.
  int thread_count() const { return static_cast<int>(workers_.size()); }

  /// Tasks currently waiting in the queue (excludes running tasks).
  size_t pending() const WEBRBD_EXCLUDES(mu_);

  /// Maximum number of queued tasks before Submit() blocks.
  size_t queue_capacity() const { return queue_capacity_; }

  /// Cumulative wall time this pool's workers spent running tasks. Only
  /// accumulates while obs::MetricsEnabled(); utilization over a window of
  /// `wall` seconds is busy_seconds() delta / (wall * thread_count()).
  double busy_seconds() const;

  /// True iff the calling thread is one of this pool's workers (the
  /// condition under which Submit runs tasks inline).
  bool IsWorkerThread() const;

 private:
  // Pushes a type-erased task, blocking on a full queue; runs it inline
  // when the pool is shut down or the caller is one of this pool's
  // workers.
  void Enqueue(std::function<void()> task) WEBRBD_EXCLUDES(mu_);

  void WorkerLoop() WEBRBD_EXCLUDES(mu_);

  // Runs a task and charges its wall time to the busy counters.
  void RunTask(std::function<void()>& task);

  const size_t queue_capacity_;
  const std::chrono::steady_clock::time_point created_ =
      std::chrono::steady_clock::now();
  mutable Mutex mu_;
  CondVar not_empty_;  // signaled when a task is queued
  CondVar not_full_;   // signaled when a slot frees up
  std::deque<std::function<void()>> queue_ WEBRBD_GUARDED_BY(mu_);
  bool shutting_down_ WEBRBD_GUARDED_BY(mu_) = false;
  // True once the first Shutdown() caller has joined every worker. Late
  // Shutdown() callers wait on shutdown_done_cv_ for this instead of
  // racing the winner to std::thread::join (two threads joining one
  // std::thread is undefined behavior — the old "idempotent" joinable()
  // check was a TOCTOU hole under concurrent drains).
  bool shutdown_complete_ WEBRBD_GUARDED_BY(mu_) = false;
  CondVar shutdown_done_cv_;  // signaled when shutdown_complete_ flips
  std::atomic<uint64_t> busy_nanos_{0};
  std::vector<std::thread> workers_;

  // Set to the owning pool for the lifetime of each worker thread, so
  // Enqueue can detect nested submissions from this pool's own workers.
  static thread_local const ThreadPool* current_worker_pool_;
};

}  // namespace webrbd

#endif  // WEBRBD_UTIL_THREAD_POOL_H_
