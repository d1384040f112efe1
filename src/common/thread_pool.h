#ifndef ENTANGLED_COMMON_THREAD_POOL_H_
#define ENTANGLED_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace entangled {

/// \brief A fixed-size pool of worker threads with two entry points:
/// a FIFO closure queue (Submit/Wait) and a chunked work-stealing
/// parallel-for (RunChunked).
///
/// Submit/Wait serves coarse fan-out — the sharded front door's "flush
/// these shards concurrently".  Completion is **count-based**: one
/// submitted/completed counter pair instead of a per-task in-flight
/// census, so a worker finishing a task publishes one atomic increment
/// and touches the mutex only when it is the last task of a batch and a
/// waiter is actually armed (the old scheme locked twice per task and
/// `notify_all`ed on every drain).
///
/// RunChunked serves fine fan-out — the engine's "evaluate these K
/// dirty components".  The index space is sliced into one contiguous
/// run per participant; each participant drains its own run in chunks
/// of about an eighth of a run (one atomic fetch_add per chunk, not one
/// closure per component), then steals chunks from other runs until
/// everything is claimed.  The **calling thread participates**, which
/// makes nested use safe: a worker running a shard flush can RunChunked
/// that shard's components and is guaranteed progress even when every
/// other worker is busy — whoever claims a chunk runs it to completion
/// without blocking, so the claimant chain always terminates.
///
/// Results travel through whatever the closures capture; ordering is
/// the caller's responsibility — the engine keeps its outputs
/// deterministic by *applying* results in a fixed order regardless of
/// completion order (see system/engine.cc).
///
/// Submit() and RunChunked() are thread-safe.  Destruction drains the
/// queue: queued tasks still run before the workers exit.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads) {
    ENTANGLED_CHECK_GT(num_threads, 0u);
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_worker_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task; it will run on some worker thread.
  void Submit(std::function<void()> task) {
    ENTANGLED_CHECK(task != nullptr);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      submitted_.fetch_add(1, std::memory_order_relaxed);
      queue_.push_back(std::move(task));
    }
    wake_worker_.notify_one();
  }

  /// Blocks until every submitted task has finished running.  Tasks
  /// submitted concurrently with Wait() may or may not be covered; the
  /// intended pattern is submit-batch-then-wait from one coordinating
  /// thread.
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    // seq_cst on the waiter flag vs. the completion counter closes the
    // store-load race against WorkerLoop's "skip the mutex when nobody
    // waits" fast path.
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    idle_.wait(lock, [this] {
      return completed_.load(std::memory_order_seq_cst) ==
             submitted_.load(std::memory_order_seq_cst);
    });
    waiters_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Chunked work-stealing parallel-for: invokes `fn(i)` exactly once
  /// for every i in [0, count), on the calling thread plus up to
  /// num_threads() helpers (never more participants than indices).
  /// Each participant's run splits into about eight claims of
  /// max(1, count / (8 * participants)) consecutive indices, so a
  /// small wave still spreads while a large one pays one atomic op per
  /// chunk.  Returns once every index has finished; the callees' writes
  /// are visible to the caller.  `fn` must be safe to invoke
  /// concurrently for distinct indices and must not block on the pool.
  void RunChunked(size_t count, const std::function<void(size_t)>& fn) {
    if (count == 0) return;
    const size_t participants = std::min(workers_.size() + 1, count);
    if (participants == 1) {  // serial fast path: nothing to steal
      fn(0);
      return;
    }
    auto job = std::make_shared<ChunkJob>();
    job->fn = &fn;
    job->count = count;
    job->chunk = std::max<size_t>(1, count / (8 * participants));
    job->num_runs = participants;
    job->runs.reset(new ChunkJob::Run[job->num_runs]);
    size_t base = count / job->num_runs;
    size_t rem = count % job->num_runs;
    size_t start = 0;
    for (size_t r = 0; r < job->num_runs; ++r) {
      size_t len = base + (r < rem ? 1 : 0);
      job->runs[r].next.store(start, std::memory_order_relaxed);
      job->runs[r].end = start + len;
      start += len;
    }
    // Helpers hold the job alive via shared_ptr: a closure that runs
    // after the job already drained finds every run dry and returns.
    // `fn` itself is only dereferenced for claimed indices, all of
    // which complete before the caller's wait below returns.
    for (size_t h = 1; h < participants; ++h) {
      Submit([job] { Participate(*job); });
    }
    Participate(*job);
    std::unique_lock<std::mutex> lock(job->mutex);
    job->done.wait(lock, [&job] {
      return job->completed.load(std::memory_order_acquire) == job->count;
    });
  }

 private:
  struct ChunkJob {
    const std::function<void(size_t)>* fn = nullptr;
    size_t count = 0;
    size_t chunk = 1;
    struct alignas(64) Run {
      std::atomic<size_t> next{0};
      size_t end = 0;
    };
    std::unique_ptr<Run[]> runs;
    size_t num_runs = 0;
    std::atomic<size_t> arrivals{0};   ///< assigns each participant a run
    std::atomic<size_t> completed{0};  ///< indices finished
    std::mutex mutex;
    std::condition_variable done;
  };

  /// Drains the participant's own run, then steals chunks round-robin
  /// from the others.  Never blocks.
  static void Participate(ChunkJob& job) {
    const size_t mine =
        job.arrivals.fetch_add(1, std::memory_order_relaxed) % job.num_runs;
    size_t finished = 0;
    for (size_t r = 0; r < job.num_runs; ++r) {
      ChunkJob::Run& run = job.runs[(mine + r) % job.num_runs];
      for (;;) {
        size_t i = run.next.fetch_add(job.chunk, std::memory_order_relaxed);
        if (i >= run.end) break;
        size_t stop = i + job.chunk < run.end ? i + job.chunk : run.end;
        finished += stop - i;
        for (; i < stop; ++i) (*job.fn)(i);
      }
    }
    if (finished == 0) return;
    // Release pairs with the caller's acquire so every fn(i) write is
    // visible once the wait returns; the mutex hop only happens for
    // whoever retires the last index.
    size_t done_total =
        job.completed.fetch_add(finished, std::memory_order_acq_rel) +
        finished;
    if (done_total == job.count) {
      std::lock_guard<std::mutex> lock(job.mutex);
      job.done.notify_one();  // exactly one waiter: the RunChunked caller
    }
  }

  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_worker_.wait(lock,
                          [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ and drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
      uint64_t done = completed_.fetch_add(1, std::memory_order_seq_cst) + 1;
      if (waiters_.load(std::memory_order_seq_cst) != 0 &&
          done == submitted_.load(std::memory_order_seq_cst)) {
        // Lock so the notify cannot slip between a waiter's predicate
        // check and its sleep; notify_all because several threads may
        // Wait() on the same batch boundary (rare, once per batch).
        std::lock_guard<std::mutex> lock(mutex_);
        idle_.notify_all();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_worker_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> waiters_{0};
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace entangled

#endif  // ENTANGLED_COMMON_THREAD_POOL_H_
