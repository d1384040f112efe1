#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace entangled {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&counter] { ++counter; });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, WaitCoversInFlightTasks) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ++done;
    });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (batch + 1) * 20);
  }
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
    // No Wait(): destruction must still run everything queued.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, SingleThreadPreservesFifoOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&order, i] { order.push_back(i); });
  }
  pool.Wait();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, WaitReusableAfterIdle) {
  ThreadPool pool(2);
  pool.Wait();  // nothing submitted: returns immediately
  std::atomic<int> counter{0};
  pool.Submit([&counter] { ++counter; });
  pool.Wait();
  pool.Wait();  // count-based: already-drained batches stay drained
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, RunChunkedCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (size_t count : {1u, 2u, 7u, 64u, 1000u, 5000u}) {
    std::vector<std::atomic<int>> hits(count);
    for (auto& h : hits) h.store(0);
    pool.RunChunked(count, [&hits](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "count=" << count << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, RunChunkedSpreadsASmallWaveAcrossParticipants) {
  // Eight indices on three workers must not all land on one
  // participant: each call blocks until a second thread has shown up,
  // which only happens if the wave was split.
  ThreadPool pool(3);
  std::mutex mutex;
  std::condition_variable seen_cv;
  std::set<std::thread::id> seen;
  pool.RunChunked(8, [&](size_t) {
    std::unique_lock<std::mutex> lock(mutex);
    seen.insert(std::this_thread::get_id());
    seen_cv.notify_all();
    seen_cv.wait_for(lock, std::chrono::seconds(10),
                     [&seen] { return seen.size() >= 2; });
  });
  EXPECT_GE(seen.size(), 2u);
}

TEST(ThreadPoolTest, RunChunkedWritesVisibleToCaller) {
  ThreadPool pool(4);
  std::vector<uint64_t> out(5000, 0);  // plain writes, distinct slots
  pool.RunChunked(out.size(), [&out](size_t i) { out[i] = i * i; });
  for (size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, RunChunkedZeroCountIsNoop) {
  ThreadPool pool(2);
  pool.RunChunked(0, [](size_t) { FAIL() << "must not be invoked"; });
}

TEST(ThreadPoolTest, RunChunkedNestedInsideSubmittedTask) {
  // A worker running a coarse task (a shard flush) starts a chunked
  // run on the same pool; the caller participates, so this completes
  // even when every worker is busy with coarse tasks.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int t = 0; t < 4; ++t) {
    pool.Submit([&pool, &total] {
      pool.RunChunked(100, [&total](size_t) { total.fetch_add(1); });
    });
  }
  pool.Wait();
  EXPECT_EQ(total.load(), 400);
}

TEST(ThreadPoolTest, RunChunkedInterleavesWithSubmit) {
  ThreadPool pool(3);
  std::atomic<int> submitted{0};
  std::atomic<int> chunked{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&submitted] { ++submitted; });
  }
  pool.RunChunked(500, [&chunked](size_t) { ++chunked; });
  pool.Wait();
  EXPECT_EQ(submitted.load(), 50);
  EXPECT_EQ(chunked.load(), 500);
}

}  // namespace
}  // namespace entangled
