#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel_for.hpp"
#include "common/rng.hpp"

namespace topil {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);

  // The pool stays usable after an idle wait.
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 101);
}

TEST(ThreadPool, WaitIdleRethrowsFirstTaskException) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&count, i] {
      count.fetch_add(1);
      if (i % 2 == 0) throw std::runtime_error("task failed");
    });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(count.load(), 8) << "remaining tasks must still run";

  // The error is cleared once rethrown; later batches start clean.
  pool.submit([&count] { count.fetch_add(1); });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(count.load(), 9);
}

TEST(ThreadPool, NestedSubmitRunsInlineInsteadOfDeadlocking) {
  // Queue capacity 1 and a single worker: if a task's own submissions were
  // enqueued, the worker would block on its full queue forever. The guard
  // runs nested submissions inline on the worker thread.
  ThreadPool pool(1, /*queue_capacity=*/1);
  std::atomic<int> count{0};
  std::atomic<bool> nested_on_worker{false};
  pool.submit([&] {
    for (int i = 0; i < 16; ++i) {
      pool.submit([&] {
        nested_on_worker = nested_on_worker || pool.on_worker_thread();
        count.fetch_add(1);
      });
    }
  });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 16);
  EXPECT_TRUE(nested_on_worker.load());
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2, /*queue_capacity=*/64);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 32);
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
  bool called = false;
  parallel_for_indexed(0, 4, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);

  const std::vector<int> out =
      parallel_map(0, 4, [](std::size_t) { return 1; });
  EXPECT_TRUE(out.empty());
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<int> visits(kN, 0);  // slot i is only touched by fn(i)
  parallel_for_indexed(kN, 8, [&](std::size_t i) { visits[i] += 1; });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i], 1) << "index " << i;
  }
}

// A call runs at most `jobs` threads: the caller is one of the workers.
// Every fn(i) waits until all n == jobs indices have started, so each
// thread takes exactly one index and the caller must take one too.
TEST(ParallelFor, CallerIsOneOfTheWorkers) {
  constexpr std::size_t kJobs = 3;
  std::mutex mutex;
  std::condition_variable all_started;
  std::size_t started = 0;
  std::vector<std::thread::id> ids(kJobs);
  parallel_for_indexed(kJobs, kJobs, [&](std::size_t i) {
    std::unique_lock<std::mutex> lock(mutex);
    ids[i] = std::this_thread::get_id();
    if (++started == kJobs) all_started.notify_all();
    all_started.wait(lock, [&] { return started == kJobs; });
  });
  EXPECT_NE(std::find(ids.begin(), ids.end(), std::this_thread::get_id()),
            ids.end());
}

TEST(ParallelFor, RethrowsTheLowestFailingIndex) {
  try {
    parallel_for_indexed(64, 4, [](std::size_t i) {
      throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "0");
  }
}

TEST(ParallelMap, ResultsLandInIndexOrder) {
  struct NoDefault {
    explicit NoDefault(std::size_t v) : value(v) {}
    std::size_t value;
  };
  const auto out = parallel_map(
      64, 4, [](std::size_t i) { return NoDefault(i * i); });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].value, i * i);
  }
}

TEST(ParallelMap, JobCountDoesNotChangeResults) {
  // Index-derived Rng streams are the pattern every parallel call site
  // uses; the draw sequence must depend only on (seed, index).
  auto draw = [](std::size_t i) {
    Rng rng = Rng::stream(42, i);
    std::vector<double> values;
    for (int k = 0; k < 8; ++k) values.push_back(rng.uniform(0.0, 1.0));
    return values;
  };
  const auto serial = parallel_map(32, 1, draw);
  const auto parallel = parallel_map(32, 4, draw);
  EXPECT_EQ(serial, parallel);
}

TEST(ThreadPool, ResolveJobsMapsZeroToHardwareDefault) {
  EXPECT_EQ(ThreadPool::resolve_jobs(0), ThreadPool::default_jobs());
  EXPECT_EQ(ThreadPool::resolve_jobs(3), 3u);
  EXPECT_GE(ThreadPool::default_jobs(), 1u);
}

TEST(ThreadPool, StopDrainsEveryQueuedTaskBeforeReturning) {
  ThreadPool pool(2, /*queue_capacity=*/64);
  std::atomic<int> count{0};
  for (int i = 0; i < 48; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.stop();
  EXPECT_EQ(count.load(), 48);
  EXPECT_TRUE(pool.stopped());

  // The queue is closed: late submissions fail loudly instead of racing
  // the shutdown.
  EXPECT_THROW(pool.submit([] {}), LogicError);
  // Idempotent; the destructor's implicit stop() is a no-op too.
  EXPECT_NO_THROW(pool.stop());
}

TEST(ThreadPool, StopUnblocksSubmitterWaitingOnAFullQueue) {
  // The shutdown race stop() exists to close: a submitter blocked on a
  // full queue while the pool is being torn down. With the drain/stop
  // handshake it must wake up and throw — never push into a pool whose
  // destructor already counted the queue as drained, and never deadlock.
  ThreadPool pool(1, /*queue_capacity=*/1);
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  pool.submit([&] {  // occupies the single worker until released
    while (!release.load()) std::this_thread::yield();
    ran.fetch_add(1);
  });
  pool.submit([&] { ran.fetch_add(1); });  // fills the queue

  std::atomic<bool> rejected{false};
  std::thread submitter([&] {
    try {
      pool.submit([&] { ran.fetch_add(1); });  // blocks: queue is full
      ran.fetch_add(0);
    } catch (const LogicError&) {
      rejected = true;
    }
  });

  // Let the submitter reach the full-queue wait, then begin the shutdown
  // while the worker is still pinned (so the queue stays full throughout).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release = true;
  });
  pool.stop();
  submitter.join();
  releaser.join();

  EXPECT_TRUE(pool.stopped());
  EXPECT_TRUE(rejected.load()) << "blocked submitter must be turned away";
  EXPECT_EQ(ran.load(), 2) << "both accepted tasks ran before stop returned";
}

}  // namespace
}  // namespace topil
