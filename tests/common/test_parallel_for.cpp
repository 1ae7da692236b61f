#include "common/parallel_for.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace topil {
namespace {

// Kernel thread ids identify threads across calls: std::thread::id values
// are recycled once a thread is joined.

/// Runs one call of n == jobs indices in which every fn(i) waits until all
/// have started, so each of the call's threads takes exactly one index.
/// Returns the kernel thread id that ran each index.
std::vector<pid_t> lockstep_tids(std::size_t jobs) {
  std::mutex mutex;
  std::condition_variable all_started;
  std::size_t started = 0;
  std::vector<pid_t> tids(jobs);
  parallel_for_indexed(jobs, jobs, [&](std::size_t i) {
    std::unique_lock<std::mutex> lock(mutex);
    tids[i] = gettid();
    if (++started == jobs) all_started.notify_all();
    all_started.wait(lock, [&] { return started == jobs; });
  });
  return tids;
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
// Each thread takes exactly one index, so the caller must take one too.
TEST(ParallelFor, CallerIsOneOfTheWorkers) {
  const std::vector<pid_t> tids = lockstep_tids(3);
  EXPECT_NE(std::find(tids.begin(), tids.end(), gettid()), tids.end());
}

TEST(ParallelFor, ConsecutiveCallsReuseTheirHelperThreads) {
  const auto helpers = [] {
    std::vector<pid_t> tids = lockstep_tids(3);
    std::erase(tids, gettid());
    std::sort(tids.begin(), tids.end());
    return tids;
  };
  const std::vector<pid_t> first = helpers();
  EXPECT_EQ(helpers(), first);
}

TEST(ParallelFor, NeverUsesMoreThreadsThanJobsOrIndices) {
  // Park more helpers than the calls below may take.
  lockstep_tids(8);
  for (const auto& [n, jobs] : {std::pair<std::size_t, std::size_t>{200, 3},
                                {2, 8},
                                {5, 5}}) {
    std::mutex mutex;
    std::set<pid_t> tids;
    parallel_for_indexed(n, jobs, [&](std::size_t) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        tids.insert(gettid());
      }
      // Long enough that every thread the call has gets an index.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    });
    EXPECT_LE(tids.size(), std::min(n, jobs)) << "n " << n << " jobs " << jobs;
  }
}

TEST(ParallelFor, NestedCallVisitsEveryPairExactlyOnce) {
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::vector<int> visits(kOuter * kInner, 0);  // slot (i, j): fn(i)'s fn(j)
  parallel_for_indexed(kOuter, 4, [&](std::size_t i) {
    parallel_for_indexed(kInner, 4,
                         [&](std::size_t j) { visits[i * kInner + j] += 1; });
  });
  for (std::size_t k = 0; k < visits.size(); ++k) {
    ASSERT_EQ(visits[k], 1) << "pair (" << k / kInner << ", " << k % kInner
                            << ")";
  }
}

TEST(ParallelFor, ConcurrentCallsEachVisitEveryIndexExactlyOnce) {
  constexpr std::size_t kCallers = 3;
  constexpr std::size_t kN = 1000;
  std::vector<std::vector<int>> visits(kCallers, std::vector<int>(kN, 0));
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      ready.fetch_add(1);
      while (ready.load() < kCallers) std::this_thread::yield();
      parallel_for_indexed(kN, 4, [&](std::size_t i) { visits[c][i] += 1; });
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(visits[c][i], 1) << "caller " << c << " index " << i;
    }
  }
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

TEST(ParallelFor, ResolveJobsMapsZeroToHardwareDefault) {
  EXPECT_EQ(resolve_jobs(0), default_jobs());
  EXPECT_EQ(resolve_jobs(3), 3u);
  EXPECT_GE(default_jobs(), 1u);
}

}  // namespace
}  // namespace topil
