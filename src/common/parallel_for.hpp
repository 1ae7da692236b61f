#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace topil {

/// Job count used when a caller passes 0 ("auto"): the hardware thread
/// count, with a floor of 1 on restricted machines.
std::size_t default_jobs();

/// Resolve a user-supplied job count: 0 maps to `default_jobs()`.
inline std::size_t resolve_jobs(std::size_t jobs) {
  return jobs == 0 ? default_jobs() : jobs;
}

namespace detail {
/// Run `drain` on `helpers` threads taken from the process-wide helper
/// cache and on the calling thread; return once every run has returned.
/// A helper parks again when its run returns, and the next call reuses it;
/// a thread starts only when no helper is parked. `drain` must not throw.
void run_on_helpers(std::size_t helpers, const std::function<void()>& drain);
}  // namespace detail

/// Deterministic data-parallel primitives for the design-time pipeline.
///
/// Contract: `fn(i)` runs exactly once for every i in [0, n), each
/// invocation may only touch state derived from its own index (write
/// result slot i, seed an index-derived Rng stream via `Rng::stream`),
/// and the caller observes results in index order. Under this contract
/// every output — datasets, CSVs, figures — is bit-identical for any job
/// count, and `jobs == 1` executes the loop inline in ascending order,
/// reproducing the historical serial behavior exactly.
///
/// Exceptions: the failure thrown by the lowest failing index is
/// rethrown on the calling thread after all scheduled work has finished.

/// Run `fn(i)` for every i in [0, n) on up to `jobs` threads
/// (`jobs == 0` = hardware concurrency). `fn` may itself call
/// `parallel_for_indexed`; nested and concurrent calls take distinct
/// helpers.
template <typename Fn>
void parallel_for_indexed(std::size_t n, std::size_t jobs, Fn&& fn) {
  if (n == 0) return;
  jobs = resolve_jobs(jobs);
  if (jobs == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Every thread runs one drain loop pulling indices from a shared
  // counter: coarse tasks (scenario sims, NAS trainings) self-balance
  // without handing out n closures.
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::size_t error_index = 0;
  std::exception_ptr error;
  const auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error || i < error_index) {
          error = std::current_exception();
          error_index = i;
        }
      }
    }
  };

  // The calling thread is one of the workers, so `jobs` threads run in
  // all: jobs - 1 helpers join it instead of leaving the caller asleep.
  const std::size_t workers = jobs < n ? jobs : n;
  detail::run_on_helpers(workers - 1, drain);
  if (error) std::rethrow_exception(error);
}

/// Map [0, n) through `fn` into a pre-sized result vector: out[i] = fn(i).
/// Results land in index order regardless of execution order; value types
/// need not be default-constructible.
template <typename Fn>
auto parallel_map(std::size_t n, std::size_t jobs, Fn&& fn)
    -> std::vector<std::decay_t<decltype(fn(std::size_t{0}))>> {
  using Value = std::decay_t<decltype(fn(std::size_t{0}))>;
  std::vector<std::optional<Value>> slots(n);
  parallel_for_indexed(n, jobs,
                       [&](std::size_t i) { slots[i].emplace(fn(i)); });
  std::vector<Value> out;
  out.reserve(n);
  for (std::optional<Value>& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace topil
