#include "common/parallel_for.hpp"

#include <condition_variable>
#include <deque>
#include <thread>

namespace topil {

std::size_t default_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

namespace detail {
namespace {

/// One call's join point.
struct Call {
  const std::function<void()>* drain = nullptr;
  std::size_t running = 0;  ///< helpers handed this call, not yet back
  std::condition_variable finished;
};

/// A helper thread: working for `call`, or parked while `call` is null.
struct Helper {
  Call* call = nullptr;
  Helper* next_parked = nullptr;
  std::condition_variable wake;
  std::thread thread;
};

/// The process-wide helper cache. It never shrinks, so it holds as many
/// threads as calls have needed at once. One mutex guards the cache and
/// every Call and Helper; a call takes it a few times, never per index.
class HelperCache {
 public:
  HelperCache() = default;
  HelperCache(const HelperCache&) = delete;
  HelperCache& operator=(const HelperCache&) = delete;

  /// Runs at process exit: every helper is parked by then, or parks once
  /// its call's drain returns, and is joined.
  ~HelperCache() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    for (Helper& helper : helpers_) helper.wake.notify_one();
    for (Helper& helper : helpers_) helper.thread.join();
  }

  void run(std::size_t count, const std::function<void()>& drain) {
    Call call;
    call.drain = &drain;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      try {
        for (; call.running < count; ++call.running) hand_over(call);
      } catch (const std::exception&) {
        // No thread or memory for another helper: the helpers already
        // handed the call and the caller drain every index between them.
      }
    }
    drain();
    std::unique_lock<std::mutex> lock(mutex_);
    call.finished.wait(lock, [&] { return call.running == 0; });
  }

 private:
  /// Give `call` to a parked helper, or to a new one if none is parked.
  /// Requires `mutex_`.
  void hand_over(Call& call) {
    if (parked_ != nullptr) {
      Helper* helper = parked_;
      parked_ = helper->next_parked;
      helper->call = &call;
      helper->wake.notify_one();
      return;
    }
    Helper& helper = helpers_.emplace_back();
    helper.call = &call;
    try {
      helper.thread = std::thread(&HelperCache::serve, this, &helper);
    } catch (...) {
      helpers_.pop_back();
      throw;
    }
  }

  void serve(Helper* self) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      self->wake.wait(lock,
                      [&] { return self->call != nullptr || stopping_; });
      if (self->call == nullptr) return;
      Call* call = self->call;
      lock.unlock();
      (*call->drain)();
      lock.lock();
      // Park before reporting back, so that the caller's next call finds
      // this helper parked instead of starting a thread.
      self->call = nullptr;
      self->next_parked = parked_;
      parked_ = self;
      if (--call->running == 0) call->finished.notify_one();
    }
  }

  std::mutex mutex_;
  std::deque<Helper> helpers_;  ///< a deque: helpers never move
  Helper* parked_ = nullptr;    ///< stack of parked helpers
  bool stopping_ = false;
};

}  // namespace

void run_on_helpers(std::size_t helpers,
                    const std::function<void()>& drain) {
  static HelperCache cache;
  cache.run(helpers, drain);
}

}  // namespace detail
}  // namespace topil
