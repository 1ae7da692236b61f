#include "thermal/thermal_network.hpp"

#include <cstring>
#include <iterator>
#include <utility>

namespace topil {

namespace {

/// Networks by `RCNetwork::Inputs::hash()`. A key may hold several
/// networks; `Inputs::identical` tells them apart.
struct NetworkCache {
  std::mutex mutex;
  std::multimap<std::uint64_t, std::shared_ptr<const ThermalNetwork>> by_key;
};

NetworkCache& network_cache() {
  static NetworkCache cache;
  return cache;
}

}  // namespace

ThermalNetwork::ThermalNetwork(RCNetwork::Inputs inputs)
    : rc_(std::move(inputs)) {
  // Prime the lazy stability bound now, so threads sharing this network
  // only ever read it.
  rc_.max_stable_dt();
}

std::shared_ptr<const ThermalNetwork> ThermalNetwork::shared(
    RCNetwork::Inputs inputs) {
  const std::uint64_t key = inputs.hash();
  return shared(std::move(inputs), key);
}

std::shared_ptr<const ThermalNetwork> ThermalNetwork::shared(
    RCNetwork::Inputs inputs, std::uint64_t key) {
  NetworkCache& cache = network_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  const auto [first, last] = cache.by_key.equal_range(key);
  for (auto it = first; it != last; ++it) {
    if (it->second->rc().inputs().identical(inputs)) return it->second;
  }
  if (cache.by_key.size() >= kRetained) {
    // Only the cache holds an entry whose use count is 1, and only the
    // cache, under this mutex, can hand out a new reference to it.
    for (auto it = cache.by_key.begin(); it != cache.by_key.end();) {
      it = it->second.use_count() == 1 ? cache.by_key.erase(it)
                                       : std::next(it);
    }
  }
  std::shared_ptr<const ThermalNetwork> network(
      new ThermalNetwork(std::move(inputs)));
  cache.by_key.emplace(key, network);
  return network;
}

std::size_t ThermalNetwork::cache_size() {
  NetworkCache& cache = network_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  return cache.by_key.size();
}

void ThermalNetwork::clear_cache() {
  NetworkCache& cache = network_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  cache.by_key.clear();
}

const SteadyStateSolver& ThermalNetwork::steady_solver() const {
  if (const SteadyStateSolver* solver =
          solver_.load(std::memory_order_acquire)) {
    return *solver;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (!solver_owner_) {
    solver_owner_ = std::make_unique<const SteadyStateSolver>(rc_);
    solver_.store(solver_owner_.get(), std::memory_order_release);
  }
  return *solver_owner_;
}

std::shared_ptr<const ThermalPropagator> ThermalNetwork::propagator(
    double dt) const {
  std::uint64_t dt_bits = 0;
  std::memcpy(&dt_bits, &dt, sizeof(dt_bits));
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = propagators_.find(dt_bits);
  if (it != propagators_.end()) return it->second;
  auto built = std::make_shared<const ThermalPropagator>(rc_, dt);
  propagators_.emplace(dt_bits, built);
  return built;
}

std::size_t ThermalNetwork::num_propagators() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return propagators_.size();
}

std::size_t ThermalPropagator::shared_cache_size() {
  NetworkCache& cache = network_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  std::size_t count = 0;
  for (const auto& [key, network] : cache.by_key) {
    count += network->num_propagators();
  }
  return count;
}

}  // namespace topil
