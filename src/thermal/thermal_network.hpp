#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "thermal/rc_network.hpp"
#include "thermal/thermal_propagator.hpp"

namespace topil {

/// The one owner of an RC thermal network in this process, shared by every
/// ThermalModel built on it: simulator lanes, the invariant checker's
/// shadow model, trace collectors. It holds what no simulation state
/// changes:
/// - the RC matrices and their explicit-integration stability bound;
/// - the steady-state LU, factored on the first `steady_solver()` call;
/// - the exponential propagators, one per dt, built on first use.
/// Immutable once built; the lazily built parts are safe to request from
/// any number of threads, and each is built exactly once.
class ThermalNetwork {
 public:
  /// The process-wide owner of the network `inputs` assemble to. A lookup
  /// hashes and compares the O(n + e) inputs, never the dense matrices;
  /// only bit-identical inputs share an owner. A network nothing outside
  /// the cache holds stays cached for later models until a new network
  /// finds `kRetained` or more cached; that drops every such one first.
  static std::shared_ptr<const ThermalNetwork> shared(RCNetwork::Inputs inputs);
  /// The same lookup under an explicit cache key instead of
  /// `inputs.hash()` (test hook: puts different networks on one key).
  static std::shared_ptr<const ThermalNetwork> shared(RCNetwork::Inputs inputs,
                                                      std::uint64_t key);
  /// Networks in the process-wide cache.
  static std::size_t cache_size();
  /// How many networks the cache holds before a new one drops those
  /// nothing outside it holds.
  static constexpr std::size_t kRetained = 8;
  static void clear_cache();  ///< test hook

  ThermalNetwork(const ThermalNetwork&) = delete;
  ThermalNetwork& operator=(const ThermalNetwork&) = delete;

  const RCNetwork& rc() const { return rc_; }

  /// The factored L = diag(row_sum) - G, factored on the first call.
  const SteadyStateSolver& steady_solver() const;
  /// Whether `steady_solver()` has factored yet.
  bool steady_solver_factored() const {
    return solver_.load(std::memory_order_acquire) != nullptr;
  }

  /// The exponential propagator for steps of `dt`, built on first use.
  std::shared_ptr<const ThermalPropagator> propagator(double dt) const;
  std::size_t num_propagators() const;

 private:
  explicit ThermalNetwork(RCNetwork::Inputs inputs);

  RCNetwork rc_;
  mutable std::mutex mutex_;  ///< guards the lazily built members below
  mutable std::unique_ptr<const SteadyStateSolver> solver_owner_;
  mutable std::atomic<const SteadyStateSolver*> solver_{nullptr};
  /// Keyed by the bit pattern of dt.
  mutable std::map<std::uint64_t, std::shared_ptr<const ThermalPropagator>>
      propagators_;
};

}  // namespace topil
