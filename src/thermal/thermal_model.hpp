#pragma once

#include <memory>
#include <string>
#include <vector>

#include "platform/floorplan.hpp"
#include "power/power_model.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/thermal_network.hpp"
#include "thermal/thermal_propagator.hpp"

namespace topil {

/// Heat-removal configuration — the knob the paper varies between training
/// (active cooling with a fan) and evaluation (also passive, without a fan).
struct CoolingConfig {
  std::string name;
  double heatsink_to_ambient_g = 0.25;  ///< W/K convective conductance
  double ambient_c = 25.0;

  /// Active cooling used while recording oracle demonstrations.
  static CoolingConfig fan();
  /// Passive cooling used to test generalization (paper Fig. "without fan").
  static CoolingConfig no_fan();
};

/// Transient chip thermal model: floorplan topology + RC network + current
/// node temperatures. Translates a PowerBreakdown into per-node heat input.
/// The network itself, its steady-state LU and its propagators belong to
/// the process-wide ThermalNetwork every model of the same floorplan and
/// cooling shares; a model owns only its node temperatures and scratch.
class ThermalModel {
 public:
  ThermalModel(const PlatformSpec& platform, const Floorplan& floorplan,
               const CoolingConfig& cooling,
               ThermalIntegrator integrator = ThermalIntegrator::Heun);

  /// Reset all nodes to ambient.
  void reset();

  /// Advance the network by dt seconds under the given block powers.
  void step(const PowerBreakdown& power, double dt);

  /// Instantly settle to the steady state for the given block powers
  /// (used by the trace collector to skip warm-up transients in tests).
  void settle(const PowerBreakdown& power);

  double core_temp_c(CoreId core) const;
  double cluster_temp_c(ClusterId cluster) const;
  double package_temp_c() const;
  /// Hottest core temperature — what the on-board sensor tracks.
  double max_core_temp_c() const;
  const std::vector<double>& node_temps_c() const { return temps_; }
  /// Overwrite all node temperatures (validation tooling: shadow models
  /// are synchronized to a running simulation before cross-checking).
  void set_node_temps_c(const std::vector<double>& temps_c);

  /// Map a block-level PowerBreakdown onto per-node heat input.
  std::vector<double> node_power(const PowerBreakdown& power) const;

  /// Same, into a caller-owned buffer (`step` and `settle` reuse one
  /// across calls instead of allocating).
  void node_power_into(const PowerBreakdown& power,
                       std::vector<double>& out) const;
  /// The same mapping for any platform and floorplan, without a model.
  static void node_power_into(const PlatformSpec& platform,
                              const Floorplan& floorplan,
                              const PowerBreakdown& power,
                              std::vector<double>& out);

  /// Direct mutable access to the node-temperature state. The fleet engine
  /// scatters batched-propagator results back through this instead of
  /// set_node_temps_c so the per-tick write is a plain column copy; the
  /// caller must keep the vector's size unchanged.
  std::vector<double>& mutable_node_temps_c() { return temps_; }

  /// The shared exponential propagator this model would use for a step of
  /// `dt` (fetched from the shared network on first use, exactly like
  /// `step`). The fleet engine groups lanes by the returned pointer — equal
  /// pointers mean identical (network, dt) and therefore batchable lanes.
  /// Only meaningful for the Exponential integrator.
  std::shared_ptr<const ThermalPropagator> propagator_for(double dt) const;

  const CoolingConfig& cooling() const { return cooling_; }
  const Floorplan& floorplan() const { return *floorplan_; }
  ThermalIntegrator integrator() const { return integrator_; }
  const RCNetwork& network() const { return network_->rc(); }
  const ThermalNetwork& shared_network() const { return *network_; }

  /// Steady-state node temperatures without mutating current state.
  /// Served from the shared network's LU factorization (factored on the
  /// first call) — bit-identical to the per-call elimination it replaced,
  /// at O(n^2) per solve.
  std::vector<double> steady_state(const PowerBreakdown& power) const;

  /// What the RC network of a floorplan + cooling config is assembled
  /// from: node capacitances, the heatsink's ambient conductance and the
  /// floorplan's conductances in order. `RCNetwork(network_inputs(...))`
  /// builds that network on its own, outside the process-wide cache.
  static RCNetwork::Inputs network_inputs(const Floorplan& fp,
                                          const CoolingConfig& cooling);

 private:
  const PlatformSpec* platform_;
  const Floorplan* floorplan_;
  CoolingConfig cooling_;
  ThermalIntegrator integrator_;
  std::shared_ptr<const ThermalNetwork> network_;
  std::vector<double> temps_;
  RCNetwork::StepWorkspace step_ws_;  ///< reused across simulator ticks
  std::vector<double> power_buf_;     ///< node-power scratch for step()
  // Exponential-integrator state: the propagator is fetched lazily from the
  // shared network on the first step and refreshed only if the caller
  // changes dt.
  mutable std::shared_ptr<const ThermalPropagator> propagator_;
  mutable ThermalPropagator::Workspace prop_ws_;
};

}  // namespace topil
