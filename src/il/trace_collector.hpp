#pragma once

#include <map>
#include <mutex>
#include <vector>

#include "apps/app_model.hpp"
#include "platform/floorplan.hpp"
#include "power/power_model.hpp"
#include "thermal/thermal_model.hpp"

namespace topil::il {

/// One design-time trace-collection scenario: an application of interest
/// plus a fixed assignment of background applications to cores.
struct Scenario {
  const AppSpec* aoi = nullptr;
  std::map<CoreId, const AppSpec*> background;  ///< occupied core -> app

  std::vector<CoreId> free_cores(const PlatformSpec& platform) const;
};

/// Result of executing the AoI on one core at one VF-level combination.
struct TraceResult {
  double aoi_ips = 0.0;
  double aoi_l2d_rate = 0.0;
  double peak_temp_c = 0.0;
};

/// All traces of one scenario, indexed by (per-cluster VF levels, AoI core).
///
/// Mirrors the paper's redundancy-avoiding procedure: traces are recorded
/// per VF-level combination once, and QoS targets are swept afterwards by
/// the oracle extractor.
class ScenarioTraces {
 public:
  ScenarioTraces(Scenario scenario,
                 std::vector<std::vector<std::size_t>> level_grids,
                 std::vector<CoreId> free_cores);

  const Scenario& scenario() const { return scenario_; }
  /// The reduced VF-level grid per cluster (ascending level indices).
  const std::vector<std::size_t>& grid(ClusterId cluster) const;
  const std::vector<CoreId>& free_cores() const { return free_cores_; }

  void set(const std::vector<std::size_t>& levels, CoreId core,
           const TraceResult& result);
  const TraceResult& at(const std::vector<std::size_t>& levels,
                        CoreId core) const;
  bool has(const std::vector<std::size_t>& levels, CoreId core) const;

 private:
  Scenario scenario_;
  std::vector<std::vector<std::size_t>> grids_;
  std::vector<CoreId> free_cores_;
  std::map<std::vector<std::size_t>, std::map<CoreId, TraceResult>> data_;
};

/// Collects scenario traces against the calibrated platform models.
///
/// Because trace-collection workloads are stationary by construction (the
/// paper requires constant-QoS benchmarks here), the peak temperature of a
/// long trace equals the coupled power/thermal steady state, which the
/// collector computes directly — the equivalent of the paper's "2 min
/// background warm-up, then record until 10^10 AoI instructions".
class TraceCollector {
 public:
  struct Config {
    /// Reduced per-cluster VF-level sets used for traces (paper Sec. 4.2);
    /// empty = every 2nd level plus the top level.
    std::vector<std::vector<std::size_t>> level_grids;
    /// Heun keeps the historical fixed-point steady-state iteration;
    /// Exponential solves the coupled power/thermal steady state directly
    /// (leakage is linear in temperature while unclamped) with one cached
    /// LU factorization per VF-level combination.
    ThermalIntegrator integrator = ThermalIntegrator::Heun;
  };

  TraceCollector(const PlatformSpec& platform, const CoolingConfig& cooling);
  TraceCollector(const PlatformSpec& platform, const CoolingConfig& cooling,
                 Config config, FloorplanParams floorplan = {});

  ScenarioTraces collect(const Scenario& scenario) const;

  /// Collect every scenario on up to `jobs` worker threads (0 = hardware
  /// concurrency). Scenarios are independent and the collector is
  /// stateless across `collect` calls, so results land in input order and
  /// are bit-identical to collecting serially (`jobs == 1`).
  std::vector<ScenarioTraces> collect_all(
      const std::vector<Scenario>& scenarios, std::size_t jobs = 0) const;

  /// Coupled power/thermal steady state for a fixed activity assignment
  /// (leakage depends on temperature, so the solution is a fixed point).
  std::vector<double> steady_temps(const std::vector<std::size_t>& levels,
                                   const std::vector<double>& activity) const;

  const PlatformSpec& platform() const { return *platform_; }
  const Floorplan& floorplan() const { return floorplan_; }

 private:
  const PlatformSpec* platform_;
  Floorplan floorplan_;
  PowerModel power_model_;
  ThermalModel thermal_;
  std::vector<std::vector<std::size_t>> grids_;
  ThermalIntegrator integrator_ = ThermalIntegrator::Heun;
  /// One factored coupled-steady-state solver per VF-level combination
  /// (the leakage feedback depends only on cluster voltages). Shared by
  /// the pool workers of collect_all, hence the mutex.
  mutable std::map<std::vector<std::size_t>, SteadyStateSolver> solvers_;
  mutable std::mutex solvers_mu_;

  std::vector<double> steady_temps_fixed_point(
      const std::vector<std::size_t>& levels,
      const std::vector<double>& activity) const;
  std::vector<double> steady_temps_direct(
      const std::vector<std::size_t>& levels,
      const std::vector<double>& activity) const;
  const SteadyStateSolver& solver_for(const std::vector<std::size_t>& levels,
                                      const std::vector<double>& kappa) const;
};

}  // namespace topil::il
