#include "il/trace_collector.hpp"

#include <algorithm>
#include <cmath>

#include "common/parallel_for.hpp"

namespace topil::il {

std::vector<CoreId> Scenario::free_cores(const PlatformSpec& platform) const {
  std::vector<CoreId> out;
  for (CoreId core = 0; core < platform.num_cores(); ++core) {
    if (background.count(core) == 0) out.push_back(core);
  }
  return out;
}

ScenarioTraces::ScenarioTraces(
    Scenario scenario, std::vector<std::vector<std::size_t>> level_grids,
    std::vector<CoreId> free_cores)
    : scenario_(std::move(scenario)),
      grids_(std::move(level_grids)),
      free_cores_(std::move(free_cores)) {}

const std::vector<std::size_t>& ScenarioTraces::grid(ClusterId cluster) const {
  TOPIL_REQUIRE(cluster < grids_.size(), "cluster out of range");
  return grids_[cluster];
}

void ScenarioTraces::set(const std::vector<std::size_t>& levels, CoreId core,
                         const TraceResult& result) {
  data_[levels][core] = result;
}

const TraceResult& ScenarioTraces::at(const std::vector<std::size_t>& levels,
                                      CoreId core) const {
  const auto it = data_.find(levels);
  TOPIL_REQUIRE(it != data_.end(), "no trace at requested VF levels");
  const auto jt = it->second.find(core);
  TOPIL_REQUIRE(jt != it->second.end(), "no trace for requested core");
  return jt->second;
}

bool ScenarioTraces::has(const std::vector<std::size_t>& levels,
                         CoreId core) const {
  const auto it = data_.find(levels);
  if (it == data_.end()) return false;
  return it->second.count(core) != 0;
}

TraceCollector::TraceCollector(const PlatformSpec& platform,
                               const CoolingConfig& cooling)
    : TraceCollector(platform, cooling, Config{}) {}

TraceCollector::TraceCollector(const PlatformSpec& platform,
                               const CoolingConfig& cooling, Config config,
                               FloorplanParams floorplan)
    : platform_(&platform),
      floorplan_(Floorplan::for_platform(platform, floorplan)),
      power_model_(platform),
      thermal_(platform, floorplan_, cooling, config.integrator),
      grids_(std::move(config.level_grids)),
      integrator_(config.integrator) {
  if (grids_.empty()) {
    // Default reduced set: every second level, always including the top.
    for (ClusterId c = 0; c < platform.num_clusters(); ++c) {
      const std::size_t n = platform.cluster(c).vf.num_levels();
      std::vector<std::size_t> grid;
      for (std::size_t level = 0; level < n; level += 2) grid.push_back(level);
      if (grid.back() != n - 1) grid.push_back(n - 1);
      grids_.push_back(std::move(grid));
    }
  }
  TOPIL_REQUIRE(grids_.size() == platform.num_clusters(),
                "one level grid per cluster required");
  for (ClusterId c = 0; c < grids_.size(); ++c) {
    TOPIL_REQUIRE(!grids_[c].empty(), "empty level grid");
    TOPIL_REQUIRE(std::is_sorted(grids_[c].begin(), grids_[c].end()),
                  "level grid must be ascending");
    TOPIL_REQUIRE(grids_[c].back() < platform.cluster(c).vf.num_levels(),
                  "level grid exceeds VF table");
  }
}

std::vector<double> TraceCollector::steady_temps(
    const std::vector<std::size_t>& levels,
    const std::vector<double>& activity) const {
  return integrator_ == ThermalIntegrator::Exponential
             ? steady_temps_direct(levels, activity)
             : steady_temps_fixed_point(levels, activity);
}

std::vector<double> TraceCollector::steady_temps_fixed_point(
    const std::vector<std::size_t>& levels,
    const std::vector<double>& activity) const {
  // Fixed-point iteration over the leakage/temperature coupling; converges
  // in a handful of rounds because leakage is a weak linear feedback.
  std::vector<double> core_temps(platform_->num_cores(),
                                 thermal_.cooling().ambient_c);
  std::vector<double> node_temps;
  for (int iter = 0; iter < 8; ++iter) {
    const PowerBreakdown power =
        power_model_.compute(levels, activity, core_temps, false);
    node_temps = thermal_.steady_state(power);
    double max_delta = 0.0;
    for (CoreId core = 0; core < platform_->num_cores(); ++core) {
      const double t = node_temps[thermal_.floorplan().core_nodes[core]];
      max_delta = std::max(max_delta, std::abs(t - core_temps[core]));
      core_temps[core] = t;
    }
    if (max_delta < 1e-4) break;
  }
  return node_temps;
}

const SteadyStateSolver& TraceCollector::solver_for(
    const std::vector<std::size_t>& levels,
    const std::vector<double>& kappa) const {
  // std::map nodes are stable, so the reference stays valid after other
  // workers insert; only lookup/factorization runs under the lock.
  std::lock_guard<std::mutex> lock(solvers_mu_);
  auto it = solvers_.find(levels);
  if (it == solvers_.end()) {
    it = solvers_.try_emplace(levels, thermal_.network(), kappa).first;
  }
  return it->second;
}

std::vector<double> TraceCollector::steady_temps_direct(
    const std::vector<std::size_t>& levels,
    const std::vector<double>& activity) const {
  // While no core's leakage hits the zero clamp, leakage is *linear* in
  // core temperature: P_i(T_i) = P_i(tref) + kappa_i (T_i - tref) with
  // kappa_i = V * g1. The coupled power/thermal fixed point is then the
  // single linear solve (L - diag(kappa)) T = P(tref) - kappa*tref + Gamb*Tamb,
  // factored once per VF-level combination and reused for every activity
  // assignment and background combination of the sweep.
  const Floorplan& fp = thermal_.floorplan();
  const std::size_t n_nodes = fp.nodes.size();
  std::vector<double> kappa(n_nodes, 0.0);
  std::vector<double> tref(platform_->num_cores(), 0.0);
  for (CoreId core = 0; core < platform_->num_cores(); ++core) {
    const ClusterId cl = platform_->cluster_of_core(core);
    const auto& spec = platform_->cluster(cl);
    const double volt = spec.vf.at(levels[cl]).voltage_v;
    kappa[fp.core_nodes[core]] = volt * spec.power.leak_g1_w_per_v_k;
    tref[core] = spec.power.leak_tref_c;
  }

  // Powers evaluated at the leakage reference temperature: the leakage
  // contribution there is V*g0, i.e. exactly the constant part — as long
  // as it is not clamped, which the validation below verifies.
  const PowerBreakdown power =
      power_model_.compute(levels, activity, tref, false);
  std::vector<double> temps(n_nodes, 0.0);
  for (CoreId core = 0; core < platform_->num_cores(); ++core) {
    temps[fp.core_nodes[core]] += power.core_w[core];
  }
  for (ClusterId c = 0; c < platform_->num_clusters(); ++c) {
    temps[fp.cluster_nodes[c]] += power.uncore_w[c];
  }
  if (fp.npu_node != kNoNode) temps[fp.npu_node] += power.npu_w;
  const std::vector<double>& g_amb = thermal_.network().ambient_conductances();
  const double ambient = thermal_.cooling().ambient_c;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    temps[i] += g_amb[i] * ambient;
  }
  for (CoreId core = 0; core < platform_->num_cores(); ++core) {
    temps[fp.core_nodes[core]] -= kappa[fp.core_nodes[core]] * tref[core];
  }
  solver_for(levels, kappa).solve_rhs_into(temps);

  // Validate the linearization: if any core's leakage would clamp at zero
  // at the solved temperature (or already at tref), the linear model does
  // not hold — fall back to the clamp-aware fixed-point iteration.
  for (CoreId core = 0; core < platform_->num_cores(); ++core) {
    const ClusterId cl = platform_->cluster_of_core(core);
    const double t = temps[fp.core_nodes[core]];
    if (power_model_.core_leakage_w(cl, levels[cl], t) <= 0.0 ||
        power_model_.core_leakage_w(cl, levels[cl], tref[core]) <= 0.0) {
      return steady_temps_fixed_point(levels, activity);
    }
  }
  return temps;
}

ScenarioTraces TraceCollector::collect(const Scenario& scenario) const {
  TOPIL_REQUIRE(scenario.aoi != nullptr, "scenario has no AoI");
  TOPIL_REQUIRE(!scenario.aoi->phases.empty(), "AoI has no phases");
  for (const auto& [core, app] : scenario.background) {
    TOPIL_REQUIRE(core < platform_->num_cores(), "background core invalid");
    TOPIL_REQUIRE(app != nullptr, "null background app");
  }
  const std::vector<CoreId> free = scenario.free_cores(*platform_);
  TOPIL_REQUIRE(!free.empty(), "scenario has no free core for the AoI");

  ScenarioTraces traces(scenario, grids_, free);

  // Enumerate all VF-level combinations of the per-cluster grids.
  std::vector<std::size_t> combo(platform_->num_clusters(), 0);
  std::vector<std::size_t> idx(platform_->num_clusters(), 0);
  bool done = false;
  while (!done) {
    for (ClusterId c = 0; c < combo.size(); ++c) combo[c] = grids_[c][idx[c]];

    for (CoreId aoi_core : free) {
      const ClusterId aoi_cluster = platform_->cluster_of_core(aoi_core);
      std::vector<double> activity(platform_->num_cores(), 0.0);
      for (const auto& [core, app] : scenario.background) {
        const ClusterId cl = platform_->cluster_of_core(core);
        activity[core] = app->phase(0).perf[cl].activity;
      }
      activity[aoi_core] = scenario.aoi->phase(0).perf[aoi_cluster].activity;

      const double aoi_freq =
          platform_->cluster(aoi_cluster).vf.at(combo[aoi_cluster]).freq_ghz;
      const std::vector<double> temps = steady_temps(combo, activity);
      double peak = temps[thermal_.floorplan().core_nodes[0]];
      for (CoreId core = 1; core < platform_->num_cores(); ++core) {
        peak = std::max(peak, temps[thermal_.floorplan().core_nodes[core]]);
      }

      TraceResult result;
      result.aoi_ips = scenario.aoi->phase(0).ips(aoi_cluster, aoi_freq);
      result.aoi_l2d_rate =
          result.aoi_ips * scenario.aoi->phase(0).l2d_per_inst;
      result.peak_temp_c = peak;
      traces.set(combo, aoi_core, result);
    }

    // Advance the mixed-radix counter over grid indices.
    done = true;
    for (ClusterId c = 0; c < idx.size(); ++c) {
      if (++idx[c] < grids_[c].size()) {
        done = false;
        break;
      }
      idx[c] = 0;
    }
  }
  return traces;
}

std::vector<ScenarioTraces> TraceCollector::collect_all(
    const std::vector<Scenario>& scenarios, std::size_t jobs) const {
  return parallel_map(scenarios.size(), jobs, [&](std::size_t i) {
    return collect(scenarios[i]);
  });
}

}  // namespace topil::il
