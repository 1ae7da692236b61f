#include "scenario/generator.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "apps/app_database.hpp"
#include "common/rng.hpp"
#include "platform/floorplan.hpp"
#include "power/power_model.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/thermal_model.hpp"
#include "thermal/thermal_propagator.hpp"
#include "workloads/generator.hpp"

namespace topil::scenario {

namespace {

constexpr double kTickChoices[] = {0.005, 0.01, 0.02};

/// One random candidate plus the per-app target runtimes (seconds at
/// platform-peak IPS) that finalize_durations() converts into
/// instruction scales once the generated platform is known.
std::pair<ScenarioSpec, std::vector<double>> draw_candidate(
    Rng& rng, std::uint64_t index, const GeneratorConfig& config) {
  ScenarioSpec spec;
  spec.id = index;
  spec.sim_seed = rng.engine()();

  auto draw_tier = [&](std::string name, double blend) {
    TierSpec t;
    t.name = std::move(name);
    t.perf_blend = blend;
    t.num_cores = static_cast<std::size_t>(
        rng.uniform_int(static_cast<int>(config.min_cores_per_cluster),
                        static_cast<int>(config.max_cores_per_cluster)));
    t.freq_scale = rng.uniform(1.0 - config.vf_jitter, 1.0 + config.vf_jitter);
    t.volt_scale = rng.uniform(1.0 - config.vf_jitter, 1.0 + config.vf_jitter);
    t.dyn_scale =
        rng.uniform(1.0 - config.power_jitter, 1.0 + config.power_jitter);
    t.leak_scale =
        rng.uniform(1.0 - config.power_jitter, 1.0 + config.power_jitter);
    return t;
  };
  // Tiers sit at uniformly spaced perf-axis positions. Canonical positions
  // keep their legacy names so two- and three-tier draws reproduce the
  // classic little[/mid]/big shapes; other positions get generated names,
  // exercising the arbitrary-tier serialization path.
  const std::size_t n_tiers = static_cast<std::size_t>(
      rng.uniform_int(static_cast<int>(config.min_clusters),
                      static_cast<int>(config.max_clusters)));
  spec.tiers.clear();
  for (std::size_t i = 0; i < n_tiers; ++i) {
    const double blend =
        n_tiers == 1 ? 1.0
                     : static_cast<double>(i) / static_cast<double>(n_tiers - 1);
    std::string name;
    if (blend == 0.0) {
      name = "little";
    } else if (blend == 0.5) {
      name = "mid";
    } else if (blend == 1.0) {
      name = "big";
    } else {
      name = "tier" + std::to_string(i);
    }
    spec.tiers.push_back(draw_tier(std::move(name), blend));
  }
  if (rng.bernoulli(config.p_grid)) {
    // Most square factorization of the total core count; primes degrade
    // to a 1 x N strip, still a valid grid placement.
    std::size_t total = 0;
    for (const TierSpec& t : spec.tiers) total += t.num_cores;
    std::size_t rows = 1;
    for (std::size_t r = 1; r * r <= total; ++r) {
      if (total % r == 0) rows = r;
    }
    spec.grid = GridPlacement{rows, total / rows};
  }

  spec.npu = rng.bernoulli(config.p_npu);
  spec.floorplan_jitter_rel = rng.uniform(0.0, config.max_floorplan_jitter);
  spec.floorplan_jitter_seed = rng.engine()();
  spec.fan = !rng.bernoulli(config.p_no_fan);
  spec.ambient_c = rng.uniform(config.min_ambient_c, config.max_ambient_c);
  spec.heatsink_g_scale =
      rng.uniform(config.min_heatsink_g_scale, config.max_heatsink_g_scale);
  spec.tick_s = kTickChoices[rng.index(std::size(kTickChoices))];

  const auto& governors = scenario_governors();
  spec.governor = governors[rng.index(governors.size())];

  const std::size_t n_apps = static_cast<std::size_t>(
      rng.uniform_int(static_cast<int>(config.min_apps),
                      static_cast<int>(config.max_apps)));
  const auto pattern = static_cast<ArrivalPattern>(rng.uniform_int(0, 2));
  const double rate = rng.uniform(config.min_arrival_rate_per_s,
                                  config.max_arrival_rate_per_s);
  const std::vector<double> arrivals =
      sample_arrivals(n_apps, pattern, rate, rng);

  const auto pool = AppDatabase::instance().mixed_pool();
  std::vector<double> runtimes;
  for (std::size_t i = 0; i < n_apps; ++i) {
    ScenarioApp app;
    app.name = pool[rng.index(pool.size())]->name;
    app.qos_fraction =
        rng.uniform(config.min_qos_fraction, config.max_qos_fraction);
    // sample_arrivals returns sorted times and apps are appended in that
    // order, so materialize()'s stable arrival sort is the identity and
    // spec.apps[i] stays aligned with runtimes[i].
    app.arrival_time_s = arrivals[i];
    app.instruction_scale = 1.0;
    spec.apps.push_back(std::move(app));
    runtimes.push_back(rng.uniform(config.min_runtime_s, config.max_runtime_s));
  }
  return {std::move(spec), std::move(runtimes)};
}

/// Turn target runtimes into instruction scales against the adapted apps
/// (materialized with scale 1) and derive a max_duration that guarantees
/// the workload drains even in the worst case: every app standalone on the
/// slowest cluster pinned at its lowest frequency.
void finalize_durations(ScenarioSpec& spec, const MaterializedScenario& m,
                        std::vector<double> runtimes,
                        const GeneratorConfig& config) {
  double worst_sum = 0.0;
  std::vector<double> worst(spec.apps.size(), 0.0);
  for (std::size_t i = 0; i < spec.apps.size(); ++i) {
    const AppSpec& adapted = *m.apps[i];
    const double peak = adapted.peak_ips(m.platform);
    double min_ips = peak;
    for (ClusterId c = 0; c < m.platform.num_clusters(); ++c) {
      min_ips = std::min(
          min_ips, adapted.average_ips(c, m.platform.cluster(c).vf.min_freq()));
    }
    worst[i] = runtimes[i] * peak / min_ips;
    worst_sum += worst[i];
  }
  if (worst_sum > config.max_worst_case_runtime_s) {
    const double shrink = config.max_worst_case_runtime_s / worst_sum;
    for (double& t : runtimes) t *= shrink;
    worst_sum = config.max_worst_case_runtime_s;
  }
  for (std::size_t i = 0; i < spec.apps.size(); ++i) {
    const AppSpec& adapted = *m.apps[i];
    spec.apps[i].instruction_scale =
        runtimes[i] * adapted.peak_ips(m.platform) /
        adapted.total_instructions();
  }
  const double last_arrival = spec.apps.back().arrival_time_s;
  spec.max_duration_s = last_arrival + 1.5 * worst_sum + 20.0;
}

bool passes_thermal_guards(const ScenarioSpec& spec,
                           const MaterializedScenario& m,
                           const GeneratorConfig& config) {
  // The candidate's own network and LU, freed on return: a candidate is
  // checked once, and the process-wide ThermalNetwork cache is for the
  // networks that simulations share.
  const Floorplan fp = Floorplan::for_platform(m.platform, m.sim.floorplan);
  const RCNetwork network(ThermalModel::network_inputs(fp, m.cooling));

  const double stable_dt = network.max_stable_dt();
  if (spec.tick_s >
      stable_dt * static_cast<double>(config.max_substeps_per_tick)) {
    return false;
  }

  // Worst sustained operating point: every core at the top VF level with
  // the highest activity the performance model produces, leakage evaluated
  // at the guard temperature itself, NPU active if present.
  const PowerModel power(m.platform);
  std::vector<std::size_t> levels(m.platform.num_clusters());
  for (ClusterId c = 0; c < m.platform.num_clusters(); ++c) {
    levels[c] = m.platform.cluster(c).vf.num_levels() - 1;
  }
  const std::vector<double> activity(m.platform.num_cores(), 1.2);
  const std::vector<double> temps(m.platform.num_cores(),
                                  config.max_steady_temp_c);
  const PowerBreakdown breakdown =
      power.compute(levels, activity, temps, spec.npu);
  std::vector<double> node_power;
  ThermalModel::node_power_into(m.platform, fp, breakdown, node_power);
  const std::vector<double> steady =
      SteadyStateSolver(network).solve(node_power, m.cooling.ambient_c);
  const double hottest = *std::max_element(steady.begin(), steady.end());
  return hottest <= config.max_steady_temp_c;
}

}  // namespace

ScenarioSpec generate_scenario(std::uint64_t campaign_seed,
                               std::uint64_t index,
                               const GeneratorConfig& config) {
  TOPIL_REQUIRE(config.min_apps >= 1 && config.min_apps <= config.max_apps,
                "generator: bad app-count bounds");
  TOPIL_REQUIRE(config.min_clusters >= 1 &&
                    config.min_clusters <= config.max_clusters,
                "generator: bad cluster-count bounds");
  TOPIL_REQUIRE(config.min_cores_per_cluster >= 1 &&
                    config.min_cores_per_cluster <=
                        config.max_cores_per_cluster &&
                    config.max_cores_per_cluster <= kMaxTierCores,
                "generator: bad core-count bounds");
  TOPIL_REQUIRE(config.max_attempts >= 1, "generator: need >= 1 attempt");
  Rng rng = Rng::stream(campaign_seed, index);

  ScenarioSpec last;
  std::vector<double> last_runtimes;
  for (std::size_t attempt = 0; attempt < config.max_attempts; ++attempt) {
    auto [spec, runtimes] = draw_candidate(rng, index, config);
    const MaterializedScenario m = materialize(spec);
    finalize_durations(spec, m, runtimes, config);
    if (passes_thermal_guards(spec, m, config)) return spec;
    last = std::move(spec);
    last_runtimes = std::move(runtimes);
  }

  // Every candidate failed a guard (possible under extreme configs):
  // neutralize the thermal risk factors of the last candidate. The nominal
  // floorplan with active cooling at default ambient is the calibrated
  // HiKey operating point and always satisfies both guards.
  last.floorplan_jitter_rel = 0.0;
  last.fan = true;
  last.ambient_c = 25.0;
  last.heatsink_g_scale = 1.0;
  for (TierSpec& t : last.tiers) {
    t.freq_scale = t.volt_scale = t.dyn_scale = t.leak_scale = 1.0;
  }
  const MaterializedScenario m = materialize(last);
  finalize_durations(last, m, std::move(last_runtimes), config);
  return last;
}

}  // namespace topil::scenario
