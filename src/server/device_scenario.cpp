#include "server/device_scenario.hpp"

#include <algorithm>

#include "apps/app_database.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "governors/topil_governor.hpp"
#include "il/features.hpp"
#include "il/il_model.hpp"
#include "sim/system_sim.hpp"
#include "validate/digest_monitor.hpp"

namespace topil::server {

scenario::ScenarioSpec make_device_scenario(
    std::uint64_t seed, std::uint64_t device_id,
    const DeviceScenarioOptions& opts) {
  TOPIL_REQUIRE(opts.num_apps > 0, "device scenario needs at least one app");
  TOPIL_REQUIRE(opts.max_duration_s > 0.0,
                "device scenario duration must be positive");
  scenario::ScenarioSpec spec;  // default tiers: hikey970-shaped 4+4
  spec.id = device_id;
  // Distinct sensor-noise stream per device, reproducible from the ids.
  spec.sim_seed = (seed * 0x9e3779b97f4a7c15ull) ^ (device_id + 1);
  spec.npu = true;
  spec.max_duration_s = opts.max_duration_s;
  spec.governor = opts.governor;

  // App mix: independent (seed, device_id) substream, arrivals spread over
  // the first quarter of the horizon so the fleet ramps up, target runtimes
  // sized so devices stay busy until near the duration cap.
  Rng rng = Rng::stream(seed, device_id);
  const auto pool = AppDatabase::instance().mixed_pool();
  const PlatformSpec platform = scenario::build_platform(spec);
  for (std::size_t i = 0; i < opts.num_apps; ++i) {
    const AppSpec& app = *pool[rng.index(pool.size())];
    scenario::ScenarioApp sa;
    sa.name = app.name;
    sa.qos_fraction = rng.uniform(0.35, 0.7);
    sa.arrival_time_s =
        i == 0 ? 0.0 : rng.uniform(0.0, 0.25 * opts.max_duration_s);
    // Adapted instruction budgets scale linearly with instruction_scale
    // (scale 1 materialization gives the per-app peak IPS), so target a
    // runtime that covers most of the remaining horizon.
    const double runtime = opts.instruction_scale *
                           rng.uniform(0.6, 0.95) *
                           (opts.max_duration_s - sa.arrival_time_s);
    sa.instruction_scale = 1.0;
    spec.apps.push_back(sa);
    // Fix up the scale from the unscaled app's own characteristics; this
    // avoids a full materialize() per app (the pool entries are the
    // database rows the adapted specs are derived from).
    const double peak = app.peak_ips(platform);
    spec.apps.back().instruction_scale =
        runtime * peak / app.total_instructions();
  }
  std::stable_sort(spec.apps.begin(), spec.apps.end(),
                   [](const scenario::ScenarioApp& a,
                      const scenario::ScenarioApp& b) {
                     return a.arrival_time_s < b.arrival_time_s;
                   });
  return spec;
}

nn::Mlp make_policy_net(const PlatformSpec& platform,
                        std::uint64_t policy_seed) {
  const il::FeatureExtractor features(platform);
  nn::Topology topology;
  topology.inputs = features.num_features();
  topology.hidden = {16};
  topology.outputs = features.num_outputs();
  nn::Mlp net(topology);
  net.init(policy_seed);
  return net;
}

std::unique_ptr<Governor> make_device_governor(
    const scenario::ScenarioSpec& spec, const PlatformSpec& platform,
    std::uint64_t policy_seed, npu::InferenceAggregator* aggregator) {
  if (spec.governor == "topil") {
    TopIlGovernor::Config config;
    config.aggregator = aggregator;
    il::IlPolicyModel model(make_policy_net(platform, policy_seed), platform);
    return std::make_unique<TopIlGovernor>(std::move(model), config);
  }
  return scenario::make_scenario_governor(spec.governor, platform,
                                          policy_seed);
}

ActionMsg sample_action(const SystemSim& sim, std::uint64_t device_id,
                        std::uint64_t seq) {
  ActionMsg m;
  m.device_id = device_id;
  m.seq = seq;
  m.tick = sim.tick_index();
  m.sim_time_s = sim.now();
  const PlatformSpec& platform = sim.platform();
  m.vf_levels.reserve(platform.num_clusters());
  for (ClusterId c = 0; c < platform.num_clusters(); ++c) {
    m.vf_levels.push_back(sim.requested_vf_level(c));
  }
  std::vector<Pid> pids = sim.running_pids();
  std::sort(pids.begin(), pids.end());
  m.placements.reserve(pids.size());
  for (Pid pid : pids) {
    ActionMsg::Placement p;
    p.pid = static_cast<std::uint64_t>(pid);
    p.core = static_cast<std::uint64_t>(sim.process(pid).core());
    m.placements.push_back(p);
  }
  return m;
}

DeviceRunSummary run_reference_device(const scenario::ScenarioSpec& spec,
                                      std::uint64_t device_id,
                                      std::uint64_t policy_seed,
                                      std::size_t epoch_ticks) {
  TOPIL_REQUIRE(epoch_ticks > 0, "epoch_ticks must be positive");
  const scenario::MaterializedScenario m = scenario::materialize(spec);
  validate::DigestMonitor monitor;
  ExperimentConfig config;
  config.cooling = m.cooling;
  config.sim = m.sim;
  config.sim.integrator = ThermalIntegrator::Exponential;
  config.max_duration_s = m.max_duration_s;
  config.monitor = &monitor;
  // No aggregator: the solo device computes each inference batch on its
  // own (deferred vs. immediate inference is bit-identical — the
  // InferenceAggregator contract this function exists to verify).
  std::unique_ptr<Governor> governor =
      make_device_governor(spec, m.platform, policy_seed, nullptr);
  ExperimentRun run(m.platform, *governor, m.workload, config);

  DeviceRunSummary out;
  validate::Fnv64 action_digest;
  while (run.step()) {
    const SystemSim& sim = run.sim();
    if (sim.tick_index() % epoch_ticks == 0) {
      fold_action(action_digest, sample_action(sim, device_id, out.actions));
      ++out.actions;
    }
  }
  out.digest = monitor.digest();
  out.ticks = monitor.ticks();
  out.action_digest = action_digest.value();
  return out;
}

}  // namespace topil::server
