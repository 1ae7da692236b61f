// Fleet-engine determinism contract (DESIGN.md §10): every lane of a
// batched lockstep run must be bit-identical — same per-tick state digest,
// same tick count, same results — to the same simulation run alone through
// the scalar run_experiment path, for any batch size and composition.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/app_database.hpp"
#include "governors/powersave.hpp"
#include "governors/topil_governor.hpp"
#include "scenario/scenario_spec.hpp"
#include "sim/fleet/batch_runner.hpp"
#include "sim/fleet/fleet_engine.hpp"
#include "validate/digest_monitor.hpp"
#include "workloads/generator.hpp"

namespace topil {
namespace {

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(TOPIL_SCENARIO_CORPUS_DIR)) {
    if (entry.path().extension() == ".scenario") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

struct RunOutcome {
  std::uint64_t digest = 0;
  std::uint64_t ticks = 0;
  ExperimentResult result;
};

ExperimentConfig scenario_run_config(const scenario::MaterializedScenario& m) {
  ExperimentConfig config;
  config.cooling = m.cooling;
  config.sim = m.sim;
  config.sim.integrator = ThermalIntegrator::Exponential;
  config.max_duration_s = m.max_duration_s;
  return config;
}

RunOutcome scalar_run(const scenario::ScenarioSpec& spec) {
  const scenario::MaterializedScenario m = scenario::materialize(spec);
  validate::DigestMonitor monitor;
  ExperimentConfig config = scenario_run_config(m);
  config.monitor = &monitor;
  auto governor =
      scenario::make_scenario_governor(spec.governor, m.platform, spec.sim_seed);
  RunOutcome out;
  out.result = run_experiment(m.platform, *governor, m.workload, config);
  out.digest = monitor.digest();
  out.ticks = monitor.ticks();
  return out;
}

std::vector<RunOutcome> fleet_run(
    const std::vector<scenario::ScenarioSpec>& specs, std::size_t batch,
    std::size_t jobs = 1) {
  std::vector<scenario::MaterializedScenario> ms;
  ms.reserve(specs.size());
  for (const auto& spec : specs) ms.push_back(scenario::materialize(spec));

  std::deque<validate::DigestMonitor> monitors(specs.size());
  std::vector<fleet::FleetJob> fleet_jobs(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    fleet::FleetJob& job = fleet_jobs[i];
    job.platform = &ms[i].platform;
    job.workload = &ms[i].workload;
    job.config = scenario_run_config(ms[i]);
    job.config.monitor = &monitors[i];
    job.make_governor = [&specs, &ms, i](npu::InferenceAggregator*) {
      return scenario::make_scenario_governor(specs[i].governor,
                                              ms[i].platform,
                                              specs[i].sim_seed);
    };
  }

  fleet::FleetOptions options;
  options.batch = batch;
  options.jobs = jobs;
  const std::vector<ExperimentResult> results =
      fleet::run_experiments(fleet_jobs, options);

  std::vector<RunOutcome> out(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    out[i].result = results[i];
    out[i].digest = monitors[i].digest();
    out[i].ticks = monitors[i].ticks();
  }
  return out;
}

void expect_equal_outcome(const RunOutcome& fleet, const RunOutcome& scalar,
                          const std::string& label) {
  EXPECT_EQ(fleet.digest, scalar.digest) << label;
  EXPECT_EQ(fleet.ticks, scalar.ticks) << label;
  EXPECT_DOUBLE_EQ(fleet.result.avg_temp_c, scalar.result.avg_temp_c)
      << label;
  EXPECT_DOUBLE_EQ(fleet.result.peak_temp_c, scalar.result.peak_temp_c)
      << label;
  EXPECT_EQ(fleet.result.qos_violations, scalar.result.qos_violations)
      << label;
  EXPECT_EQ(fleet.result.apps_completed, scalar.result.apps_completed)
      << label;
  EXPECT_DOUBLE_EQ(fleet.result.duration_s, scalar.result.duration_s)
      << label;
}

// --- corpus bit-identity at batch sizes 1, 7 (ragged tail), 64 ---------

TEST(FleetCorpus, BitIdenticalToScalarAcrossBatchSizes) {
  std::vector<scenario::ScenarioSpec> specs;
  for (const std::string& path : corpus_files()) {
    specs.push_back(scenario::ScenarioSpec::load(path));
  }
  ASSERT_GE(specs.size(), 10u);

  std::vector<RunOutcome> scalar;
  scalar.reserve(specs.size());
  for (const auto& spec : specs) scalar.push_back(scalar_run(spec));

  for (std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    const std::vector<RunOutcome> fleet = fleet_run(specs, batch);
    ASSERT_EQ(fleet.size(), scalar.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      expect_equal_outcome(fleet[i], scalar[i],
                           "batch " + std::to_string(batch) + " scenario " +
                               std::to_string(specs[i].id));
    }
  }
}

TEST(FleetCorpus, WorkerCountDoesNotChangeResults) {
  std::vector<scenario::ScenarioSpec> specs;
  for (const std::string& path : corpus_files()) {
    specs.push_back(scenario::ScenarioSpec::load(path));
  }
  const std::vector<RunOutcome> serial = fleet_run(specs, 4, 1);
  const std::vector<RunOutcome> threaded = fleet_run(specs, 4, 4);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(serial[i].digest, threaded[i].digest) << i;
    EXPECT_EQ(serial[i].ticks, threaded[i].ticks) << i;
  }
}

// --- homogeneous fleet: one propagator group, batched thermal path -----

TEST(FleetCorpus, HomogeneousFleetFillsWideBatch) {
  // The corpus scenarios carry distinct jittered RC networks, so they
  // exercise the ragged/singleton-group paths. Replicating one spec with
  // varied sensor seeds builds a 64-lane batch that shares a single
  // propagator group — the wide SoA path the engine exists for.
  const scenario::ScenarioSpec base =
      scenario::ScenarioSpec::load(corpus_files().front());
  std::vector<scenario::ScenarioSpec> specs;
  for (std::uint64_t s = 0; s < 64; ++s) {
    scenario::ScenarioSpec spec = base;
    spec.sim_seed = base.sim_seed + s;
    specs.push_back(spec);
  }

  // Scalar reference for a sample of lanes (all 64 would dominate test
  // time without adding coverage: lanes only differ in sensor seed).
  const std::vector<RunOutcome> fleet = fleet_run(specs, 64);
  for (std::size_t i : {std::size_t{0}, std::size_t{13}, std::size_t{63}}) {
    const RunOutcome scalar = scalar_run(specs[i]);
    expect_equal_outcome(fleet[i], scalar, "lane " + std::to_string(i));
  }
  // Different sensor seeds must actually diverge (the lanes are distinct
  // simulations, not copies).
  EXPECT_NE(fleet[0].digest, fleet[63].digest);
}

// --- engine-level: batched thermal really runs, bit-equal states -------

TEST(FleetEngine, BatchedThermalMatchesScalarStep) {
  const PlatformSpec platform = PlatformSpec::hikey970();
  const AppSpec& app = AppDatabase::instance().by_name("swaptions");
  SimConfig config;
  config.integrator = ThermalIntegrator::Exponential;

  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kTicks = 500;

  // Twin scalar sims, stepped the ordinary way.
  std::deque<SystemSim> scalar;
  for (std::size_t s = 0; s < kLanes; ++s) {
    SimConfig c = config;
    c.seed = 100 + s;
    scalar.emplace_back(platform, CoolingConfig::fan(), c);
    scalar.back().spawn(app, 1e8, s % platform.num_cores());
  }
  for (std::size_t t = 0; t < kTicks; ++t) {
    for (auto& sim : scalar) sim.step();
  }

  // Fleet lanes with identical construction.
  std::deque<SystemSim> fleet_sims;
  std::vector<fleet::FleetEngine::Lane> lanes;
  for (std::size_t s = 0; s < kLanes; ++s) {
    SimConfig c = config;
    c.seed = 100 + s;
    fleet_sims.emplace_back(platform, CoolingConfig::fan(), c);
    fleet_sims.back().spawn(app, 1e8, s % platform.num_cores());
    fleet::FleetEngine::Lane lane;
    lane.sim = &fleet_sims.back();
    lane.pre_tick = [](SystemSim&) { return true; };
    lanes.push_back(std::move(lane));
  }
  fleet::FleetEngine engine(std::move(lanes));
  for (std::size_t t = 0; t < kTicks; ++t) {
    ASSERT_EQ(engine.step(), kLanes);
  }

  // All lanes share one (network, dt) → every lane-tick went batched.
  EXPECT_EQ(engine.batched_thermal_lane_ticks(), kLanes * kTicks);
  EXPECT_EQ(engine.scalar_thermal_lane_ticks(), 0u);

  for (std::size_t s = 0; s < kLanes; ++s) {
    const auto& a = scalar[s].thermal().node_temps_c();
    const auto& b = fleet_sims[s].thermal().node_temps_c();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "lane " << s << " node " << i;
    }
    EXPECT_EQ(scalar[s].sensor_temp_c(), fleet_sims[s].sensor_temp_c()) << s;
  }
}

// Same contract on the grid-refined spreader floorplan: 37 thermal nodes
// (grid 5), mostly-zero power rows, so the batched kernel's zero-row skip
// and the scalar path must still agree bit for bit.
TEST(FleetEngine, GridFloorplanStaysBitExact) {
  const PlatformSpec platform = PlatformSpec::hikey970();
  const AppSpec& app = AppDatabase::instance().by_name("swaptions");
  SimConfig config;
  config.integrator = ThermalIntegrator::Exponential;
  config.floorplan.package_grid = 5;

  constexpr std::size_t kLanes = 5;
  constexpr std::size_t kTicks = 400;

  std::deque<SystemSim> scalar;
  for (std::size_t s = 0; s < kLanes; ++s) {
    SimConfig c = config;
    c.seed = 300 + s;
    scalar.emplace_back(platform, CoolingConfig::fan(), c);
    scalar.back().spawn(app, 1e8, s % platform.num_cores());
  }
  for (std::size_t t = 0; t < kTicks; ++t) {
    for (auto& sim : scalar) sim.step();
  }

  std::deque<SystemSim> fleet_sims;
  std::vector<fleet::FleetEngine::Lane> lanes;
  for (std::size_t s = 0; s < kLanes; ++s) {
    SimConfig c = config;
    c.seed = 300 + s;
    fleet_sims.emplace_back(platform, CoolingConfig::fan(), c);
    fleet_sims.back().spawn(app, 1e8, s % platform.num_cores());
    fleet::FleetEngine::Lane lane;
    lane.sim = &fleet_sims.back();
    lane.pre_tick = [](SystemSim&) { return true; };
    lanes.push_back(std::move(lane));
  }
  fleet::FleetEngine engine(std::move(lanes));
  for (std::size_t t = 0; t < kTicks; ++t) {
    ASSERT_EQ(engine.step(), kLanes);
  }
  EXPECT_EQ(engine.batched_thermal_lane_ticks(), kLanes * kTicks);
  EXPECT_EQ(engine.scalar_thermal_lane_ticks(), 0u);

  for (std::size_t s = 0; s < kLanes; ++s) {
    const auto& a = scalar[s].thermal().node_temps_c();
    const auto& b = fleet_sims[s].thermal().node_temps_c();
    ASSERT_EQ(a.size(), b.size());
    // 25 spreader cells + 8 cores + 2 clusters + NPU + heatsink.
    ASSERT_EQ(a.size(), 5u * 5u + 12u);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "lane " << s << " node " << i;
    }
    EXPECT_EQ(scalar[s].sensor_temp_c(), fleet_sims[s].sensor_temp_c()) << s;
  }
}

// --- NPU aggregation: TOP-IL lanes batched through one device ----------

il::IlPolicyModel tiny_policy(const PlatformSpec& platform) {
  nn::Topology topo;
  topo.inputs = 21;
  topo.hidden = {16};
  topo.outputs = 8;
  nn::Mlp net(topo);
  net.init(7);
  return il::IlPolicyModel(std::move(net), platform);
}

TEST(FleetAggregator, TopIlLanesMatchScalarRuns) {
  const PlatformSpec platform = PlatformSpec::hikey970();
  WorkloadGenerator generator(platform);
  WorkloadGenerator::MixedConfig mixed;
  mixed.num_apps = 4;
  mixed.arrival_rate_per_s = 0.2;

  constexpr std::size_t kLanes = 3;
  std::vector<Workload> workloads;
  for (std::size_t i = 0; i < kLanes; ++i) {
    mixed.seed = 40 + i;
    workloads.push_back(
        generator.mixed(mixed, AppDatabase::instance().mixed_pool()));
  }

  ExperimentConfig config;
  config.sim.integrator = ThermalIntegrator::Exponential;
  config.max_duration_s = 120.0;

  // Scalar reference: each lane alone, self-contained NPU device.
  std::vector<RunOutcome> scalar(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) {
    validate::DigestMonitor monitor;
    ExperimentConfig c = config;
    c.monitor = &monitor;
    TopIlGovernor governor(tiny_policy(platform));
    scalar[i].result = run_experiment(platform, governor, workloads[i], c);
    scalar[i].digest = monitor.digest();
    scalar[i].ticks = monitor.ticks();
  }

  // Fleet: same lanes, inference funneled through the shared aggregator.
  std::deque<validate::DigestMonitor> monitors(kLanes);
  std::vector<fleet::FleetJob> jobs(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) {
    jobs[i].platform = &platform;
    jobs[i].workload = &workloads[i];
    jobs[i].config = config;
    jobs[i].config.monitor = &monitors[i];
    jobs[i].make_governor =
        [&platform](npu::InferenceAggregator* aggregator) {
          TopIlGovernor::Config c;
          c.aggregator = aggregator;
          return std::make_unique<TopIlGovernor>(tiny_policy(platform), c);
        };
  }
  fleet::FleetOptions options;
  options.batch = kLanes;
  const std::vector<ExperimentResult> results =
      fleet::run_experiments(jobs, options);

  for (std::size_t i = 0; i < kLanes; ++i) {
    EXPECT_EQ(monitors[i].digest(), scalar[i].digest) << "lane " << i;
    EXPECT_EQ(monitors[i].ticks(), scalar[i].ticks) << "lane " << i;
    EXPECT_DOUBLE_EQ(results[i].avg_temp_c, scalar[i].result.avg_temp_c)
        << i;
    EXPECT_EQ(results[i].apps_completed, scalar[i].result.apps_completed)
        << i;
  }
}

// --- option plumbing ---------------------------------------------------

TEST(FleetOptions, RejectsBatchZero) {
  const PlatformSpec platform = PlatformSpec::hikey970();
  WorkloadGenerator generator(platform);
  const Workload w =
      generator.single(AppDatabase::instance().by_name("swaptions"));
  std::vector<fleet::FleetJob> jobs(1);
  jobs[0].platform = &platform;
  jobs[0].workload = &w;
  jobs[0].make_governor = [](npu::InferenceAggregator*) {
    return make_gts_ondemand();
  };
  fleet::FleetOptions options;
  options.batch = 0;
  EXPECT_THROW(fleet::run_experiments(jobs, options), InvalidArgument);
}

}  // namespace
}  // namespace topil
