// Topology-agnostic acceptance tests: the whole IL stack — features,
// design-time oracle extraction, DAgger (expert + policy rollouts through
// the fleet engine), the TOP-IL governor, and batched lockstep stepping —
// must work unchanged on platforms that look nothing like the 4+4
// big.LITTLE reference: a 2+4+4 three-tier SoC and a 16-core 4x4 grid
// part. Shapes come from TopologySpec, apps are adapted to arbitrary tier
// counts with blend_perf, and every rollout runs under the runtime
// invariant checker.

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "apps/app_database.hpp"
#include "core/dagger.hpp"
#include "governors/topil_governor.hpp"
#include "il/oracle.hpp"
#include "il/pipeline.hpp"
#include "platform/topology.hpp"
#include "scenario/scenario_spec.hpp"
#include "sim/fleet/batch_runner.hpp"
#include "validate/digest_monitor.hpp"
#include "workloads/generator.hpp"

namespace topil {
namespace {

/// Expected NN input width: qos + l2d + per-core one-hot + target +
/// per-cluster frequency ratio + per-core utilization.
std::size_t expected_features(const PlatformSpec& platform) {
  return 3 + 2 * platform.num_cores() + platform.num_clusters();
}

/// Database apps characterize the two reference clusters; re-rank their
/// perf rows onto `platform`'s tiers via the tier blends — the same
/// adaptation the scenario layer applies when materializing a spec.
AppSpec adapt_app(const AppSpec& base, const std::vector<double>& blends) {
  AppSpec app = base;
  for (PhaseSpec& phase : app.phases) {
    std::vector<ClusterPerf> rows;
    rows.reserve(blends.size());
    for (double b : blends) rows.push_back(blend_perf(phase.perf, b));
    phase.perf = std::move(rows);
  }
  return app;
}

std::vector<double> tier_blends(const TopologySpec& topology) {
  std::vector<double> blends;
  for (const TierSpec& tier : topology.tiers) {
    blends.push_back(tier.perf_blend);
  }
  return blends;
}

struct AdaptedPool {
  std::vector<AppSpec> storage;
  std::vector<const AppSpec*> pointers;
};

AdaptedPool adapt_training_pool(const TopologySpec& topology,
                                std::size_t max_apps) {
  const std::vector<double> blends = tier_blends(topology);
  AdaptedPool pool;
  for (const AppSpec* app : AppDatabase::instance().training_apps()) {
    if (pool.storage.size() >= max_apps) break;
    pool.storage.push_back(adapt_app(*app, blends));
  }
  for (const AppSpec& app : pool.storage) pool.pointers.push_back(&app);
  return pool;
}

// --- property sweep: dims + oracle feasibility over the shape space -----

struct Shape {
  std::size_t tiers = 0;
  std::size_t cores_per_tier = 0;
};

TopologySpec shape_topology(const Shape& shape) {
  TopologySpec topology;
  for (std::size_t i = 0; i < shape.tiers; ++i) {
    TierSpec tier;
    tier.name = "tier" + std::to_string(i);
    tier.perf_blend = shape.tiers == 1
                          ? 1.0
                          : static_cast<double>(i) /
                                static_cast<double>(shape.tiers - 1);
    tier.num_cores = shape.cores_per_tier;
    topology.tiers.push_back(tier);
  }
  return topology;
}

void check_oracle_on_topology(const TopologySpec& topology,
                              const std::string& label) {
  const PlatformSpec soc = topology.build();
  const il::FeatureExtractor features(soc);
  EXPECT_EQ(features.num_features(), expected_features(soc)) << label;
  EXPECT_EQ(features.num_outputs(), soc.num_cores()) << label;

  const AdaptedPool pool = adapt_training_pool(topology, 2);
  ASSERT_GE(pool.pointers.size(), 2u) << label;

  il::Scenario scenario;
  scenario.aoi = pool.pointers[0];
  scenario.background[0] = pool.pointers[1];  // slowest tier's first core
  il::TraceCollector::Config config;
  config.integrator = ThermalIntegrator::Exponential;
  const il::TraceCollector collector(soc, CoolingConfig::fan(), config);
  const il::ScenarioTraces traces = collector.collect(scenario);
  EXPECT_EQ(traces.free_cores().size(), soc.num_cores() - 1) << label;

  const il::OracleExtractor extractor(soc);
  const auto examples = extractor.extract(traces);
  ASSERT_FALSE(examples.empty()) << label;
  bool saw_optimal = false;
  for (const auto& ex : examples) {
    ASSERT_EQ(ex.features.size(), features.num_features()) << label;
    ASSERT_EQ(ex.labels.size(), soc.num_cores()) << label;
    // The occupied core can never be a feasible mapping.
    EXPECT_FLOAT_EQ(ex.labels[0], 0.0f) << label;
    float best = 0.0f;
    for (float l : ex.labels) {
      // 0 = occupied, -1 = free but QoS-infeasible, else the soft label.
      EXPECT_TRUE(l == -1.0f || (l >= 0.0f && l <= 1.0f + 1e-6f)) << label;
      best = std::max(best, l);
    }
    saw_optimal |= best >= 1.0f - 1e-5f;
  }
  // Oracle feasibility: some example must witness its optimal mapping
  // (soft label exp(0) = 1 at the coolest feasible core).
  EXPECT_TRUE(saw_optimal) << label;
}

TEST(TopologyAgnostic, OracleDimsAndFeasibilityAcrossShapes) {
  const Shape shapes[] = {{1, 2}, {2, 1}, {3, 2}, {4, 1}};
  for (const Shape& shape : shapes) {
    check_oracle_on_topology(shape_topology(shape),
                             std::to_string(shape.tiers) + "x" +
                                 std::to_string(shape.cores_per_tier));
  }
  // One many-core grid floorplan: same contract on the 4-neighbour
  // lateral-coupling thermal layout.
  check_oracle_on_topology(TopologySpec::many_core_grid(2, 2, 2), "grid2x2");
}

TEST(TopologyAgnostic, DatasetBuildIsJobsIndependent) {
  const TopologySpec topology = TopologySpec::three_tier();
  const PlatformSpec soc = topology.build();
  const AdaptedPool pool = adapt_training_pool(topology, 3);

  const il::IlPipeline pipeline(soc, CoolingConfig::fan());
  il::PipelineConfig config;
  config.num_scenarios = 4;
  config.max_background_apps = 2;
  config.traces.integrator = ThermalIntegrator::Exponential;

  config.jobs = 1;
  const il::Dataset serial =
      pipeline.build_dataset(config, pool.pointers, pool.pointers);
  config.jobs = 3;
  const il::Dataset threaded =
      pipeline.build_dataset(config, pool.pointers, pool.pointers);

  ASSERT_GT(serial.size(), 0u);
  ASSERT_EQ(serial.size(), threaded.size());
  ASSERT_EQ(serial.feature_width(), expected_features(soc));
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial.at(i).features, threaded.at(i).features) << i;
    EXPECT_EQ(serial.at(i).labels, threaded.at(i).labels) << i;
  }
}

// --- end-to-end: DAgger + validated rollout + fleet bit-identity --------

il::DaggerConfig small_dagger(const std::vector<const AppSpec*>& pool) {
  il::DaggerConfig config;
  config.iterations = 2;  // expert rollouts, then TOP-IL policy rollouts
  config.rollouts_per_iteration = 2;
  config.rollout_duration_s = 40.0;
  config.workload_apps = 3;
  config.arrival_rate_per_s = 0.2;
  config.integrator = ThermalIntegrator::Exponential;
  config.training.hidden = {16};
  config.training.trainer.max_epochs = 6;
  config.training.trainer.patience = 6;
  config.app_pool = pool;
  config.seed = 13;
  return config;
}

/// Validated TOP-IL rollout: runs the trained policy on a mixed workload
/// with the runtime invariant checker attached (a violation throws).
ExperimentResult validated_rollout(const PlatformSpec& soc,
                                   const nn::Mlp& model,
                                   const std::vector<const AppSpec*>& pool,
                                   std::uint64_t seed) {
  const WorkloadGenerator generator(soc);
  WorkloadGenerator::MixedConfig mixed;
  mixed.num_apps = 4;
  mixed.arrival_rate_per_s = 0.2;
  mixed.seed = seed;
  const Workload workload = generator.mixed(mixed, pool);

  TopIlGovernor governor(il::IlPolicyModel(model, soc));
  ExperimentConfig config;
  config.sim.integrator = ThermalIntegrator::Exponential;
  config.sim.validate = true;
  config.max_duration_s = 60.0;
  return run_experiment(soc, governor, workload, config);
}

/// The same rollout through fleet::run_experiments must be bit-identical
/// to the scalar path (digest + tick count), batched thermal and all.
void expect_fleet_matches_scalar(const PlatformSpec& soc,
                                 const nn::Mlp& model,
                                 const std::vector<const AppSpec*>& pool,
                                 std::uint64_t seed) {
  const WorkloadGenerator generator(soc);
  WorkloadGenerator::MixedConfig mixed;
  mixed.num_apps = 4;
  mixed.arrival_rate_per_s = 0.2;

  constexpr std::size_t kLanes = 2;
  std::vector<Workload> workloads;
  for (std::size_t i = 0; i < kLanes; ++i) {
    mixed.seed = seed + i;
    workloads.push_back(generator.mixed(mixed, pool));
  }

  ExperimentConfig config;
  config.sim.integrator = ThermalIntegrator::Exponential;
  config.max_duration_s = 60.0;

  struct Outcome {
    std::uint64_t digest = 0;
    std::uint64_t ticks = 0;
  };
  std::vector<Outcome> reference(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) {
    validate::DigestMonitor monitor;
    ExperimentConfig c = config;
    c.monitor = &monitor;
    TopIlGovernor governor(il::IlPolicyModel(model, soc));
    run_experiment(soc, governor, workloads[i], c);
    reference[i].digest = monitor.digest();
    reference[i].ticks = monitor.ticks();
  }

  std::deque<validate::DigestMonitor> monitors(kLanes);
  std::vector<fleet::FleetJob> jobs(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) {
    jobs[i].platform = &soc;
    jobs[i].workload = &workloads[i];
    jobs[i].config = config;
    jobs[i].config.monitor = &monitors[i];
    jobs[i].make_governor = [&model,
                             &soc](npu::InferenceAggregator* aggregator) {
      TopIlGovernor::Config c;
      c.aggregator = aggregator;
      return std::make_unique<TopIlGovernor>(il::IlPolicyModel(model, soc),
                                             c);
    };
  }
  fleet::FleetOptions options;
  options.batch = kLanes;
  fleet::run_experiments(jobs, options);
  for (std::size_t i = 0; i < kLanes; ++i) {
    EXPECT_EQ(monitors[i].digest(), reference[i].digest) << "lane " << i;
    EXPECT_EQ(monitors[i].ticks(), reference[i].ticks) << "lane " << i;
  }
}

TEST(TopologyAgnostic, ThreeTierDaggerTrainsAndRollsOut) {
  const TopologySpec topology = TopologySpec::three_tier();
  const PlatformSpec soc = topology.build();
  ASSERT_EQ(soc.num_cores(), 10u);
  const AdaptedPool pool = adapt_training_pool(topology, 4);

  const il::DaggerTrainer trainer(soc, CoolingConfig::fan());
  const il::DaggerResult result = trainer.run(small_dagger(pool.pointers));
  ASSERT_EQ(result.iterations.size(), 2u);
  EXPECT_GT(result.iterations[0].new_examples, 0u);
  EXPECT_GT(result.iterations[1].total_examples,
            result.iterations[0].total_examples);
  EXPECT_EQ(result.model.topology().inputs, expected_features(soc));
  EXPECT_EQ(result.model.topology().outputs, soc.num_cores());

  const ExperimentResult rollout =
      validated_rollout(soc, result.model, pool.pointers, 21);
  ASSERT_NE(rollout.validation, nullptr);
  EXPECT_TRUE(rollout.validation->clean());
  EXPECT_GT(rollout.validation->ticks_checked, 0u);

  expect_fleet_matches_scalar(soc, result.model, pool.pointers, 31);
}

TEST(TopologyAgnostic, SixteenCoreGridDaggerTrainsAndRollsOut) {
  const TopologySpec topology = TopologySpec::many_core_grid(4, 4, 2);
  const PlatformSpec soc = topology.build();
  ASSERT_EQ(soc.num_cores(), 16u);
  ASSERT_TRUE(soc.grid().enabled());
  const AdaptedPool pool = adapt_training_pool(topology, 4);

  il::DaggerConfig config = small_dagger(pool.pointers);
  config.rollout_duration_s = 30.0;
  const il::DaggerTrainer trainer(soc, CoolingConfig::fan());
  const il::DaggerResult result = trainer.run(config);
  ASSERT_EQ(result.iterations.size(), 2u);
  EXPECT_GT(result.iterations.back().total_examples, 0u);
  EXPECT_EQ(result.model.topology().inputs, expected_features(soc));
  EXPECT_EQ(result.model.topology().outputs, 16u);

  const ExperimentResult rollout =
      validated_rollout(soc, result.model, pool.pointers, 22);
  ASSERT_NE(rollout.validation, nullptr);
  EXPECT_TRUE(rollout.validation->clean());

  expect_fleet_matches_scalar(soc, result.model, pool.pointers, 32);
}

// Scenario layer ties in: a non-big.LITTLE spec with a grid placement must
// materialize, run, and produce jobs-independent fleet digests.
TEST(TopologyAgnostic, GridScenarioFleetDigestsAreJobsIndependent) {
  scenario::ScenarioSpec spec;
  spec.tiers = {TierSpec{"little", 0.0, 2}, TierSpec{"mid", 0.5, 2},
                TierSpec{"big", 1.0, 2}};
  spec.grid = GridPlacement{2, 3};
  spec.governor = "gts-ondemand";
  spec.max_duration_s = 60.0;
  spec.apps = {{"swaptions", 0.4, 0.0, 0.01}, {"adi", 0.6, 5.0, 0.01}};

  auto run_with_jobs = [&](std::size_t jobs_count) {
    std::vector<scenario::MaterializedScenario> ms;
    std::vector<scenario::ScenarioSpec> specs(2, spec);
    specs[1].sim_seed = spec.sim_seed + 1;
    for (const auto& s : specs) ms.push_back(scenario::materialize(s));

    std::deque<validate::DigestMonitor> monitors(specs.size());
    std::vector<fleet::FleetJob> jobs(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      jobs[i].platform = &ms[i].platform;
      jobs[i].workload = &ms[i].workload;
      jobs[i].config.cooling = ms[i].cooling;
      jobs[i].config.sim = ms[i].sim;
      jobs[i].config.sim.integrator = ThermalIntegrator::Exponential;
      jobs[i].config.max_duration_s = ms[i].max_duration_s;
      jobs[i].config.monitor = &monitors[i];
      jobs[i].make_governor = [&specs, &ms, i](npu::InferenceAggregator*) {
        return scenario::make_scenario_governor(
            specs[i].governor, ms[i].platform, specs[i].sim_seed);
      };
    }
    fleet::FleetOptions options;
    options.batch = 2;
    options.jobs = jobs_count;
    fleet::run_experiments(jobs, options);
    std::vector<std::uint64_t> digests;
    for (auto& monitor : monitors) digests.push_back(monitor.digest());
    return digests;
  };

  const std::vector<std::uint64_t> serial = run_with_jobs(1);
  const std::vector<std::uint64_t> threaded = run_with_jobs(2);
  EXPECT_EQ(serial, threaded);
  EXPECT_NE(serial[0], serial[1]);  // distinct sensor seeds diverge
}

}  // namespace
}  // namespace topil
