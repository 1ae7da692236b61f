#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "governors/powersave.hpp"
#include "governors/topil_governor.hpp"
#include "il/pipeline.hpp"
#include "validate/state_digest.hpp"
#include "workloads/generator.hpp"

namespace topil::validate {
namespace {

// Golden trace digests for two small fixed scenarios. These pin the
// simulator's observable behavior bit-for-bit: any change to the thermal
// solver, performance model, RNG consumption order, or accounting shows up
// as a digest mismatch here before it silently shifts paper figures.
//
// Regenerating after an *intended* behavior change: run this test, copy the
// printed actual digests, and update the constants together with a note in
// the commit message (see DESIGN.md §8).
constexpr const char* kGoldenOndemand = "fd86f0fd9a2ce475";
constexpr const char* kGoldenPowersave = "a282addbfaa0a585";

std::string run_digest(const std::string& governor_name) {
  const PlatformSpec& platform = PlatformSpec::hikey970();
  const WorkloadGenerator generator(platform);
  WorkloadGenerator::MixedConfig mixed;
  mixed.num_apps = 2;
  mixed.arrival_rate_per_s = 0.2;
  mixed.seed = 5;
  const Workload workload =
      generator.mixed(mixed, AppDatabase::instance().mixed_pool());

  ExperimentConfig config;
  config.max_duration_s = 30.0;
  config.sim.seed = 42;
  config.sim.validate = true;
  // The golden constants were generated with the Heun reference
  // integrator; pin it so a future default flip cannot shift them.
  config.sim.integrator = ThermalIntegrator::Heun;

  const auto governor = governor_name == "gts-ondemand"
                            ? make_gts_ondemand()
                            : make_gts_powersave();
  const ExperimentResult result =
      run_experiment(platform, *governor, workload, config);
  EXPECT_TRUE(result.validation->clean()) << result.validation->summary();
  return digest_hex(result.validation->trace_digest);
}

TEST(GoldenTraceTest, OndemandScenarioMatchesGolden) {
  const std::string actual = run_digest("gts-ondemand");
  EXPECT_EQ(actual, kGoldenOndemand)
      << "behavior changed; if intended, update kGoldenOndemand to "
      << actual;
}

TEST(GoldenTraceTest, PowersaveScenarioMatchesGolden) {
  const std::string actual = run_digest("gts-powersave");
  EXPECT_EQ(actual, kGoldenPowersave)
      << "behavior changed; if intended, update kGoldenPowersave to "
      << actual;
}

// The scenarios above run no network. This digest pins training and
// inference numerics end to end: tools/topil_run's `topil-quick` policy
// (8 scenarios, seed 13, hidden {24, 24}, 15 epochs, policy seed 0),
// trained from scratch, drives the mixed 4-app, seed-5, 120 s run that
// tools/ci_check.sh's determinism gate also checks against this value.
constexpr const char* kGoldenTrainedTopIl = "92a082207e0686e9";

TEST(GoldenTraceTest, TrainedTopIlPolicyMatchesGolden) {
  const PlatformSpec platform = PlatformSpec::hikey970();
  il::PipelineConfig training;
  training.num_scenarios = 8;
  training.seed = 13;
  training.oracle.qos_fractions = {0.3, 0.6};
  training.hidden = {24, 24};
  training.trainer.max_epochs = 15;
  training.trainer.patience = 15;
  training.trainer.seed = 0;
  training.max_examples = 4000;
  training.jobs = 1;
  const il::IlPipeline pipeline(platform, CoolingConfig::fan());
  TopIlGovernor governor(
      il::IlPolicyModel(pipeline.train(training).model, platform));

  const WorkloadGenerator generator(platform);
  WorkloadGenerator::MixedConfig mixed;
  mixed.num_apps = 4;
  mixed.arrival_rate_per_s = 0.05;
  mixed.seed = 5;
  const Workload workload =
      generator.mixed(mixed, AppDatabase::instance().mixed_pool());

  ExperimentConfig config;
  config.cooling = CoolingConfig::fan();
  config.max_duration_s = 120.0;
  config.sim.seed = 5 + 0x1000;  // topil_run: --seed + 0x1000 * (rep + 1)
  config.sim.validate = true;
  config.sim.integrator = ThermalIntegrator::Heun;
  const ExperimentResult result =
      run_experiment(platform, governor, workload, config);
  EXPECT_TRUE(result.validation->clean()) << result.validation->summary();
  const std::string actual = digest_hex(result.validation->trace_digest);
  EXPECT_EQ(actual, kGoldenTrainedTopIl)
      << "training or inference numerics changed; if intended, update "
         "kGoldenTrainedTopIl (and tools/ci_check.sh) to "
      << actual;
}

TEST(GoldenTraceTest, RepeatedRunsAreBitIdentical) {
  EXPECT_EQ(run_digest("gts-ondemand"), run_digest("gts-ondemand"));
}

}  // namespace
}  // namespace topil::validate
