#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "governors/powersave.hpp"
#include "validate/digest_monitor.hpp"
#include "workloads/generator.hpp"

namespace topil {
namespace {

class ExperimentTest : public ::testing::Test {
 protected:
  PlatformSpec platform_ = PlatformSpec::hikey970();
  WorkloadGenerator generator_{platform_};

  ExperimentConfig quick() const {
    ExperimentConfig c;
    c.sim.sensor.noise_stddev_c = 0.0;
    c.max_duration_s = 600.0;
    return c;
  }
};

TEST_F(ExperimentTest, RunsWorkloadToCompletion) {
  auto governor = make_gts_ondemand();
  const Workload w = generator_.single(
      AppDatabase::instance().by_name("swaptions"));
  const ExperimentResult result =
      run_experiment(platform_, *governor, w, quick());
  EXPECT_EQ(result.governor, "GTS/ondemand");
  EXPECT_EQ(result.apps_completed, 1u);
  EXPECT_EQ(result.apps_total, 1u);
  EXPECT_GT(result.duration_s, 1.0);
  EXPECT_LT(result.duration_s, 600.0);
  EXPECT_GT(result.avg_temp_c, 25.0);
  EXPECT_GE(result.peak_temp_c, result.avg_temp_c);
  // ondemand at peak meets the LITTLE-peak-feasible target.
  EXPECT_EQ(result.qos_violations, 0u);
}

TEST_F(ExperimentTest, PowersaveViolatesDemandingQos) {
  auto governor = make_gts_powersave();
  const Workload w = generator_.single(
      AppDatabase::instance().by_name("swaptions"));
  const ExperimentResult result =
      run_experiment(platform_, *governor, w, quick());
  EXPECT_EQ(result.apps_completed, 1u);
  EXPECT_EQ(result.qos_violations, 1u);
  EXPECT_DOUBLE_EQ(result.qos_violation_fraction(), 1.0);
}

TEST_F(ExperimentTest, MaxDurationCapsRun) {
  auto governor = make_gts_powersave();
  WorkloadGenerator::MixedConfig config;
  config.num_apps = 12;
  config.arrival_rate_per_s = 0.1;
  config.seed = 2;
  const Workload w =
      generator_.mixed(config, AppDatabase::instance().mixed_pool());
  ExperimentConfig run = quick();
  run.max_duration_s = 5.0;
  const ExperimentResult result =
      run_experiment(platform_, *governor, w, run);
  EXPECT_NEAR(result.duration_s, 5.0, 0.05);
  EXPECT_LT(result.apps_completed, 12u);
}

TEST_F(ExperimentTest, CpuTimeBreakdownAccountsBusyTime) {
  auto governor = make_gts_ondemand();
  const Workload w = generator_.single(
      AppDatabase::instance().by_name("blackscholes"));
  const ExperimentResult result =
      run_experiment(platform_, *governor, w, quick());
  double total = 0.0;
  for (const auto& per_level : result.cpu_time_s) {
    for (double t : per_level) total += t;
  }
  // One app alone: busy time roughly equals the run duration.
  EXPECT_NEAR(total, result.duration_s, result.duration_s * 0.1);
}

TEST_F(ExperimentTest, ObserverSeesEveryTick) {
  auto governor = make_gts_ondemand();
  const Workload w = generator_.single(
      AppDatabase::instance().by_name("swaptions"));
  ExperimentConfig run = quick();
  std::size_t ticks = 0;
  run.observer = [&](const SystemSim& sim) {
    ++ticks;
    EXPECT_GE(sim.now(), 0.0);
  };
  const ExperimentResult result =
      run_experiment(platform_, *governor, w, run);
  EXPECT_NEAR(static_cast<double>(ticks) * 0.01, result.duration_s, 0.05);
}

// Observers never change a run: the invariant checker and an external
// monitor attached together hash the same ticks, and the monitor's digest
// equals that of the same run carrying the monitor alone.
TEST_F(ExperimentTest, CheckerAndMonitorCompose) {
  WorkloadGenerator::MixedConfig mixed;
  mixed.num_apps = 3;
  mixed.arrival_rate_per_s = 0.5;
  mixed.seed = 4;
  const Workload w =
      generator_.mixed(mixed, AppDatabase::instance().mixed_pool());
  ExperimentConfig run = quick();
  run.max_duration_s = 20.0;

  validate::DigestMonitor alone;
  run.monitor = &alone;
  auto solo_governor = make_gts_ondemand();
  run_experiment(platform_, *solo_governor, w, run);

  validate::DigestMonitor composed;
  run.monitor = &composed;
  run.sim.validate = true;
  auto governor = make_gts_ondemand();
  const ExperimentResult result = run_experiment(platform_, *governor, w, run);

  ASSERT_NE(result.validation, nullptr);
  EXPECT_TRUE(result.validation->clean());
  EXPECT_GT(composed.ticks(), 1000u);
  EXPECT_EQ(composed.digest(), result.validation->trace_digest);
  EXPECT_EQ(composed.ticks(), result.validation->ticks_checked);
  EXPECT_EQ(composed.digest(), alone.digest());
  EXPECT_EQ(composed.ticks(), alone.ticks());
}

TEST_F(ExperimentTest, RejectsEmptyWorkload) {
  auto governor = make_gts_ondemand();
  EXPECT_THROW(run_experiment(platform_, *governor, Workload{}, quick()),
               InvalidArgument);
}

}  // namespace
}  // namespace topil
