#include "governors/topil_governor.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "apps/app_database.hpp"
#include "validate/invariant_checker.hpp"

namespace topil {
namespace {

// A policy network with zero weights and hand-set output biases produces a
// constant per-core rating, which makes the governor's mechanics (batched
// NPU inference, masking, Eq. 5 selection, DVFS integration) fully
// predictable without training a real model.
il::IlPolicyModel constant_policy(const PlatformSpec& platform,
                                  const std::vector<float>& core_ratings) {
  nn::Topology topo;
  topo.inputs = 21;
  topo.hidden = {8};
  topo.outputs = 8;
  nn::Mlp net(topo);
  std::vector<float> weights(net.num_params(), 0.0f);
  net.load_weights(weights);
  net.layers().back().bias() =
      std::vector<float>(core_ratings.begin(), core_ratings.end());
  return il::IlPolicyModel(std::move(net), platform);
}

class TopIlGovernorTest : public ::testing::Test {
 protected:
  PlatformSpec platform_ = PlatformSpec::hikey970();

  SimConfig quiet() const {
    SimConfig c;
    c.sensor.noise_stddev_c = 0.0;
    return c;
  }

  AppSpec app_ = make_single_phase_app("a", 1e13, {2.0, 0.1, 0.9},
                                       {1.0, 0.05, 1.0}, 0.01, false);

  void run(Governor& governor, SystemSim& sim, double duration) {
    const double end = sim.now() + duration;
    while (sim.now() < end) {
      governor.tick(sim);
      sim.step();
    }
  }
};

TEST_F(TopIlGovernorTest, MigratesTowardHighestRatedCore) {
  SystemSim sim(platform_, CoolingConfig::fan(), quiet());
  TopIlGovernor governor(
      constant_policy(platform_, {0, 0, 0, 0, 0, 0, 0, 1}));
  governor.reset(sim);
  const Pid pid = sim.spawn(app_, 1e8, 0);
  run(governor, sim, 2.0);
  EXPECT_EQ(sim.process(pid).core(), 7u);
  EXPECT_GE(governor.migrations_executed(), 1u);
}

TEST_F(TopIlGovernorTest, OnlyOneMigrationPerEpoch) {
  SystemSim sim(platform_, CoolingConfig::fan(), quiet());
  TopIlGovernor governor(
      constant_policy(platform_, {0, 0, 0, 0, 1, 1, 1, 1}));
  governor.reset(sim);
  for (CoreId c = 0; c < 3; ++c) sim.spawn(app_, 1e8, c);
  // After the first epoch (500 ms + NPU latency) exactly one migration.
  run(governor, sim, 0.6);
  EXPECT_EQ(governor.migrations_executed(), 1u);
  // Eventually all three land on big cores, one each.
  run(governor, sim, 3.0);
  for (CoreId c = 4; c < 8; ++c) {
    EXPECT_LE(sim.pids_on_core(c).size(), 1u);
  }
  std::size_t on_big = 0;
  for (Pid pid : sim.running_pids()) {
    on_big += sim.process(pid).core() >= 4 ? 1 : 0;
  }
  EXPECT_EQ(on_big, 3u);
}

TEST_F(TopIlGovernorTest, DoesNotMigrateOntoOccupiedCores) {
  SystemSim sim(platform_, CoolingConfig::fan(), quiet());
  TopIlGovernor governor(
      constant_policy(platform_, {0, 0, 0, 0, 0, 0, 0, 1}));
  governor.reset(sim);
  const Pid blocker = sim.spawn(app_, 1e8, 7);
  const Pid other = sim.spawn(app_, 1e8, 0);
  run(governor, sim, 2.0);
  EXPECT_EQ(sim.process(blocker).core(), 7u);
  EXPECT_EQ(sim.process(other).core(), 0u);  // masked: stays put
}

TEST_F(TopIlGovernorTest, HysteresisSuppressesTinyImprovements) {
  SystemSim sim(platform_, CoolingConfig::fan(), quiet());
  TopIlGovernor::Config config;
  config.min_improvement = 0.1;
  TopIlGovernor governor(
      constant_policy(platform_, {0, 0.05f, 0, 0, 0, 0, 0, 0}), config);
  governor.reset(sim);
  const Pid pid = sim.spawn(app_, 1e8, 0);
  run(governor, sim, 2.0);
  EXPECT_EQ(sim.process(pid).core(), 0u);
  EXPECT_EQ(governor.migrations_executed(), 0u);
}

TEST_F(TopIlGovernorTest, NpuPathMarksDeviceBusyAndDefersDecision) {
  SystemSim sim(platform_, CoolingConfig::fan(), quiet());
  TopIlGovernor governor(
      constant_policy(platform_, {0, 0, 0, 0, 0, 0, 0, 1}));
  governor.reset(sim);
  sim.spawn(app_, 1e8, 0);
  // Reach the first migration epoch (t = 0.5 s) without ticking past it.
  while (sim.now() + 1e-9 < 0.5) {
    governor.tick(sim);
    sim.step();
  }
  // The epoch tick submits the batch: the NPU is busy, no decision yet.
  governor.tick(sim);
  EXPECT_TRUE(sim.npu_active());
  EXPECT_EQ(governor.migrations_executed(), 0u);
  // The non-blocking result is applied on a later tick.
  sim.step();
  governor.tick(sim);
  EXPECT_EQ(governor.migrations_executed(), 1u);
}

// The modeled NPU as TOP-IL drives it: a batch submitted at t completes at
// t + latency_s(topology, rows), the busy time it charges the NPU, and is
// applied at the first 10 ms tick at or after that instant, not one tick
// before.
class NpuDevice : public TopIlGovernorTest {
 protected:
  // An NPU without throughput limits: a batch costs `fixed_s` plus one
  // launch per wave of `pe_rows` rows in each dense layer.
  static npu::NpuCostModel launch_bound(double fixed_s, double tile_launch_s,
                                        std::size_t pe_rows) {
    npu::NpuCostModel npu;
    npu.fixed_s = fixed_s;
    npu.tile_launch_s = tile_launch_s;
    npu.pe_rows = pe_rows;
    npu.macs_per_s = std::numeric_limits<double>::infinity();
    npu.weight_bytes_per_s = std::numeric_limits<double>::infinity();
    npu.act_bytes_per_s = std::numeric_limits<double>::infinity();
    return npu;
  }

  // Ticks to the first migration epoch (t = 0.5 s), runs the epoch tick,
  // which submits one batch that takes `latency_s`, and ticks until the
  // batch is applied. Returns how many ticks after submit that took.
  unsigned ticks_until_applied(TopIlGovernor& governor, SystemSim& sim,
                               double latency_s) {
    while (sim.now() + 1e-9 < 0.5) {
      governor.tick(sim);
      sim.step();
    }
    const double done_at = sim.now() + latency_s;
    governor.tick(sim);
    EXPECT_EQ(governor.epochs_started(), 1u);
    unsigned ticks = 0;
    while (governor.migrations_executed() == 0 && ticks < 100) {
      EXPECT_LT(sim.now() + 1e-12, done_at) << "tick " << ticks;
      EXPECT_TRUE(sim.npu_active()) << "tick " << ticks;
      sim.step();
      governor.tick(sim);
      ++ticks;
    }
    EXPECT_GE(sim.now() + 1e-12, done_at);
    return ticks;
  }
};

using NpuDeviceCostModel = NpuDevice;

TEST_F(NpuDevice, ReadyAtSubmitTimePlusLatency) {
  // Only the fixed cost remains, so the latency is exactly 30 ms: three
  // ticks after submit, the batch is ready on the tick itself.
  TopIlGovernor::Config config;
  config.npu = launch_bound(0.03, 0.0, 16);
  il::IlPolicyModel policy =
      constant_policy(platform_, {0, 0, 0, 0, 0, 0, 0, 1});
  ASSERT_EQ(config.npu.latency_s(policy.network().topology(), 1), 0.03);

  SystemSim sim(platform_, CoolingConfig::fan(), quiet());
  TopIlGovernor governor(std::move(policy), config);
  governor.reset(sim);
  sim.spawn(app_, 1e8, 0);
  EXPECT_EQ(ticks_until_applied(governor, sim, 0.03), 3u);
}

TEST_F(NpuDeviceCostModel, ModelAwareLatencyMatchesSubmitDoneAt) {
  // One row per wave and 6 ms per launch: the policy net's two dense
  // layers cost 12 ms per row, so a three-app batch completes 36 ms after
  // submit, between ticks, and is applied at the fourth. A one-row latency
  // would apply it at the second.
  TopIlGovernor::Config config;
  config.npu = launch_bound(0.0, 0.006, 1);
  il::IlPolicyModel policy =
      constant_policy(platform_, {0, 0, 0, 0, 0, 0, 0, 1});
  const double latency = config.npu.latency_s(policy.network().topology(), 3);
  ASSERT_NEAR(latency, 0.036, 1e-12);

  SystemSim sim(platform_, CoolingConfig::fan(), quiet());
  TopIlGovernor governor(std::move(policy), config);
  governor.reset(sim);
  for (CoreId c = 0; c < 3; ++c) sim.spawn(app_, 1e8, c);
  EXPECT_EQ(ticks_until_applied(governor, sim, latency), 4u);
}

TEST_F(TopIlGovernorTest, CpuFallbackAlsoWorksAndCostsMore) {
  // The CPU side runs the same 4+4 cores without an NPU block.
  std::vector<ClusterSpec> clusters;
  for (const auto& c : platform_.clusters()) clusters.push_back(c);
  const PlatformSpec npuless(std::move(clusters), NpuSpec{});

  SimConfig config = quiet();
  SystemSim npu_sim(platform_, CoolingConfig::fan(), config);
  SystemSim cpu_sim(npuless, CoolingConfig::fan(), config);

  TopIlGovernor npu_gov(
      constant_policy(platform_, {0, 0, 0, 0, 0, 0, 0, 1}));
  TopIlGovernor cpu_gov(
      constant_policy(npuless, {0, 0, 0, 0, 0, 0, 0, 1}));
  npu_gov.reset(npu_sim);
  cpu_gov.reset(cpu_sim);
  const Pid a = npu_sim.spawn(app_, 1e8, 0);
  const Pid b = cpu_sim.spawn(app_, 1e8, 0);
  run(npu_gov, npu_sim, 2.0);
  run(cpu_gov, cpu_sim, 2.0);
  EXPECT_EQ(npu_sim.process(a).core(), 7u);
  EXPECT_EQ(cpu_sim.process(b).core(), 7u);
  EXPECT_GT(cpu_sim.metrics().overhead_s("migration"),
            npu_sim.metrics().overhead_s("migration"));
}

TEST_F(TopIlGovernorTest, RuntimeOverheadIsNegligible) {
  SystemSim sim(platform_, CoolingConfig::fan(), quiet());
  TopIlGovernor governor(constant_policy(platform_, {0, 0, 0, 0, 0, 0, 0, 0}));
  governor.reset(sim);
  for (CoreId c = 0; c < 8; ++c) sim.spawn(app_, 1e8, c);
  run(governor, sim, 10.0);
  const double total = sim.metrics().overhead_s("migration") +
                       sim.metrics().overhead_s("dvfs");
  // Paper: <= 1.7% of one core.
  EXPECT_LT(total / 10.0, 0.02);
  EXPECT_GT(total, 0.0);
}

TEST_F(TopIlGovernorTest, FallsBackToCpuOnNpulessPlatform) {
  // Same 4+4 core shape, but no NPU block.
  std::vector<ClusterSpec> clusters;
  for (const auto& c : platform_.clusters()) clusters.push_back(c);
  const PlatformSpec npuless(std::move(clusters), NpuSpec{});

  SimConfig config = quiet();
  SystemSim sim(npuless, CoolingConfig::fan(), config);
  TopIlGovernor governor(
      constant_policy(npuless, {0, 0, 0, 0, 0, 0, 0, 1}));
  governor.reset(sim);
  const Pid pid = sim.spawn(app_, 1e8, 0);
  run(governor, sim, 2.0);
  // The decision still happens (CPU inference), the device stays idle.
  EXPECT_EQ(sim.process(pid).core(), 7u);
  EXPECT_FALSE(sim.npu_active());
  EXPECT_GT(sim.metrics().overhead_s("migration"), 0.0);
}

TEST_F(TopIlGovernorTest, SurvivesExtremeSensorNoise) {
  // TOP-IL never reads the temperature sensor, so garbage readings must
  // not change its decisions (unlike TOP-RL, whose reward uses them).
  SimConfig config = quiet();
  config.sensor.noise_stddev_c = 25.0;
  SystemSim sim(platform_, CoolingConfig::fan(), config);
  TopIlGovernor governor(
      constant_policy(platform_, {0, 0, 0, 0, 0, 0, 0, 1}));
  governor.reset(sim);
  const Pid pid = sim.spawn(app_, 1e8, 0);
  run(governor, sim, 2.0);
  EXPECT_EQ(sim.process(pid).core(), 7u);
}

TEST_F(TopIlGovernorTest, EpochsStayOnGridForNonTickMultiplePeriods) {
  // 0.505 s is not a multiple of the 10 ms tick. Rescheduling from the
  // fire time (the old `now + period`) stretches every epoch to 0.51 s;
  // over 10 s that loses a whole epoch. Scheduling from the previous
  // deadline keeps the grid exact, which the attached invariant checker
  // verifies per epoch (period_drift / deadline_missed throw here).
  SystemSim sim(platform_, CoolingConfig::fan(), quiet());
  validate::InvariantChecker checker;
  sim.attach_monitor(&checker);
  TopIlGovernor::Config config;
  config.migration_period_s = 0.505;
  TopIlGovernor governor(
      constant_policy(platform_, {0, 0, 0, 0, 0, 0, 0, 1}), config);
  governor.reset(sim);
  sim.spawn(app_, 1e8, 0);
  run(governor, sim, 10.15);
  // Deadlines at 0.505 k for k = 1..20 all fall within 10.15 s.
  EXPECT_EQ(governor.epochs_started(), 20u);
  EXPECT_EQ(checker.report().epochs_checked, 20u);
  EXPECT_TRUE(checker.report().clean());
}

TEST_F(TopIlGovernorTest, SlowNpuDefersEpochInsteadOfSkippingIt) {
  // An NPU batch still in flight at the next deadline used to silently
  // swallow that epoch. Now the epoch is deferred and started as soon as
  // the result lands — and the reported deadline grid stays intact.
  SystemSim sim(platform_, CoolingConfig::fan(), quiet());
  validate::InvariantChecker checker;
  sim.attach_monitor(&checker);
  TopIlGovernor::Config config;
  config.migration_period_s = 0.5;
  config.npu.fixed_s = 0.7;  // pathological: longer than the period
  TopIlGovernor governor(
      constant_policy(platform_, {0, 0, 0, 0, 0, 0, 0, 1}), config);
  governor.reset(sim);
  sim.spawn(app_, 1e8, 0);
  run(governor, sim, 5.05);
  EXPECT_GE(governor.epochs_deferred(), 3u);
  // Sustained overload coalesces missed deadlines into one deferred epoch
  // per batch round trip (~0.7 s), so roughly 5 s / 0.7 s epochs run. The
  // old silent skip only started an epoch at every *other* deadline (5);
  // dropping below 7 here means deferral regressed to skipping.
  EXPECT_GE(governor.epochs_started(), 7u);
  // All 10 deadlines are still reported on the exact 0.5 s grid.
  EXPECT_EQ(checker.report().epochs_checked, 10u);
  EXPECT_TRUE(checker.report().clean());
}

TEST_F(TopIlGovernorTest, NameAndValidation) {
  TopIlGovernor governor(constant_policy(platform_, std::vector<float>(8)));
  EXPECT_EQ(governor.name(), "TOP-IL");
  TopIlGovernor::Config bad;
  bad.migration_period_s = 0.0;
  EXPECT_THROW(
      TopIlGovernor(constant_policy(platform_, std::vector<float>(8)), bad),
      InvalidArgument);
}

}  // namespace
}  // namespace topil
