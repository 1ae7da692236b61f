#include "sim/system_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "apps/app_database.hpp"
#include "platform/topology.hpp"

namespace topil {
namespace {

class SystemSimTest : public ::testing::Test {
 protected:
  PlatformSpec platform_ = PlatformSpec::hikey970();

  SimConfig quiet_config() const {
    SimConfig c;
    c.sensor.noise_stddev_c = 0.0;
    c.sensor.quantization_c = 0.0;
    return c;
  }

  AppSpec long_app() const {
    return make_single_phase_app("long", 1e13, {2.0, 0.1, 0.9},
                                 {1.0, 0.05, 1.0}, 0.01, false);
  }
};

TEST_F(SystemSimTest, SpawnRunMigrateRetire) {
  SystemSim sim(platform_, CoolingConfig::fan(), quiet_config());
  const AppSpec app = make_single_phase_app(
      "short", 1e9, {2.0, 0.0, 0.9}, {1.0, 0.0, 1.0}, 0.01, false);
  sim.request_vf_level(kBigCluster,
                       platform_.cluster(kBigCluster).vf.num_levels() - 1);
  const Pid pid = sim.spawn(app, 1e8, 6);
  EXPECT_TRUE(sim.is_running(pid));
  EXPECT_EQ(sim.process(pid).core(), 6u);
  EXPECT_TRUE(sim.core_occupied(6));
  EXPECT_FALSE(sim.core_occupied(0));

  // 1e9 instructions at 2.362 GIPS -> ~0.42 s.
  sim.run_for(1.0);
  EXPECT_FALSE(sim.is_running(pid));
  ASSERT_EQ(sim.metrics().completed().size(), 1u);
  const CompletedProcess& rec = sim.metrics().completed().front();
  EXPECT_EQ(rec.pid, pid);
  EXPECT_FALSE(rec.qos_violated);
  EXPECT_NEAR(rec.finish_time, 1e9 / 2.362e9, 0.05);
}

TEST_F(SystemSimTest, FairSharingHalvesThroughput) {
  SystemSim sim(platform_, CoolingConfig::fan(), quiet_config());
  sim.request_vf_level(kBigCluster, 0);  // 0.682 GHz
  const AppSpec app = long_app();
  const Pid a = sim.spawn(app, 1e8, 5);
  const Pid b = sim.spawn(app, 1e8, 5);  // same core
  const Pid alone = sim.spawn(app, 1e8, 6);
  sim.run_for(2.0);
  const double shared = sim.process(a).instructions_retired() +
                        sim.process(b).instructions_retired();
  const double solo = sim.process(alone).instructions_retired();
  EXPECT_NEAR(shared, solo, solo * 0.02);
  EXPECT_NEAR(sim.process(a).instructions_retired(),
              sim.process(b).instructions_retired(), solo * 0.02);
}

TEST_F(SystemSimTest, PerClusterDvfsAffectsThroughput) {
  SystemSim sim(platform_, CoolingConfig::fan(), quiet_config());
  const AppSpec app = long_app();
  const Pid little_pid = sim.spawn(app, 1e8, 0);
  const Pid big_pid = sim.spawn(app, 1e8, 4);
  sim.request_vf_level(kLittleCluster, 0);
  sim.request_vf_level(kBigCluster,
                       platform_.cluster(kBigCluster).vf.num_levels() - 1);
  sim.run_for(1.0);
  EXPECT_GT(sim.process(big_pid).measured_ips(),
            3.0 * sim.process(little_pid).measured_ips());
  EXPECT_NEAR(sim.freq_ghz(kLittleCluster), 0.509, 1e-9);
  EXPECT_NEAR(sim.freq_ghz(kBigCluster), 2.362, 1e-9);
}

TEST_F(SystemSimTest, MigrationMovesProcessAndAppliesPenalty) {
  SimConfig config = quiet_config();
  SystemSim sim(platform_, CoolingConfig::fan(), config);
  const AppSpec app = long_app();
  const Pid pid = sim.spawn(app, 1e8, 0);
  sim.run_for(0.1);
  sim.migrate(pid, 7);
  EXPECT_EQ(sim.process(pid).core(), 7u);
  EXPECT_THROW(sim.migrate(pid, 99), InvalidArgument);
  EXPECT_THROW(sim.migrate(999, 0), InvalidArgument);
}

TEST_F(SystemSimTest, TemperatureRisesUnderLoadAndSensorTracksIt) {
  SystemSim sim(platform_, CoolingConfig::fan(), quiet_config());
  const AppSpec app = long_app();
  for (CoreId c = 4; c < 8; ++c) sim.spawn(app, 1e8, c);
  sim.request_vf_level(kBigCluster,
                       platform_.cluster(kBigCluster).vf.num_levels() - 1);
  sim.run_for(120.0);
  EXPECT_GT(sim.thermal().max_core_temp_c(), 35.0);
  EXPECT_NEAR(sim.sensor_temp_c(), sim.thermal().max_core_temp_c(), 0.5);
}

TEST_F(SystemSimTest, DtmThrottlesWithoutFanUnderFullLoad) {
  SimConfig config = quiet_config();
  SystemSim sim(platform_, CoolingConfig::no_fan(), config);
  const AppSpec app = long_app();
  for (CoreId c = 0; c < 8; ++c) sim.spawn(app, 1e8, c);
  const std::size_t big_top =
      platform_.cluster(kBigCluster).vf.num_levels() - 1;
  sim.request_vf_level(kLittleCluster,
                       platform_.cluster(kLittleCluster).vf.num_levels() - 1);
  sim.request_vf_level(kBigCluster, big_top);
  sim.run_for(480.0);
  EXPECT_GT(sim.metrics().throttle_events(), 0u);
  EXPECT_LT(sim.vf_level(kBigCluster), big_top);            // clamped
  EXPECT_EQ(sim.requested_vf_level(kBigCluster), big_top);  // request kept
  // DTM holds the chip near the trip point.
  EXPECT_LT(sim.thermal().max_core_temp_c(), 92.0);
}

TEST_F(SystemSimTest, GovernorOverheadConsumesCoreCapacity) {
  SystemSim sim(platform_, CoolingConfig::fan(), quiet_config());
  const AppSpec app = long_app();
  const Pid on_gov_core = sim.spawn(app, 1e8, 0);
  const Pid reference = sim.spawn(app, 1e8, 1);
  // Charge 20% of core 0 every tick for one second.
  for (int i = 0; i < 100; ++i) {
    sim.charge_overhead("dvfs", 0.002, 0);
    sim.step();
  }
  const double with_overhead = sim.process(on_gov_core).instructions_retired();
  const double without = sim.process(reference).instructions_retired();
  EXPECT_NEAR(with_overhead / without, 0.8, 0.02);
  EXPECT_NEAR(sim.metrics().overhead_s("dvfs"), 0.2, 1e-9);
}

TEST_F(SystemSimTest, NpuBusyWindowAndPower) {
  SystemSim sim(platform_, CoolingConfig::fan(), quiet_config());
  EXPECT_FALSE(sim.npu_active());
  sim.npu_busy_for(0.05);
  EXPECT_TRUE(sim.npu_active());
  sim.step();
  EXPECT_GT(sim.last_power().npu_w, platform_.npu().power_idle_w);
  sim.run_for(0.1);
  EXPECT_FALSE(sim.npu_active());
  sim.step();
  EXPECT_DOUBLE_EQ(sim.last_power().npu_w, platform_.npu().power_idle_w);
}

TEST_F(SystemSimTest, UtilizationTracksOccupancy) {
  SystemSim sim(platform_, CoolingConfig::fan(), quiet_config());
  const AppSpec app = long_app();
  sim.spawn(app, 1e8, 2);
  sim.run_for(2.0);
  EXPECT_GT(sim.core_utilization(2), 0.95);
  EXPECT_LT(sim.core_utilization(3), 0.05);
}

TEST_F(SystemSimTest, PidsOnCoreAndRunningPids) {
  SystemSim sim(platform_, CoolingConfig::fan(), quiet_config());
  const AppSpec app = long_app();
  const Pid a = sim.spawn(app, 1e8, 3);
  const Pid b = sim.spawn(app, 1e8, 3);
  EXPECT_EQ(sim.num_running(), 2u);
  EXPECT_EQ(sim.pids_on_core(3), (std::vector<Pid>{a, b}));
  EXPECT_TRUE(sim.pids_on_core(4).empty());
  EXPECT_EQ(sim.running_pids().size(), 2u);
}

TEST_F(SystemSimTest, RunUntilIsExactAndMonotonic) {
  SystemSim sim(platform_, CoolingConfig::fan(), quiet_config());
  sim.run_until(0.5);
  EXPECT_NEAR(sim.now(), 0.5, 1e-9);
  EXPECT_THROW(sim.run_until(0.25), InvalidArgument);
}

TEST_F(SystemSimTest, RetiresProcessFinishingExactlyAtTickBoundary) {
  SystemSim sim(platform_, CoolingConfig::fan(), quiet_config());
  const std::size_t top =
      platform_.cluster(kBigCluster).vf.num_levels() - 1;
  sim.request_vf_level(kBigCluster, top);
  const double freq = platform_.cluster(kBigCluster).vf.at(top).freq_ghz;
  // Size the app so it retires its last instruction exactly when the 5th
  // tick ends — the completion epsilon and the retire pass must agree.
  AppSpec app = make_single_phase_app("exact", 1.0, {2.0, 0.0, 0.9},
                                      {1.0, 0.0, 1.0}, 0.0, false);
  app.phases[0].instructions =
      app.phases[0].ips(kBigCluster, freq) * 5 * sim.config().tick_s;
  const Pid pid = sim.spawn(app, 1e6, 6);
  for (int i = 0; i < 4; ++i) sim.step();
  ASSERT_TRUE(sim.is_running(pid));
  sim.step();  // the finishing tick
  EXPECT_FALSE(sim.is_running(pid));
  ASSERT_EQ(sim.metrics().completed().size(), 1u);
  const CompletedProcess& rec = sim.metrics().completed().front();
  EXPECT_EQ(rec.pid, pid);
  EXPECT_NEAR(rec.finish_time, 5 * sim.config().tick_s, 1e-9);
  EXPECT_TRUE(std::isfinite(rec.average_ips));
  EXPECT_GT(rec.average_ips, 0.0);
}

TEST_F(SystemSimTest, QosViolationRecordedWhenTargetMissed) {
  SystemSim sim(platform_, CoolingConfig::fan(), quiet_config());
  const AppSpec app = make_single_phase_app(
      "hungry", 1e9, {2.0, 0.0, 0.9}, {1.0, 0.0, 1.0}, 0.01, false);
  sim.request_vf_level(kLittleCluster, 0);  // 0.509 GHz, cpi 2 -> 254 MIPS
  sim.spawn(app, 2e9, 0);                   // impossible target
  sim.run_for(10.0);
  ASSERT_EQ(sim.metrics().completed().size(), 1u);
  EXPECT_TRUE(sim.metrics().completed().front().qos_violated);
  EXPECT_EQ(sim.metrics().qos_violations(), 1u);
}

TEST_F(SystemSimTest, SustainedShortfallCountsAsViolationDespiteAverage) {
  // An app that runs fast for the first half and starves afterwards can
  // still make its lifetime-average target; the time-based accounting
  // must flag it anyway.
  SimConfig config = quiet_config();
  config.qos.max_below_fraction = 0.10;
  SystemSim sim(platform_, CoolingConfig::fan(), config);
  const AppSpec app = make_single_phase_app(
      "bursty", 8e9, {2.0, 0.0, 0.9}, {1.0, 0.0, 1.0}, 0.01, false);
  const std::size_t top = platform_.cluster(kBigCluster).vf.num_levels() - 1;
  sim.request_vf_level(kBigCluster, top);  // 2.362 GIPS
  sim.spawn(app, 1.2e9, 5);
  sim.run_for(3.0);                       // ~7.1e9 insts fast
  sim.request_vf_level(kBigCluster, 0);   // starve: 0.682 GIPS < target
  sim.run_for(3.0);                       // finishes slowly
  ASSERT_EQ(sim.metrics().completed().size(), 1u);
  const CompletedProcess& rec = sim.metrics().completed().front();
  EXPECT_GE(rec.average_ips, rec.qos_target_ips);   // average looks fine
  EXPECT_GT(rec.below_target_fraction, 0.10);       // but it starved
  EXPECT_TRUE(rec.qos_violated);
}

TEST_F(SystemSimTest, GracePeriodForgivesRampUp) {
  SimConfig config = quiet_config();
  SystemSim sim(platform_, CoolingConfig::fan(), config);
  const AppSpec app = make_single_phase_app(
      "ramp", 5e9, {2.0, 0.0, 0.9}, {1.0, 0.0, 1.0}, 0.01, false);
  // Start at the lowest level (below target), ramp after one second --
  // within the 2 s grace period, so no below-time accrues.
  sim.request_vf_level(kBigCluster, 0);
  sim.spawn(app, 1.5e9, 5);
  sim.run_for(1.0);
  sim.request_vf_level(kBigCluster,
                       platform_.cluster(kBigCluster).vf.num_levels() - 1);
  sim.run_for(5.0);
  ASSERT_EQ(sim.metrics().completed().size(), 1u);
  const CompletedProcess& rec = sim.metrics().completed().front();
  EXPECT_LT(rec.below_target_fraction, 0.05);
  EXPECT_FALSE(rec.qos_violated);
}

// A process may run on any core a governor migrates it to, so it must
// bring a perf row for every cluster. swaptions is characterized on two
// clusters; on a three-tier part it is turned away at spawn, on any core.
TEST(SystemSimSpawn, RejectsAppWithoutPerfRowPerCluster) {
  const PlatformSpec soc = TopologySpec::three_tier().build();
  ASSERT_EQ(soc.num_clusters(), 3u);
  SimConfig config;
  config.integrator = ThermalIntegrator::Exponential;
  SystemSim sim(soc, CoolingConfig::fan(), config);
  const AppSpec& app = AppDatabase::instance().by_name("swaptions");
  ASSERT_EQ(app.phases.front().perf.size(), 2u);
  EXPECT_THROW(sim.spawn(app, 1e8, soc.core_id(2, 0)), InvalidArgument);
  EXPECT_THROW(sim.spawn(app, 1e8, soc.core_id(0, 0)), InvalidArgument);
  EXPECT_EQ(sim.num_running(), 0u);
}

// Every attached monitor sees every callback, in attach order.
TEST_F(SystemSimTest, MonitorsRunInAttachOrder) {
  struct Recorder : SimMonitor {
    Recorder(std::string n, std::vector<std::string>* l)
        : name(std::move(n)), log(l) {}
    void on_attach(const SystemSim&) override { log->push_back(name + "a"); }
    void on_tick(const SystemSim&) override { log->push_back(name + "t"); }
    void on_migration_epoch(const SystemSim&, double, double) override {
      log->push_back(name + "e");
    }
    std::string name;
    std::vector<std::string>* log;
  };
  std::vector<std::string> log;
  Recorder first("1", &log);
  Recorder second("2", &log);
  SystemSim sim(platform_, CoolingConfig::fan(), quiet_config());
  sim.attach_monitor(&first);
  sim.attach_monitor(&second);
  sim.step();
  sim.note_migration_epoch(0.5, 0.5);
  sim.step();
  EXPECT_EQ(log, (std::vector<std::string>{"1a", "2a", "1t", "2t", "1e", "2e",
                                           "1t", "2t"}));
}

}  // namespace
}  // namespace topil
