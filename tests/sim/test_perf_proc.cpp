#include <gtest/gtest.h>

#include "apps/app_database.hpp"
#include "governors/dvfs_control.hpp"
#include "sim/system_sim.hpp"

namespace topil {
namespace {

class PerfProcTest : public ::testing::Test {
 protected:
  PlatformSpec platform_ = PlatformSpec::hikey970();
  SystemSim sim_{platform_, CoolingConfig::fan(), SimConfig{}};

  AppSpec app_ = make_single_phase_app("a", 1e13, {2.0, 0.1, 0.9},
                                       {1.0, 0.05, 1.0}, 0.02, false);
};

TEST_F(PerfProcTest, ReadCostScalesLinearlyWithPids) {
  for (CoreId c = 0; c < 16; ++c) sim_.spawn(app_, 1e8, c % 8);
  sim_.charge_counter_reads("dvfs");
  EXPECT_NEAR(sim_.metrics().overhead_s("dvfs"),
              SystemSim::kCounterReadFixedS +
                  16 * SystemSim::kCounterReadPerProcessS,
              1e-12);
  // Paper: ~0.54 ms per DVFS-loop invocation at 16 applications.
  EXPECT_NEAR(sim_.metrics().overhead_s("dvfs"), 0.54e-3, 0.1e-3);
}

TEST_F(PerfProcTest, ReadAllReturnsSamplesAndChargesCost) {
  // One DVFS invocation reads every process's counters and pays one read.
  const Pid a = sim_.spawn(app_, 1e8, 0);
  sim_.spawn(app_, 1e8, 5);
  sim_.run_for(0.5);
  const Process& proc = sim_.process(a);
  EXPECT_GT(proc.measured_ips(), 0.0);
  EXPECT_NEAR(proc.measured_l2d_rate() / proc.measured_ips(), 0.02, 1e-6);
  DvfsControlLoop loop;
  loop.reset(sim_);
  loop.tick(sim_);  // due at reset
  const double one_read = SystemSim::kCounterReadFixedS +
                          2 * SystemSim::kCounterReadPerProcessS;
  EXPECT_NEAR(sim_.metrics().overhead_s("dvfs"), one_read, 1e-12);
  loop.tick(sim_);  // same instant: not due again, no second read
  EXPECT_NEAR(sim_.metrics().overhead_s("dvfs"), one_read, 1e-12);
}

TEST_F(PerfProcTest, EmptySystemYieldsEmptyViews) {
  EXPECT_TRUE(sim_.processes().empty());
  sim_.charge_counter_reads("dvfs");  // the fixed cost remains
  EXPECT_DOUBLE_EQ(sim_.metrics().overhead_s("dvfs"),
                   SystemSim::kCounterReadFixedS);
}

}  // namespace
}  // namespace topil
