#include <gtest/gtest.h>

#include "apps/app_database.hpp"
#include "sim/perf_counters.hpp"
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
  EXPECT_DOUBLE_EQ(PerfApi::read_cost_s(0), PerfApi::kFixedReadCostS);
  EXPECT_NEAR(PerfApi::read_cost_s(16),
              PerfApi::kFixedReadCostS + 16 * PerfApi::kPerPidReadCostS,
              1e-12);
  // Paper: ~0.54 ms per DVFS-loop invocation at 16 applications.
  EXPECT_NEAR(PerfApi::read_cost_s(16), 0.54e-3, 0.1e-3);
}

TEST_F(PerfProcTest, ReadAllReturnsSamplesAndChargesCost) {
  const Pid a = sim_.spawn(app_, 1e8, 0);
  const Pid b = sim_.spawn(app_, 1e8, 5);
  sim_.run_for(0.5);
  const auto samples = PerfApi::read_all(sim_, "dvfs");
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].pid, a);
  EXPECT_EQ(samples[1].pid, b);
  for (const auto& s : samples) {
    EXPECT_GT(s.ips, 0.0);
    EXPECT_GT(s.l2d_rate, 0.0);
    EXPECT_GT(s.instructions, 0.0);
    EXPECT_NEAR(s.l2d_rate / s.ips, 0.02, 1e-6);
  }
  EXPECT_NEAR(sim_.metrics().overhead_s("dvfs"), PerfApi::read_cost_s(2),
              1e-12);
}

TEST_F(PerfProcTest, EmptySystemYieldsEmptyViews) {
  EXPECT_TRUE(PerfApi::read_all(sim_, "dvfs").empty());
}

}  // namespace
}  // namespace topil
