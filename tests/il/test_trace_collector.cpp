#include "il/trace_collector.hpp"

#include <gtest/gtest.h>

#include "apps/app_database.hpp"
#include "common/error.hpp"

namespace topil::il {
namespace {

class TraceCollectorTest : public ::testing::Test {
 protected:
  PlatformSpec platform_ = PlatformSpec::hikey970();
  TraceCollector collector_{platform_, CoolingConfig::fan()};

  Scenario seidel_scenario() const {
    // The paper's illustrative example: background on all cores except
    // 3 and 6, seidel-2d as the AoI.
    Scenario s;
    s.aoi = &AppDatabase::instance().by_name("seidel-2d");
    const AppSpec& bg = AppDatabase::instance().by_name("syr2k");
    for (CoreId core : {0u, 1u, 2u, 4u, 5u, 7u}) {
      s.background[core] = &bg;
    }
    return s;
  }
};

TEST_F(TraceCollectorTest, FreeCoresDerivedFromBackground) {
  const Scenario s = seidel_scenario();
  EXPECT_EQ(s.free_cores(platform_), (std::vector<CoreId>{3, 6}));
  Scenario empty;
  empty.aoi = s.aoi;
  EXPECT_EQ(empty.free_cores(platform_).size(), 8u);
}

TEST_F(TraceCollectorTest, DefaultGridsCoverEverySecondLevelPlusTop) {
  const ScenarioTraces traces = collector_.collect(seidel_scenario());
  const auto& lg = traces.grid(kLittleCluster);
  const auto& bg = traces.grid(kBigCluster);
  EXPECT_EQ(lg.front(), 0u);
  EXPECT_EQ(lg.back(),
            platform_.cluster(kLittleCluster).vf.num_levels() - 1);
  EXPECT_EQ(bg.back(), platform_.cluster(kBigCluster).vf.num_levels() - 1);
  EXPECT_GE(lg.size(), 4u);
}

TEST_F(TraceCollectorTest, TracesExistForEveryComboAndFreeCore) {
  const ScenarioTraces traces = collector_.collect(seidel_scenario());
  for (std::size_t li : traces.grid(kLittleCluster)) {
    for (std::size_t bi : traces.grid(kBigCluster)) {
      for (CoreId core : traces.free_cores()) {
        EXPECT_TRUE(traces.has({li, bi}, core));
        const TraceResult& r = traces.at({li, bi}, core);
        EXPECT_GT(r.aoi_ips, 0.0);
        EXPECT_GT(r.peak_temp_c, 25.0);
        EXPECT_LT(r.peak_temp_c, 100.0);
        EXPECT_NEAR(r.aoi_l2d_rate / r.aoi_ips, 0.015, 1e-9);
      }
    }
  }
}

TEST_F(TraceCollectorTest, AoiPerformanceDependsOnOwnClusterOnly) {
  const ScenarioTraces traces = collector_.collect(seidel_scenario());
  const auto& lg = traces.grid(kLittleCluster);
  const auto& bgr = traces.grid(kBigCluster);
  // AoI on LITTLE core 3: IPS grows with f_l, constant in f_b.
  const double low = traces.at({lg.front(), bgr.front()}, 3).aoi_ips;
  const double high_l = traces.at({lg.back(), bgr.front()}, 3).aoi_ips;
  const double high_b = traces.at({lg.front(), bgr.back()}, 3).aoi_ips;
  EXPECT_GT(high_l, low * 1.5);
  EXPECT_NEAR(high_b, low, low * 1e-9);
}

TEST_F(TraceCollectorTest, TemperatureMonotoneInVfLevels) {
  const ScenarioTraces traces = collector_.collect(seidel_scenario());
  const auto& lg = traces.grid(kLittleCluster);
  const auto& bgr = traces.grid(kBigCluster);
  for (std::size_t i = 1; i < bgr.size(); ++i) {
    EXPECT_GT(traces.at({lg.front(), bgr[i]}, 3).peak_temp_c,
              traces.at({lg.front(), bgr[i - 1]}, 3).peak_temp_c);
  }
  for (std::size_t i = 1; i < lg.size(); ++i) {
    EXPECT_GT(traces.at({lg[i], bgr.front()}, 6).peak_temp_c,
              traces.at({lg[i - 1], bgr.front()}, 6).peak_temp_c);
  }
}

TEST_F(TraceCollectorTest, NoFanTracesAreHotter) {
  TraceCollector nofan(platform_, CoolingConfig::no_fan());
  const Scenario s = seidel_scenario();
  const ScenarioTraces fan_traces = collector_.collect(s);
  const ScenarioTraces nofan_traces = nofan.collect(s);
  const std::vector<std::size_t> top = {
      fan_traces.grid(kLittleCluster).back(),
      fan_traces.grid(kBigCluster).back()};
  EXPECT_GT(nofan_traces.at(top, 3).peak_temp_c,
            fan_traces.at(top, 3).peak_temp_c + 3.0);
}

TEST_F(TraceCollectorTest, CustomGridRespected) {
  TraceCollector::Config config;
  config.level_grids = {{0, 4, 8}, {0, 4, 8}};
  TraceCollector custom(platform_, CoolingConfig::fan(), config);
  const ScenarioTraces traces = custom.collect(seidel_scenario());
  EXPECT_EQ(traces.grid(kLittleCluster), (std::vector<std::size_t>{0, 4, 8}));
  EXPECT_TRUE(traces.has({4, 8}, 3));
  EXPECT_FALSE(traces.has({1, 8}, 3));
  EXPECT_THROW(traces.at({1, 8}, 3), InvalidArgument);
}

TEST_F(TraceCollectorTest, ValidatesScenario) {
  Scenario bad;
  EXPECT_THROW(collector_.collect(bad), InvalidArgument);  // no AoI
  Scenario full;
  full.aoi = &AppDatabase::instance().by_name("adi");
  for (CoreId core = 0; core < 8; ++core) {
    full.background[core] = &AppDatabase::instance().by_name("syr2k");
  }
  EXPECT_THROW(collector_.collect(full), InvalidArgument);  // no free core
  TraceCollector::Config bad_grid;
  bad_grid.level_grids = {{0, 99}, {0}};
  EXPECT_THROW(
      TraceCollector(platform_, CoolingConfig::fan(), bad_grid),
      InvalidArgument);
}

TEST_F(TraceCollectorTest, SteadyTempsLeakageCoupledFixedPoint) {
  std::vector<double> activity(8, 1.0);
  const std::vector<std::size_t> top = {
      platform_.cluster(kLittleCluster).vf.num_levels() - 1,
      platform_.cluster(kBigCluster).vf.num_levels() - 1};
  const auto temps = collector_.steady_temps(top, activity);
  // The coupled fixed point must be hotter than a single cold-leakage
  // solve (leakage adds heat as temperature rises).
  PowerModel pm(platform_);
  Floorplan fp = Floorplan::for_platform(platform_);
  ThermalModel tm(platform_, fp, CoolingConfig::fan());
  const auto cold = tm.steady_state(
      pm.compute(top, activity, std::vector<double>(8, 25.0), false));
  double max_coupled = 0.0;
  double max_cold = 0.0;
  for (CoreId c = 0; c < 8; ++c) {
    max_coupled = std::max(max_coupled, temps[fp.core_nodes[c]]);
    max_cold = std::max(max_cold, cold[fp.core_nodes[c]]);
  }
  EXPECT_GT(max_coupled, max_cold);
  EXPECT_LT(max_coupled, max_cold + 10.0);  // weak feedback, not runaway
}

}  // namespace
}  // namespace topil::il
