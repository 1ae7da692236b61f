// Dynamic fleet membership (the governor server's shard engine): lanes
// attached mid-run, detached mid-run, and compacted away must never
// perturb their batch-mates — every surviving lane's digest stays
// bit-identical to the same simulation run alone (DESIGN.md §10 extended
// to join/leave churn).

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "core/experiment.hpp"
#include "scenario/scenario_spec.hpp"
#include "server/device_scenario.hpp"
#include "sim/fleet/fleet_engine.hpp"
#include "validate/digest_monitor.hpp"

namespace topil {
namespace {

constexpr std::uint64_t kSeed = 77;
constexpr std::uint64_t kPolicySeed = 3;

/// A self-contained lane: one synthetic device scenario with its governor,
/// digest monitor, and the ExperimentRun whose loop head is the pre_tick.
struct TestDevice {
  scenario::ScenarioSpec spec;
  std::unique_ptr<scenario::MaterializedScenario> mat;
  std::unique_ptr<Governor> governor;
  validate::DigestMonitor monitor;
  std::unique_ptr<ExperimentRun> run;
  std::size_t lane = fleet::FleetEngine::kRemovedLane;

  explicit TestDevice(std::uint64_t id, double duration_s = 1.0) {
    server::DeviceScenarioOptions opts;
    opts.max_duration_s = duration_s;
    opts.num_apps = 2;
    opts.governor = "gts-powersave";  // NPU-free: isolates engine churn
    spec = server::make_device_scenario(kSeed, id, opts);
    mat = std::make_unique<scenario::MaterializedScenario>(
        scenario::materialize(spec));
    ExperimentConfig config;
    config.cooling = mat->cooling;
    config.sim = mat->sim;
    config.sim.integrator = ThermalIntegrator::Exponential;
    config.max_duration_s = mat->max_duration_s;
    config.monitor = &monitor;
    governor = server::make_device_governor(spec, mat->platform, kPolicySeed,
                                            nullptr);
    run = std::make_unique<ExperimentRun>(mat->platform, *governor,
                                          mat->workload, config);
  }

  fleet::FleetEngine::Lane as_lane() {
    fleet::FleetEngine::Lane lane;
    lane.sim = &run->sim();
    lane.pre_tick = [this](SystemSim&) { return run->pre_tick(); };
    return lane;
  }
};

/// Digest of device `id` run alone to completion.
std::uint64_t solo_digest(std::uint64_t id, double duration_s = 1.0) {
  TestDevice device(id, duration_s);
  fleet::FleetEngine engine;
  device.lane = engine.attach_lane(device.as_lane());
  engine.run();
  return device.monitor.digest();
}

TEST(FleetDynamic, StaggeredAttachMatchesSoloRuns) {
  fleet::FleetEngine engine;
  std::deque<TestDevice> devices;

  // Lane 0 starts alone; the rest join every 40 fleet ticks.
  devices.emplace_back(0);
  devices.back().lane = engine.attach_lane(devices.back().as_lane());
  std::size_t next_id = 1;
  while (engine.active_lanes() > 0) {
    for (std::size_t t = 0; t < 40 && engine.step() > 0; ++t) {
    }
    if (next_id < 4) {
      devices.emplace_back(next_id);
      devices.back().lane = engine.attach_lane(devices.back().as_lane());
      ++next_id;
    }
  }
  ASSERT_EQ(devices.size(), 4u);
  for (std::size_t i = 0; i < devices.size(); ++i) {
    EXPECT_EQ(devices[i].monitor.digest(), solo_digest(i)) << "device " << i;
    EXPECT_GT(devices[i].monitor.ticks(), 0u) << "device " << i;
  }
}

TEST(FleetDynamic, DetachLeavesBatchMatesBitIdentical) {
  fleet::FleetEngine engine;
  std::deque<TestDevice> devices;
  for (std::uint64_t id = 0; id < 3; ++id) {
    devices.emplace_back(id);
    devices.back().lane = engine.attach_lane(devices.back().as_lane());
  }
  for (std::size_t t = 0; t < 30; ++t) engine.step();
  ASSERT_TRUE(engine.lane_active(devices[1].lane));
  engine.detach_lane(devices[1].lane);
  EXPECT_FALSE(engine.lane_active(devices[1].lane));
  const std::uint64_t frozen = devices[1].monitor.digest();
  engine.run();

  EXPECT_EQ(devices[0].monitor.digest(), solo_digest(0));
  EXPECT_EQ(devices[2].monitor.digest(), solo_digest(2));
  // The detached lane was never stepped again.
  EXPECT_EQ(devices[1].monitor.digest(), frozen);
  EXPECT_EQ(devices[1].monitor.ticks(), 30u);
}

TEST(FleetDynamic, CompactRemapsSurvivorsAndReclaimsTombstones) {
  fleet::FleetEngine engine;
  std::deque<TestDevice> devices;
  for (std::uint64_t id = 0; id < 4; ++id) {
    devices.emplace_back(id);
    devices.back().lane = engine.attach_lane(devices.back().as_lane());
  }
  for (std::size_t t = 0; t < 10; ++t) engine.step();
  engine.detach_lane(devices[0].lane);
  engine.detach_lane(devices[2].lane);
  EXPECT_EQ(engine.num_lanes(), 4u);
  EXPECT_EQ(engine.active_lanes(), 2u);

  const std::vector<std::size_t> remap = engine.compact();
  ASSERT_EQ(remap.size(), 4u);
  EXPECT_EQ(remap[devices[0].lane], fleet::FleetEngine::kRemovedLane);
  EXPECT_EQ(remap[devices[2].lane], fleet::FleetEngine::kRemovedLane);
  devices[1].lane = remap[devices[1].lane];
  devices[3].lane = remap[devices[3].lane];
  EXPECT_EQ(engine.num_lanes(), 2u);
  // The detached devices' sims can now be destroyed while the engine
  // lives on — compaction must have dropped every pointer to them.
  devices[0].run.reset();
  devices[2].run.reset();

  ASSERT_TRUE(engine.lane_active(devices[1].lane));
  ASSERT_TRUE(engine.lane_active(devices[3].lane));
  engine.run();
  EXPECT_EQ(devices[1].monitor.digest(), solo_digest(1));
  EXPECT_EQ(devices[3].monitor.digest(), solo_digest(3));
}

TEST(FleetDynamic, ChurnedEngineServesFreshLanesAfterCompact) {
  // Attach, finish, compact, attach again — the long-lived shard pattern.
  fleet::FleetEngine engine;
  std::deque<TestDevice> generation1;
  for (std::uint64_t id = 0; id < 2; ++id) {
    generation1.emplace_back(id, 0.5);
    generation1.back().lane =
        engine.attach_lane(generation1.back().as_lane());
  }
  engine.run();  // generation 1 retires naturally
  EXPECT_EQ(engine.active_lanes(), 0u);
  engine.compact();
  EXPECT_EQ(engine.num_lanes(), 0u);
  generation1.clear();  // destroy the sims (and their platforms)

  std::deque<TestDevice> generation2;
  for (std::uint64_t id = 10; id < 13; ++id) {
    generation2.emplace_back(id);
    generation2.back().lane = engine.attach_lane(generation2.back().as_lane());
  }
  engine.run();
  for (auto& device : generation2) {
    EXPECT_GT(device.monitor.ticks(), 0u);
  }
  EXPECT_EQ(generation2[0].monitor.digest(), solo_digest(10));
  EXPECT_EQ(generation2[1].monitor.digest(), solo_digest(11));
  EXPECT_EQ(generation2[2].monitor.digest(), solo_digest(12));
}

TEST(FleetDynamic, AttachedLanesBatchThermals) {
  fleet::FleetEngine engine;
  std::deque<TestDevice> devices;
  for (std::uint64_t id = 0; id < 3; ++id) {
    devices.emplace_back(id, 0.5);
    devices.back().lane = engine.attach_lane(devices.back().as_lane());
  }
  engine.run();
  // Exponential-integrator lanes attached dynamically still go through
  // the batched slab kernel, not the scalar fallback.
  EXPECT_GT(engine.batched_thermal_lane_ticks(), 0u);
  EXPECT_EQ(engine.scalar_thermal_lane_ticks(), 0u);
}

}  // namespace
}  // namespace topil
