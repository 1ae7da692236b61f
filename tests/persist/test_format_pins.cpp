#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "checkpointed_run_fixture.hpp"
#include "common/error.hpp"
#include "core/dagger.hpp"
#include "core/training.hpp"
#include "file_test_util.hpp"
#include "governors/toprl_governor.hpp"
#include "nn/serialize.hpp"
#include "persist/checkpoint.hpp"
#include "persist/crc32.hpp"
#include "persist/snapshot.hpp"
#include "rl/qtable.hpp"
#include "scenario/campaign.hpp"
#include "server/device_scenario.hpp"
#include "server/protocol.hpp"
#include "server/shard.hpp"
#include "sim/system_sim.hpp"

// Format pins: the size and CRC-32 of every kind of binary record the
// program writes — simulator and governor state, checkpoint files, the
// shard log and checkpoint, every wire message, the campaign journal, the
// training log, and the model and Q-table files. Files written by one
// build must read in another, so a change that moves any of these bytes
// is a format change: it re-takes the constants in a commit of its own.
namespace topil::persist {
namespace {

using test::read_file;
using test::scratch_dir;

std::string hex(const std::string& bytes) {
  std::string out;
  char byte[4];
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::snprintf(byte, sizeof(byte), "%02x",
                  static_cast<unsigned char>(bytes[i]));
    out += byte;
    if (i % 32 == 31) out += '\n';
  }
  return out;
}

void expect_pinned(const std::string& bytes, std::size_t size,
                   std::uint32_t crc) {
  const std::uint32_t actual = crc32(bytes);
  EXPECT_TRUE(bytes.size() == size && actual == crc)
      << "size " << bytes.size() << " (pinned " << size << "), crc32 0x"
      << std::hex << actual << " (pinned 0x" << crc << "); bytes:\n"
      << hex(bytes);
}

class FormatPins : public CheckpointedRunTest {
 protected:
  /// A run of the fixture's device, stepped until `until_s`.
  struct Device {
    std::unique_ptr<Governor> governor;
    Workload workload;
    std::unique_ptr<ExperimentRun> run;
  };

  std::unique_ptr<Device> device(const std::string& name,
                                 double until_s) const {
    auto d = std::make_unique<Device>();
    d->governor = governor(name);
    d->workload = workload();
    d->run = std::make_unique<ExperimentRun>(platform_, *d->governor,
                                             d->workload, run_config(90.0));
    while (d->run->sim().now() < until_s) d->run->step();
    return d;
  }

  static std::string governor_state(const Governor& governor) {
    StateWriter out;
    governor.save_state(out);
    return out.take_buffer();
  }

  /// The simulator's snapshot followed by the governor's state.
  static std::string device_state(const Device& d) {
    StateWriter out;
    SnapshotAccess::fields(out, d.run->sim());
    d.governor->save_state(out);
    return out.take_buffer();
  }
};

// TOP-IL one tick after the 14 s epoch submitted its batch; TOP-RL after
// an epoch that left an action to be rewarded.
constexpr double kTopIlInFlightS = 14.005;
constexpr double kStateS = 20.0;

/// Offset of TOP-IL's batch-in-flight flag: tag, DVFS section (tag, f64,
/// u64), f64, bool, three u64.
constexpr std::size_t kTopIlPendingAt = 4 + (4 + 8 + 8) + 8 + 1 + 3 * 8;

/// Offset of TOP-RL's pending-action flag: tag, Q-table, controller tag,
/// its Q-table, random engine, learning flag.
std::size_t toprl_pending_at(std::size_t entries) {
  const std::size_t table = 4 + 8 + 8 + 8 + 8 * entries;
  return 4 + table + 4 + table + (312 + 1) * 8 + 1;
}

TEST_F(FormatPins, SimSnapshot) {
  SimConfig config;
  config.integrator = ThermalIntegrator::Exponential;
  config.seed = 17;
  SystemSim sim(platform_, CoolingConfig::fan(), config);
  const AppDatabase& db = AppDatabase::instance();
  AppSpec short_app = db.by_name("x264");
  for (PhaseSpec& phase : short_app.phases) phase.instructions *= 1e-3;
  sim.spawn(db.by_name("swaptions"), 1e8, 5);
  sim.spawn(short_app, 1e8, 4);
  sim.spawn(db.by_name("canneal"), 1e8, 1);
  while (sim.metrics().completed().empty()) sim.step();
  for (int t = 0; t < 10; ++t) sim.step();
  ASSERT_EQ(sim.metrics().completed().size(), 1u);
  ASSERT_EQ(sim.running_pids().size(), 2u);

  StateWriter out;
  SnapshotAccess::fields(out, sim);
  expect_pinned(out.buffer(), 6810, 0xc491ea1du);
}

TEST_F(FormatPins, GovernorStates) {
  const auto topil = device("topil", kTopIlInFlightS);
  const std::string til = governor_state(*topil->governor);
  ASSERT_EQ(til[kTopIlPendingAt], 1) << "no TOP-IL batch in flight";
  expect_pinned(til, 250, 0xf5cc5848u);

  const auto toprl = device("toprl", kStateS);
  const std::string trl = governor_state(*toprl->governor);
  const auto& rl = static_cast<const TopRlGovernor&>(*toprl->governor);
  ASSERT_EQ(trl[toprl_pending_at(rl.table().num_entries())], 1)
      << "no TOP-RL action pending";
  expect_pinned(trl, 39494, 0x6799095cu);

  expect_pinned(governor_state(*device("gts-ondemand", kStateS)->governor),
                24, 0xa2a63a93u);
  expect_pinned(governor_state(*device("gts-schedutil", kStateS)->governor),
                48, 0x840852f2u);
}

TEST_F(FormatPins, CheckpointedRunPayload) {
  const std::string dir = scratch_dir("pin_checkpoint");
  CheckpointOptions options;
  options.path = dir + "/run.ckpt";
  options.every_s = kTopIlInFlightS;
  options.meta = "format pin";
  const auto gov = governor("topil");
  const CheckpointedResult run = run_experiment_checkpointed(
      platform_, *gov, workload(), run_config(20.0), options);
  ASSERT_EQ(run.checkpoints_written, 1u);
  expect_pinned(read_checkpoint_file(options.path), 8428, 0x836f290du);
}

// Every truncation of a device's saved state is refused, restoring into
// one sim and governor that the failed restores leave behind; the whole
// state still restores into them.
TEST_F(FormatPins, EveryTruncatedDeviceStateIsRefused) {
  for (const auto& [name, until_s] :
       std::vector<std::pair<std::string, double>>{
           {"topil", kTopIlInFlightS},
           {"toprl", kStateS},
           {"gts-schedutil", kStateS}}) {
    SCOPED_TRACE(name);
    const std::string bytes = device_state(*device(name, until_s));
    const auto target = device(name, 0.0);
    const auto restore = [&](std::string_view payload) {
      StateReader in(payload);
      SnapshotAccess::fields(in, target->run->sim());
      target->governor->restore_state(in);
      in.require_done();
    };
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_THROW(restore(std::string_view(bytes).substr(0, len)), Error)
          << "truncated to " << len;
    }
    restore(bytes);
  }
}

TEST(FormatPinsServer, ShardLogAndCheckpoint) {
  const std::string dir = scratch_dir("pin_shard");
  server::Shard::Config config;
  config.policy_seed = 5;
  config.epoch_ticks = 25;
  config.state_dir = dir;
  config.checkpoint_every_ticks = 51;
  server::Shard shard(config);
  server::DeviceScenarioOptions device;
  device.max_duration_s = 1.5;
  device.num_apps = 2;
  for (const std::uint64_t id : {3u, 8u}) {
    shard.enqueue_register(
        server::RegisterMsg{
            id, server::make_device_scenario(99, id, device).serialize()},
        nullptr);
  }
  while (shard.fleet_ticks() < 51) shard.pump();
  const std::string checkpoint = read_file(dir + "/shard0.ckpt");
  shard.enqueue_deregister(3);
  while (shard.pump()) {
  }
  ASSERT_EQ(shard.devices_retired(), 1u);
  expect_pinned(checkpoint, 15671, 0x05024facu);
  expect_pinned(read_file(dir + "/shard0.wal"), 962, 0x1a1fc901u);
}

TEST(FormatPinsServer, WireMessages) {
  using namespace server;
  expect_pinned(encode(RegisterMsg{7, "governor topil\n"}), 35,
                0x90031befu);
  expect_pinned(encode(RegisterAckMsg{7, 1}), 20, 0x663c9503u);
  ActionMsg action;
  action.device_id = 7;
  action.seq = 3;
  action.tick = 150;
  action.sim_time_s = 1.5;
  action.sent_ns = 123456789;
  action.vf_levels = {3, 7};
  action.placements = {{1, 4}, {2, 5}};
  expect_pinned(encode(action), 108, 0xb43499ebu);
  expect_pinned(encode(RetireMsg{7, 0x0123456789abcdefu, 150, 3,
                               0xfedcba9876543210u}),
                44, 0x9e455e81u);
  expect_pinned(encode(DeregisterMsg{7}), 12, 0x5b76155cu);
  expect_pinned(encode(StatsRequestMsg{}), 4, 0x54bd168bu);
  expect_pinned(encode(StatsReplyMsg{1, 2, 3, 4, 5, 6, 7, 8}), 68,
                0xa1dbd03cu);
  expect_pinned(encode(ErrorMsg{7, "device 7 is already registered"}), 50,
                0xaa0712e4u);
}

TEST(FormatPinsLogs, CampaignJournal) {
  const std::string dir = scratch_dir("pin_journal");
  scenario::CampaignConfig config;
  config.seed = 71;
  config.count = 6;
  config.jobs = 1;
  config.shrink = false;
  config.generator.max_apps = 2;
  config.generator.min_runtime_s = 1.0;
  config.generator.max_runtime_s = 2.0;
  config.journal_path = dir + "/campaign.wal";
  scenario::run_campaign(config);
  expect_pinned(read_file(config.journal_path), 1138, 0xc54081d6u);
}

TEST(FormatPinsLogs, DaggerTrainingLog) {
  const std::string dir = scratch_dir("pin_dagger");
  il::DaggerConfig config;
  config.iterations = 2;
  config.rollouts_per_iteration = 1;
  config.rollout_duration_s = 40.0;
  config.workload_apps = 3;
  config.arrival_rate_per_s = 0.2;
  config.training.hidden = {8};
  config.training.trainer.max_epochs = 4;
  config.training.trainer.patience = 4;
  config.seed = 5;
  config.jobs = 1;
  config.wal_path = dir + "/train.wal";
  il::DaggerTrainer(hikey970_platform(), CoolingConfig::fan()).run(config);
  expect_pinned(read_file(config.wal_path), 61687, 0xc4539e59u);
}

TEST(FormatPinsFiles, ModelAndQTable) {
  const std::string dir = scratch_dir("pin_files");
  nn::Topology topo;
  topo.inputs = 4;
  topo.outputs = 3;
  topo.hidden = {5};
  nn::Mlp model(topo);
  model.init(11);
  nn::save_model(model, dir + "/model.bin");
  expect_pinned(read_file(dir + "/model.bin"), 220, 0x2e6557b8u);

  rl::QTable table(6, 4, 0.0);
  for (std::size_t s = 0; s < 6; ++s) {
    for (std::size_t a = 0; a < 4; ++a) {
      table.set_q(s, a, static_cast<double>(s * 10 + a));
    }
  }
  table.save(dir + "/table.bin");
  expect_pinned(read_file(dir + "/table.bin"), 216, 0xdb6af429u);
}

}  // namespace
}  // namespace topil::persist
