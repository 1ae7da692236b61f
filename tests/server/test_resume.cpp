#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "server/client.hpp"
#include "server/server.hpp"

// Durability tests: a server stopped mid-fleet (checkpoint + WAL on disk)
// and rebuilt with resume=true must finish every device with digests
// bit-identical to an uninterrupted run. The in-process stop() models the
// orderly half of the crash story; the kill -9 half is exercised by the
// ci_check.sh server gate on the topil_serve binary (same Shard code
// paths: WAL replay + checkpoint restore).
namespace topil::server {
namespace {

constexpr std::uint64_t kSeed = 321;
constexpr std::uint64_t kPolicySeed = 5;
constexpr std::size_t kEpochTicks = 25;

DeviceScenarioOptions device_opts() {
  DeviceScenarioOptions opts;
  opts.max_duration_s = 8.0;
  opts.num_apps = 2;
  opts.instruction_scale = 1.5;  // busy until the duration cap
  return opts;
}

ServerConfig durable_config(const std::string& dir) {
  ServerConfig sc;
  sc.nshards = 2;
  sc.policy_seed = kPolicySeed;
  sc.epoch_ticks = kEpochTicks;
  sc.state_dir = dir;
  sc.checkpoint_every_ticks = 10;
  return sc;
}

std::string scratch_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("topil_server_resume_" + name +
                    std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::map<std::uint64_t, DeviceRunSummary> reference_digests(
    const std::vector<std::uint64_t>& ids) {
  std::map<std::uint64_t, DeviceRunSummary> out;
  for (const std::uint64_t id : ids) {
    out[id] = run_reference_device(make_device_scenario(kSeed, id,
                                                        device_opts()),
                                   id, kPolicySeed, kEpochTicks);
  }
  return out;
}

/// Start a durable server, register `ids`, stop mid-run after the first
/// actions arrive (devices still live), leaving WAL + checkpoints behind.
void run_and_interrupt(const std::string& dir,
                       const std::vector<std::uint64_t>& ids) {
  GovernorServer server(durable_config(dir));
  server.start();
  ServiceClient client(server.connect_local());
  for (const std::uint64_t id : ids) {
    client.register_device(
        id, make_device_scenario(kSeed, id, device_opts()).serialize());
  }
  std::size_t actions = 0;
  std::vector<ClientEvent> events;
  while (actions < ids.size()) {  // every shard demonstrably mid-run
    events.clear();
    ASSERT_GT(client.poll_wait(events, 30'000), 0u);
    for (const ClientEvent& ev : events) {
      ASSERT_NE(ev.type, MsgType::kError) << ev.error.message;
      if (ev.type == MsgType::kAction) ++actions;
    }
  }
  server.stop();  // final checkpoint at a step boundary
  ASSERT_GT(server.stats().devices_live, 0u)
      << "stop landed after completion; nothing left to resume";
}

TEST(ServerResume, ResumedFleetMatchesUninterruptedDigests) {
  const std::vector<std::uint64_t> ids = {0, 1, 2, 3, 4};
  const std::string dir = scratch_dir("midrun");
  run_and_interrupt(dir, ids);

  // Rebuild from disk; devices continue headless to retirement.
  ServerConfig rc = durable_config(dir);
  rc.resume = true;
  GovernorServer resumed(rc);
  resumed.start();
  resumed.wait_drained();
  resumed.stop();
  EXPECT_EQ(resumed.stats().devices_live, 0u);

  const auto retired = read_retired_devices(dir, rc.nshards);
  const auto ref = reference_digests(ids);
  ASSERT_EQ(retired.size(), ids.size());
  for (const RetireMsg& m : retired) {
    const DeviceRunSummary& r = ref.at(m.device_id);
    EXPECT_EQ(m.digest, r.digest) << "device " << m.device_id;
    EXPECT_EQ(m.ticks, r.ticks) << "device " << m.device_id;
    EXPECT_EQ(m.actions, r.actions) << "device " << m.device_id;
    EXPECT_EQ(m.action_digest, r.action_digest)
        << "device " << m.device_id;
  }
  std::filesystem::remove_all(dir);
}

TEST(ServerResume, WalReplayAloneRestartsDevicesBitIdentically) {
  // Delete the checkpoints: resume must fall back to replaying the WAL
  // membership and restarting every live device from tick zero — slower,
  // but the final digests are the same (determinism from the spec alone).
  const std::vector<std::uint64_t> ids = {0, 1, 2};
  const std::string dir = scratch_dir("walonly");
  run_and_interrupt(dir, ids);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".ckpt") {
      std::filesystem::remove(entry.path());
    }
  }

  ServerConfig rc = durable_config(dir);
  rc.resume = true;
  GovernorServer resumed(rc);
  resumed.start();
  resumed.wait_drained();
  resumed.stop();

  const auto retired = read_retired_devices(dir, rc.nshards);
  const auto ref = reference_digests(ids);
  ASSERT_EQ(retired.size(), ids.size());
  for (const RetireMsg& m : retired) {
    EXPECT_EQ(m.digest, ref.at(m.device_id).digest)
        << "device " << m.device_id;
    EXPECT_EQ(m.action_digest, ref.at(m.device_id).action_digest)
        << "device " << m.device_id;
  }
  std::filesystem::remove_all(dir);
}

TEST(ServerResume, ResumeUnderValidationReportsNoViolations) {
  // Restoring a checkpoint jumps the thermal state mid-run; the invariant
  // checker must be re-primed against the restored state, or its
  // energy-balance baseline books the jump as a phantom stored-energy
  // change and every subsequent tick violates the cumulative balance.
  const std::vector<std::uint64_t> ids = {0, 1, 2, 3};
  const std::string dir = scratch_dir("validate");
  {
    ServerConfig sc = durable_config(dir);
    sc.validate = true;
    GovernorServer server(sc);
    server.start();
    ServiceClient client(server.connect_local());
    for (const std::uint64_t id : ids) {
      client.register_device(
          id, make_device_scenario(kSeed, id, device_opts()).serialize());
    }
    std::size_t actions = 0;
    std::vector<ClientEvent> events;
    while (actions < ids.size()) {
      events.clear();
      ASSERT_GT(client.poll_wait(events, 30'000), 0u);
      for (const ClientEvent& ev : events) {
        ASSERT_NE(ev.type, MsgType::kError) << ev.error.message;
        if (ev.type == MsgType::kAction) ++actions;
      }
    }
    server.stop();
    ASSERT_GT(server.stats().devices_live, 0u);
  }

  ServerConfig rc = durable_config(dir);
  rc.resume = true;
  rc.validate = true;
  GovernorServer resumed(rc);
  resumed.start();
  resumed.wait_drained();
  resumed.stop();
  EXPECT_EQ(resumed.stats().invariant_violations, 0u);

  const auto retired = read_retired_devices(dir, rc.nshards);
  const auto ref = reference_digests(ids);
  ASSERT_EQ(retired.size(), ids.size());
  for (const RetireMsg& m : retired) {
    EXPECT_EQ(m.digest, ref.at(m.device_id).digest)
        << "device " << m.device_id;
  }
  std::filesystem::remove_all(dir);
}

/// Copy every shard checkpoint in `from` over the same file in `to`.
void copy_checkpoints(const std::string& from, const std::string& to) {
  for (const auto& entry : std::filesystem::directory_iterator(from)) {
    if (entry.path().extension() != ".ckpt") continue;
    std::filesystem::copy_file(
        entry.path(), std::filesystem::path(to) / entry.path().filename(),
        std::filesystem::copy_options::overwrite_existing);
  }
}

/// Wait until the client has seen `count` events of `type`.
void await_events(ServiceClient& client, MsgType type, std::size_t count) {
  std::size_t seen = 0;
  std::vector<ClientEvent> events;
  while (seen < count) {
    events.clear();
    ASSERT_GT(client.poll_wait(events, 30'000), 0u);
    for (const ClientEvent& ev : events) {
      ASSERT_NE(ev.type, MsgType::kError) << ev.error.message;
      if (ev.type == type) ++seen;
    }
  }
}

TEST(ServerResume, StaleCheckpointAfterRetirementsResumes) {
  // A crash can land after devices retired (WAL) but before the next
  // checkpoint, which then still lists them as live. Modeled by putting a
  // mid-run checkpoint back after a resumed run finished: resume must
  // treat the WAL as authority, not fail, and keep every outcome intact.
  const std::vector<std::uint64_t> ids = {0, 1, 2};
  const std::string dir = scratch_dir("stale");
  const std::string stale = scratch_dir("stale_ckpt");
  run_and_interrupt(dir, ids);
  copy_checkpoints(dir, stale);

  ServerConfig rc = durable_config(dir);
  rc.resume = true;
  for (int pass = 0; pass < 2; ++pass) {
    GovernorServer resumed(rc);
    resumed.start();
    resumed.wait_drained();
    resumed.stop();
    EXPECT_EQ(resumed.stats().devices_live, 0u) << "pass " << pass;
    copy_checkpoints(stale, dir);
  }

  const auto retired = read_retired_devices(dir, rc.nshards);
  const auto ref = reference_digests(ids);
  ASSERT_EQ(retired.size(), ids.size());
  for (const RetireMsg& m : retired) {
    EXPECT_EQ(m.digest, ref.at(m.device_id).digest)
        << "device " << m.device_id;
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(stale);
}

TEST(ServerResume, ReRegistrationAfterCheckpointRestartsFromTickZero) {
  // Device 0 runs (periodic checkpoints capture it), retires, and is
  // registered again with another scenario; the crash lands before a
  // newer checkpoint. Resume must restart the new registration from tick
  // zero, not continue the old one from the stale checkpoint.
  const std::string dir = scratch_dir("rereg");
  const std::string stale = scratch_dir("rereg_ckpt");
  DeviceScenarioOptions short_run = device_opts();
  short_run.max_duration_s = 2.0;
  const scenario::ScenarioSpec first =
      make_device_scenario(kSeed, 0, short_run);
  const scenario::ScenarioSpec second =
      make_device_scenario(kSeed + 1, 0, device_opts());
  ServerConfig sc = durable_config(dir);
  sc.nshards = 1;
  {
    GovernorServer server(sc);
    server.start();
    ServiceClient client(server.connect_local());
    client.register_device(0, first.serialize());
    await_events(client, MsgType::kRetire, 1);
    // The shard is empty now, so no checkpoint replaces this one.
    copy_checkpoints(dir, stale);
    client.register_device(0, second.serialize());
    await_events(client, MsgType::kRegisterAck, 1);
    server.stop();
  }
  copy_checkpoints(stale, dir);

  ServerConfig rc = sc;
  rc.resume = true;
  GovernorServer resumed(rc);
  resumed.start();
  resumed.wait_drained();
  resumed.stop();

  // Both registrations of device 0 retire once, each with its own
  // scenario's digest.
  std::multiset<std::uint64_t> got;
  for (const RetireMsg& m : read_retired_devices(dir, rc.nshards)) {
    got.insert(m.digest);
  }
  const std::multiset<std::uint64_t> want = {
      run_reference_device(first, 0, kPolicySeed, kEpochTicks).digest,
      run_reference_device(second, 0, kPolicySeed, kEpochTicks).digest};
  EXPECT_EQ(got, want);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(stale);
}

TEST(ServerResume, RefusesCheckpointFromDifferentConfiguration) {
  const std::vector<std::uint64_t> ids = {0, 1};
  const std::string dir = scratch_dir("meta");
  run_and_interrupt(dir, ids);

  ServerConfig rc = durable_config(dir);
  rc.resume = true;
  rc.epoch_ticks = 50;  // different action cadence => different digests
  EXPECT_THROW(GovernorServer{rc}, Error);
  std::filesystem::remove_all(dir);
}

TEST(ServerResume, RetirementsSurviveAcrossRestarts) {
  // Run a small fleet to completion, then resume the (empty) state dir:
  // nothing is live, and the retired records are still all there.
  const std::vector<std::uint64_t> ids = {0, 1, 2};
  const std::string dir = scratch_dir("complete");
  {
    GovernorServer server(durable_config(dir));
    server.start();
    ServiceClient client(server.connect_local());
    DeviceScenarioOptions opts = device_opts();
    opts.max_duration_s = 1.0;
    for (const std::uint64_t id : ids) {
      client.register_device(
          id, make_device_scenario(kSeed, id, opts).serialize());
    }
    // Let every registration land before the drain check can pass
    // vacuously on still-empty shards.
    std::size_t acks = 0;
    std::vector<ClientEvent> events;
    while (acks < ids.size()) {
      events.clear();
      ASSERT_GT(client.poll_wait(events, 30'000), 0u);
      for (const ClientEvent& ev : events) {
        ASSERT_NE(ev.type, MsgType::kError) << ev.error.message;
        if (ev.type == MsgType::kRegisterAck) ++acks;
      }
    }
    server.wait_drained();
    server.stop();
    EXPECT_EQ(server.stats().devices_retired, ids.size());
  }
  {
    ServerConfig rc = durable_config(dir);
    rc.resume = true;
    GovernorServer resumed(rc);
    resumed.start();
    resumed.wait_drained();
    resumed.stop();
    EXPECT_EQ(resumed.stats().devices_live, 0u);
    EXPECT_EQ(read_retired_devices(dir, rc.nshards).size(), ids.size());
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace topil::server
