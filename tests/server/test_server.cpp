#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "persist/wal.hpp"
#include "server/client.hpp"
#include "server/server.hpp"

// End-to-end tests of the governor service over in-process socketpair
// connections and over TCP: registration/ack/action/retire lifecycle,
// error replies, clients that hang up, and the headline contract — a shard
// serving K tenants through one aggregated NPU pass per tick retires every
// device with digests bit-identical to K solo rollouts.
namespace topil::server {
namespace {

constexpr std::uint64_t kSeed = 99;
constexpr std::uint64_t kPolicySeed = 5;
constexpr std::size_t kEpochTicks = 25;

DeviceScenarioOptions short_device() {
  DeviceScenarioOptions opts;
  opts.max_duration_s = 1.5;
  opts.num_apps = 2;
  return opts;
}

/// Runs for seconds of shard time even unloaded (360k ticks), so it is
/// still live whenever a test acts on it; tests deregister it when done.
DeviceScenarioOptions long_device() {
  DeviceScenarioOptions opts = short_device();
  opts.max_duration_s = 3600.0;
  opts.instruction_scale = 2.0;
  return opts;
}

std::string scratch_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("topil_server_" + name + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Device ids of the shard WAL's register records.
std::multiset<std::uint64_t> wal_registered_ids(const std::string& wal_path) {
  std::multiset<std::uint64_t> ids;
  for (const persist::WalRecord& record :
       persist::recover_wal(wal_path).records) {
    if (record.type != kShardWalRegister) continue;
    ids.insert(
        decode<RegisterMsg>(record.payload, kShardWalRegisterTag).device_id);
  }
  return ids;
}

/// Checks one shard's frame stream against its WAL (`dir`/shard0.wal)
/// as read when a batch of frames is seen: each ack and retire frame
/// needs its device's record in the WAL already, and per device the
/// frames come as ack, actions in seq order, retire.
class WalOrderCheck {
 public:
  explicit WalOrderCheck(std::string dir) : dir_(std::move(dir)) {}

  void check(const std::vector<ClientEvent>& batch) {
    const std::multiset<std::uint64_t> registered =
        wal_registered_ids(dir_ + "/shard0.wal");
    std::set<std::uint64_t> retired_in_wal;
    for (const RetireMsg& m : read_retired_devices(dir_, 1)) {
      retired_in_wal.insert(m.device_id);
    }
    for (const ClientEvent& ev : batch) {
      if (ev.type == MsgType::kRegisterAck) {
        const std::uint64_t id = ev.ack.device_id;
        EXPECT_EQ(registered.count(id), 1u)
            << "ack of device " << id << " before its record";
        EXPECT_TRUE(acked.insert(id).second);
      } else if (ev.type == MsgType::kAction) {
        const std::uint64_t id = ev.action.device_id;
        EXPECT_EQ(acked.count(id), 1u) << "action before ack, device " << id;
        EXPECT_EQ(retired.count(id), 0u) << "action after retire " << id;
        EXPECT_EQ(ev.action.seq, next_action_[id]++) << "device " << id;
      } else if (ev.type == MsgType::kRetire) {
        const std::uint64_t id = ev.retire.device_id;
        EXPECT_EQ(retired_in_wal.count(id), 1u)
            << "retire frame of device " << id << " before its record";
        EXPECT_TRUE(retired.insert(id).second);
        EXPECT_EQ(ev.retire.actions, next_action_[id]) << "device " << id;
      } else {
        ADD_FAILURE() << "unexpected frame type " << static_cast<int>(ev.type);
      }
    }
  }

  std::set<std::uint64_t> acked, retired;

 private:
  std::string dir_;
  std::map<std::uint64_t, std::uint64_t> next_action_;
};

/// Server end of a connection that runs a WalOrderCheck on the frames of
/// every write at the moment of the write.
class WalCheckingStream final : public ByteStream {
 public:
  explicit WalCheckingStream(const std::string& dir) : order(dir) {}

  std::size_t read_some(void*, std::size_t) override { return 0; }
  bool closed() override { return false; }
  void close() override {}
  int fd() const override { return -1; }

  void write(const void* data, std::size_t n) override {
    reader_.feed(data, n);
    std::vector<ClientEvent> batch;
    while (auto frame = reader_.next()) {
      ClientEvent& ev = batch.emplace_back();
      ev.type = frame->type;
      if (ev.type == MsgType::kRegisterAck) {
        ev.ack = decode<RegisterAckMsg>(frame->payload);
      } else if (ev.type == MsgType::kAction) {
        ev.action = decode<ActionMsg>(frame->payload);
      } else if (ev.type == MsgType::kRetire) {
        ev.retire = decode<RetireMsg>(frame->payload);
      }
    }
    EXPECT_EQ(reader_.buffered(), 0u) << "a write ended mid-frame";
    order.check(batch);
    frames_per_write.push_back(batch.size());
  }

  WalOrderCheck order;
  std::vector<std::size_t> frames_per_write;

 private:
  FrameReader reader_;
};

ServerConfig base_config() {
  ServerConfig sc;
  sc.nshards = 2;
  sc.policy_seed = kPolicySeed;
  sc.epoch_ticks = kEpochTicks;
  return sc;
}

/// Register `ids` over TCP when the server listens, else over a local
/// connection; run everything to retirement, return retire records.
std::map<std::uint64_t, RetireMsg> serve_devices(
    GovernorServer& server, const std::vector<std::uint64_t>& ids) {
  server.start();
  ServiceClient client(server.config().tcp
                           ? connect_tcp("127.0.0.1", server.tcp_port())
                           : server.connect_local());
  for (const std::uint64_t id : ids) {
    client.register_device(
        id, make_device_scenario(kSeed, id, short_device()).serialize());
  }
  std::map<std::uint64_t, RetireMsg> retired;
  std::size_t acks = 0;
  std::vector<ClientEvent> events;
  while (retired.size() < ids.size()) {
    events.clear();
    if (client.poll_wait(events, 30'000) == 0) break;
    for (const ClientEvent& ev : events) {
      if (ev.type == MsgType::kRegisterAck) {
        ++acks;
      } else if (ev.type == MsgType::kRetire) {
        retired[ev.retire.device_id] = ev.retire;
      } else if (ev.type == MsgType::kAction) {
        EXPECT_GT(ev.recv_ns, ev.action.sent_ns);
      } else if (ev.type == MsgType::kError) {
        ADD_FAILURE() << "server error: " << ev.error.message;
      }
    }
  }
  EXPECT_EQ(acks, ids.size());
  server.wait_drained();
  server.stop();
  return retired;
}

void expect_matches_reference(
    const std::map<std::uint64_t, RetireMsg>& retired,
    const std::vector<std::uint64_t>& ids,
    const DeviceScenarioOptions& opts = short_device(),
    std::size_t epoch_ticks = kEpochTicks) {
  ASSERT_EQ(retired.size(), ids.size());
  for (const std::uint64_t id : ids) {
    const auto spec = make_device_scenario(kSeed, id, opts);
    const DeviceRunSummary ref =
        run_reference_device(spec, id, kPolicySeed, epoch_ticks);
    const RetireMsg& got = retired.at(id);
    EXPECT_EQ(got.digest, ref.digest) << "device " << id;
    EXPECT_EQ(got.ticks, ref.ticks) << "device " << id;
    EXPECT_EQ(got.actions, ref.actions) << "device " << id;
    EXPECT_EQ(got.action_digest, ref.action_digest) << "device " << id;
    EXPECT_GT(got.actions, 0u) << "device " << id;
  }
}

TEST(GovernorService, CrossTenantBatchingIsBitIdenticalToSoloRollouts) {
  const std::vector<std::uint64_t> ids = {0, 1, 2, 3, 4, 5};
  GovernorServer server(base_config());
  const auto retired = serve_devices(server, ids);
  expect_matches_reference(retired, ids);
  // The shard really did aggregate: fewer device calls than rows.
  const StatsReplyMsg stats = server.stats();
  EXPECT_GT(stats.npu_rows, 0u);
  EXPECT_GT(stats.npu_rows, stats.npu_device_calls);
}

TEST(GovernorService, ServesOverTcp) {
  ServerConfig sc = base_config();
  sc.tcp = true;  // port 0: an ephemeral port
  GovernorServer server(sc);
  const std::vector<std::uint64_t> ids = {0, 1};
  expect_matches_reference(serve_devices(server, ids), ids);
}

TEST(GovernorService, ClientHangUpLeavesDevicesHeadless) {
  const std::string dir = scratch_dir("hangup");
  ServerConfig sc = base_config();
  sc.state_dir = dir;
  // An action every tick: each shard writes on every pump, so writes fail
  // against the closed socket while the IO thread reads its end of file.
  sc.epoch_ticks = 1;
  GovernorServer server(sc);
  server.start();
  // Thousands of ticks, so the devices are still running when the client
  // hangs up.
  DeviceScenarioOptions opts = short_device();
  opts.max_duration_s = 30.0;
  opts.instruction_scale = 2.0;
  const std::vector<std::uint64_t> ids = {0, 1};
  {
    ServiceClient client(server.connect_local());
    for (const std::uint64_t id : ids) {
      client.register_device(id,
                             make_device_scenario(kSeed, id, opts).serialize());
    }
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
  }  // hang up
  server.wait_drained();
  server.stop();
  std::map<std::uint64_t, RetireMsg> retired;
  for (const RetireMsg& m : read_retired_devices(dir, sc.nshards)) {
    retired[m.device_id] = m;
  }
  expect_matches_reference(retired, ids, opts, sc.epoch_ticks);
  std::filesystem::remove_all(dir);
}

TEST(GovernorService, ShardCountDoesNotChangeDigests) {
  const std::vector<std::uint64_t> ids = {0, 1, 2, 3, 4};
  ServerConfig one = base_config();
  one.nshards = 1;
  GovernorServer s1(one);
  const auto r1 = serve_devices(s1, ids);
  ServerConfig four = base_config();
  four.nshards = 4;
  GovernorServer s4(four);
  const auto r4 = serve_devices(s4, ids);
  ASSERT_EQ(r1.size(), r4.size());
  for (const auto& [id, m] : r1) {
    EXPECT_EQ(m.digest, r4.at(id).digest) << "device " << id;
    EXPECT_EQ(m.action_digest, r4.at(id).action_digest) << "device " << id;
  }
}

TEST(GovernorService, RejectsDuplicateAndMalformedRegistrations) {
  GovernorServer server(base_config());
  server.start();
  ServiceClient client(server.connect_local());

  client.register_device(7, "not a scenario at all");
  std::vector<ClientEvent> events;
  ASSERT_GT(client.poll_wait(events, 30'000), 0u);
  ASSERT_EQ(events[0].type, MsgType::kError);
  EXPECT_EQ(events[0].error.device_id, 7u);

  // Device 8 must outlive both registrations: a short device could retire
  // between them, and the second would then be a valid re-registration.
  const std::string spec =
      make_device_scenario(kSeed, 8, long_device()).serialize();
  client.register_device(8, spec);
  client.register_device(8, spec);  // duplicate id
  bool saw_ack = false, saw_dup_error = false;
  while (!saw_ack || !saw_dup_error) {
    events.clear();
    ASSERT_GT(client.poll_wait(events, 30'000), 0u);
    for (const ClientEvent& ev : events) {
      if (ev.type == MsgType::kRegisterAck && ev.ack.device_id == 8) {
        saw_ack = true;
      }
      if (ev.type == MsgType::kError && ev.error.device_id == 8) {
        EXPECT_NE(ev.error.message.find("already registered"),
                  std::string::npos);
        saw_dup_error = true;
      }
    }
  }
  client.deregister_device(8);
  server.wait_drained();
  server.stop();
  EXPECT_EQ(server.stats().devices_registered, 1u);
}

TEST(GovernorService, DuplicateRegistrationsInOnePumpAdmitOne) {
  const std::string dir = scratch_dir("duplicate");
  Shard::Config config;
  config.policy_seed = kPolicySeed;
  config.epoch_ticks = kEpochTicks;
  config.state_dir = dir;
  Shard shard(config);
  auto [client_end, server_end] = make_loopback_pair();
  auto conn = std::make_shared<Connection>(std::move(server_end));
  ServiceClient client(std::move(client_end));

  const std::string spec =
      make_device_scenario(kSeed, 8, short_device()).serialize();
  shard.enqueue_register(RegisterMsg{8, spec}, conn);
  shard.enqueue_register(RegisterMsg{8, spec}, conn);
  shard.pump();  // drains both, steps one tick

  std::vector<ClientEvent> events;
  client.poll(events);
  ASSERT_EQ(events.size(), 2u);
  // Replies leave in request order.
  EXPECT_EQ(events[0].type, MsgType::kRegisterAck);
  EXPECT_EQ(events[0].ack.device_id, 8u);
  ASSERT_EQ(events[1].type, MsgType::kError);
  EXPECT_EQ(events[1].error.device_id, 8u);
  EXPECT_NE(events[1].error.message.find("already registered"),
            std::string::npos);
  EXPECT_EQ(wal_registered_ids(dir + "/shard0.wal"),
            std::multiset<std::uint64_t>{8});
  EXPECT_EQ(shard.devices_live(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(GovernorService, ShardWritesEachFrameAfterItsWalRecord) {
  const std::string dir = scratch_dir("walorder");
  Shard::Config config;
  config.policy_seed = kPolicySeed;
  config.epoch_ticks = kEpochTicks;
  config.state_dir = dir;
  Shard shard(config);
  auto stream = std::make_unique<WalCheckingStream>(dir);
  WalCheckingStream& checked = *stream;
  auto conn = std::make_shared<Connection>(std::move(stream));
  constexpr std::uint64_t kDevices = 64;
  for (std::uint64_t id = 0; id < kDevices; ++id) {
    shard.enqueue_register(
        RegisterMsg{id,
                    make_device_scenario(kSeed, id, short_device())
                        .serialize()},
        conn);
  }
  std::size_t pumps = 0;
  while (shard.pump()) ++pumps;
  ++pumps;  // the last pump, which retired the last devices

  EXPECT_EQ(checked.order.acked.size(), kDevices);
  EXPECT_EQ(checked.order.retired.size(), kDevices);
  // One write per pump at most, and the first carries every ack.
  EXPECT_LE(checked.frames_per_write.size(), pumps);
  ASSERT_FALSE(checked.frames_per_write.empty());
  EXPECT_EQ(checked.frames_per_write.front(), kDevices);
  std::filesystem::remove_all(dir);
}

TEST(GovernorService, BurstOfRegistrationsStreamsInOrderBehindTheWal) {
  const std::string dir = scratch_dir("durability");
  ServerConfig sc = base_config();
  sc.nshards = 1;
  sc.state_dir = dir;
  GovernorServer server(sc);
  server.start();
  ServiceClient client(server.connect_local());
  constexpr std::uint64_t kDevices = 64;
  for (std::uint64_t id = 0; id < kDevices; ++id) {
    client.register_device(
        id, make_device_scenario(kSeed, id, short_device()).serialize());
  }

  // Each batch is checked against the WAL as read after it arrived.
  WalOrderCheck order(dir);
  std::vector<ClientEvent> events;
  while (order.retired.size() < kDevices) {
    events.clear();
    ASSERT_GT(client.poll_wait(events, 30'000), 0u);
    order.check(events);
  }
  EXPECT_EQ(order.acked.size(), kDevices);
  server.wait_drained();
  server.stop();
  std::filesystem::remove_all(dir);
}

TEST(GovernorService, DeregisterRemovesADeviceMidRun) {
  GovernorServer server(base_config());
  server.start();
  ServiceClient client(server.connect_local());
  DeviceScenarioOptions opts = short_device();
  // 360k ticks: seconds of shard time even unloaded, so the device is
  // still running when the deregistration lands (a 30 s horizon is a few
  // milliseconds and could finish first on a loaded host).
  opts.max_duration_s = 3600.0;
  opts.instruction_scale = 2.0;
  client.register_device(3, make_device_scenario(kSeed, 3, opts).serialize());

  // Wait for proof of life (an action), then deregister.
  bool acting = false;
  std::vector<ClientEvent> events;
  while (!acting) {
    events.clear();
    ASSERT_GT(client.poll_wait(events, 30'000), 0u);
    for (const ClientEvent& ev : events) {
      acting = acting || ev.type == MsgType::kAction;
    }
  }
  client.deregister_device(3);
  server.wait_drained();  // returns only because deregistration lands
  server.stop();
  EXPECT_EQ(server.stats().devices_live, 0u);
  EXPECT_EQ(server.stats().devices_retired, 0u);
}

TEST(GovernorService, DrainWaitEndsWhenStopIsRequested) {
  GovernorServer server(base_config());
  server.start();
  ServiceClient client(server.connect_local());
  client.register_device(4, make_device_scenario(kSeed, 4, long_device())
                                 .serialize());
  std::vector<ClientEvent> events;
  while (server.stats().devices_live == 0) {
    events.clear();
    ASSERT_GT(client.poll_wait(events, 30'000), 0u);
  }
  // The device runs for an hour of simulated time, so only the stop
  // request can end the wait.
  int polls = 0;
  server.wait_drained([&] { return ++polls == 3; });
  EXPECT_EQ(polls, 3);
  EXPECT_EQ(server.stats().devices_live, 1u);
  client.deregister_device(4);
  server.wait_drained();
  server.stop();
  EXPECT_EQ(server.stats().devices_live, 0u);
}

TEST(GovernorService, StatsRequestReportsCounters) {
  GovernorServer server(base_config());
  const std::vector<std::uint64_t> ids = {0, 1};
  const auto retired = serve_devices(server, ids);
  ASSERT_EQ(retired.size(), 2u);
  // serve_devices stopped the server; counters remain queryable in-process.
  const StatsReplyMsg s = server.stats();
  EXPECT_EQ(s.devices_registered, 2u);
  EXPECT_EQ(s.devices_retired, 2u);
  EXPECT_EQ(s.devices_live, 0u);
  EXPECT_GT(s.actions_sent, 0u);
  EXPECT_GT(s.fleet_ticks, 0u);
  EXPECT_EQ(s.invariant_violations, 0u);
}

TEST(GovernorService, StatsRequestOverTheWire) {
  GovernorServer server(base_config());
  server.start();
  ServiceClient client(server.connect_local());
  client.request_stats();
  std::vector<ClientEvent> events;
  ASSERT_GT(client.poll_wait(events, 30'000), 0u);
  ASSERT_EQ(events[0].type, MsgType::kStatsReply);
  EXPECT_EQ(events[0].stats.devices_registered, 0u);
  server.stop();
}

TEST(GovernorService, MalformedFrameKillsOnlyThatConnection) {
  GovernorServer server(base_config());
  server.start();

  // Victim connection sends garbage bytes.
  auto bad = server.connect_local();
  bad->write(std::string(32, 'Z'));

  // A healthy connection keeps working end to end.
  GovernorServer* srv = &server;
  ServiceClient good(srv->connect_local());
  const std::vector<std::uint64_t> ids = {0};
  good.register_device(
      0, make_device_scenario(kSeed, 0, short_device()).serialize());
  bool retired = false;
  std::vector<ClientEvent> events;
  while (!retired) {
    events.clear();
    ASSERT_GT(good.poll_wait(events, 30'000), 0u);
    for (const ClientEvent& ev : events) {
      retired = retired || ev.type == MsgType::kRetire;
    }
  }
  server.wait_drained();
  server.stop();
  EXPECT_EQ(server.stats().devices_retired, 1u);
}

TEST(GovernorService, ValidateModeCountsNoViolationsOnHealthyFleet) {
  ServerConfig sc = base_config();
  sc.validate = true;
  GovernorServer server(sc);
  const std::vector<std::uint64_t> ids = {0, 1, 2};
  const auto retired = serve_devices(server, ids);
  EXPECT_EQ(retired.size(), 3u);
  EXPECT_EQ(server.stats().invariant_violations, 0u);
  // Validation must not perturb the simulation (monitors observe only).
  expect_matches_reference(retired, ids);
}

}  // namespace
}  // namespace topil::server
