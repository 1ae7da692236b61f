#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "server/client.hpp"
#include "server/server.hpp"

// End-to-end tests of the governor service over the in-process loopback
// transport: registration/ack/action/retire lifecycle, error replies, and
// the PR's headline contract — a shard serving K tenants through one
// aggregated NPU pass per tick retires every device with digests
// bit-identical to K solo rollouts.
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

ServerConfig base_config() {
  ServerConfig sc;
  sc.nshards = 2;
  sc.policy_seed = kPolicySeed;
  sc.epoch_ticks = kEpochTicks;
  return sc;
}

/// Register `ids`, run everything to retirement, return retire records.
std::map<std::uint64_t, RetireMsg> serve_devices(
    GovernorServer& server, const std::vector<std::uint64_t>& ids) {
  server.start();
  ServiceClient client(server.connect_local());
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
    const std::vector<std::uint64_t>& ids) {
  ASSERT_EQ(retired.size(), ids.size());
  for (const std::uint64_t id : ids) {
    const auto spec = make_device_scenario(kSeed, id, short_device());
    const DeviceRunSummary ref =
        run_reference_device(spec, id, kPolicySeed, kEpochTicks);
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

  const std::string spec =
      make_device_scenario(kSeed, 8, short_device()).serialize();
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
  server.wait_drained();
  server.stop();
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
