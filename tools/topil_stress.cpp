// Stress/soak harness for the governor service (DESIGN.md §14).
//
//   topil_stress --devices 64 --clients 8              # in-process soak
//   topil_stress --connect 127.0.0.1:PORT --devices 64 # against topil_serve
//   topil_stress --reference --devices 64 \
//                --digest-out golden.txt               # solo-rollout oracle
//
// Spins N synthetic client threads, each multiplexing its share of the
// device population over one connection: register, consume the action
// stream (latency = client receive stamp minus server send stamp, both
// CLOCK_MONOTONIC), collect the retire digest. The same device population
// is reproducible from (--seed, device_id) alone, so --reference produces
// the golden digests a served run must match bit-for-bit — the
// cross-tenant NPU batching identity gate.
//
// Exit status: 0 = clean, 1 = failures (violations, errors, digest
// mismatches against --expect), 2 = usage.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "server/client.hpp"
#include "server/server.hpp"

namespace {

using namespace topil;
using namespace topil::server;

struct Options {
  std::size_t devices = 64;
  std::size_t clients = 8;
  std::uint64_t seed = 42;
  std::uint64_t policy_seed = 1;
  std::size_t epoch_ticks = 50;
  double duration_s = 4.0;
  std::size_t num_apps = 3;
  double instruction_scale = 1.5;
  std::size_t shards = 4;
  bool validate = false;
  std::string connect;  ///< empty = in-process server
  std::string state_dir;
  std::string digest_out;
  bool reference = false;
  /// Deregister each device after this many actions instead of waiting for
  /// retirement (0 = run to retirement; digests need retirement).
  std::size_t deregister_after = 0;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --devices N         device population          (default: 64)\n"
      "  --clients C         client threads/connections (default: 8)\n"
      "  --seed S            device scenario seed       (default: 42)\n"
      "  --policy-seed S     served policy-net seed     (default: 1)\n"
      "  --epoch-ticks T     action epoch cadence       (default: 50)\n"
      "  --duration X        simulated horizon per device (default: 4)\n"
      "  --num-apps N        apps per device            (default: 3)\n"
      "  --shards N          shards (in-process server) (default: 4)\n"
      "  --validate          invariant checker on every device\n"
      "  --connect H:P       use a remote topil_serve over TCP instead of\n"
      "                      an in-process server\n"
      "  --state-dir D       durability root for the in-process server\n"
      "  --digest-out F      write per-device retire digests to F\n"
      "  --reference         no server: solo reference rollouts (golden\n"
      "                      digests for the bit-identity gate)\n"
      "  --deregister-after K  deregister each device after K actions\n"
      "                      (churn mode; suppresses retire digests)\n"
      "  --smoke             tiny population for CI\n",
      argv0);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  const auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--devices") {
        opt.devices = std::stoull(value(i));
      } else if (arg == "--clients") {
        opt.clients = std::stoull(value(i));
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value(i));
      } else if (arg == "--policy-seed") {
        opt.policy_seed = std::stoull(value(i));
      } else if (arg == "--epoch-ticks") {
        opt.epoch_ticks = std::stoull(value(i));
      } else if (arg == "--duration") {
        opt.duration_s = std::stod(value(i));
      } else if (arg == "--num-apps") {
        opt.num_apps = std::stoull(value(i));
      } else if (arg == "--shards") {
        opt.shards = std::stoull(value(i));
      } else if (arg == "--validate") {
        opt.validate = true;
      } else if (arg == "--connect") {
        opt.connect = value(i);
      } else if (arg == "--state-dir") {
        opt.state_dir = value(i);
      } else if (arg == "--digest-out") {
        opt.digest_out = value(i);
      } else if (arg == "--reference") {
        opt.reference = true;
      } else if (arg == "--deregister-after") {
        opt.deregister_after = std::stoull(value(i));
      } else if (arg == "--smoke") {
        opt.devices = 12;
        opt.clients = 3;
        opt.duration_s = 2.0;
      } else {
        usage(argv[0]);
      }
    }
  } catch (const std::invalid_argument&) {
    usage(argv[0]);
  } catch (const std::out_of_range&) {
    usage(argv[0]);
  }
  if (opt.devices == 0 || opt.clients == 0) usage(argv[0]);
  if (opt.reference && !opt.connect.empty()) {
    std::fprintf(stderr,
                 "--reference runs solo rollouts without a server and "
                 "cannot be combined with --connect; run each mode "
                 "separately and diff their --digest-out files\n");
    usage(argv[0]);
  }
  opt.clients = std::min(opt.clients, opt.devices);
  return opt;
}

DeviceScenarioOptions device_options(const Options& opt) {
  DeviceScenarioOptions dopts;
  dopts.max_duration_s = opt.duration_s;
  dopts.num_apps = opt.num_apps;
  dopts.instruction_scale = opt.instruction_scale;
  return dopts;
}

struct DeviceResult {
  std::uint64_t device_id = 0;
  DeviceRunSummary summary;
};

/// Shared across client threads: latency samples and retire records.
struct Collected {
  std::mutex mutex;
  std::vector<double> latency_us;
  std::vector<DeviceResult> retired;
  std::atomic<std::uint64_t> actions{0};
  std::atomic<std::uint64_t> errors{0};
};

/// One client thread: registers its device share, consumes the stream
/// until every owned device retired (or was deregistered after K actions).
void client_thread(const Options& opt, std::size_t client_index,
                   std::unique_ptr<ByteStream> stream, Collected& collected) {
  ServiceClient client(std::move(stream));
  const DeviceScenarioOptions dopts = device_options(opt);
  std::vector<std::uint64_t> owned;
  for (std::uint64_t id = client_index; id < opt.devices;
       id += opt.clients) {
    owned.push_back(id);
    client.register_device(
        id, make_device_scenario(opt.seed, id, dopts).serialize());
  }

  std::vector<double> latency_us;
  std::vector<DeviceResult> retired;
  std::vector<std::uint64_t> action_count(opt.devices, 0);
  std::uint64_t actions = 0;
  std::uint64_t errors = 0;
  std::size_t open = owned.size();
  std::vector<ClientEvent> events;
  while (open > 0) {
    events.clear();
    if (client.poll_wait(events, 10'000) == 0) {
      if (client.closed()) break;
      std::fprintf(stderr, "client %zu: timed out with %zu devices open\n",
                   client_index, open);
      break;
    }
    for (const ClientEvent& ev : events) {
      switch (ev.type) {
        case MsgType::kRegisterAck:
          break;
        case MsgType::kAction: {
          ++actions;
          latency_us.push_back(
              static_cast<double>(ev.recv_ns - ev.action.sent_ns) / 1e3);
          const std::uint64_t id = ev.action.device_id;
          if (opt.deregister_after > 0 &&
              ++action_count[id] == opt.deregister_after) {
            client.deregister_device(id);
            --open;  // no retire frame will come
          }
          break;
        }
        case MsgType::kRetire: {
          DeviceResult r;
          r.device_id = ev.retire.device_id;
          r.summary.digest = ev.retire.digest;
          r.summary.ticks = ev.retire.ticks;
          r.summary.actions = ev.retire.actions;
          r.summary.action_digest = ev.retire.action_digest;
          retired.push_back(r);
          --open;
          break;
        }
        case MsgType::kError:
          std::fprintf(stderr, "client %zu: server error: %s\n",
                       client_index, ev.error.message.c_str());
          ++errors;
          if (open > 0) --open;
          break;
        default:
          break;
      }
    }
  }

  std::lock_guard<std::mutex> lock(collected.mutex);
  collected.latency_us.insert(collected.latency_us.end(),
                              latency_us.begin(), latency_us.end());
  collected.retired.insert(collected.retired.end(), retired.begin(),
                           retired.end());
  collected.actions.fetch_add(actions);
  collected.errors.fetch_add(errors);
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(idx + 0.5)];
}

void write_digests(const std::string& path,
                   std::vector<DeviceResult> results) {
  std::sort(results.begin(), results.end(),
            [](const DeviceResult& a, const DeviceResult& b) {
              return a.device_id < b.device_id;
            });
  std::ofstream out(path, std::ios::trunc);
  TOPIL_REQUIRE(out.good(), "cannot open digest output: " + path);
  for (const DeviceResult& r : results) {
    out << "device=" << r.device_id << " digest=" << r.summary.digest
        << " ticks=" << r.summary.ticks << " actions=" << r.summary.actions
        << " action_digest=" << r.summary.action_digest << "\n";
  }
}

int run_reference(const Options& opt) {
  const DeviceScenarioOptions dopts = device_options(opt);
  std::vector<DeviceResult> results(opt.devices);
  std::vector<std::thread> workers;
  std::atomic<std::uint64_t> next{0};
  const std::size_t nthreads =
      std::min<std::size_t>(opt.clients, opt.devices);
  for (std::size_t t = 0; t < nthreads; ++t) {
    workers.emplace_back([&] {
      for (;;) {
        const std::uint64_t id = next.fetch_add(1);
        if (id >= opt.devices) return;
        const auto spec = make_device_scenario(opt.seed, id, dopts);
        results[id].device_id = id;
        results[id].summary = run_reference_device(
            spec, id, opt.policy_seed, opt.epoch_ticks);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  std::printf("reference: %zu devices rolled out\n", opt.devices);
  if (!opt.digest_out.empty()) write_digests(opt.digest_out, results);
  return 0;
}

int run_stress(const Options& opt) {
  std::unique_ptr<GovernorServer> server;
  if (opt.connect.empty()) {
    ServerConfig sc;
    sc.nshards = opt.shards;
    sc.policy_seed = opt.policy_seed;
    sc.epoch_ticks = opt.epoch_ticks;
    sc.validate = opt.validate;
    sc.state_dir = opt.state_dir;
    server = std::make_unique<GovernorServer>(sc);
    server->start();
  }

  const auto connect = [&]() -> std::unique_ptr<ByteStream> {
    if (server) return server->connect_local();
    const auto colon = opt.connect.rfind(':');
    TOPIL_REQUIRE(colon != std::string::npos,
                  "--connect expects HOST:PORT, got '" + opt.connect + "'");
    return connect_tcp(opt.connect.substr(0, colon),
                       static_cast<std::uint16_t>(
                           std::stoul(opt.connect.substr(colon + 1))));
  };

  Collected collected;
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < opt.clients; ++c) {
    threads.emplace_back(client_thread, std::cref(opt), c, connect(),
                         std::ref(collected));
  }
  for (std::thread& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  StatsReplyMsg stats;
  if (server) {
    server->wait_drained();
    server->stop();
    stats = server->stats();
  } else {
    ServiceClient probe(connect());
    probe.request_stats();
    std::vector<ClientEvent> events;
    if (probe.poll_wait(events, 5'000) > 0 &&
        events.front().type == MsgType::kStatsReply) {
      stats = events.front().stats;
    }
  }

  std::sort(collected.latency_us.begin(), collected.latency_us.end());
  const double p50 = percentile(collected.latency_us, 0.50);
  const double p99 = percentile(collected.latency_us, 0.99);
  const std::size_t done = collected.retired.size();
  std::printf(
      "stress: %zu devices, %zu clients, wall %.2f s\n"
      "  retired=%zu actions=%llu devices/s=%.1f actions/s=%.0f\n"
      "  action latency p50=%.1f us p99=%.1f us\n"
      "  server: fleet_ticks=%llu npu_rows=%llu npu_calls=%llu "
      "violations=%llu\n",
      opt.devices, opt.clients, wall_s, done,
      static_cast<unsigned long long>(collected.actions.load()),
      static_cast<double>(done) / wall_s,
      static_cast<double>(collected.actions.load()) / wall_s, p50, p99,
      static_cast<unsigned long long>(stats.fleet_ticks),
      static_cast<unsigned long long>(stats.npu_rows),
      static_cast<unsigned long long>(stats.npu_device_calls),
      static_cast<unsigned long long>(stats.invariant_violations));

  if (!opt.digest_out.empty()) {
    write_digests(opt.digest_out, collected.retired);
  }

  bool failed = collected.errors.load() > 0;
  if (stats.invariant_violations > 0) failed = true;
  if (opt.deregister_after == 0 && done != opt.devices) {
    std::fprintf(stderr, "expected %zu retirements, saw %zu\n", opt.devices,
                 done);
    failed = true;
  }
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    return opt.reference ? run_reference(opt) : run_stress(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "topil_stress: %s\n", e.what());
    return 1;
  }
}
