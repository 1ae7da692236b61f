// Governor-as-a-service daemon (DESIGN.md §14).
//
//   topil_serve --port 0 --port-file /tmp/port             # TCP service
//   topil_serve --seed-devices 12 --drain                  # self-driven CI run
//   topil_serve --state-dir D --resume --drain \
//               --dump-digests resumed.txt                 # crash recovery
//
// Devices register over the wire protocol and are sharded by
// device_id % nshards; each shard steps its fleet in lockstep with one
// cross-tenant NPU batch per tick. With --state-dir, registrations and
// retirements are WAL'd and periodic checkpoints make a kill -9 fully
// recoverable: --resume rebuilds the fleet and finishes every live device
// bit-identically. Exit status: 0 = clean, 2 = usage.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "server/client.hpp"
#include "server/server.hpp"

namespace {

using namespace topil;
using namespace topil::server;

struct Options {
  ServerConfig server;
  bool port_given = false;
  std::string port_file;
  std::size_t seed_devices = 0;
  std::uint64_t device_seed = 42;
  double device_duration_s = 4.0;
  double instruction_scale = 1.5;  ///< keep seeded devices busy to the cap
  bool drain = false;
  std::string dump_digests;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --port P            listen on 127.0.0.1:P (0 = ephemeral)\n"
      "  --port-file F       write the bound port number to F\n"
      "  --shards N          shard count            (default: 4)\n"
      "  --policy-seed S     served policy-net seed (default: 1)\n"
      "  --epoch-ticks T     action epoch cadence   (default: 50)\n"
      "  --validate          run devices under the invariant checker\n"
      "  --state-dir D       durability root (WALs + checkpoints)\n"
      "  --checkpoint-every N  checkpoint every N fleet ticks per shard\n"
      "  --resume            rebuild the fleet from --state-dir and\n"
      "                      continue every live device bit-identically\n"
      "  --seed-devices N    register N synthetic devices at startup via an\n"
      "                      in-process client (CI self-drive; no TCP needed)\n"
      "  --device-seed S     scenario seed for --seed-devices (default: 42)\n"
      "  --device-duration X simulated horizon per seeded device (default: 4)\n"
      "  --drain             exit once every device retired (instead of\n"
      "                      serving until SIGINT/SIGTERM)\n"
      "  --dump-digests F    at exit, write every retired device's digests\n"
      "                      recovered from the shard WALs to F (- = stdout)\n",
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
      if (arg == "--port") {
        opt.server.tcp_port = static_cast<std::uint16_t>(
            std::stoul(value(i)));
        opt.port_given = true;
      } else if (arg == "--port-file") {
        opt.port_file = value(i);
        opt.port_given = true;
      } else if (arg == "--shards") {
        opt.server.nshards = std::stoull(value(i));
      } else if (arg == "--policy-seed") {
        opt.server.policy_seed = std::stoull(value(i));
      } else if (arg == "--epoch-ticks") {
        opt.server.epoch_ticks = std::stoull(value(i));
      } else if (arg == "--validate") {
        opt.server.validate = true;
      } else if (arg == "--state-dir") {
        opt.server.state_dir = value(i);
      } else if (arg == "--checkpoint-every") {
        opt.server.checkpoint_every_ticks = std::stoull(value(i));
      } else if (arg == "--resume") {
        opt.server.resume = true;
      } else if (arg == "--seed-devices") {
        opt.seed_devices = std::stoull(value(i));
      } else if (arg == "--device-seed") {
        opt.device_seed = std::stoull(value(i));
      } else if (arg == "--device-duration") {
        opt.device_duration_s = std::stod(value(i));
      } else if (arg == "--drain") {
        opt.drain = true;
      } else if (arg == "--dump-digests") {
        opt.dump_digests = value(i);
      } else {
        usage(argv[0]);
      }
    }
  } catch (const std::invalid_argument&) {
    usage(argv[0]);
  } catch (const std::out_of_range&) {
    usage(argv[0]);
  }
  opt.server.tcp = opt.port_given;
  if (!opt.port_given && opt.seed_devices == 0 && !opt.server.resume) {
    std::fprintf(stderr,
                 "%s: nothing to do: no --port/--port-file, no "
                 "--seed-devices, no --resume\n",
                 argv[0]);
    usage(argv[0]);
  }
  return opt;
}

std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

void dump_digests(const Options& opt) {
  if (opt.dump_digests.empty()) return;
  if (opt.server.state_dir.empty()) {
    std::fprintf(stderr, "--dump-digests needs --state-dir\n");
    std::exit(2);
  }
  const auto retired =
      read_retired_devices(opt.server.state_dir, opt.server.nshards);
  std::ofstream file;
  const bool to_stdout = opt.dump_digests == "-";
  if (!to_stdout) file.open(opt.dump_digests, std::ios::trunc);
  std::ostream& out = to_stdout ? std::cout : file;
  for (const RetireMsg& m : retired) {
    out << "device=" << m.device_id << " digest=" << m.digest
        << " ticks=" << m.ticks << " actions=" << m.actions
        << " action_digest=" << m.action_digest << "\n";
  }
}

int run(const Options& opt) {
  GovernorServer server(opt.server);
  server.start();

  if (!opt.port_file.empty()) {
    std::ofstream f(opt.port_file, std::ios::trunc);
    f << server.tcp_port() << "\n";
  }
  if (opt.server.tcp) {
    std::printf("listening on 127.0.0.1:%u\n", server.tcp_port());
  }

  // Self-drive: register synthetic devices through the same wire path a
  // TCP client would use, then let them run headless to retirement.
  std::unique_ptr<ServiceClient> seeder;
  if (opt.seed_devices > 0) {
    seeder = std::make_unique<ServiceClient>(server.connect_local());
    DeviceScenarioOptions dopts;
    dopts.max_duration_s = opt.device_duration_s;
    dopts.instruction_scale = opt.instruction_scale;
    for (std::uint64_t id = 0; id < opt.seed_devices; ++id) {
      const auto spec = make_device_scenario(opt.device_seed, id, dopts);
      seeder->register_device(id, spec.serialize());
    }
  }

  if (opt.drain) {
    // Let registrations land before the idle check can pass vacuously.
    while (server.stats().devices_registered <
               static_cast<std::uint64_t>(opt.seed_devices) &&
           g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server.wait_drained();
  } else {
    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  server.stop();
  const StatsReplyMsg s = server.stats();
  std::printf(
      "served: registered=%llu retired=%llu live=%llu actions=%llu "
      "fleet_ticks=%llu npu_rows=%llu npu_calls=%llu violations=%llu\n",
      static_cast<unsigned long long>(s.devices_registered),
      static_cast<unsigned long long>(s.devices_retired),
      static_cast<unsigned long long>(s.devices_live),
      static_cast<unsigned long long>(s.actions_sent),
      static_cast<unsigned long long>(s.fleet_ticks),
      static_cast<unsigned long long>(s.npu_rows),
      static_cast<unsigned long long>(s.npu_device_calls),
      static_cast<unsigned long long>(s.invariant_violations));
  dump_digests(opt);
  return s.invariant_violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "topil_serve: %s\n", e.what());
    return 1;
  }
}
