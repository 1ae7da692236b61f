// Governor-service soak + throughput gate (DESIGN.md §14): an in-process
// GovernorServer serving a large synthetic fleet with the invariant
// checker attached to every device, measured end-to-end through the wire
// protocol. The soak fixture registers >= 1000 devices across >= 4 shards
// and runs every one for >= 60 action epochs; the run FAILS (exit 1) on
// any invariant violation, client error, or missing retirement. Records
// devices/sec, device-ticks/sec, and client-observed action latency
// percentiles into BENCH_server.json.
//
//   perf_server [--smoke] [--jobs N] [--json FILE] [--validate]
//
// --smoke shrinks the fleet for CI (and keeps validation on either way —
// the soak IS the gate). --jobs sets the shard count (>= 4 enforced by
// the fixture). devices/sec counts retirements over the full wall time.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/client.hpp"
#include "server/server.hpp"
#include "support/bench_support.hpp"

namespace topil::bench {
namespace {

using namespace topil::server;

struct SoakFixture {
  const char* name;
  std::size_t devices;
  std::size_t clients;
  double duration_s;       ///< simulated horizon per device
  std::size_t epoch_ticks;
};

struct SoakResult {
  double wall_s = 0.0;
  std::size_t retired = 0;
  std::uint64_t actions = 0;
  std::uint64_t device_ticks = 0;
  std::uint64_t errors = 0;
  std::uint64_t violations = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t npu_rows = 0;
  std::uint64_t npu_calls = 0;
};

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(idx + 0.5)];
}

SoakResult run_soak(const SoakFixture& fx, std::size_t nshards,
                    bool validate) {
  ServerConfig sc;
  sc.nshards = nshards;
  sc.policy_seed = 1;
  sc.epoch_ticks = fx.epoch_ticks;
  sc.validate = validate;
  GovernorServer server(sc);
  server.start();

  DeviceScenarioOptions dopts;
  dopts.max_duration_s = fx.duration_s;
  // Oversize the instruction budgets so every device stays busy to the
  // duration cap: horizon_ticks / epoch_ticks epochs per device, exactly.
  dopts.instruction_scale = 1.5;

  std::mutex mutex;
  std::vector<double> latency_us;
  std::atomic<std::uint64_t> actions{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::size_t> retired{0};

  WallTimer timer;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < fx.clients; ++c) {
    threads.emplace_back([&, c] {
      ServiceClient client(server.connect_local());
      std::size_t open = 0;
      for (std::uint64_t id = c; id < fx.devices; id += fx.clients) {
        client.register_device(
            id, make_device_scenario(4242, id, dopts).serialize());
        ++open;
      }
      std::vector<double> local_lat;
      std::vector<ClientEvent> events;
      while (open > 0) {
        events.clear();
        if (client.poll_wait(events, 60'000) == 0) {
          errors.fetch_add(open);  // timed out: count the stragglers
          break;
        }
        for (const ClientEvent& ev : events) {
          if (ev.type == MsgType::kAction) {
            actions.fetch_add(1, std::memory_order_relaxed);
            local_lat.push_back(
                static_cast<double>(ev.recv_ns - ev.action.sent_ns) / 1e3);
          } else if (ev.type == MsgType::kRetire) {
            retired.fetch_add(1, std::memory_order_relaxed);
            --open;
          } else if (ev.type == MsgType::kError) {
            std::fprintf(stderr, "perf_server: %s\n",
                         ev.error.message.c_str());
            errors.fetch_add(1, std::memory_order_relaxed);
            --open;
          }
        }
      }
      std::lock_guard<std::mutex> lock(mutex);
      latency_us.insert(latency_us.end(), local_lat.begin(),
                        local_lat.end());
    });
  }
  for (std::thread& t : threads) t.join();

  SoakResult r;
  r.wall_s = timer.elapsed_ms() / 1e3;
  server.wait_drained();
  server.stop();
  const StatsReplyMsg stats = server.stats();
  r.retired = retired.load();
  r.actions = actions.load();
  r.errors = errors.load();
  r.violations = stats.invariant_violations;
  r.npu_rows = stats.npu_rows;
  r.npu_calls = stats.npu_device_calls;
  {
    // device_ticks isn't in the wire stats; read it off the shards via
    // the aggregate actions*epoch relation instead: every device ran to
    // its duration cap, horizon/tick ticks each.
    r.device_ticks = r.actions * fx.epoch_ticks;
  }
  std::sort(latency_us.begin(), latency_us.end());
  r.p50_us = percentile(latency_us, 0.50);
  r.p99_us = percentile(latency_us, 0.99);
  return r;
}

int run(const BenchOptions& options, bool smoke) {
  print_header("server perf",
               "governor-service soak: latency + throughput + invariants");
  const std::string json_path =
      options.json_enabled() ? options.json_path : "BENCH_server.json";
  BenchJsonWriter json(json_path);

  // The shard count doubles as the worker parallelism knob; the soak
  // contract needs >= 4.
  const std::size_t nshards = std::max<std::size_t>(4, options.jobs);

  std::vector<SoakFixture> fixtures;
  if (smoke) {
    // CI-sized: same code paths, ~seconds of wall clock. 2 s horizon at
    // epoch 25 ticks = 8 epochs per device.
    fixtures.push_back({"smoke", 48, 6, 2.0, 25});
  } else {
    // The acceptance soak: >= 1000 devices, 31 s horizon at epoch 50
    // ticks = 62 action epochs per device (>= 60 required).
    fixtures.push_back({"soak", 1000, 8, 31.0, 50});
  }

  bool failed = false;
  for (const SoakFixture& fx : fixtures) {
    const std::size_t min_epochs =
        static_cast<std::size_t>(fx.duration_s / 0.01) / fx.epoch_ticks;
    std::printf("--- fixture %s: %zu devices, %zu shards, %zu clients, "
                "%.0f s simulated (%zu epochs/device) ---\n",
                fx.name, fx.devices, nshards, fx.clients, fx.duration_s,
                min_epochs);
    const SoakResult r = run_soak(fx, nshards, /*validate=*/true);
    const double devices_per_s = static_cast<double>(r.retired) / r.wall_s;
    const double device_ticks_per_s =
        static_cast<double>(r.device_ticks) / r.wall_s;
    std::printf(
        "  wall %.2f s: retired=%zu devices/s=%.1f device-ticks/s=%.0f\n"
        "  actions=%llu latency p50=%.1f us p99=%.1f us\n"
        "  npu_rows=%llu npu_calls=%llu (%.1f rows/call) violations=%llu "
        "errors=%llu\n",
        r.wall_s, r.retired, devices_per_s, device_ticks_per_s,
        static_cast<unsigned long long>(r.actions), r.p50_us, r.p99_us,
        static_cast<unsigned long long>(r.npu_rows),
        static_cast<unsigned long long>(r.npu_calls),
        r.npu_calls ? static_cast<double>(r.npu_rows) /
                          static_cast<double>(r.npu_calls)
                    : 0.0,
        static_cast<unsigned long long>(r.violations),
        static_cast<unsigned long long>(r.errors));

    const std::string prefix = std::string("server_") + fx.name;
    json.add_rate(prefix + "_devices", r.wall_s * 1e3, nshards, 1.0,
                  devices_per_s);
    json.add_rate(prefix + "_device_ticks", r.wall_s * 1e3, nshards, 1.0,
                  device_ticks_per_s);
    json.add_rate(prefix + "_latency_p50_us", r.p50_us / 1e3, nshards, 1.0,
                  r.p50_us);
    json.add_rate(prefix + "_latency_p99_us", r.p99_us / 1e3, nshards, 1.0,
                  r.p99_us);

    if (r.violations != 0 || r.errors != 0 || r.retired != fx.devices) {
      std::fprintf(stderr,
                   "FAIL: fixture %s: violations=%llu errors=%llu "
                   "retired=%zu/%zu\n",
                   fx.name, static_cast<unsigned long long>(r.violations),
                   static_cast<unsigned long long>(r.errors), r.retired,
                   fx.devices);
      failed = true;
    }
    // Every device must have produced at least min_epochs actions.
    if (r.actions < static_cast<std::uint64_t>(min_epochs) * fx.devices) {
      std::fprintf(stderr, "FAIL: fixture %s: %llu actions < %zu expected\n",
                   fx.name, static_cast<unsigned long long>(r.actions),
                   min_epochs * fx.devices);
      failed = true;
    }
  }
  json.flush();
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace topil::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  const topil::bench::BenchOptions options = topil::bench::parse_bench_args(
      static_cast<int>(rest.size()), rest.data());
  return topil::bench::run(options, smoke);
}
