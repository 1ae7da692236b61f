// Workload `serve`: one cohort of devices per unit against an in-process
// GovernorServer in durable mode (WAL + checkpoints in a state dir), over
// TCP on 127.0.0.1 with 2 shards. The client, on the main thread and one
// connection, registers 256 TOP-IL devices in one burst and reads until
// every one retires. It is the only workload that runs the server
// (protocol, transport, shard pump), persistence, dynamic fleet
// membership and cross-tenant NPU batches, on the cheap 13-node network.
//
// Work is counted from what the client receives (retired device ticks,
// frames), never from server-side tick counts, which depend on arrival
// timing.

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "common/stats.hpp"
#include "harness.hpp"
#include "server/client.hpp"
#include "server/server.hpp"

namespace perfbench {
namespace {

using namespace topil;
using namespace topil::server;

constexpr std::size_t kShards = 2;
constexpr std::size_t kDevices = 256;
constexpr double kHorizonSeconds = 20.0;
constexpr std::size_t kEpochTicks = 50;
constexpr std::size_t kCheckpointEveryTicks = 500;
/// Oversized instruction budgets keep devices busy up to the horizon.
constexpr double kInstructionScale = 1.5;
constexpr double kCohortTimeoutSeconds = 60.0;

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// What the client received for one cohort.
struct Cohort {
  std::uint64_t base_id = 0;
  std::vector<bool> acked;
  std::vector<RetireMsg> retires;  ///< by device index; ticks 0 = missing
  std::vector<double> admit_ms;
  std::size_t retired = 0;
  std::size_t errors = 0;
  std::size_t frames = 0;
};

class Serve final : public BenchWorkload {
 public:
  Serve(std::uint64_t seed, const std::string& scratch_dir)
      : state_dir_(scratch_dir + "/serve-state") {
    std::filesystem::remove_all(state_dir_);
    config_.nshards = kShards;
    config_.policy_seed = derive_seed(seed, 1);
    config_.epoch_ticks = kEpochTicks;
    config_.state_dir = state_dir_;
    config_.checkpoint_every_ticks = kCheckpointEveryTicks;
    config_.tcp = true;

    DeviceScenarioOptions options;
    options.max_duration_s = kHorizonSeconds;
    options.instruction_scale = kInstructionScale;
    const std::uint64_t scenario_seed = derive_seed(seed, 2);
    for (std::size_t i = 0; i < kDevices; ++i) {
      specs_.push_back(make_device_scenario(scenario_seed, i, options));
      texts_.push_back(specs_.back().serialize());
    }
    const std::size_t first = derive_seed(seed, 3) % kDevices;
    checked_ = {first, (first + 1 + derive_seed(seed, 4) % (kDevices - 1)) %
                           kDevices};
    {
      // Every device shares one platform shape, hence one propagator.
      scenario::MaterializedScenario m = scenario::materialize(specs_[0]);
      m.sim.integrator = ThermalIntegrator::Exponential;
      warm_propagator(m.platform, m.cooling, m.sim);
    }
    server_ = std::make_unique<GovernorServer>(config_);
    server_->start();
    client_ = std::make_unique<ServiceClient>(
        connect_tcp("127.0.0.1", server_->tcp_port()));
    stats_before_ = server_->stats();
    wal_before_ = wal_bytes();
  }

  ~Serve() override {
    client_->close();
    server_->stop();
    std::error_code ignored;
    std::filesystem::remove_all(state_dir_, ignored);
  }

  Serve(const Serve&) = delete;
  Serve& operator=(const Serve&) = delete;

  std::size_t scenarios_per_unit() const override { return kDevices; }
  /// Two shard workers, the IO thread and the client.
  std::size_t workers() const override { return kShards + 2; }

  void run_unit(std::size_t unit, Tracer* trace, Layers&) override {
    Cohort cohort;
    cohort.base_id = (unit + 1) * kDevices;  // fresh ids every cohort
    cohort.acked.assign(kDevices, false);
    cohort.retires.assign(kDevices, RetireMsg{});

    std::vector<std::uint64_t> written_ns(kDevices);
    {
      Tracer::Scope span(trace, "serve.register");
      for (std::size_t i = 0; i < kDevices; ++i) {
        written_ns[i] = steady_now_ns();
        client_->register_device(cohort.base_id + i, texts_[i]);
      }
    }
    {
      Tracer::Scope span(trace, "serve.drain");
      const double deadline = wall_now_s() + kCohortTimeoutSeconds;
      std::vector<ClientEvent> events;
      while (cohort.retired + cohort.errors < kDevices &&
             wall_now_s() < deadline) {
        events.clear();
        client_->poll_wait(events, 100);
        for (const ClientEvent& ev : events) receive(ev, written_ns, cohort);
      }
    }
    last_ = std::move(cohort);
  }

  /// Every device must be acked and retired without an error, and retire
  /// with the same state digest, ticks and actions as in cohort 0. The
  /// server's counters are snapshotted here, after the shards drain, so
  /// the cohort's per-layer numbers cover its last tick and the timed
  /// unit pays for neither the drain nor the snapshot.
  void check_unit(std::size_t unit, Layers* layers) override {
    server_->wait_drained();
    const StatsReplyMsg stats = server_->stats();
    const std::uintmax_t wal = wal_bytes();
    Cohort cohort = std::move(last_);
    if (layers != nullptr) fill_layers(cohort, stats, wal, *layers);
    stats_before_ = stats;
    wal_before_ = wal;

    ++units_;
    std::size_t failed = cohort.errors;
    for (std::size_t i = 0; i < kDevices; ++i) {
      const RetireMsg& r = cohort.retires[i];
      bool ok = cohort.acked[i] && r.ticks != 0;
      if (ok && !first_.retires.empty()) {
        const RetireMsg& f = first_.retires[i];
        ok = r.digest == f.digest && r.ticks == f.ticks &&
             r.actions == f.actions;
      }
      if (!ok) ++failed;
    }
    if (failed != 0) {
      outcome_.failed += std::min(failed, kDevices);
      outcome_.problems.push_back("cohort " + std::to_string(unit) + ": " +
                                  std::to_string(failed) +
                                  " devices failed or differ from cohort 0");
    }
    if (first_.retires.empty()) first_ = std::move(cohort);
  }

  Outcome check() override {
    Outcome outcome = std::move(outcome_);
    outcome.attempted = units_ * kDevices;
    if (first_.retires.empty()) return outcome;
    for (const std::size_t i : checked_) {
      const DeviceRunSummary ref = run_reference_device(
          specs_[i], first_.base_id + i, config_.policy_seed, kEpochTicks);
      const RetireMsg& got = first_.retires[i];
      if (ref.digest != got.digest || ref.ticks != got.ticks ||
          ref.actions != got.actions ||
          ref.action_digest != got.action_digest) {
        ++outcome.failed;
        outcome.problems.push_back(
            "device " + std::to_string(first_.base_id + i) +
            " retired with a digest other than run_reference_device's");
      }
    }
    return outcome;
  }

 private:
  /// Per-layer numbers of one cohort: `stats` and `wal` are the server's
  /// counters and WAL size after it drained.
  void fill_layers(const Cohort& cohort, const StatsReplyMsg& stats,
                   std::uintmax_t wal, Layers& layers) const {
    double device_ticks = 0.0;
    for (const RetireMsg& r : cohort.retires) {
      device_ticks += static_cast<double>(r.ticks);
    }
    const double npu_calls = static_cast<double>(
        stats.npu_device_calls - stats_before_.npu_device_calls);
    layers["sim.lane_ticks"] = device_ticks;
    layers["sim.lanes_per_tick"] =
        device_ticks /
        static_cast<double>(stats.fleet_ticks - stats_before_.fleet_ticks);
    layers["npu.calls"] = npu_calls;
    layers["npu.rows_per_call"] =
        static_cast<double>(stats.npu_rows - stats_before_.npu_rows) /
        npu_calls;
    layers["persist.wal_bytes"] = static_cast<double>(wal - wal_before_);
    layers["server.frames"] = static_cast<double>(cohort.frames);
    layers["server.failed"] =
        static_cast<double>(kDevices - cohort.retired + cohort.errors);
    if (cohort.admit_ms.empty()) return;
    // With 256 samples, p95 leaves 12 above it.
    layers["server.admit_ms_p50"] = percentile(cohort.admit_ms, 50.0);
    layers["server.admit_ms_p95"] = percentile(cohort.admit_ms, 95.0);
  }

  void receive(const ClientEvent& ev,
               const std::vector<std::uint64_t>& written_ns, Cohort& cohort) {
    ++cohort.frames;
    const auto index = [&](std::uint64_t id) -> std::size_t {
      return id >= cohort.base_id && id < cohort.base_id + kDevices
                 ? static_cast<std::size_t>(id - cohort.base_id)
                 : kDevices;
    };
    switch (ev.type) {
      case MsgType::kRegisterAck: {
        const std::size_t i = index(ev.ack.device_id);
        if (i == kDevices || cohort.acked[i]) break;
        cohort.acked[i] = true;
        cohort.admit_ms.push_back(
            1e-6 * static_cast<double>(ev.recv_ns - written_ns[i]));
        break;
      }
      case MsgType::kRetire: {
        const std::size_t i = index(ev.retire.device_id);
        if (i == kDevices || cohort.retires[i].ticks != 0) break;
        cohort.retires[i] = ev.retire;
        ++cohort.retired;
        break;
      }
      case MsgType::kError:
        ++cohort.errors;
        outcome_.problems.push_back("error frame: " + ev.error.message);
        break;
      default:
        break;
    }
  }

  std::uintmax_t wal_bytes() const {
    std::uintmax_t total = 0;
    for (std::size_t k = 0; k < kShards; ++k) {
      total += std::filesystem::file_size(state_dir_ + "/shard" +
                                          std::to_string(k) + ".wal");
    }
    return total;
  }

  std::string state_dir_;
  ServerConfig config_;
  std::vector<scenario::ScenarioSpec> specs_;
  std::vector<std::string> texts_;
  std::vector<std::size_t> checked_;
  std::unique_ptr<GovernorServer> server_;
  std::unique_ptr<ServiceClient> client_;
  Cohort last_;   ///< what the client received in the last cohort
  Cohort first_;  ///< cohort 0, the reference for every later one
  /// Server counters and WAL size before the next cohort.
  StatsReplyMsg stats_before_;
  std::uintmax_t wal_before_ = 0;
  std::size_t units_ = 0;
  Outcome outcome_;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_serve(std::uint64_t seed,
                                          const std::string& scratch_dir) {
  return std::make_unique<Serve>(seed, scratch_dir);
}

}  // namespace perfbench
