#include "server/shard.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <set>

#include "common/error.hpp"
#include "persist/checkpoint.hpp"
#include "persist/snapshot.hpp"
#include "persist/state_codec.hpp"
#include "sim/system_sim.hpp"
#include "validate/digest_monitor.hpp"
#include "validate/invariant_checker.hpp"

namespace topil::server {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string wal_register_payload(std::uint64_t id,
                                 const std::string& scenario_text) {
  persist::StateWriter out;
  out.tag("SWRG");
  out.u64(id);
  out.str(scenario_text);
  return out.take_buffer();
}

std::string wal_retired_payload(const RetireMsg& m) {
  persist::StateWriter out;
  out.tag("SWRT");
  out.u64(m.device_id);
  out.u64(m.digest);
  out.u64(m.ticks);
  out.u64(m.actions);
  out.u64(m.action_digest);
  return out.take_buffer();
}

RetireMsg wal_decode_retired(std::string_view payload) {
  persist::StateReader in(payload);
  in.expect_tag("SWRT");
  RetireMsg m;
  m.device_id = in.u64();
  m.digest = in.u64();
  m.ticks = in.u64();
  m.actions = in.u64();
  m.action_digest = in.u64();
  in.require_done();
  return m;
}

std::string wal_deregister_payload(std::uint64_t id) {
  persist::StateWriter out;
  out.tag("SWDG");
  out.u64(id);
  return out.take_buffer();
}

}  // namespace

/// One simulated board: its materialized scenario (owning the platform and
/// adapted apps the simulator points into), simulator, governor, digest
/// chains, and the connection its actions stream back over (null for a
/// device resumed headless from a checkpoint).
struct Shard::Device {
  std::uint64_t id = 0;
  std::string scenario_text;
  scenario::ScenarioSpec spec;
  std::unique_ptr<scenario::MaterializedScenario> mat;
  std::unique_ptr<SystemSim> sim;
  std::unique_ptr<Governor> governor;
  std::unique_ptr<validate::InvariantChecker> checker;  ///< validate mode
  validate::DigestMonitor monitor;
  std::size_t next_arrival = 0;
  std::size_t lane = fleet::FleetEngine::kRemovedLane;
  std::uint64_t action_seq = 0;
  validate::Fnv64 action_digest;
  std::shared_ptr<Connection> conn;

  /// Per-device composite monitor: the digest chain always runs; the
  /// invariant checker only in validate mode. A SystemSim has one monitor
  /// slot, so the fan-out lives here.
  struct Fanout : SimMonitor {
    Device* device = nullptr;
    void on_attach(const SystemSim& sim) override {
      if (device->checker) device->checker->on_attach(sim);
      device->monitor.on_attach(sim);
    }
    void on_tick(const SystemSim& sim) override {
      if (device->checker) device->checker->on_tick(sim);
      device->monitor.on_tick(sim);
    }
    void on_migration_epoch(const SystemSim& sim, double scheduled_time_s,
                            double period_s) override {
      if (device->checker) {
        device->checker->on_migration_epoch(sim, scheduled_time_s, period_s);
      }
      device->monitor.on_migration_epoch(sim, scheduled_time_s, period_s);
    }
  };
  Fanout fanout;

  /// The scalar run_experiment loop head, verbatim (fleet determinism
  /// contract: a lane is bit-identical to the same sim stepped alone).
  bool pre_tick() {
    if (sim->now() >= mat->max_duration_s) return false;
    const auto& items = mat->workload.items();
    while (next_arrival < items.size() &&
           items[next_arrival].arrival_time <= sim->now() + 1e-9) {
      const WorkloadItem& item = items[next_arrival];
      const AppSpec& app = Workload::app_of(item);
      const CoreId core = governor->place(*sim, app, item.qos_target_ips);
      sim->spawn(app, item.qos_target_ips, core);
      ++next_arrival;
    }
    if (next_arrival == items.size() && sim->num_running() == 0) return false;
    governor->tick(*sim);
    return true;
  }
};

Shard::Shard(const Config& config) : config_(config) {
  TOPIL_REQUIRE(config_.epoch_ticks > 0, "shard epoch_ticks must be positive");
  if (!config_.state_dir.empty()) {
    std::filesystem::create_directories(config_.state_dir);
    const std::string wal_path =
        config_.state_dir + "/shard" + std::to_string(config_.index) + ".wal";
    if (config_.resume) {
      restore_from_disk();
    } else {
      wal_.emplace(persist::WalWriter::create(wal_path));
    }
  } else {
    TOPIL_REQUIRE(!config_.resume, "shard resume requires a state_dir");
  }
  engine_.set_tick_barrier([this] { aggregator_.flush(); });
}

Shard::~Shard() = default;

void Shard::enqueue_register(RegisterMsg msg,
                             std::shared_ptr<Connection> conn) {
  std::lock_guard<std::mutex> lock(inbox_mutex_);
  inbox_register_.push_back(PendingRegister{std::move(msg), std::move(conn)});
}

void Shard::enqueue_deregister(std::uint64_t device_id) {
  std::lock_guard<std::mutex> lock(inbox_mutex_);
  inbox_deregister_.push_back(device_id);
}

std::unique_ptr<Shard::Device> Shard::build_device(
    std::uint64_t id, const std::string& scenario_text) {
  auto device = std::make_unique<Device>();
  device->id = id;
  device->scenario_text = scenario_text;
  device->spec = scenario::ScenarioSpec::parse(scenario_text);
  device->mat = std::make_unique<scenario::MaterializedScenario>(
      scenario::materialize(device->spec));
  // Fleet fast path needs the exponential integrator; validation runs
  // through our own composite monitor, never SimConfig::validate.
  device->mat->sim.integrator = ThermalIntegrator::Exponential;
  device->mat->sim.validate = false;
  device->sim = std::make_unique<SystemSim>(
      device->mat->platform, device->mat->cooling, device->mat->sim);
  if (config_.validate) {
    validate::ValidationConfig vc;
    vc.fail_fast = false;  // soak: record violations, keep serving
    device->checker = std::make_unique<validate::InvariantChecker>(vc);
  }
  device->fanout.device = device.get();
  device->sim->attach_monitor(&device->fanout);
  device->governor = make_device_governor(device->spec, device->mat->platform,
                                          config_.policy_seed, &aggregator_);
  device->governor->reset(*device->sim);
  return device;
}

void Shard::attach_device(Device& device) {
  fleet::FleetEngine::Lane lane;
  lane.sim = device.sim.get();
  lane.pre_tick = [dev = &device](SystemSim&) { return dev->pre_tick(); };
  lane.post_tick = [this, dev = &device](SystemSim& sim) {
    if (sim.tick_index() % config_.epoch_ticks != 0) return;
    ActionMsg m = sample_action(sim, dev->id, dev->action_seq);
    fold_action(dev->action_digest, m);
    ++dev->action_seq;
    if (dev->conn != nullptr && !dev->conn->dead()) {
      m.sent_ns = steady_now_ns();
      dev->conn->send(MsgType::kAction, encode_action(m));
    }
    actions_sent_.fetch_add(1, std::memory_order_relaxed);
  };
  device.lane = engine_.attach_lane(std::move(lane));
}

void Shard::handle_register(PendingRegister&& req) {
  const std::uint64_t id = req.msg.device_id;
  const auto reply_error = [&](const std::string& why) {
    if (req.conn) {
      req.conn->send(MsgType::kError, encode_error(ErrorMsg{id, why}));
    }
  };
  if (devices_.count(id) != 0) {
    reply_error("device " + std::to_string(id) + " is already registered");
    return;
  }
  std::unique_ptr<Device> device;
  try {
    device = build_device(id, req.msg.scenario_text);
  } catch (const std::exception& e) {
    reply_error("rejected scenario for device " + std::to_string(id) + ": " +
                e.what());
    return;
  }
  device->conn = req.conn;
  // Durability before visibility: the registration is on disk (fsync'd)
  // before the ack, so an acked device can never vanish across a crash.
  if (wal_) {
    wal_->append(kShardWalRegister,
                 wal_register_payload(id, device->scenario_text));
    wal_->sync();
  }
  attach_device(*device);
  devices_.emplace(id, std::move(device));
  registered_.fetch_add(1, std::memory_order_relaxed);
  live_.fetch_add(1, std::memory_order_relaxed);
  if (req.conn) {
    req.conn->send(MsgType::kRegisterAck,
                   encode_register_ack(RegisterAckMsg{id, config_.index}));
  }
}

void Shard::accumulate_violations(Device& device) {
  if (device.checker) {
    violations_.fetch_add(device.checker->report().violations.size(),
                          std::memory_order_relaxed);
  }
}

void Shard::handle_deregister(std::uint64_t device_id) {
  const auto it = devices_.find(device_id);
  if (it == devices_.end()) return;  // unknown/finished: nothing to undo
  Device& device = *it->second;
  if (wal_) {
    wal_->append(kShardWalDeregister, wal_deregister_payload(device_id));
    wal_->sync();
  }
  engine_.detach_lane(device.lane);
  ++retired_since_compact_;
  accumulate_violations(device);
  devices_.erase(it);
  live_.fetch_sub(1, std::memory_order_relaxed);
}

void Shard::finish_retirements() {
  std::vector<std::uint64_t> done;
  for (const auto& [id, device] : devices_) {
    if (!engine_.lane_active(device->lane)) done.push_back(id);
  }
  for (const std::uint64_t id : done) {
    Device& device = *devices_.at(id);
    RetireMsg m;
    m.device_id = id;
    m.digest = device.monitor.digest();
    m.ticks = device.monitor.ticks();
    m.actions = device.action_seq;
    m.action_digest = device.action_digest.value();
    // WAL first: the retirement outcome must survive a crash even if the
    // client never sees the frame.
    if (wal_) {
      wal_->append(kShardWalRetired, wal_retired_payload(m));
      wal_->sync();
    }
    if (device.conn != nullptr && !device.conn->dead()) {
      device.conn->send(MsgType::kRetire, encode_retire(m));
    }
    accumulate_violations(device);
    devices_.erase(id);
    live_.fetch_sub(1, std::memory_order_relaxed);
    retired_.fetch_add(1, std::memory_order_relaxed);
    ++retired_since_compact_;
  }
}

bool Shard::pump() {
  // Step boundary: drain the inbox (registrations join before the next
  // tick, exactly like construction-time lanes).
  std::vector<PendingRegister> registers;
  std::vector<std::uint64_t> deregisters;
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    registers.swap(inbox_register_);
    deregisters.swap(inbox_deregister_);
  }
  for (PendingRegister& req : registers) handle_register(std::move(req));
  for (const std::uint64_t id : deregisters) handle_deregister(id);

  if (!devices_.empty()) {
    engine_.step();
    fleet_ticks_.fetch_add(1, std::memory_order_relaxed);
    device_ticks_.fetch_add(devices_.size(), std::memory_order_relaxed);
    finish_retirements();
    npu_rows_.store(aggregator_.rows_inferred(), std::memory_order_relaxed);
    npu_calls_.store(aggregator_.device_calls(), std::memory_order_relaxed);
  }

  if (retired_since_compact_ > 0) {
    const std::vector<std::size_t> remap = engine_.compact();
    for (auto& [id, device] : devices_) {
      device->lane = remap[device->lane];
    }
    retired_since_compact_ = 0;
  }

  if (wal_ && config_.checkpoint_every_ticks > 0 && !devices_.empty() &&
      fleet_ticks_.load(std::memory_order_relaxed) %
              config_.checkpoint_every_ticks ==
          0) {
    write_checkpoint();
  }

  if (!devices_.empty()) return true;
  std::lock_guard<std::mutex> lock(inbox_mutex_);
  return !inbox_register_.empty() || !inbox_deregister_.empty();
}

bool Shard::idle() const {
  if (live_.load(std::memory_order_relaxed) != 0) return false;
  std::lock_guard<std::mutex> lock(inbox_mutex_);
  return inbox_register_.empty() && inbox_deregister_.empty();
}

std::string Shard::checkpoint_path() const {
  return config_.state_dir + "/shard" + std::to_string(config_.index) +
         ".ckpt";
}

std::string Shard::encode_shard_checkpoint() {
  persist::StateWriter out;
  out.tag("SSHD");
  out.str(config_.meta);
  out.u64(fleet_ticks_.load(std::memory_order_relaxed));
  // WAL watermark: every device below was registered by a WAL record with
  // a smaller seq, which is how restore_from_disk tells it from a later
  // re-registration of the same id.
  out.u64(wal_ ? wal_->next_seq() : 0);
  out.u64(devices_.size());
  for (const auto& [id, device] : devices_) {
    out.tag("SDEV");
    out.u64(id);
    out.str(device->scenario_text);
    out.u64(device->next_arrival);
    out.u64(device->action_seq);
    out.u64(device->action_digest.value());
    out.u64(device->monitor.digest());
    out.u64(device->monitor.ticks());
    persist::SnapshotAccess::save(out, *device->sim);
    device->governor->save_state(out);
  }
  return out.take_buffer();
}

void Shard::write_checkpoint() {
  if (config_.state_dir.empty()) return;
  persist::write_checkpoint_file(checkpoint_path(),
                                 encode_shard_checkpoint());
}

void Shard::restore_from_disk() {
  const std::string wal_path =
      config_.state_dir + "/shard" + std::to_string(config_.index) + ".wal";
  persist::WalRecovery recovery;
  wal_.emplace(persist::WalWriter::open_for_append(wal_path, &recovery));

  // The WAL is the membership authority: live = registered minus
  // (retired ∪ deregistered), replayed in sequence order.
  struct LiveSpec {
    std::string text;
    std::uint64_t seq = 0;  ///< WAL seq of the registration that is live
  };
  std::map<std::uint64_t, LiveSpec> live_specs;
  std::set<std::uint64_t> ever_registered;
  for (const persist::WalRecord& record : recovery.records) {
    switch (record.type) {
      case kShardWalRegister: {
        persist::StateReader in(record.payload);
        in.expect_tag("SWRG");
        const std::uint64_t id = in.u64();
        std::string text = in.str();
        in.require_done();
        live_specs[id] = LiveSpec{std::move(text), record.seq};
        ever_registered.insert(id);
        registered_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case kShardWalRetired: {
        const RetireMsg m = wal_decode_retired(record.payload);
        live_specs.erase(m.device_id);
        retired_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case kShardWalDeregister: {
        persist::StateReader in(record.payload);
        in.expect_tag("SWDG");
        const std::uint64_t id = in.u64();
        in.require_done();
        live_specs.erase(id);
        break;
      }
      default:
        throw InvalidArgument("unknown shard WAL record type " +
                              std::to_string(record.type) + ": " + wal_path);
    }
  }

  // Checkpointed devices continue mid-run; everything else in the live set
  // restarts from tick zero (the WAL register landed after the last
  // checkpoint). Both are deterministic, so the final digests match an
  // uninterrupted run either way. A checkpoint only lists the devices live
  // when it was written: a crash can land after later retirements,
  // deregistrations or re-registrations reached the WAL but before the
  // next checkpoint.
  std::map<std::uint64_t, std::unique_ptr<Device>> restored;
  const std::string ckpt = checkpoint_path();
  if (std::filesystem::exists(ckpt)) {
    const std::string payload = persist::read_checkpoint_file(ckpt);
    persist::StateReader in(payload);
    in.expect_tag("SSHD");
    const std::string meta = in.str();
    TOPIL_REQUIRE(meta == config_.meta,
                  "shard checkpoint was written under a different server "
                  "configuration (recorded '" +
                      meta + "', expected '" + config_.meta + "'): " + ckpt);
    fleet_ticks_.store(in.u64(), std::memory_order_relaxed);
    const std::uint64_t watermark = in.u64();  // WAL next_seq at write time
    const std::uint64_t count = in.u64();
    for (std::uint64_t i = 0; i < count; ++i) {
      in.expect_tag("SDEV");
      const std::uint64_t id = in.u64();
      const std::string text = in.str();
      TOPIL_REQUIRE(ever_registered.count(id) != 0,
                    "shard checkpoint device " + std::to_string(id) +
                        " was never registered in the WAL: " + ckpt);
      std::unique_ptr<Device> device = build_device(id, text);
      device->next_arrival = static_cast<std::size_t>(in.u64());
      device->action_seq = in.u64();
      device->action_digest = validate::Fnv64::resume(in.u64());
      const std::uint64_t digest_state = in.u64();
      const std::uint64_t digest_ticks = in.u64();
      persist::SnapshotAccess::restore(in, *device->sim);
      // Re-prime the monitors: the checker's energy-balance baseline was
      // captured at attach time against the freshly-built (ambient) sim,
      // and the restore above just jumped the thermal state mid-run. Left
      // stale, the first tick would book the whole jump as a phantom
      // stored-energy change and poison the cumulative balance for the
      // rest of the run.
      device->fanout.on_attach(*device->sim);
      device->governor->restore_state(in);
      device->monitor.resume_from(digest_state, digest_ticks);
      // Continue only the registration the checkpoint captured. A device
      // that ended after the checkpoint already has its outcome in the WAL;
      // one registered again since restarts below. Its section is parsed
      // either way: sections are not length-prefixed.
      const auto live_it = live_specs.find(id);
      if (live_it != live_specs.end() && live_it->second.seq < watermark) {
        restored.emplace(id, std::move(device));
      }
    }
    in.require_done();
  }

  for (const auto& [id, spec] : live_specs) {
    if (restored.count(id) != 0) continue;
    restored.emplace(id, build_device(id, spec.text));
  }

  // Attach in ascending id order — per-device streams are independent of
  // lane order (fleet determinism contract), this just keeps the layout
  // reproducible.
  for (auto& [id, device] : restored) {
    attach_device(*device);
    live_.fetch_add(1, std::memory_order_relaxed);
    devices_.emplace(id, std::move(device));
  }
}

std::vector<RetireMsg> read_retired_devices(const std::string& state_dir,
                                            std::size_t nshards) {
  std::vector<RetireMsg> out;
  for (std::size_t k = 0; k < nshards; ++k) {
    const std::string path =
        state_dir + "/shard" + std::to_string(k) + ".wal";
    if (!std::filesystem::exists(path)) continue;
    const persist::WalRecovery recovery = persist::recover_wal(path);
    for (const persist::WalRecord& record : recovery.records) {
      if (record.type != kShardWalRetired) continue;
      out.push_back(wal_decode_retired(record.payload));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RetireMsg& a, const RetireMsg& b) {
              return a.device_id < b.device_id;
            });
  return out;
}

}  // namespace topil::server
