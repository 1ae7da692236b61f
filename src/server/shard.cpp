#include "server/shard.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <set>

#include "common/error.hpp"
#include "core/experiment.hpp"
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

}  // namespace

/// One simulated board: its materialized scenario (owning the platform and
/// adapted apps the simulator points into), governor, digest chains, the
/// run that drives them, and the connection its actions stream back over
/// (null for a device resumed headless from a checkpoint).
struct Shard::Device {
  std::uint64_t id = 0;
  std::string scenario_text;
  scenario::ScenarioSpec spec;
  std::unique_ptr<scenario::MaterializedScenario> mat;
  std::unique_ptr<Governor> governor;
  validate::DigestMonitor monitor;
  /// Simulator, arrival cursor and monitors: the digest chain always, the
  /// invariant checker in validate mode.
  std::unique_ptr<ExperimentRun> run;
  std::size_t lane = fleet::FleetEngine::kRemovedLane;
  std::uint64_t action_seq = 0;
  validate::Fnv64 action_digest;
  std::shared_ptr<Connection> conn;
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
  ExperimentConfig run_config;
  run_config.cooling = device->mat->cooling;
  run_config.sim = device->mat->sim;
  // The fleet engine batches only exponential lanes' thermal advance.
  run_config.sim.integrator = ThermalIntegrator::Exponential;
  run_config.sim.validate = config_.validate;
  run_config.max_duration_s = device->mat->max_duration_s;
  run_config.validation.fail_fast = false;  // soak: record, keep serving
  run_config.monitor = &device->monitor;
  device->governor = make_device_governor(device->spec, device->mat->platform,
                                          config_.policy_seed, &aggregator_);
  device->run = std::make_unique<ExperimentRun>(
      device->mat->platform, *device->governor, device->mat->workload,
      run_config);
  return device;
}

void Shard::attach_device(Device& device) {
  fleet::FleetEngine::Lane lane;
  lane.sim = &device.run->sim();
  lane.pre_tick = [run = device.run.get()](SystemSim&) {
    return run->pre_tick();
  };
  lane.post_tick = [this, dev = &device](SystemSim& sim) {
    if (sim.tick_index() % config_.epoch_ticks != 0) return;
    ActionMsg m = sample_action(sim, dev->id, dev->action_seq);
    fold_action(dev->action_digest, m);
    ++dev->action_seq;
    if (dev->conn != nullptr && !dev->conn->dead()) {
      m.sent_ns = steady_now_ns();
      outbox_.queue(dev->conn, MsgType::kAction, encode(m));
    }
    actions_sent_.fetch_add(1, std::memory_order_relaxed);
  };
  device.lane = engine_.attach_lane(std::move(lane));
}

void Shard::handle_register(PendingRegister&& req) {
  const std::uint64_t id = req.msg.device_id;
  const auto reply_error = [&](const std::string& why) {
    outbox_.queue(req.conn, MsgType::kError, encode(ErrorMsg{id, why}));
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
  // Durability before visibility: pump() syncs this record before the
  // queued ack is written, so an acked device can never vanish across a
  // crash.
  if (wal_) {
    wal_->append(kShardWalRegister, encode(req.msg, kShardWalRegisterTag));
  }
  attach_device(*device);
  devices_.emplace(id, std::move(device));
  registered_.fetch_add(1, std::memory_order_relaxed);
  live_.fetch_add(1, std::memory_order_relaxed);
  outbox_.queue(req.conn, MsgType::kRegisterAck,
                encode(RegisterAckMsg{id, config_.index}));
}

void Shard::accumulate_violations(Device& device) {
  if (const validate::InvariantChecker* checker = device.run->checker()) {
    violations_.fetch_add(checker->report().violations.size(),
                          std::memory_order_relaxed);
  }
}

void Shard::handle_deregister(std::uint64_t device_id) {
  const auto it = devices_.find(device_id);
  if (it == devices_.end()) return;  // unknown/finished: nothing to undo
  Device& device = *it->second;
  if (wal_) {
    wal_->append(kShardWalDeregister,
                 encode(DeregisterMsg{device_id}, kShardWalDeregisterTag));
  }
  engine_.detach_lane(device.lane);
  ++retired_since_compact_;
  accumulate_violations(device);
  devices_.erase(it);
  live_.fetch_sub(1, std::memory_order_relaxed);
}

std::size_t Shard::finish_retirements() {
  std::vector<RetireMsg> done;
  for (const auto& [id, device] : devices_) {
    if (engine_.lane_active(device->lane)) continue;
    RetireMsg m;
    m.device_id = id;
    m.digest = device->monitor.digest();
    m.ticks = device->monitor.ticks();
    m.actions = device->action_seq;
    m.action_digest = device->action_digest.value();
    done.push_back(m);
  }
  // WAL first: every retirement outcome must survive a crash even if the
  // client never sees its frame. One fsync covers the whole tick.
  if (wal_ && !done.empty()) {
    for (const RetireMsg& m : done) {
      wal_->append(kShardWalRetired, encode(m, kShardWalRetiredTag));
    }
    wal_->sync();
  }
  for (const RetireMsg& m : done) {
    const auto it = devices_.find(m.device_id);
    outbox_.queue(it->second->conn, MsgType::kRetire, encode(m));
    accumulate_violations(*it->second);
    devices_.erase(it);
    ++retired_since_compact_;
  }
  return done.size();
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
  // Group commit: the batch's records take one fsync, and its acks and
  // errors, queued in request order, leave with the flush below.
  for (PendingRegister& req : registers) handle_register(std::move(req));
  for (const std::uint64_t id : deregisters) handle_deregister(id);
  if (wal_ && !(registers.empty() && deregisters.empty())) wal_->sync();

  std::size_t retired = 0;
  if (!devices_.empty()) {
    engine_.step();
    fleet_ticks_.fetch_add(1, std::memory_order_relaxed);
    device_ticks_.fetch_add(devices_.size(), std::memory_order_relaxed);
    retired = finish_retirements();
    npu_rows_.store(aggregator_.rows_inferred(), std::memory_order_relaxed);
    npu_calls_.store(aggregator_.device_calls(), std::memory_order_relaxed);
  }

  // One write per connection, before any checkpoint write can delay it.
  // The retirements count only now, so that a shard reads idle() only
  // once its retire frames are out.
  outbox_.flush();
  live_.fetch_sub(retired, std::memory_order_relaxed);
  retired_.fetch_add(retired, std::memory_order_relaxed);

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

template <typename Io, typename Devices>
void Shard::checkpoint_fields(Io& io,
                              persist::Ref<Io, std::uint64_t> fleet_ticks,
                              persist::Ref<Io, std::uint64_t> watermark,
                              Devices& devices) {
  io.tag("SSHD");
  std::string meta = config_.meta;
  io.str(meta);
  if constexpr (Io::kReading) {
    TOPIL_REQUIRE(meta == config_.meta,
                  "shard checkpoint was written under a different server "
                  "configuration (recorded '" +
                      meta + "', expected '" + config_.meta +
                      "'): " + checkpoint_path());
  }
  io.u64(fleet_ticks);
  // WAL watermark: every device below was registered by a WAL record with
  // a smaller seq, which is how restore_from_disk tells it from a later
  // re-registration of the same id.
  io.u64(watermark);
  io.seq(devices, [&](auto& entry) {
    io.tag("SDEV");
    io.u64(entry.first);
    std::string text;
    if constexpr (!Io::kReading) text = entry.second->scenario_text;
    io.str(text);
    if constexpr (Io::kReading) entry.second = build_device(entry.first, text);
    persist::Ref<Io, Device> device = *entry.second;
    std::size_t next_arrival = device.run->next_arrival();
    io.u64(next_arrival);
    if constexpr (Io::kReading) device.run->set_next_arrival(next_arrival);
    io.u64(device.action_seq);
    std::uint64_t action_digest = device.action_digest.value();
    io.u64(action_digest);
    if constexpr (Io::kReading) {
      device.action_digest = validate::Fnv64::resume(action_digest);
    }
    persist::digest_fields(io, device.monitor);
    persist::SnapshotAccess::fields(io, device.run->sim());
    // Re-prime the checker: its energy-balance baseline was captured at
    // attach time against the freshly-built (ambient) sim, and the
    // restore above just jumped the thermal state mid-run. Left stale,
    // the first tick would book the whole jump as a phantom stored-energy
    // change and poison the cumulative balance for the rest of the run.
    if constexpr (Io::kReading) {
      if (validate::InvariantChecker* checker = device.run->checker()) {
        checker->on_attach(device.run->sim());
      }
    }
    persist::hook_fields(io, *device.governor);
  });
}

void Shard::write_checkpoint() {
  if (config_.state_dir.empty()) return;
  persist::StateWriter out;
  checkpoint_fields(out, fleet_ticks_.load(std::memory_order_relaxed),
                    wal_ ? wal_->next_seq() : 0, devices_);
  persist::write_checkpoint_file(checkpoint_path(), out.buffer());
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
        auto m = decode<RegisterMsg>(record.payload, kShardWalRegisterTag);
        live_specs[m.device_id] =
            LiveSpec{std::move(m.scenario_text), record.seq};
        ever_registered.insert(m.device_id);
        registered_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case kShardWalRetired:
        live_specs.erase(
            decode<RetireMsg>(record.payload, kShardWalRetiredTag).device_id);
        retired_.fetch_add(1, std::memory_order_relaxed);
        break;
      case kShardWalDeregister:
        live_specs.erase(
            decode<DeregisterMsg>(record.payload, kShardWalDeregisterTag)
                .device_id);
        break;
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
    std::uint64_t fleet_ticks = 0;
    std::uint64_t watermark = 0;  // WAL next_seq at write time
    std::map<std::uint64_t, std::unique_ptr<Device>> checkpointed;
    checkpoint_fields(in, fleet_ticks, watermark, checkpointed);
    in.require_done();
    fleet_ticks_.store(fleet_ticks, std::memory_order_relaxed);
    // Continue only the registration the checkpoint captured. A device
    // that ended after the checkpoint already has its outcome in the WAL;
    // one registered again since restarts below.
    for (auto& [id, device] : checkpointed) {
      TOPIL_REQUIRE(ever_registered.count(id) != 0,
                    "shard checkpoint device " + std::to_string(id) +
                        " was never registered in the WAL: " + ckpt);
      const auto live_it = live_specs.find(id);
      if (live_it != live_specs.end() && live_it->second.seq < watermark) {
        restored.emplace(id, std::move(device));
      }
    }
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
      out.push_back(decode<RetireMsg>(record.payload, kShardWalRetiredTag));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RetireMsg& a, const RetireMsg& b) {
              return a.device_id < b.device_id;
            });
  return out;
}

}  // namespace topil::server
