#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "npu/batch_aggregator.hpp"
#include "persist/wal.hpp"
#include "server/connection.hpp"
#include "server/device_scenario.hpp"
#include "sim/fleet/fleet_engine.hpp"

namespace topil::server {

/// Shard write-ahead-log records (shard<k>.wal, persist TOPW format): each
/// holds the fields of the message it logs, under its own tag.
inline constexpr std::uint32_t kShardWalRegister = 1;    ///< RegisterMsg
inline constexpr std::uint32_t kShardWalRetired = 2;     ///< RetireMsg
inline constexpr std::uint32_t kShardWalDeregister = 3;  ///< DeregisterMsg
inline constexpr char kShardWalRegisterTag[] = "SWRG";
inline constexpr char kShardWalRetiredTag[] = "SWRT";
inline constexpr char kShardWalDeregisterTag[] = "SWDG";

/// One shard of the governor service: a single-threaded fleet of device
/// simulators stepped in lockstep by a FleetEngine, with every device's
/// governor submissions for a tick flushed through one shared
/// InferenceAggregator — the cross-tenant NPU batch of DESIGN.md §14. The
/// owning server drives `pump()` from a dedicated worker thread; the IO
/// thread only touches the inbox (mutex) and the stats counters (atomics).
///
/// Egress and durability: every frame a pump produces (acks, errors,
/// actions, retire frames) is queued in its Outbox and written once per
/// connection at the end of the pump. With a `state_dir`, registrations,
/// retirements, and deregistrations append to shard<k>.wal, group-committed
/// by one fsync per batch before any of the batch's frames leave, and a
/// periodic TOPC checkpoint snapshots every live device (sim + governor +
/// digest chains) at a step boundary. `resume` rebuilds
/// the fleet from WAL ∘ checkpoint: checkpointed devices continue
/// bit-identically mid-run, registrations after the last checkpoint restart
/// from tick zero (equally deterministic), finished devices stay finished.
class Shard {
 public:
  struct Config {
    std::size_t index = 0;
    std::uint64_t policy_seed = 1;
    /// Action sampling cadence in simulator ticks (one "epoch").
    std::size_t epoch_ticks = 50;
    /// Attach the runtime invariant checker to every device (soak mode);
    /// violations are recorded, not thrown, and surface in the stats.
    bool validate = false;
    std::string state_dir;  ///< empty = no durability
    /// Fleet ticks between checkpoints (0 = only the final one at stop).
    std::size_t checkpoint_every_ticks = 0;
    bool resume = false;
    /// Server configuration fingerprint; checkpoints record and verify it.
    std::string meta;
  };

  explicit Shard(const Config& config);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  // --- IO-thread side ---

  void enqueue_register(RegisterMsg msg, std::shared_ptr<Connection> conn);
  void enqueue_deregister(std::uint64_t device_id);

  // --- worker-thread side ---

  /// Drain the inbox, step every live device one tick, handle
  /// retirements, write the pump's frames, checkpoint on schedule. Returns
  /// true when there is (or may soon be) work: live devices or queued
  /// requests.
  bool pump();

  /// Snapshot every live device into shard<k>.ckpt (no-op without a
  /// state_dir). Called by pump() on cadence and by the server at shutdown.
  void write_checkpoint();

  /// True when the shard has no live devices and an empty inbox — the
  /// drain predicate the server polls (any thread).
  bool idle() const;

  // --- shared counters (relaxed atomics; exact, monotone) ---

  std::uint64_t devices_registered() const { return registered_.load(); }
  std::uint64_t devices_live() const { return live_.load(); }
  std::uint64_t devices_retired() const { return retired_.load(); }
  std::uint64_t actions_sent() const { return actions_sent_.load(); }
  std::uint64_t fleet_ticks() const { return fleet_ticks_.load(); }
  /// Sum over ticks of live devices stepped (device-ticks of simulation).
  std::uint64_t device_ticks() const { return device_ticks_.load(); }
  std::uint64_t npu_rows() const { return npu_rows_.load(); }
  std::uint64_t npu_device_calls() const { return npu_calls_.load(); }
  std::uint64_t invariant_violations() const { return violations_.load(); }

 private:
  struct Device;
  struct PendingRegister {
    RegisterMsg msg;
    std::shared_ptr<Connection> conn;
  };

  void handle_register(PendingRegister&& req);
  void handle_deregister(std::uint64_t device_id);
  std::unique_ptr<Device> build_device(std::uint64_t id,
                                       const std::string& scenario_text);
  void attach_device(Device& device);
  /// Retire every device whose run ended; returns how many.
  std::size_t finish_retirements();
  void accumulate_violations(Device& device);
  std::string checkpoint_path() const;
  /// The shard checkpoint: its fleet tick, the WAL watermark and every
  /// live device. A reader builds each device from its scenario text.
  template <typename Io, typename Devices>
  void checkpoint_fields(Io& io, persist::Ref<Io, std::uint64_t> fleet_ticks,
                         persist::Ref<Io, std::uint64_t> watermark,
                         Devices& devices);
  void restore_from_disk();

  Config config_;
  npu::InferenceAggregator aggregator_;
  fleet::FleetEngine engine_;
  std::map<std::uint64_t, std::unique_ptr<Device>> devices_;
  std::optional<persist::WalWriter> wal_;
  Outbox outbox_;
  std::size_t retired_since_compact_ = 0;

  mutable std::mutex inbox_mutex_;
  std::vector<PendingRegister> inbox_register_;
  std::vector<std::uint64_t> inbox_deregister_;

  std::atomic<std::uint64_t> registered_{0};
  std::atomic<std::uint64_t> live_{0};
  std::atomic<std::uint64_t> retired_{0};
  std::atomic<std::uint64_t> actions_sent_{0};
  std::atomic<std::uint64_t> fleet_ticks_{0};
  std::atomic<std::uint64_t> device_ticks_{0};
  std::atomic<std::uint64_t> npu_rows_{0};
  std::atomic<std::uint64_t> npu_calls_{0};
  std::atomic<std::uint64_t> violations_{0};
};

/// Retired-device records recovered from every shard WAL under
/// `state_dir` (ascending device id) — the server-side source of truth the
/// CI resume gate diffs against a golden uninterrupted run.
std::vector<RetireMsg> read_retired_devices(const std::string& state_dir,
                                            std::size_t nshards);

}  // namespace topil::server
