#pragma once

#include <cstdint>
#include <string>

#include "core/experiment.hpp"
#include "persist/state_codec.hpp"
#include "validate/digest_monitor.hpp"

namespace topil::persist {

/// Checkpoint file framing: magic, version, payload size, payload CRC-32,
/// payload bytes. The payload is a StateCodec buffer; the frame lets a
/// reader reject truncation, trailing garbage, and bit flips before any
/// field of the payload is interpreted.
inline constexpr std::uint32_t kCheckpointMagic = 0x544f5043u;  // "TOPC"
/// Version 4: TOP-IL saves its one in-flight NPU batch (completion time,
/// ratings, pids) where version 3 saved an NPU job table. Version 3 and
/// older payloads would misparse (versions 1 and 2 also save random
/// engines as decimal text, and version 1 an NPU busy-until horizon), so
/// the header refuses them.
inline constexpr std::uint32_t kCheckpointVersion = 4;

/// Atomically write `payload` under the TOPC frame (temp file + fsync +
/// rename; a crash mid-write leaves the previous checkpoint intact).
void write_checkpoint_file(const std::string& path,
                           const std::string& payload);

/// Read and verify a TOPC file; returns the payload. Throws InvalidArgument
/// on bad magic/version, size mismatch, or CRC failure.
std::string read_checkpoint_file(const std::string& path);

/// A run's chained trace digest: its hash state and tick count.
template <typename Io>
void digest_fields(Io& io, Ref<Io, validate::DigestMonitor> monitor) {
  std::uint64_t digest = monitor.digest();
  std::uint64_t ticks = monitor.ticks();
  io.u64(digest);
  io.u64(ticks);
  if constexpr (Io::kReading) monitor.resume_from(digest, ticks);
}

/// Periodic checkpointing of an experiment run.
struct CheckpointOptions {
  /// Checkpoint file; written atomically every `every_s` of simulated time.
  std::string path;
  double every_s = 10.0;
  /// Resume from `path` if it exists (a missing file starts fresh — the
  /// run may have been killed before the first checkpoint landed).
  bool resume = false;
  /// Caller-supplied configuration fingerprint; a resume rejects a
  /// checkpoint whose recorded meta string differs (the restore contract
  /// requires identical configuration).
  std::string meta;
};

struct CheckpointedResult {
  ExperimentResult result;
  /// Chained per-tick trace digest of the *whole* run — after a resume it
  /// is bit-identical to the digest of an uninterrupted run.
  std::uint64_t digest = 0;
  std::uint64_t ticks = 0;
  std::size_t checkpoints_written = 0;
  bool resumed = false;
};

/// `run_experiment` with periodic crash-safe checkpoints. The run carries
/// its own digest monitor (so `config.monitor` must be null and
/// `config.sim.validate` unset); a run killed at any point and restarted
/// with `resume` continues from the last durable checkpoint and produces
/// the same final digest as an uninterrupted run.
CheckpointedResult run_experiment_checkpointed(const PlatformSpec& platform,
                                               Governor& governor,
                                               const Workload& workload,
                                               const ExperimentConfig& config,
                                               const CheckpointOptions& options);

}  // namespace topil::persist
