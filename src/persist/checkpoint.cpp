#include "persist/checkpoint.hpp"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "persist/atomic_file.hpp"
#include "persist/crc32.hpp"
#include "persist/snapshot.hpp"

namespace topil::persist {

namespace {

constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 8 + 4;

void write_pod(std::ostream& out, const void* data, std::size_t n) {
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
}

}  // namespace

void write_checkpoint_file(const std::string& path,
                           const std::string& payload) {
  atomic_write(path, [&](std::ostream& out) {
    const std::uint64_t payload_size = payload.size();
    const std::uint32_t crc = crc32(payload);
    write_pod(out, &kCheckpointMagic, sizeof(kCheckpointMagic));
    write_pod(out, &kCheckpointVersion, sizeof(kCheckpointVersion));
    write_pod(out, &payload_size, sizeof(payload_size));
    write_pod(out, &crc, sizeof(crc));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  });
}

std::string read_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  TOPIL_REQUIRE(in.is_open(), "cannot open checkpoint: " + path);
  std::error_code ec;
  const auto file_size = std::filesystem::file_size(path, ec);
  TOPIL_REQUIRE(!ec, "cannot stat checkpoint: " + path);
  TOPIL_REQUIRE(file_size >= kFrameHeaderBytes,
                "truncated checkpoint header: " + path);

  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t payload_size = 0;
  std::uint32_t crc = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  in.read(reinterpret_cast<char*>(&payload_size), sizeof(payload_size));
  in.read(reinterpret_cast<char*>(&crc), sizeof(crc));
  TOPIL_REQUIRE(in.good(), "unreadable checkpoint header: " + path);
  TOPIL_REQUIRE(magic == kCheckpointMagic,
                "not a checkpoint file (bad magic): " + path);
  TOPIL_REQUIRE(version == kCheckpointVersion,
                "unsupported checkpoint version " + std::to_string(version) +
                    ": " + path);
  TOPIL_REQUIRE(payload_size == file_size - kFrameHeaderBytes,
                payload_size > file_size - kFrameHeaderBytes
                    ? "truncated checkpoint: " + path
                    : "trailing garbage after checkpoint payload: " + path);

  std::string payload(static_cast<std::size_t>(payload_size), '\0');
  in.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  TOPIL_REQUIRE(in.good() || payload.empty(),
                "unreadable checkpoint payload: " + path);
  TOPIL_REQUIRE(crc32(payload) == crc,
                "checkpoint CRC mismatch (corrupt file): " + path);
  return payload;
}

namespace {

/// The CKPT record: the run's configuration fingerprint and governor,
/// its arrival cursor and digest chain, the simulator, the governor.
template <typename Io>
void checkpoint_fields(Io& io, const CheckpointOptions& options,
                       Ref<Io, Governor> governor, Ref<Io, ExperimentRun> run,
                       Ref<Io, validate::DigestMonitor> monitor) {
  io.tag("CKPT");
  std::string meta = options.meta;
  io.str(meta);
  if constexpr (Io::kReading) {
    TOPIL_REQUIRE(meta == options.meta,
                  "checkpoint was taken under a different configuration "
                  "(recorded meta '" +
                      meta + "', expected '" + options.meta + "')");
  }
  std::string governor_name = governor.name();
  io.str(governor_name);
  if constexpr (Io::kReading) {
    TOPIL_REQUIRE(governor_name == governor.name(),
                  "checkpoint was taken under governor '" + governor_name +
                      "', not '" + governor.name() + "'");
  }
  std::size_t next_arrival = run.next_arrival();
  io.u64(next_arrival);
  if constexpr (Io::kReading) run.set_next_arrival(next_arrival);
  digest_fields(io, monitor);
  SnapshotAccess::fields(io, run.sim());
  hook_fields(io, governor);
}

}  // namespace

CheckpointedResult run_experiment_checkpointed(
    const PlatformSpec& platform, Governor& governor,
    const Workload& workload, const ExperimentConfig& config,
    const CheckpointOptions& options) {
  TOPIL_REQUIRE(!options.path.empty(), "checkpoint path must be set");
  TOPIL_REQUIRE(options.every_s > 0.0,
                "checkpoint interval must be positive");
  // An invariant checker's state is not checkpointed, so a resumed run
  // could not continue it.
  TOPIL_REQUIRE(!config.sim.validate && config.monitor == nullptr,
                "checkpointed runs carry their own digest monitor");

  validate::DigestMonitor monitor;
  ExperimentConfig run_config = config;
  run_config.monitor = &monitor;
  ExperimentRun run(platform, governor, workload, run_config);
  const SystemSim& sim = run.sim();

  CheckpointedResult out;
  if (options.resume && std::filesystem::exists(options.path)) {
    const std::string payload = read_checkpoint_file(options.path);
    StateReader in(payload);
    checkpoint_fields(in, options, governor, run, monitor);
    in.require_done();
    out.resumed = true;
  }

  // First deadline strictly after the (possibly restored) clock, on the
  // every_s grid, so interrupted and uninterrupted runs checkpoint — and
  // therefore compute — identically.
  double next_checkpoint =
      (std::floor(sim.now() / options.every_s) + 1.0) * options.every_s;

  while (sim.now() < config.max_duration_s) {
    if (sim.now() + 1e-9 >= next_checkpoint) {
      do {
        next_checkpoint += options.every_s;
      } while (sim.now() + 1e-9 >= next_checkpoint);
      StateWriter payload;
      checkpoint_fields(payload, options, governor, run, monitor);
      write_checkpoint_file(options.path, payload.buffer());
      ++out.checkpoints_written;
    }
    if (!run.step()) break;
  }

  out.result = run.result();
  out.digest = monitor.digest();
  out.ticks = monitor.ticks();
  return out;
}

}  // namespace topil::persist
