#include "persist/training_wal.hpp"

#include <filesystem>
#include <utility>

#include "nn/serialize.hpp"
#include "persist/state_codec.hpp"

namespace topil::persist {

namespace {

/// TWML: the training configuration's fingerprint and dataset shape. A
/// reader requires both to match the run's.
template <typename Io>
void meta_record(Io& io, const std::string& path, const std::string& meta,
                 std::size_t feature_width, std::size_t label_width) {
  io.tag("TWML");
  std::string recorded = meta;
  io.str(recorded);
  if constexpr (Io::kReading) {
    TOPIL_REQUIRE(recorded == meta,
                  "training WAL was written under a different configuration "
                  "(recorded meta '" +
                      recorded + "', expected '" + meta + "'): " + path);
  }
  std::size_t fw = feature_width;
  std::size_t lw = label_width;
  io.u64(fw);
  io.u64(lw);
  if constexpr (Io::kReading) {
    TOPIL_REQUIRE(fw == feature_width && lw == label_width,
                  "training WAL dataset shape does not match: " + path);
  }
}

std::string encode_meta(const std::string& path, const std::string& meta,
                        std::size_t feature_width, std::size_t label_width) {
  StateWriter out;
  meta_record(out, path, meta, feature_width, label_width);
  return out.take_buffer();
}

/// TWEX: one iteration's new examples.
template <typename Io>
void examples_record(Io& io,
                     Ref<Io, std::vector<il::TrainingExample>> examples) {
  io.tag("TWEX");
  io.seq(examples, [&](auto& example) {
    io.seq(example.features);
    io.seq(example.labels);
  });
}

/// TWMD: the iteration's model.
template <typename Io>
void model_record(Io& io, Ref<Io, nn::Topology> topo,
                  Ref<Io, std::vector<float>> weights) {
  io.tag("TWMD");
  nn::model_fields(io, topo, weights);
}

/// TWIT: the commit point of an iteration.
template <typename Io>
void iteration_record(Io& io, Ref<Io, TrainingWalIteration> stats) {
  io.tag("TWIT");
  io.u64(stats.iteration);
  io.u64(stats.new_examples);
  io.u64(stats.total_examples);
  io.f64(stats.validation_loss);
}

TrainingRecovery replay(const WalRecovery& wal, const std::string& path,
                        const std::string& meta, std::size_t feature_width,
                        std::size_t label_width) {
  TOPIL_REQUIRE(!wal.records.empty(),
                "training WAL has no records: " + path);
  TOPIL_REQUIRE(wal.records.front().type == kTrainingWalMeta,
                "training WAL does not start with a meta record: " + path);
  StateReader head(wal.records.front().payload);
  meta_record(head, path, meta, feature_width, label_width);
  head.require_done();

  TrainingRecovery out{il::Dataset(feature_width, label_width),
                       std::nullopt,
                       {},
                       {},
                       0,
                       wal.truncated_tail};

  // Records of the iteration in flight; committed to the recovery only by
  // a durable iteration-end frame.
  std::vector<il::TrainingExample> pending_examples;
  std::optional<nn::Topology> pending_topology;
  std::vector<float> pending_weights;

  for (std::size_t i = 1; i < wal.records.size(); ++i) {
    const WalRecord& record = wal.records[i];
    StateReader in(record.payload);
    switch (record.type) {
      case kTrainingWalExamples: {
        std::vector<il::TrainingExample> examples;
        examples_record(in, examples);
        in.require_done();
        for (il::TrainingExample& example : examples) {
          TOPIL_REQUIRE(example.features.size() == feature_width &&
                            example.labels.size() == label_width,
                        "example shape mismatch in training WAL: " + path);
          pending_examples.push_back(std::move(example));
        }
        break;
      }
      case kTrainingWalModel: {
        nn::Topology topo;
        model_record(in, topo, pending_weights);
        in.require_done();
        pending_topology = topo;
        break;
      }
      case kTrainingWalIterationEnd: {
        TrainingWalIteration stats;
        iteration_record(in, stats);
        in.require_done();
        out.dataset.add_all(std::move(pending_examples));
        pending_examples.clear();
        if (pending_topology) {
          out.model_topology = pending_topology;
          out.model_weights = std::move(pending_weights);
          pending_topology.reset();
          pending_weights.clear();
        }
        out.iterations.push_back(stats);
        out.iterations_completed = stats.iteration + 1;
        break;
      }
      default:
        TOPIL_REQUIRE(false, "unknown training WAL record type " +
                                 std::to_string(record.type) + ": " + path);
    }
  }
  return out;
}

}  // namespace

TrainingWal TrainingWal::create(const std::string& path,
                                const std::string& meta,
                                std::size_t feature_width,
                                std::size_t label_width) {
  WalWriter writer = WalWriter::create(path);
  writer.append(kTrainingWalMeta,
                encode_meta(path, meta, feature_width, label_width));
  writer.sync();
  return TrainingWal(std::move(writer));
}

TrainingWal TrainingWal::resume(const std::string& path,
                                const std::string& meta,
                                std::size_t feature_width,
                                std::size_t label_width,
                                TrainingRecovery* recovery) {
  std::error_code ec;
  const auto file_size = std::filesystem::file_size(path, ec);
  WalRecovery wal;
  if (!ec && file_size > 0) wal = recover_wal(path);
  if (wal.records.empty()) {
    // Missing, empty, or torn-before-the-first-record log: behave like
    // create (open_for_append restarts a headerless file).
    WalWriter writer = WalWriter::open_for_append(path);
    writer.append(kTrainingWalMeta,
                  encode_meta(path, meta, feature_width, label_width));
    writer.sync();
    if (recovery != nullptr) {
      *recovery = TrainingRecovery{il::Dataset(feature_width, label_width),
                                   std::nullopt,
                                   {},
                                   {},
                                   0,
                                   wal.truncated_tail};
    }
    return TrainingWal(std::move(writer));
  }
  // Validate the meta record and replay the committed iterations before
  // touching the file.
  TrainingRecovery replayed =
      replay(wal, path, meta, feature_width, label_width);

  // Rewind the log to the last commit point: frames of a torn iteration
  // (examples or model with no iteration-end behind them) are intact on
  // disk but were not replayed, and the redone iteration will append its
  // own copies — keeping the stale ones would double-commit them on the
  // next recovery. This also drops any torn tail (it lies beyond
  // valid_bytes and thus beyond the commit point).
  constexpr std::uint64_t kFrameOverhead = 4 + 4 + 8 + 4;
  std::uint64_t bytes = 8;  // magic + version
  std::uint64_t commit_bytes = bytes + kFrameOverhead +
                               wal.records.front().payload.size();
  for (std::size_t i = 0; i < wal.records.size(); ++i) {
    bytes += kFrameOverhead + wal.records[i].payload.size();
    if (wal.records[i].type == kTrainingWalIterationEnd) {
      commit_bytes = bytes;
    }
  }
  if (commit_bytes < file_size) {
    std::filesystem::resize_file(path, commit_bytes, ec);
    TOPIL_REQUIRE(!ec, "training WAL: cannot rewind to last commit point: " +
                           path);
  }
  WalWriter writer = WalWriter::open_for_append(path);
  if (recovery != nullptr) *recovery = std::move(replayed);
  return TrainingWal(std::move(writer));
}

void TrainingWal::append_examples(
    const std::vector<il::TrainingExample>& examples) {
  StateWriter out;
  examples_record(out, examples);
  writer_.append(kTrainingWalExamples, out.buffer());
}

void TrainingWal::append_model(const nn::Mlp& model) {
  StateWriter out;
  model_record(out, model.topology(), model.save_weights());
  writer_.append(kTrainingWalModel, out.buffer());
}

void TrainingWal::append_iteration_end(const TrainingWalIteration& stats) {
  StateWriter out;
  iteration_record(out, stats);
  writer_.append(kTrainingWalIterationEnd, out.buffer());
  writer_.sync();
}

TrainingRecovery recover_training_wal(const std::string& path,
                                      const std::string& meta,
                                      std::size_t feature_width,
                                      std::size_t label_width) {
  const WalRecovery wal = recover_wal(path);
  return replay(wal, path, meta, feature_width, label_width);
}

}  // namespace topil::persist
