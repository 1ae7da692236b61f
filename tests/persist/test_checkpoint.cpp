#include "persist/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "checkpointed_run_fixture.hpp"
#include "common/error.hpp"
#include "file_test_util.hpp"

namespace topil::persist {
namespace {

using test::append_bytes;
using test::flip_bit;
using test::read_file;
using test::scratch_dir;
using test::truncate_file;
using test::write_file;

constexpr std::size_t kFrameHeader = 20;  // magic+version+size+crc

TEST(CheckpointFile, RoundTrip) {
  const std::string dir = scratch_dir("topc_roundtrip");
  const std::string path = dir + "/state.ckpt";
  const std::string payload = "checkpoint payload \x00\x01\x02 bytes";
  write_checkpoint_file(path, payload);
  EXPECT_EQ(read_checkpoint_file(path), payload);
}

TEST(CheckpointFile, EmptyPayloadRoundTrips) {
  const std::string dir = scratch_dir("topc_empty");
  const std::string path = dir + "/state.ckpt";
  write_checkpoint_file(path, "");
  EXPECT_EQ(read_checkpoint_file(path), "");
}

TEST(CheckpointFile, TruncationAtEveryByteRejected) {
  const std::string dir = scratch_dir("topc_trunc");
  const std::string path = dir + "/state.ckpt";
  write_checkpoint_file(path, "0123456789abcdef");
  const std::string full = read_file(path);
  ASSERT_EQ(full.size(), kFrameHeader + 16);
  for (std::size_t len = 0; len < full.size(); ++len) {
    write_file(path, full.substr(0, len));
    EXPECT_THROW(read_checkpoint_file(path), Error) << "truncated to " << len;
  }
}

TEST(CheckpointFile, EveryHeaderBitFlipRejected) {
  const std::string dir = scratch_dir("topc_flip");
  const std::string path = dir + "/state.ckpt";
  write_checkpoint_file(path, "0123456789abcdef");
  const std::string full = read_file(path);
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      write_file(path, full);
      flip_bit(path, byte, bit);
      EXPECT_THROW(read_checkpoint_file(path), Error)
          << "flip byte " << byte << " bit " << bit;
    }
  }
  write_file(path, full);  // pristine again: still readable
  EXPECT_EQ(read_checkpoint_file(path), "0123456789abcdef");
}

TEST(CheckpointFile, TrailingGarbageRejected) {
  const std::string dir = scratch_dir("topc_garbage");
  const std::string path = dir + "/state.ckpt";
  write_checkpoint_file(path, "payload");
  append_bytes(path, "x");
  EXPECT_THROW(read_checkpoint_file(path), Error);
}

TEST(CheckpointFile, OlderVersionRefusedByHeader) {
  // Version 1 still carries the NPU busy-until field that version 2
  // dropped, both save random engines as decimal text where version 3
  // saves words, and all three save an NPU job table where version 4
  // saves TOP-IL's one in-flight batch; the header refuses them before
  // the payload is read.
  const std::string dir = scratch_dir("topc_version");
  const std::string path = dir + "/state.ckpt";
  for (const std::uint32_t version : {1u, 2u, 3u}) {
    write_checkpoint_file(path, "payload");
    std::string bytes = read_file(path);
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    write_file(path, bytes);
    try {
      read_checkpoint_file(path);
      ADD_FAILURE() << "a version-" << version << " checkpoint was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported checkpoint version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CheckpointFile, MissingFileThrows) {
  EXPECT_THROW(read_checkpoint_file(scratch_dir("topc_none") + "/no.ckpt"),
               Error);
}

// --- checkpointed experiment runs --------------------------------------

TEST_F(CheckpointedRunTest, UninterruptedRunMatchesPlainDigest) {
  const std::uint64_t golden = golden_digest("gts-ondemand", 90.0);

  const std::string dir = scratch_dir("ck_uninterrupted");
  CheckpointOptions options;
  options.path = dir + "/run.ckpt";
  options.every_s = 7.0;
  options.meta = "test-run";
  const auto gov = governor("gts-ondemand");
  const CheckpointedResult result = run_experiment_checkpointed(
      platform_, *gov, workload(), run_config(90.0), options);
  EXPECT_EQ(result.digest, golden);
  EXPECT_FALSE(result.resumed);
  EXPECT_GT(result.checkpoints_written, 0u);
}

TEST_F(CheckpointedRunTest, InterruptedResumeIsBitIdenticalAcrossGovernors) {
  // Each governor family persists different state (schedutil's ramp
  // history, toprl's Q-table and exploration stream, topil's epoch state);
  // every one must continue bit-identically from a mid-run checkpoint.
  for (const std::string name :
       {"gts-ondemand", "gts-schedutil", "toprl", "topil"}) {
    SCOPED_TRACE(name);
    const std::uint64_t golden = golden_digest(name, 90.0);

    const std::string dir = scratch_dir("ck_resume_" + name);
    CheckpointOptions options;
    options.path = dir + "/run.ckpt";
    options.every_s = 7.0;
    options.meta = "resume-test " + name;

    // Phase 1 plays the role of the killed process: it runs only the
    // first 30 simulated seconds, leaving its last checkpoint behind.
    {
      const auto gov = governor(name);
      run_experiment_checkpointed(platform_, *gov, workload(),
                                  run_config(30.0), options);
    }
    // Phase 2: fresh objects, resume from disk, run to the full horizon.
    options.resume = true;
    const auto gov = governor(name);
    const CheckpointedResult resumed = run_experiment_checkpointed(
        platform_, *gov, workload(), run_config(90.0), options);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.digest, golden);
  }
}

TEST_F(CheckpointedRunTest, InFlightTopIlBatchResumesBitIdentically) {
  // A 7 s cadence lands on the 0.5 s epoch grid, just before an epoch
  // submits its NPU batch. A 14.005 s cadence lands on the 14.01 s tick,
  // one tick after the 14 s epoch submitted the batch of four running apps
  // and while that batch is in flight. The batch's decision is a
  // migration, so a checkpoint that dropped the batch (completion time,
  // ratings, pids) would resume onto another trajectory.
  const std::uint64_t golden = golden_digest("topil", 60.0);
  const std::string dir = scratch_dir("ck_in_flight");
  CheckpointOptions options;
  options.path = dir + "/run.ckpt";
  options.every_s = 14.005;
  options.meta = "in-flight topil";
  {
    const auto gov = governor("topil");
    const CheckpointedResult killed = run_experiment_checkpointed(
        platform_, *gov, workload(), run_config(20.0), options);
    ASSERT_EQ(killed.checkpoints_written, 1u);
  }
  options.resume = true;
  const auto gov = governor("topil");
  const CheckpointedResult resumed = run_experiment_checkpointed(
      platform_, *gov, workload(), run_config(60.0), options);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.digest, golden);
}

TEST_F(CheckpointedRunTest, ResumeWithMissingFileStartsFresh) {
  const std::uint64_t golden = golden_digest("gts-ondemand", 60.0);
  const std::string dir = scratch_dir("ck_fresh");
  CheckpointOptions options;
  options.path = dir + "/never-written.ckpt";
  options.every_s = 9.0;
  options.resume = true;  // killed before the first checkpoint landed
  options.meta = "fresh";
  const auto gov = governor("gts-ondemand");
  const CheckpointedResult result = run_experiment_checkpointed(
      platform_, *gov, workload(), run_config(60.0), options);
  EXPECT_FALSE(result.resumed);
  EXPECT_EQ(result.digest, golden);
}

TEST_F(CheckpointedRunTest, ResumeRejectsMetaMismatch) {
  const std::string dir = scratch_dir("ck_meta");
  CheckpointOptions options;
  options.path = dir + "/run.ckpt";
  options.every_s = 7.0;
  options.meta = "configuration A";
  {
    const auto gov = governor("gts-ondemand");
    run_experiment_checkpointed(platform_, *gov, workload(),
                                run_config(30.0), options);
  }
  options.resume = true;
  options.meta = "configuration B";
  const auto gov = governor("gts-ondemand");
  EXPECT_THROW(run_experiment_checkpointed(platform_, *gov, workload(),
                                           run_config(90.0), options),
               Error);
}

TEST_F(CheckpointedRunTest, ResumeRejectsGovernorMismatch) {
  const std::string dir = scratch_dir("ck_gov");
  CheckpointOptions options;
  options.path = dir + "/run.ckpt";
  options.every_s = 7.0;
  options.meta = "same meta";
  {
    const auto gov = governor("gts-ondemand");
    run_experiment_checkpointed(platform_, *gov, workload(),
                                run_config(30.0), options);
  }
  options.resume = true;
  const auto gov = governor("gts-schedutil");
  EXPECT_THROW(run_experiment_checkpointed(platform_, *gov, workload(),
                                           run_config(90.0), options),
               Error);
}

TEST_F(CheckpointedRunTest, CorruptCheckpointFailsCleanly) {
  const std::string dir = scratch_dir("ck_corrupt");
  CheckpointOptions options;
  options.path = dir + "/run.ckpt";
  options.every_s = 7.0;
  options.meta = "corrupt";
  {
    const auto gov = governor("gts-ondemand");
    run_experiment_checkpointed(platform_, *gov, workload(),
                                run_config(30.0), options);
  }
  const std::string full = read_file(options.path);
  options.resume = true;
  // Truncate at each frame-header boundary and flip a payload bit; every
  // case must raise a clean error, never UB or a giant allocation.
  for (std::size_t len : {std::size_t{0}, std::size_t{4}, std::size_t{8},
                          std::size_t{12}, std::size_t{16}, std::size_t{19},
                          full.size() - 1}) {
    write_file(options.path, full.substr(0, len));
    const auto gov = governor("gts-ondemand");
    EXPECT_THROW(run_experiment_checkpointed(platform_, *gov, workload(),
                                             run_config(90.0), options),
                 Error)
        << "truncated to " << len;
  }
  write_file(options.path, full);
  flip_bit(options.path, kFrameHeader + full.size() / 2, 5);
  const auto gov = governor("gts-ondemand");
  EXPECT_THROW(run_experiment_checkpointed(platform_, *gov, workload(),
                                           run_config(90.0), options),
               Error);
}

}  // namespace
}  // namespace topil::persist
