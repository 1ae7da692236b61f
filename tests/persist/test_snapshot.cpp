#include "persist/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/app_database.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "nn/tensor.hpp"
#include "sim/system_sim.hpp"
#include "validate/state_digest.hpp"

namespace topil::persist {
namespace {

// Positions 0 (a fresh twist), 100, 156 and 312 (the next draw twists).
TEST(Snapshot, RngRoundTripContinuesIdentically) {
  for (const std::size_t position : {0u, 100u, 156u, 312u}) {
    Rng original(42);
    for (int i = 0; i < 312 * 2; ++i) original.engine()();
    Mt19937_64::State state = original.engine().state();
    ASSERT_EQ(state.position, 312u);
    state.position = position;
    original.engine().set_state(state);

    StateWriter out;
    SnapshotAccess::fields(out, original);
    Rng restored(7);  // different seed: state must come from the snapshot
    StateReader in(out.buffer());
    SnapshotAccess::fields(in, restored);
    in.require_done();
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(original.uniform(0.0, 1.0), restored.uniform(0.0, 1.0))
          << "position " << position << " draw " << i;
    }
  }
}

// An engine's record: 312 state words and the position, 8 bytes each.
constexpr std::size_t kRngBytes = (Mt19937_64::kStateWords + 1) * 8;

TEST(Snapshot, RngStateIsWordsAndPosition) {
  Rng rng(42);
  for (int i = 0; i < 100; ++i) rng.engine()();
  StateWriter out;
  SnapshotAccess::fields(out, rng);
  ASSERT_EQ(out.buffer().size(), kRngBytes);
  const Mt19937_64::State& state = rng.engine().state();
  EXPECT_EQ(std::memcmp(out.buffer().data(), state.words.data(),
                        sizeof(state.words)),
            0);
  StateReader in(std::string_view(out.buffer()).substr(sizeof(state.words)));
  std::uint64_t position = 0;
  in.u64(position);
  EXPECT_EQ(position, 100u);
}

TEST(Snapshot, TruncatedRngStateThrowsAtEveryLength) {
  StateWriter out;
  SnapshotAccess::fields(out, Rng(3));
  for (std::size_t len = 0; len < kRngBytes; ++len) {
    Rng rng(1);
    StateReader in(std::string_view(out.buffer()).substr(0, len));
    EXPECT_THROW(SnapshotAccess::fields(in, rng), Error) << len;
  }
}

TEST(Snapshot, CorruptRngStateThrows) {
  StateWriter past_end;
  const std::vector<std::uint64_t> words(Mt19937_64::kStateWords, 1u);
  past_end.array(words.data(), words.size());
  past_end.u64(313);
  Rng rng(1);
  StateReader in_past_end(past_end.buffer());
  EXPECT_THROW(SnapshotAccess::fields(in_past_end, rng), Error);

  StateWriter all_zero;
  const std::vector<std::uint64_t> zeros(Mt19937_64::kStateWords, 0u);
  all_zero.array(zeros.data(), zeros.size());
  all_zero.u64(0);
  StateReader in_all_zero(all_zero.buffer());
  EXPECT_THROW(SnapshotAccess::fields(in_all_zero, rng), Error);

  // Neither rejected state was taken.
  Rng fresh(1);
  EXPECT_EQ(rng.engine()(), fresh.engine()());
}

TEST(Snapshot, MatrixRoundTrip) {
  nn::Matrix m(3, 4);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(i) * 0.25f;
  }
  StateWriter out;
  SnapshotAccess::fields(out, m);
  StateReader in(out.buffer());
  nn::Matrix back;
  SnapshotAccess::fields(in, back);
  in.require_done();
  ASSERT_EQ(back.rows(), 3u);
  ASSERT_EQ(back.cols(), 4u);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(back.data()[i], m.data()[i]);
  }
}

TEST(Snapshot, ImplausibleMatrixDimsThrow) {
  // A corrupt dimension pair claiming more floats than bytes remain must
  // be rejected before allocation.
  StateWriter out;
  out.u64(1ull << 32);
  out.u64(1ull << 32);
  StateReader in(out.buffer());
  nn::Matrix m;
  EXPECT_THROW(SnapshotAccess::fields(in, m), Error);
}

TEST(Snapshot, RunningStatsRoundTrip) {
  RunningStats stats;
  for (double x : {1.0, 2.5, -3.0, 7.25}) stats.add(x);
  StateWriter out;
  SnapshotAccess::fields(out, stats);
  RunningStats back;
  StateReader in(out.buffer());
  SnapshotAccess::fields(in, back);
  in.require_done();
  EXPECT_EQ(back.count(), stats.count());
  EXPECT_EQ(back.mean(), stats.mean());
  EXPECT_EQ(back.variance(), stats.variance());
  EXPECT_EQ(back.min(), stats.min());
  EXPECT_EQ(back.max(), stats.max());
  back.add(10.0);
  stats.add(10.0);
  EXPECT_EQ(back.mean(), stats.mean());  // continues identically
}

TEST(Snapshot, AppSpecRoundTrip) {
  const AppSpec& app = AppDatabase::instance().by_name("swaptions");
  StateWriter out;
  SnapshotAccess::fields(out, app);
  StateReader in(out.buffer());
  AppSpec back;
  SnapshotAccess::fields(in, back);
  in.require_done();
  EXPECT_EQ(back.name, app.name);
  EXPECT_EQ(back.used_for_training, app.used_for_training);
  ASSERT_EQ(back.num_phases(), app.num_phases());
  EXPECT_EQ(back.total_instructions(), app.total_instructions());
  for (std::size_t i = 0; i < app.num_phases(); ++i) {
    EXPECT_EQ(back.phase(i).name, app.phase(i).name);
    EXPECT_EQ(back.phase(i).instructions, app.phase(i).instructions);
  }
}

// --- simulator restore ---------------------------------------------------

class SimRestoreTest : public ::testing::Test {
 protected:
  PlatformSpec platform_ = PlatformSpec::hikey970();

  /// Same configuration for every sim: the restore contract.
  std::unique_ptr<SystemSim> make_sim() const {
    SimConfig config;
    config.integrator = ThermalIntegrator::Exponential;
    config.seed = 17;
    return std::make_unique<SystemSim>(platform_, CoolingConfig::fan(),
                                       config);
  }

  /// A sim running `apps` (app i on core `cores[i]`), stepped `ticks` times.
  std::unique_ptr<SystemSim> running_sim(const std::vector<std::string>& apps,
                                         const std::vector<CoreId>& cores,
                                         std::size_t ticks) const {
    std::unique_ptr<SystemSim> sim = make_sim();
    for (std::size_t i = 0; i < apps.size(); ++i) {
      sim->spawn(AppDatabase::instance().by_name(apps[i]), 1e8, cores[i]);
    }
    for (std::size_t t = 0; t < ticks; ++t) sim->step();
    return sim;
  }

  static std::string snapshot(const SystemSim& sim) {
    StateWriter out;
    SnapshotAccess::fields(out, sim);
    return out.take_buffer();
  }

  static void restore(const std::string& bytes, SystemSim& sim) {
    StateReader in(bytes);
    SnapshotAccess::fields(in, sim);
    in.require_done();
  }

  /// Chained digest of `ticks` further steps, plus the final node temps.
  static std::pair<std::uint64_t, std::vector<double>> run_digest(
      SystemSim& sim, std::size_t ticks) {
    validate::TraceDigest digest;
    for (std::size_t t = 0; t < ticks; ++t) {
      sim.step();
      digest.absorb(validate::tick_state_digest(sim));
    }
    return {digest.value(), sim.thermal().node_temps_c()};
  }

  /// Restoring `bytes` into a fresh sim must fail with `message`.
  void expect_restore_rejected(const std::string& bytes,
                               const std::string& message) const {
    std::unique_ptr<SystemSim> sim = make_sim();
    try {
      restore(bytes, *sim);
      ADD_FAILURE() << "restore accepted a snapshot it must reject";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
};

/// Byte offsets of fields in the record of a one-process snapshot, found
/// by re-encoding the record's leading fields in SnapshotAccess's order.
struct ProcessRecordLayout {
  std::size_t perf_rows_at = 0;    ///< phase 0's perf-row count (u64)
  std::size_t phase_index_at = 0;  ///< u64
  std::size_t finished_at = 0;     ///< bool (u8)
};

ProcessRecordLayout locate_process_record(const std::string& bytes,
                                          const Process& proc) {
  // The process section is the snapshot's last one.
  const std::size_t section = bytes.rfind("PRC ");
  EXPECT_NE(section, std::string::npos);
  const AppSpec& app = proc.app();
  StateWriter head;
  head.tag("PRC ");
  head.u64(1);
  head.u64(proc.pid());
  head.str(app.name);
  head.boolean(app.used_for_training);
  head.u64(app.phases.size());
  head.str(app.phases[0].name);
  head.f64(app.phases[0].instructions);
  head.f64(app.phases[0].l2d_per_inst);
  StateWriter record;
  record.tag("PRC ");
  record.u64(1);
  record.u64(proc.pid());
  SnapshotAccess::fields(record, app);
  record.f64(proc.qos_target_ips());
  record.u64(proc.core());
  record.f64(proc.arrival_time());

  ProcessRecordLayout at;
  at.perf_rows_at = section + head.buffer().size();
  at.phase_index_at = section + record.buffer().size();
  // phase_index, then phase_insts_done, instructions and l2d_accesses.
  at.finished_at = at.phase_index_at + 8 + 3 * 8;
  return at;
}

std::uint64_t read_u64(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

void write_u64(std::string& bytes, std::size_t at, std::uint64_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof(v));
}

// The tick keeps its run queues and per-core buffers in the simulator.
// Restoring into a sim that already ran — other processes, but the same
// next pid and process count, so nothing keyed on those two can notice
// the swap — must continue exactly like a fresh sim given the snapshot.
TEST_F(SimRestoreTest, RestoreIntoUsedSimMatchesFreshRestore) {
  const std::unique_ptr<SystemSim> a =
      running_sim({"swaptions", "canneal"}, {5, 1}, 150);
  const std::unique_ptr<SystemSim> b =
      running_sim({"x264", "blackscholes"}, {0, 6}, 80);
  ASSERT_EQ(a->running_pids(), b->running_pids());
  const std::string bytes = snapshot(*a);

  restore(bytes, *b);
  const std::unique_ptr<SystemSim> fresh = make_sim();
  restore(bytes, *fresh);

  const auto used = run_digest(*b, 300);
  const auto reference = run_digest(*fresh, 300);
  EXPECT_EQ(used.first, reference.first);
  EXPECT_EQ(used.second, reference.second);
  // And both continue the original run.
  EXPECT_EQ(run_digest(*a, 300).first, reference.first);
}

TEST_F(SimRestoreTest, RejectsProcessWithoutPerfRowPerCluster) {
  const std::unique_ptr<SystemSim> sim = running_sim({"swaptions"}, {4}, 20);
  std::string bytes = snapshot(*sim);
  const ProcessRecordLayout at =
      locate_process_record(bytes, sim->process(1));
  ASSERT_EQ(read_u64(bytes, at.perf_rows_at), 2u);
  // Drop phase 0's second perf row: the record still parses.
  write_u64(bytes, at.perf_rows_at, 1);
  bytes.erase(at.perf_rows_at + 8 + 3 * 8, 3 * 8);
  expect_restore_rejected(bytes, "no perf data for every cluster");
}

TEST_F(SimRestoreTest, RejectsPhaseIndexPastLastPhase) {
  const std::unique_ptr<SystemSim> sim = running_sim({"swaptions"}, {4}, 20);
  std::string bytes = snapshot(*sim);
  const Process& proc = sim->process(1);
  const ProcessRecordLayout at = locate_process_record(bytes, proc);
  ASSERT_EQ(read_u64(bytes, at.phase_index_at), proc.current_phase_index());
  write_u64(bytes, at.phase_index_at, proc.app().phases.size());
  expect_restore_rejected(bytes, "phase index past its last phase");
}

TEST_F(SimRestoreTest, RejectsFinishedProcess) {
  const std::unique_ptr<SystemSim> sim = running_sim({"swaptions"}, {4}, 20);
  std::string bytes = snapshot(*sim);
  const ProcessRecordLayout at =
      locate_process_record(bytes, sim->process(1));
  ASSERT_EQ(bytes[at.finished_at], 0);
  bytes[at.finished_at] = 1;
  expect_restore_rejected(bytes, "finished process");
}

// Times 8, a completed-process count of 2^61 + 1 wraps to 8: a bound by
// multiplication would let it through to size the record vector.
TEST_F(SimRestoreTest, RejectsCompletedCountThatWrapsWhenMultiplied) {
  const std::unique_ptr<SystemSim> sim = running_sim({"swaptions"}, {4}, 5);
  std::string bytes = snapshot(*sim);
  // The metrics section: tag, time-weighted temperature average (two
  // bools, four f64), peak temperature, its flag, the cluster count and
  // every cluster's per-level CPU times, then the completed count.
  std::size_t at = bytes.find("MET ") + 4 + (2 + 4 * 8) + 8 + 1 + 8;
  for (ClusterId c = 0; c < platform_.num_clusters(); ++c) {
    at += 8 + 8 * platform_.cluster(c).vf.num_levels();
  }
  ASSERT_EQ(read_u64(bytes, at), 0u);
  write_u64(bytes, at, (std::uint64_t{1} << 61) + 1);
  expect_restore_rejected(bytes, "implausible");
}

}  // namespace
}  // namespace topil::persist
