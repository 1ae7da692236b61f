#include "validate/state_digest.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>

#include "apps/app_model.hpp"
#include "sim/system_sim.hpp"

namespace topil::validate {
namespace {

/// The digest as first defined, one byte at a time: every entity is one
/// Fnv64 chain over (tag, key, fields), and the chains are summed. The
/// production tick_state_digest evaluates the same chains differently and
/// must return the same value.
std::uint64_t reference_tick_state_digest(const SystemSim& sim) {
  const auto keyed = [](std::uint64_t tag, std::uint64_t key, auto&& fill) {
    Fnv64 h;
    h.u64(tag);
    h.u64(key);
    fill(h);
    return h.value();
  };
  std::uint64_t combined = 0;

  const std::vector<double>& temps = sim.thermal().node_temps_c();
  for (std::size_t i = 0; i < temps.size(); ++i) {
    combined += keyed(0x01, i, [&](Fnv64& h) { h.f64(temps[i]); });
  }

  const PlatformSpec& platform = sim.platform();
  for (ClusterId c = 0; c < platform.num_clusters(); ++c) {
    combined += keyed(0x02, c, [&](Fnv64& h) {
      h.u64(sim.requested_vf_level(c));
      h.u64(sim.vf_level(c));
    });
  }

  for (Pid pid : sim.running_pids()) {
    const Process& proc = sim.process(pid);
    combined += keyed(0x03, pid, [&](Fnv64& h) {
      h.u64(proc.core());
      h.u64(proc.current_phase_index());
      h.f64(proc.instructions_retired());
      h.f64(proc.l2d_accesses());
      h.f64(proc.qos_below_time_s());
      h.f64(proc.qos_observed_time_s());
      h.u64(proc.finished() ? 1 : 0);
    });
  }

  for (const CompletedProcess& rec : sim.metrics().completed()) {
    combined += keyed(0x04, rec.pid, [&](Fnv64& h) {
      h.f64(rec.arrival_time);
      h.f64(rec.finish_time);
      h.f64(rec.average_ips);
      h.f64(rec.below_target_fraction);
      h.u64(rec.qos_violated ? 1 : 0);
    });
  }

  combined += keyed(0x05, 0, [&](Fnv64& h) {
    h.f64(sim.now());
    h.f64(sim.sensor_temp_c());
    h.u64(sim.num_running());
  });

  Fnv64 out;
  out.u64(combined);
  return out.value();
}

AppSpec steady_app() {
  return make_single_phase_app("steady", 1e13, {2.0, 0.1, 0.9},
                               {1.0, 0.05, 1.0}, 0.01, false);
}

/// Finishes within about half a simulated second on any core.
AppSpec short_app() {
  return make_single_phase_app("short", 2e8, {2.0, 0.1, 0.9},
                               {1.0, 0.05, 1.0}, 0.01, false);
}

SystemSim make_sim(const PlatformSpec& platform, std::size_t package_grid,
                   const SimConfig& base = {}) {
  SimConfig config = base;
  config.seed = 5;
  config.floorplan.package_grid = package_grid;
  return SystemSim(platform, CoolingConfig::fan(), config);
}

TEST(Fnv64Test, DistinguishesInputs) {
  Fnv64 a;
  a.u64(1);
  Fnv64 b;
  b.u64(2);
  EXPECT_NE(a.value(), b.value());
  EXPECT_NE(a.value(), Fnv64{}.value());
}

TEST(Fnv64Test, F64HashesBitPattern) {
  Fnv64 pos;
  pos.f64(0.0);
  Fnv64 neg;
  neg.f64(-0.0);
  // 0.0 == -0.0 arithmetically, but the digest must see the bit flip — a
  // sign difference in a temperature delta is a real divergence.
  EXPECT_NE(pos.value(), neg.value());
}

TEST(TraceDigestTest, TickOrderMatters) {
  TraceDigest ab;
  ab.absorb(1);
  ab.absorb(2);
  TraceDigest ba;
  ba.absorb(2);
  ba.absorb(1);
  EXPECT_NE(ab.value(), ba.value());
  EXPECT_EQ(ab.ticks(), 2u);
}

TEST(DigestHexTest, CanonicalFormat) {
  EXPECT_EQ(digest_hex(0), "0000000000000000");
  EXPECT_EQ(digest_hex(0xdeadbeef01234567ull), "deadbeef01234567");
}

class TickDigestTest : public ::testing::Test {
 protected:
  PlatformSpec platform_ = PlatformSpec::hikey970();

  SimConfig config(std::uint64_t seed) const {
    SimConfig c;
    c.seed = seed;
    return c;
  }

  AppSpec app() const {
    return make_single_phase_app("steady", 1e13, {2.0, 0.1, 0.9},
                                 {1.0, 0.05, 1.0}, 0.01, false);
  }
};

TEST_F(TickDigestTest, IdenticalRunsProduceIdenticalDigests) {
  SystemSim a(platform_, CoolingConfig::fan(), config(7));
  SystemSim b(platform_, CoolingConfig::fan(), config(7));
  a.spawn(app(), 1e8, 5);
  b.spawn(app(), 1e8, 5);
  for (int i = 0; i < 50; ++i) {
    a.step();
    b.step();
    ASSERT_EQ(tick_state_digest(a), tick_state_digest(b)) << "tick " << i;
  }
}

TEST_F(TickDigestTest, SensitiveToSeedAndPlacement) {
  SystemSim a(platform_, CoolingConfig::fan(), config(7));
  SystemSim b(platform_, CoolingConfig::fan(), config(8));
  SystemSim c(platform_, CoolingConfig::fan(), config(7));
  a.spawn(app(), 1e8, 5);
  b.spawn(app(), 1e8, 5);
  c.spawn(app(), 1e8, 2);  // same app, different core
  for (int i = 0; i < 10; ++i) {
    a.step();
    b.step();
    c.step();
  }
  // Different sensor-noise seed and different placement must both show up.
  EXPECT_NE(tick_state_digest(a), tick_state_digest(b));
  EXPECT_NE(tick_state_digest(a), tick_state_digest(c));
}

TEST_F(TickDigestTest, SensitiveToVfLevel) {
  SystemSim a(platform_, CoolingConfig::fan(), config(7));
  SystemSim b(platform_, CoolingConfig::fan(), config(7));
  b.request_vf_level(kBigCluster,
                     platform_.cluster(kBigCluster).vf.num_levels() - 1);
  a.step();
  b.step();
  EXPECT_NE(tick_state_digest(a), tick_state_digest(b));
}

// --- equivalence with the byte-at-a-time reference ---

// Args: package grid (1 = the 13-node HiKey970 network, 12 = the 156-node
// 12x12 spreader grid) and the number of processes spawned at time 0.
// Counts 0, 1, 3, 4, 5 and 9 leave every lane position of a four-chain
// group empty or filled; every other process is short, so completed
// records (up to five) appear and grow mid-run.
class DigestEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(DigestEquivalence, EqualsReferenceOnEveryTick) {
  const auto [grid, processes] = GetParam();
  const PlatformSpec platform = PlatformSpec::hikey970();
  SystemSim sim = make_sim(platform, grid);
  for (std::size_t i = 0; i < processes; ++i) {
    sim.spawn(i % 2 == 0 ? short_app() : steady_app(), 1e8,
              i % platform.num_cores());
  }
  ASSERT_EQ(tick_state_digest(sim), reference_tick_state_digest(sim));
  for (int tick = 0; tick < 300; ++tick) {
    sim.step();
    ASSERT_EQ(tick_state_digest(sim), reference_tick_state_digest(sim))
        << "tick " << tick;
  }
  EXPECT_EQ(sim.metrics().completed().size(), (processes + 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndProcessCounts, DigestEquivalence,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{12}),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{3}, std::size_t{4},
                                         std::size_t{5}, std::size_t{9})));

TEST(DigestEquivalenceTest, SignedZeroAndNanTemperatures) {
  const PlatformSpec platform = PlatformSpec::hikey970();
  SystemSim sim = make_sim(platform, 1);
  sim.spawn(steady_app(), 1e8, 4);
  sim.run_for(0.2);
  std::vector<double>& temps = sim.thermal().mutable_node_temps_c();
  const std::vector<double> saved = temps;

  temps[0] = 0.0;
  const std::uint64_t positive_zero = tick_state_digest(sim);
  EXPECT_EQ(positive_zero, reference_tick_state_digest(sim));
  temps[0] = -0.0;
  EXPECT_EQ(tick_state_digest(sim), reference_tick_state_digest(sim));
  EXPECT_NE(tick_state_digest(sim), positive_zero);

  temps[1] = std::numeric_limits<double>::quiet_NaN();
  temps[2] = -std::numeric_limits<double>::quiet_NaN();
  temps[3] = std::nan("7");  // a NaN with its own payload
  temps.back() = std::numeric_limits<double>::infinity();
  EXPECT_EQ(tick_state_digest(sim), reference_tick_state_digest(sim));
  temps = saved;
}

TEST(DigestEquivalenceTest, DtmClampedVfLevels) {
  const PlatformSpec platform = PlatformSpec::hikey970();
  SimConfig config;
  config.dtm.trip_c = 20.0;  // below ambient: throttles from the start
  config.dtm.release_c = 19.0;
  SystemSim sim = make_sim(platform, 1, config);
  for (ClusterId c = 0; c < platform.num_clusters(); ++c) {
    sim.request_vf_level(c, platform.cluster(c).vf.num_levels() - 1);
  }
  for (CoreId core = 0; core < platform.num_cores(); ++core) {
    sim.spawn(steady_app(), 1e8, core);
  }
  bool clamped = false;
  for (int tick = 0; tick < 300; ++tick) {
    sim.step();
    ASSERT_EQ(tick_state_digest(sim), reference_tick_state_digest(sim))
        << "tick " << tick;
    for (ClusterId c = 0; c < platform.num_clusters(); ++c) {
      clamped = clamped || sim.vf_level(c) != sim.requested_vf_level(c);
    }
  }
  EXPECT_TRUE(clamped) << "DTM never clamped a level; the case is untested";
}

TEST(DigestEquivalenceTest, KeysBeyondThePrecomputedPrefixes) {
  // A 16x16 grid has 268 nodes and 260 processes get pids up to 260, so
  // node and process chains start from both precomputed prefix states and
  // hashed ones.
  const PlatformSpec platform = PlatformSpec::hikey970();
  SystemSim sim = make_sim(platform, 16);
  ASSERT_GT(sim.thermal().node_temps_c().size(), 256u);
  for (std::size_t i = 0; i < 260; ++i) {
    sim.spawn(i < 250 ? short_app() : steady_app(), 1e8,
              i % platform.num_cores());
  }
  for (int tick = 0; tick < 5; ++tick) {
    sim.step();
    ASSERT_EQ(tick_state_digest(sim), reference_tick_state_digest(sim))
        << "tick " << tick;
  }
}

}  // namespace
}  // namespace topil::validate
