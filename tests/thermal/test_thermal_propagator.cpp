#include "thermal/thermal_propagator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "../common/simd_isas.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "platform/floorplan.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/thermal_model.hpp"
#include "thermal/thermal_network.hpp"

namespace topil {
namespace {

RCNetwork three_node_net() {
  RCNetwork net({0.6, 2.0, 20.0}, {0.0, 0.0, 0.25});
  net.add_conductance(0, 1, 2.0);
  net.add_conductance(1, 2, 3.0);
  return net;
}

// Single node: T(t+dt) = T_ss + (T - T_ss) exp(-G/C dt) exactly.
TEST(ThermalPropagator, SingleNodeMatchesAnalyticSolution) {
  const double c = 2.0;
  const double g = 0.5;
  RCNetwork net({c}, {g});
  const double dt = 1.7;
  const ThermalPropagator prop(net, dt);

  std::vector<double> temps = {25.0};
  ThermalPropagator::Workspace ws;
  prop.step(temps, {1.0}, 25.0, ws);
  const double target = 25.0 + 1.0 / g;
  const double expected = target + (25.0 - target) * std::exp(-g / c * dt);
  EXPECT_NEAR(temps[0], expected, 1e-12);
}

// The propagator is exact for any dt: one big step equals many small ones.
TEST(ThermalPropagator, StepIsExactUnderComposition) {
  const RCNetwork net = three_node_net();
  const std::vector<double> power = {1.5, 0.3, 0.0};

  const ThermalPropagator big(net, 1.0);
  const ThermalPropagator small(net, 0.1);
  ThermalPropagator::Workspace ws;

  std::vector<double> once(3, 25.0);
  big.step(once, power, 25.0, ws);
  std::vector<double> tenfold(3, 25.0);
  for (int i = 0; i < 10; ++i) small.step(tenfold, power, 25.0, ws);

  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_NEAR(once[n], tenfold[n], 1e-9) << "node " << n;
  }
}

// Against the Heun reference at a small step the two integrators agree to
// the Heun truncation error; over a long horizon both reach steady state.
TEST(ThermalPropagator, TracksHeunWithinTruncationError) {
  const RCNetwork net = three_node_net();
  const std::vector<double> power = {1.5, 0.3, 0.0};
  const double dt = 0.01;

  const ThermalPropagator prop(net, dt);
  ThermalPropagator::Workspace ws;
  std::vector<double> exact(3, 25.0);
  std::vector<double> heun(3, 25.0);
  RCNetwork::StepWorkspace heun_ws;
  for (int i = 0; i < 2000; ++i) {
    prop.step(exact, power, 25.0, ws);
    net.step(heun, power, 25.0, dt, heun_ws);
    for (std::size_t n = 0; n < 3; ++n) {
      ASSERT_NEAR(exact[n], heun[n], 5e-3) << "tick " << i << " node " << n;
    }
  }
  // The heatsink time constant is ~80 s, so run the exact propagator far
  // past the lockstep window before checking steady-state convergence.
  for (int i = 2000; i < 100000; ++i) prop.step(exact, power, 25.0, ws);
  const auto target = net.steady_state(power, 25.0);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_NEAR(exact[n], target[n], 1e-3) << "node " << n;
  }
}

// Floating network: the zero eigenvalue must be handled exactly (phi -> dt),
// conserving total heat content.
TEST(ThermalPropagator, FloatingNetworkConservesEnergy) {
  RCNetwork net({1.0, 3.0}, {0.0, 0.0});
  net.add_conductance(0, 1, 1.0);
  const ThermalPropagator prop(net, 0.5);
  ThermalPropagator::Workspace ws;

  std::vector<double> temps = {100.0, 20.0};
  const std::vector<double> power = {0.2, 0.0};
  double heat = 1.0 * 100.0 + 3.0 * 20.0;
  for (int i = 0; i < 100; ++i) {
    prop.step(temps, power, 25.0, ws);
    heat += 0.2 * 0.5;  // injected energy accumulates in the capacitances
    ASSERT_NEAR(1.0 * temps[0] + 3.0 * temps[1], heat, 1e-6) << "step " << i;
  }
}

TEST(ThermalPropagator, ValidatesArguments) {
  const RCNetwork net = three_node_net();
  EXPECT_THROW(ThermalPropagator(net, 0.0), InvalidArgument);
  EXPECT_THROW(ThermalPropagator(net, -1.0), InvalidArgument);
  const ThermalPropagator prop(net, 0.1);
  ThermalPropagator::Workspace ws;
  std::vector<double> bad(2, 25.0);
  EXPECT_THROW(prop.step(bad, {0.0, 0.0, 0.0}, 25.0, ws), InvalidArgument);
  std::vector<double> temps(3, 25.0);
  EXPECT_THROW(prop.step(temps, {0.0}, 25.0, ws), InvalidArgument);
}

TEST(ThermalPropagator, SharedCacheReturnsSameInstancePerNetworkAndDt) {
  ThermalNetwork::clear_cache();
  const RCNetwork a = three_node_net();
  const RCNetwork b = three_node_net();  // structurally identical
  RCNetwork c = three_node_net();
  c.add_conductance(0, 2, 0.5);  // structurally different

  const auto p1 = ThermalNetwork::shared(a.inputs())->propagator(0.01);
  const auto p2 = ThermalNetwork::shared(b.inputs())->propagator(0.01);
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(ThermalPropagator::shared_cache_size(), 1u);

  const auto p3 = ThermalNetwork::shared(a.inputs())->propagator(0.02);
  EXPECT_NE(p1.get(), p3.get());
  const auto p4 = ThermalNetwork::shared(c.inputs())->propagator(0.01);
  EXPECT_NE(p1.get(), p4.get());
  EXPECT_EQ(ThermalPropagator::shared_cache_size(), 3u);

  ThermalNetwork::clear_cache();
  EXPECT_EQ(ThermalPropagator::shared_cache_size(), 0u);
}

// Two structurally identical networks built from the same (jittered)
// floorplan share one cache entry; mutating the floorplan through the
// scenario-fuzzing jitter knobs — a different seed or amplitude — must
// miss, because the perturbed capacitances/conductances differ.
TEST(ThermalPropagator, CacheSharesIdenticalFloorplansMissesOnMutation) {
  ThermalNetwork::clear_cache();
  const PlatformSpec platform = PlatformSpec::hikey970();
  const CoolingConfig cooling = CoolingConfig::fan();
  FloorplanParams params;
  params.jitter_rel = 0.05;
  params.jitter_seed = 42;
  const auto propagator = [&](const FloorplanParams& fp_params) {
    return ThermalNetwork::shared(
               ThermalModel::network_inputs(
                   Floorplan::for_platform(platform, fp_params), cooling))
        ->propagator(0.01);
  };

  const auto p1 = propagator(params);
  const auto p2 = propagator(params);
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(ThermalPropagator::shared_cache_size(), 1u);

  FloorplanParams reseeded = params;
  reseeded.jitter_seed = 43;
  const auto p3 = propagator(reseeded);
  EXPECT_NE(p1.get(), p3.get());

  FloorplanParams amplified = params;
  amplified.jitter_rel = 0.10;
  const auto p4 = propagator(amplified);
  EXPECT_NE(p1.get(), p4.get());
  EXPECT_NE(p3.get(), p4.get());
  EXPECT_EQ(ThermalPropagator::shared_cache_size(), 3u);
  ThermalNetwork::clear_cache();
}

// step_batched on grid-refined floorplans — wide slabs where most power
// rows are zero, exactly the layout the fleet engine runs — must match
// per-lane scalar stepping bit for bit on every instruction-set variant
// this CPU runs and at every width: each register-tile shape (8 to 64-lane
// blocks and their sums), the row remainder when the node count is not a
// multiple of the tile height (13 and 49 nodes), and the zero-padded tail
// that steps the last lanes % 8 columns.
// Adversarial lanes, once in the 8-lane body and once in the tail: a power
// entry of -0.0 with the kernel's zero-row fast path on, and then also a
// below-zero ambient, which turns the fast path off. Neither may change a
// single bit.
TEST(ThermalPropagator, BatchedStepBitIdenticalToScalarOnGridNetwork) {
  const PlatformSpec platform = PlatformSpec::hikey970();
  constexpr int kSteps = 10;

  for (const std::size_t grid :
       {std::size_t{1}, std::size_t{6}, std::size_t{12}}) {
    FloorplanParams params;
    params.package_grid = grid;  // 13, 49 and 156 nodes
    const Floorplan fp = Floorplan::for_platform(platform, params);
    const RCNetwork net(
        ThermalModel::network_inputs(fp, CoolingConfig::fan()));
    const std::size_t n = net.num_nodes();
    for (const SimdIsa isa : executable_isas()) {
      const ThermalPropagator prop(net, 0.01, isa);

      Rng rng(2024 + grid);
      for (const std::size_t lanes :
           {1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 33, 43, 63, 64, 65, 129}) {
        std::vector<std::size_t> marked;  // one body lane, one tail lane
        if (lanes >= 8) marked.push_back(0);
        if (lanes % 8 != 0) marked.push_back(lanes - 1);

        for (const bool sub_zero_ambient : {false, true}) {
          std::vector<double> temps(n * lanes);
          std::vector<double> power(n * lanes, 0.0);
          std::vector<double> ambient(lanes);
          for (std::size_t s = 0; s < lanes; ++s) {
            ambient[s] = rng.uniform(20.0, 30.0);
            for (std::size_t i = 0; i < n; ++i) {
              temps[i * lanes + s] = rng.uniform(25.0, 80.0);
            }
            // Only heat-input rows carry power, like the fleet slabs.
            for (const std::size_t node : fp.core_nodes) {
              power[node * lanes + s] = rng.uniform(0.0, 3.0);
            }
            power[fp.npu_node * lanes + s] = rng.uniform(0.0, 2.0);
          }
          for (const std::size_t s : marked) {
            power[fp.core_nodes[0] * lanes + s] = -0.0;  // bitwise -0.0
            if (sub_zero_ambient) ambient[s] = -5.0;
          }

          std::vector<double> batched = temps;
          ThermalPropagator::BatchWorkspace bws;
          for (int t = 0; t < kSteps; ++t) {
            prop.step_batched(batched, power, ambient, lanes, bws);
          }

          ThermalPropagator::Workspace ws;
          for (std::size_t s = 0; s < lanes; ++s) {
            std::vector<double> lane_t(n);
            std::vector<double> lane_p(n);
            for (std::size_t i = 0; i < n; ++i) {
              lane_t[i] = temps[i * lanes + s];
              lane_p[i] = power[i * lanes + s];
            }
            for (int t = 0; t < kSteps; ++t) {
              prop.step(lane_t, lane_p, ambient[s], ws);
            }
            for (std::size_t i = 0; i < n; ++i) {
              ASSERT_EQ(lane_t[i], batched[i * lanes + s])
                  << isa_name(isa) << ", " << n << " nodes, width " << lanes
                  << ", sub-zero ambient " << sub_zero_ambient << ", lane "
                  << s << ", node " << i;
            }
          }
        }
      }
    }
  }
}

// The factored solver must reproduce the historical per-call elimination
// bit for bit — same pivots, same arithmetic sequence.
TEST(SteadyStateSolver, BitIdenticalToRcNetworkSteadyState) {
  const RCNetwork net = three_node_net();
  const SteadyStateSolver solver(net);

  Rng rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> power(3);
    for (double& p : power) p = rng.uniform(0.0, 5.0);
    const double ambient = rng.uniform(20.0, 35.0);
    const auto reference = net.steady_state(power, ambient);
    const auto factored = solver.solve(power, ambient);
    ASSERT_EQ(reference.size(), factored.size());
    for (std::size_t n = 0; n < reference.size(); ++n) {
      ASSERT_EQ(reference[n], factored[n])
          << "trial " << trial << " node " << n;
    }
  }
}

TEST(SteadyStateSolver, DiagFeedbackSolvesCoupledSystem) {
  const RCNetwork net = three_node_net();
  const std::vector<double> kappa = {0.02, 0.01, 0.0};
  const SteadyStateSolver solver(net, kappa);

  const std::vector<double> power = {1.5, 0.3, 0.0};
  const double ambient = 25.0;
  const auto temps = solver.solve(power, ambient);

  // Residual check: L*T - kappa.*T == P + Gamb*ambient.
  const auto& g = net.conductance_matrix();
  const auto& row_sum = net.laplacian_row_sums();
  const auto& g_amb = net.ambient_conductances();
  for (std::size_t i = 0; i < 3; ++i) {
    double lhs = (row_sum[i] - kappa[i]) * temps[i];
    for (std::size_t j = 0; j < 3; ++j) {
      if (i != j) lhs -= g[i * 3 + j] * temps[j];
    }
    EXPECT_NEAR(lhs, power[i] + g_amb[i] * ambient, 1e-9) << "node " << i;
  }
  // Positive feedback raises temperatures above the uncoupled solution.
  const auto uncoupled = net.steady_state(power, ambient);
  EXPECT_GT(temps[0], uncoupled[0]);
}

TEST(SteadyStateSolver, RefusesFloatingNetwork) {
  RCNetwork net({1.0, 3.0}, {0.0, 0.0});
  net.add_conductance(0, 1, 1.0);
  EXPECT_THROW(SteadyStateSolver{net}, InvalidArgument);
}

// Satellite regression: a fixed topology stepped many times must run the
// O(n) stability scan exactly once; topology changes invalidate the cache.
TEST(RCNetworkStableDt, ScanRunsOncePerTopology) {
  RCNetwork net = three_node_net();
  EXPECT_EQ(net.stable_dt_scan_count(), 0u);

  std::vector<double> temps(3, 25.0);
  const std::vector<double> power = {1.5, 0.3, 0.0};
  RCNetwork::StepWorkspace ws;
  for (int i = 0; i < 10000; ++i) {
    net.step(temps, power, 25.0, 0.01, ws);
  }
  EXPECT_EQ(net.stable_dt_scan_count(), 1u);

  net.add_conductance(0, 2, 0.1);  // invalidates the cached bound
  net.step(temps, power, 25.0, 0.01, ws);
  net.step(temps, power, 25.0, 0.01, ws);
  EXPECT_EQ(net.stable_dt_scan_count(), 2u);
}

TEST(RCNetworkStableDt, CachedValueMatchesFreshScan) {
  RCNetwork net = three_node_net();
  const double before = net.max_stable_dt();
  RCNetwork fresh = three_node_net();
  EXPECT_DOUBLE_EQ(before, fresh.max_stable_dt());
  // And the cache returns the same value on repeated queries.
  EXPECT_DOUBLE_EQ(net.max_stable_dt(), before);
}

TEST(RCNetworkHash, StructuralHashDistinguishesTopologies) {
  const RCNetwork a = three_node_net();
  const RCNetwork b = three_node_net();
  EXPECT_EQ(a.inputs().hash(), b.inputs().hash());

  RCNetwork c = three_node_net();
  c.add_conductance(0, 2, 0.5);
  EXPECT_NE(a.inputs().hash(), c.inputs().hash());

  RCNetwork d({0.6, 2.0, 20.0}, {0.0, 0.0, 0.13});  // different cooling
  d.add_conductance(0, 1, 2.0);
  d.add_conductance(1, 2, 3.0);
  EXPECT_NE(a.inputs().hash(), d.inputs().hash());
}

}  // namespace
}  // namespace topil
