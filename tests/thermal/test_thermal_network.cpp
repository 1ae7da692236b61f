#include "thermal/thermal_network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/parallel_for.hpp"
#include "platform/floorplan.hpp"
#include "power/power_model.hpp"
#include "sim/system_sim.hpp"
#include "thermal/thermal_model.hpp"

namespace topil {
namespace {

PowerBreakdown busy_power(const PlatformSpec& platform) {
  const PowerModel model(platform);
  return model.compute({4, 4}, std::vector<double>(8, 0.7),
                       std::vector<double>(8, 45.0), false);
}

// A fleet's lanes: 128 simulators of one 156-node floorplan hold one
// network and one propagator, and none factors the steady-state LU while
// they only step.
TEST(ThermalNetwork, FleetLanesShareOneNetworkAndOnePropagator) {
  ThermalNetwork::clear_cache();
  const PlatformSpec platform = PlatformSpec::hikey970();
  SimConfig config;
  config.floorplan.package_grid = 12;
  config.integrator = ThermalIntegrator::Exponential;
  std::vector<std::unique_ptr<SystemSim>> sims;
  for (int lane = 0; lane < 128; ++lane) {
    sims.push_back(
        std::make_unique<SystemSim>(platform, CoolingConfig::fan(), config));
  }
  const ThermalNetwork& network = sims.front()->thermal().shared_network();
  ASSERT_EQ(network.rc().num_nodes(), 156u);
  const auto propagator = sims.front()->thermal().propagator_for(config.tick_s);
  for (auto& sim : sims) {
    EXPECT_EQ(&sim->thermal().shared_network(), &network);
    EXPECT_EQ(sim->thermal().propagator_for(config.tick_s), propagator);
    sim->step();
  }
  EXPECT_EQ(ThermalNetwork::cache_size(), 1u);
  EXPECT_EQ(ThermalPropagator::shared_cache_size(), 1u);
  EXPECT_FALSE(network.steady_solver_factored());
  ThermalNetwork::clear_cache();
}

// The steady-state LU is factored on the first steady-state solve, once
// for every model of the network.
TEST(ThermalNetwork, FactorsTheLuOnTheFirstSteadyState) {
  ThermalNetwork::clear_cache();
  const PlatformSpec platform = PlatformSpec::hikey970();
  const Floorplan fp = Floorplan::for_platform(platform);
  ThermalModel first(platform, fp, CoolingConfig::fan());
  ThermalModel second(platform, fp, CoolingConfig::fan());
  const ThermalNetwork& network = first.shared_network();
  first.step(busy_power(platform), 0.01);
  EXPECT_FALSE(network.steady_solver_factored());

  const std::vector<double> settled = first.steady_state(busy_power(platform));
  EXPECT_TRUE(network.steady_solver_factored());
  EXPECT_EQ(&second.shared_network(), &network);
  EXPECT_EQ(&second.shared_network().steady_solver(), &network.steady_solver());
  second.settle(busy_power(platform));
  EXPECT_EQ(second.node_temps_c(), settled);
  ThermalNetwork::clear_cache();
}

// Models built concurrently, each asking for its propagator and a steady
// state on first use, still build one network, one propagator and one LU.
TEST(ThermalNetwork, ConcurrentFirstUseBuildsOneOfEach) {
  ThermalNetwork::clear_cache();
  const PlatformSpec platform = PlatformSpec::hikey970();
  FloorplanParams params;
  params.package_grid = 6;
  const Floorplan fp = Floorplan::for_platform(platform, params);
  const PowerBreakdown power = busy_power(platform);
  constexpr std::size_t kModels = 32;
  std::vector<const ThermalNetwork*> networks(kModels);
  std::vector<const ThermalPropagator*> propagators(kModels);
  std::vector<const SteadyStateSolver*> solvers(kModels);
  parallel_for_indexed(kModels, 4, [&](std::size_t i) {
    const ThermalModel model(platform, fp, CoolingConfig::fan(),
                             ThermalIntegrator::Exponential);
    propagators[i] = model.propagator_for(0.01).get();
    model.steady_state(power);
    networks[i] = &model.shared_network();
    solvers[i] = &model.shared_network().steady_solver();
  });
  for (std::size_t i = 1; i < kModels; ++i) {
    EXPECT_EQ(networks[i], networks[0]) << "model " << i;
    EXPECT_EQ(propagators[i], propagators[0]) << "model " << i;
    EXPECT_EQ(solvers[i], solvers[0]) << "model " << i;
  }
  EXPECT_EQ(ThermalNetwork::cache_size(), 1u);
  EXPECT_EQ(ThermalPropagator::shared_cache_size(), 1u);
  ThermalNetwork::clear_cache();
}

// The cache key only finds candidates; exact comparison of the inputs
// decides. Two networks forced onto one key that differ in one bit of one
// conductance get different entries and different propagators.
TEST(ThermalNetwork, OneKeyDifferentNetworksGetDifferentEntries) {
  ThermalNetwork::clear_cache();
  const PlatformSpec platform = PlatformSpec::hikey970();
  const RCNetwork::Inputs inputs = ThermalModel::network_inputs(
      Floorplan::for_platform(platform), CoolingConfig::fan());
  RCNetwork::Inputs flipped = inputs;
  double& g = flipped.conductances[3].g_w_per_k;
  g = std::nextafter(g, 2.0 * g);  // one bit of the mantissa

  constexpr std::uint64_t kKey = 42;
  const auto a = ThermalNetwork::shared(inputs, kKey);
  const auto b = ThermalNetwork::shared(flipped, kKey);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(ThermalNetwork::shared(inputs, kKey), a);
  EXPECT_EQ(ThermalNetwork::shared(flipped, kKey), b);
  EXPECT_EQ(ThermalNetwork::cache_size(), 2u);
  EXPECT_NE(a->propagator(0.01)->state_matrix(),
            b->propagator(0.01)->state_matrix());
  EXPECT_EQ(ThermalPropagator::shared_cache_size(), 2u);
  ThermalNetwork::clear_cache();
}

// A network only the cache holds is found again by later models until a
// new network finds kRetained cached; that drops every such one and keeps
// the networks still in use, so a stream of distinct networks (one
// jittered floorplan per fuzz scenario) holds at most kRetained.
TEST(ThermalNetwork, DropsNetworksOnlyTheCacheHoldsOnceAFewAreCached) {
  ThermalNetwork::clear_cache();
  const PlatformSpec platform = PlatformSpec::hikey970();
  const auto floorplan = [&](std::uint64_t seed) {
    FloorplanParams params;
    params.jitter_rel = 0.05;
    params.jitter_seed = seed;
    return Floorplan::for_platform(platform, params);
  };
  const auto jittered = [&](std::uint64_t seed) {
    return ThermalModel::network_inputs(floorplan(seed), CoolingConfig::fan());
  };
  const auto held = ThermalNetwork::shared(jittered(0));
  held->propagator(0.01);
  std::vector<const ThermalNetwork*> released;
  for (std::uint64_t seed = 1; seed < ThermalNetwork::kRetained; ++seed) {
    const auto network = ThermalNetwork::shared(jittered(seed));
    network->propagator(0.01);
    released.push_back(network.get());
  }
  EXPECT_EQ(ThermalNetwork::cache_size(), ThermalNetwork::kRetained);
  EXPECT_EQ(ThermalNetwork::shared(jittered(1)).get(), released.front());
  EXPECT_EQ(ThermalPropagator::shared_cache_size(), ThermalNetwork::kRetained);

  ThermalNetwork::shared(jittered(ThermalNetwork::kRetained));
  EXPECT_EQ(ThermalNetwork::cache_size(), 2u);
  EXPECT_EQ(ThermalNetwork::shared(jittered(0)), held);
  EXPECT_EQ(ThermalPropagator::shared_cache_size(), 1u);

  for (std::uint64_t seed = 100; seed < 100 + 4 * ThermalNetwork::kRetained;
       ++seed) {
    const Floorplan fp = floorplan(seed);
    const ThermalModel model(platform, fp, CoolingConfig::fan());
    EXPECT_LE(ThermalNetwork::cache_size(), ThermalNetwork::kRetained);
  }
  EXPECT_EQ(ThermalNetwork::shared(jittered(0)), held);
  ThermalNetwork::clear_cache();
}

// Floorplan-built models and hand-built networks with the same inputs
// find the same owner.
TEST(ThermalNetwork, ModelsAndBuiltNetworksWithEqualInputsShareAnOwner) {
  ThermalNetwork::clear_cache();
  const PlatformSpec platform = PlatformSpec::hikey970();
  const Floorplan fp = Floorplan::for_platform(platform);
  const ThermalModel model(platform, fp, CoolingConfig::no_fan());
  const RCNetwork built(
      ThermalModel::network_inputs(fp, CoolingConfig::no_fan()));
  EXPECT_EQ(ThermalNetwork::shared(built.inputs()).get(),
            &model.shared_network());
  EXPECT_EQ(built.conductance_matrix(), model.network().conductance_matrix());
  EXPECT_EQ(ThermalNetwork::cache_size(), 1u);
  ThermalNetwork::clear_cache();
}

}  // namespace
}  // namespace topil
