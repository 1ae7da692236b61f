// Microbenchmarks of the substrate (google-benchmark): NN inference,
// fp16 compilation, thermal network stepping and building, full simulator
// ticks, the per-tick state digest and a device's checkpoint record.
// These quantify why the runtime governor is cheap and why design-time
// trace collection can afford thousands of steady-state solves.

#include <benchmark/benchmark.h>

#include "apps/app_database.hpp"
#include "common/cpu_dispatch.hpp"
#include "common/parallel_for.hpp"
#include "il/trace_collector.hpp"
#include "nn/simd_kernels.hpp"
#include "npu/compiled_model.hpp"
#include "persist/crc32.hpp"
#include "persist/snapshot.hpp"
#include "server/device_scenario.hpp"
#include "sim/system_sim.hpp"
#include "thermal/rc_network.hpp"
#include "validate/state_digest.hpp"

namespace {

using namespace topil;

nn::Mlp policy_network() {
  nn::Topology topo;
  topo.inputs = 21;
  topo.hidden = {64, 64, 64, 64};
  topo.outputs = 8;
  nn::Mlp model(topo);
  model.init(1);
  return model;
}

void BM_PolicyInferenceCpu(benchmark::State& state) {
  const nn::Mlp model = policy_network();
  const auto batch_rows = static_cast<std::size_t>(state.range(0));
  nn::Matrix batch(batch_rows, 21, 0.3f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(batch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PolicyInferenceCpu)->Arg(1)->Arg(4)->Arg(16);

/// False, with the run marked skipped, where this CPU cannot run `isa`.
bool runs_variant(benchmark::State& state, SimdIsa isa) {
  if (cpu_supports(isa)) return true;
  state.SkipWithError("this CPU cannot run the variant");
  return false;
}

// One hidden layer of the policy net (64 -> 64, ReLU) over a 128-row
// training batch on one instruction-set variant: Arg 0 = 0 baseline
// (4 floats per vector), 1 avx2 (8), 2 avx512f (16).
void BM_DenseForwardIsa(benchmark::State& state) {
  const auto isa = static_cast<SimdIsa>(state.range(0));
  if (!runs_variant(state, isa)) return;
  constexpr std::size_t kRows = 128;
  constexpr std::size_t kWidth = 64;
  const std::vector<float> x(kRows * kWidth, 0.3f);
  const std::vector<float> w(kWidth * kWidth, -0.02f);
  const std::vector<float> bias(kWidth, 0.1f);
  std::vector<float> out(kRows * kWidth);
  for (auto _ : state) {
    nn::dense_forward_simd(x.data(), kRows, kWidth, w.data(), bias.data(),
                           kWidth, out.data(), true, isa);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRows));
}
BENCHMARK(BM_DenseForwardIsa)->DenseRange(0, 2);

void BM_Fp16Compile(benchmark::State& state) {
  const nn::Mlp model = policy_network();
  for (auto _ : state) {
    benchmark::DoNotOptimize(npu::CompiledModel::compile(model));
  }
}
BENCHMARK(BM_Fp16Compile);

// Arg 0 = Heun reference, Arg 1 = exponential propagator.
ThermalIntegrator integrator_arg(const benchmark::State& state,
                                 std::size_t index) {
  return state.range(static_cast<int>(index)) == 0
             ? ThermalIntegrator::Heun
             : ThermalIntegrator::Exponential;
}

void BM_ThermalStep(benchmark::State& state) {
  const PlatformSpec platform = PlatformSpec::hikey970();
  const Floorplan fp = Floorplan::for_platform(platform);
  ThermalModel thermal(platform, fp, CoolingConfig::fan(),
                       integrator_arg(state, 0));
  const PowerModel power_model(platform);
  const PowerBreakdown power = power_model.compute(
      {4, 4}, std::vector<double>(8, 0.7), std::vector<double>(8, 45.0),
      false);
  for (auto _ : state) {
    thermal.step(power, 0.01);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ThermalStep)->Arg(0)->Arg(1);

Floorplan grid_floorplan(std::int64_t grid) {
  FloorplanParams params;
  params.package_grid = static_cast<std::size_t>(grid);
  return Floorplan::for_platform(PlatformSpec::hikey970(), params);
}

RCNetwork grid_network(std::int64_t grid) {
  return RCNetwork(ThermalModel::network_inputs(grid_floorplan(grid),
                                                CoolingConfig::fan()));
}

// Batched steps of `lanes` lanes in node-major slabs with power only on
// heat-input rows — the exact layout the fleet engine feeds step_batched.
void step_slab(benchmark::State& state, const Floorplan& fp,
               const ThermalPropagator& prop, std::size_t lanes) {
  const std::size_t n = prop.num_nodes();
  std::vector<double> temps(n * lanes, 45.0);
  std::vector<double> power(n * lanes, 0.0);
  const std::vector<double> ambient(lanes, 25.0);
  for (std::size_t s = 0; s < lanes; ++s) {
    for (const std::size_t node : fp.core_nodes) {
      power[node * lanes + s] = 1.5;
    }
    power[fp.npu_node * lanes + s] = 0.8;
  }
  ThermalPropagator::BatchWorkspace ws;
  for (auto _ : state) {
    prop.step_batched(temps, power, ambient, lanes, ws);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes));
}

// The fleet engine's thermal kernel in isolation: per-lane scalar matvec
// stepping vs one batched matrix-matrix sweep over the same lanes.
// Arg 0 = package grid (1 = classic 13-node network, 12 = the 156-node
// spreader grid of the fleet headline bench), Arg 1 = lane width,
// Arg 2 = 0 scalar loop / 1 batched slab on the widest variant the CPU
// runs. Items are lane-ticks, so items/sec compares directly across widths
// and grids. The 43- and 64-lane batched steps are BM_ThermalSlabStepIsa's
// rows.
void BM_ThermalSlabStep(benchmark::State& state) {
  const Floorplan fp = grid_floorplan(state.range(0));
  const RCNetwork net(ThermalModel::network_inputs(fp, CoolingConfig::fan()));
  const std::size_t lanes = static_cast<std::size_t>(state.range(1));
  const ThermalPropagator prop(net, 0.01);
  if (state.range(2) != 0) {
    step_slab(state, fp, prop, lanes);
    return;
  }
  // Contiguous per-lane vectors — the memory layout and arithmetic of the
  // scalar simulator path.
  const std::size_t n = net.num_nodes();
  std::vector<std::vector<double>> lane_t(lanes, std::vector<double>(n, 45.0));
  std::vector<std::vector<double>> lane_p(lanes, std::vector<double>(n, 0.0));
  for (std::size_t s = 0; s < lanes; ++s) {
    for (const std::size_t node : fp.core_nodes) lane_p[s][node] = 1.5;
    lane_p[s][fp.npu_node] = 0.8;
  }
  ThermalPropagator::Workspace ws;
  for (auto _ : state) {
    for (std::size_t s = 0; s < lanes; ++s) {
      prop.step(lane_t[s], lane_p[s], 25.0, ws);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_ThermalSlabStep)
    ->Args({1, 1, 0})
    ->Args({1, 64, 0})
    ->Args({12, 1, 0})
    ->Args({12, 64, 0})
    ->Args({12, 16, 1})
    ->Args({12, 8, 1})
    ->Args({12, 1, 1});

// The batched slab step on one instruction-set variant: Arg 0 = package
// grid, Arg 1 = lane width, Arg 2 = 0 baseline (2 doubles per vector),
// 1 avx2 (4), 2 avx512f (8). BM_ThermalSlabStep/<grid>/64/0 times the
// same 64 lanes stepped one by one.
void BM_ThermalSlabStepIsa(benchmark::State& state) {
  const auto isa = static_cast<SimdIsa>(state.range(2));
  if (!runs_variant(state, isa)) return;
  const Floorplan fp = grid_floorplan(state.range(0));
  const ThermalPropagator prop(
      RCNetwork(ThermalModel::network_inputs(fp, CoolingConfig::fan())), 0.01,
      isa);
  step_slab(state, fp, prop, static_cast<std::size_t>(state.range(1)));
}
BENCHMARK(BM_ThermalSlabStepIsa)
    ->ArgsProduct({{1, 12}, {43, 64}, {0, 1, 2}});

// The one-time build of an exponential propagator, most of a fleet's
// set-up: the Jacobi eigendecomposition of the scaled network and the
// A/B/k assembly. Arg 0 = package grid (1, 6, 12: 13, 49 and 156 nodes).
void BM_PropagatorBuild(benchmark::State& state) {
  const RCNetwork net = grid_network(state.range(0));
  for (auto _ : state) {
    ThermalPropagator prop(net, 0.01);
    benchmark::DoNotOptimize(prop);
  }
}
BENCHMARK(BM_PropagatorBuild)
    ->Arg(1)
    ->Arg(6)
    ->Arg(12)
    ->Unit(benchmark::kMillisecond);

// The same build on one instruction-set variant: Arg 1 = 0 baseline (2
// doubles per vector), 1 avx2 (4). Skipped where the CPU cannot run the
// variant.
void BM_PropagatorBuildIsa(benchmark::State& state) {
  const auto isa = static_cast<SimdIsa>(state.range(1));
  if (!runs_variant(state, isa)) return;
  const RCNetwork net = grid_network(state.range(0));
  for (auto _ : state) {
    ThermalPropagator prop(net, 0.01, isa);
    benchmark::DoNotOptimize(prop);
  }
}
BENCHMARK(BM_PropagatorBuildIsa)
    ->Args({12, 0})
    ->Args({12, 1})
    ->Unit(benchmark::kMillisecond);

// What a fleet lane's thermal model costs once set-up has built the
// network's propagator: the model plus its propagator_for(tick).
// Arg 0 = package grid.
void BM_ThermalModelBuild(benchmark::State& state) {
  const PlatformSpec platform = PlatformSpec::hikey970();
  FloorplanParams params;
  params.package_grid = static_cast<std::size_t>(state.range(0));
  const Floorplan fp = Floorplan::for_platform(platform, params);
  const auto build = [&] {
    ThermalModel model(platform, fp, CoolingConfig::fan(),
                       ThermalIntegrator::Exponential);
    benchmark::DoNotOptimize(model.propagator_for(0.01));
  };
  build();  // set-up
  for (auto _ : state) build();
}
BENCHMARK(BM_ThermalModelBuild)
    ->Arg(1)
    ->Arg(12)
    ->Unit(benchmark::kMicrosecond);

void BM_ThermalSteadyState(benchmark::State& state) {
  const PlatformSpec platform = PlatformSpec::hikey970();
  const Floorplan fp = Floorplan::for_platform(platform);
  const ThermalModel thermal(platform, fp, CoolingConfig::fan());
  const PowerModel power_model(platform);
  const PowerBreakdown power = power_model.compute(
      {4, 4}, std::vector<double>(8, 0.7), std::vector<double>(8, 45.0),
      false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(thermal.steady_state(power));
  }
}
BENCHMARK(BM_ThermalSteadyState);

void BM_SimulatorTick(benchmark::State& state) {
  const PlatformSpec platform = PlatformSpec::hikey970();
  SimConfig config;
  config.integrator = integrator_arg(state, 1);
  SystemSim sim(platform, CoolingConfig::fan(), config);
  const auto n_apps = static_cast<std::size_t>(state.range(0));
  const AppSpec app = make_single_phase_app(
      "steady", 1e18, {2.5, 0.2, 0.9}, {1.4, 0.1, 1.0}, 0.015, false);
  for (std::size_t i = 0; i < n_apps; ++i) {
    sim.spawn(app, 1e8, i % platform.num_cores());
  }
  for (auto _ : state) {
    sim.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorTick)
    ->Args({1, 0})
    ->Args({8, 0})
    ->Args({16, 0})
    ->Args({1, 1})
    ->Args({8, 1})
    ->Args({16, 1});

scenario::MaterializedScenario device_scenario(std::size_t package_grid) {
  scenario::MaterializedScenario mat = scenario::materialize(
      server::make_device_scenario(1, 0, server::DeviceScenarioOptions{}));
  mat.sim.floorplan.package_grid = package_grid;
  return mat;
}

// A make_device_scenario device with its 3 apps running, 1 s in. Package
// grid 1 is its 13-node network, 12 the 156-node 12x12 spreader grid.
struct RunningDevice {
  explicit RunningDevice(std::size_t package_grid)
      : mat(device_scenario(package_grid)),
        sim(mat.platform, mat.cooling, mat.sim) {
    const std::vector<WorkloadItem>& items = mat.workload.items();
    for (std::size_t i = 0; i < items.size(); ++i) {
      sim.spawn(Workload::app_of(items[i]), items[i].qos_target_ips,
                i % mat.platform.num_cores());
    }
    sim.run_for(1.0);
  }

  scenario::MaterializedScenario mat;
  SystemSim sim;
};

// The per-tick state digest every DigestMonitor (one per served device)
// takes. Arg 0 = package grid.
void BM_TickStateDigest(benchmark::State& state) {
  const RunningDevice device(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate::tick_state_digest(device.sim));
  }
  state.counters["nodes"] =
      static_cast<double>(device.sim.thermal().node_temps_c().size());
  state.counters["processes"] = static_cast<double>(device.sim.num_running());
}
BENCHMARK(BM_TickStateDigest)->Arg(1)->Arg(12);

// The simulator record a shard checkpoint holds per served device: the
// 13-node BM_TickStateDigest device through SnapshotAccess::fields.
void BM_DeviceSnapshotSave(benchmark::State& state) {
  const RunningDevice device(1);
  std::size_t bytes = 0;
  for (auto _ : state) {
    persist::StateWriter out;
    persist::SnapshotAccess::fields(out, device.sim);
    bytes = out.buffer().size();
    benchmark::DoNotOptimize(out.buffer().data());
    benchmark::ClobberMemory();
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    bytes));
}
BENCHMARK(BM_DeviceSnapshotSave);

// The checksum of WAL frames and checkpoint payloads. Arg 0 = bytes.
void BM_Crc32(benchmark::State& state) {
  const std::string data(static_cast<std::size_t>(state.range(0)), '\x5a');
  for (auto _ : state) {
    benchmark::DoNotOptimize(persist::crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_ScenarioTraceCollection(benchmark::State& state) {
  const PlatformSpec platform = PlatformSpec::hikey970();
  const il::TraceCollector collector(platform, CoolingConfig::fan(),
                                     {{}, integrator_arg(state, 0)});
  il::Scenario scenario;
  scenario.aoi = &AppDatabase::instance().by_name("seidel-2d");
  for (CoreId core : {0u, 1u, 2u, 4u, 5u, 7u}) {
    scenario.background[core] = &AppDatabase::instance().by_name("syr2k");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(collector.collect(scenario));
  }
}
BENCHMARK(BM_ScenarioTraceCollection)->Arg(0)->Arg(1);

// The blocked transposed-B matmul of the scalar reference
// (nn::dense_forward_reference) on a policy-network hidden layer (64x64)
// at inference batch sizes, with its transpose scratch reused.
void BM_MatmulBlocked(benchmark::State& state) {
  const auto batch_rows = static_cast<std::size_t>(state.range(0));
  const nn::Matrix a(batch_rows, 64, 0.3f);
  const nn::Matrix b(64, 64, 0.1f);
  nn::Matrix out;
  std::vector<float> scratch;
  for (auto _ : state) {
    a.matmul_into(b, out, scratch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MatmulBlocked)->Arg(1)->Arg(16)->Arg(64)->Arg(256);

// Fused fp16 dense forward (the production kernel) vs the scalar
// reference, over ragged shapes with tail rows/cols. Args: {rows, in, out,
// engine} with engine 0 = nn::dense_forward_reference, 1 =
// CompiledModel::infer_batched_into. Outputs are bit-identical; only
// throughput differs.
void BM_Fp16Gemm(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto in = static_cast<std::size_t>(state.range(1));
  const auto out_cols = static_cast<std::size_t>(state.range(2));
  const bool simd = state.range(3) == 1;

  nn::Topology topology;
  topology.inputs = in;
  topology.outputs = out_cols;
  nn::Mlp network(topology);
  network.init(17);
  const npu::CompiledModel compiled = npu::CompiledModel::compile(network);

  const nn::DenseLayer& layer = compiled.network().layers().front();

  nn::Matrix input(rows, in, 0.3f);
  nn::Matrix out;
  nn::InferenceWorkspace ws;
  std::vector<float> scratch;
  for (auto _ : state) {
    if (simd) {
      compiled.infer_batched_into(input, out, ws);
    } else {
      nn::dense_forward_reference(input, layer.weights(), layer.bias(), out,
                                  scratch, /*relu=*/false);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Fp16Gemm)
    ->Args({1, 21, 8, 0})
    ->Args({1, 21, 8, 1})
    ->Args({16, 64, 64, 0})
    ->Args({16, 64, 64, 1})
    ->Args({64, 64, 64, 0})
    ->Args({64, 64, 64, 1})
    ->Args({64, 33, 17, 0})
    ->Args({64, 33, 17, 1})
    ->Args({64, 61, 3, 0})
    ->Args({64, 61, 3, 1});

// Trace collection fanned out over the worker pool; Arg is the --jobs
// value (1 = the serial reference path). Outputs are bit-identical across
// job counts, so this isolates the scheduling overhead/speedup.
void BM_ParallelTraceCollection(benchmark::State& state) {
  const PlatformSpec platform = PlatformSpec::hikey970();
  const il::TraceCollector collector(platform, CoolingConfig::fan());
  const auto& db = AppDatabase::instance();
  std::vector<il::Scenario> scenarios(4);
  const char* aoi_names[] = {"seidel-2d", "heat-3d", "syr2k", "jacobi-2d"};
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    scenarios[i].aoi = &db.by_name(aoi_names[i]);
    for (CoreId core : {0u, 1u, 2u, 4u, 5u, 7u}) {
      scenarios[i].background[core] = &db.by_name("syr2k");
    }
  }
  const auto jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(collector.collect_all(scenarios, jobs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(scenarios.size()));
}
BENCHMARK(BM_ParallelTraceCollection)
    ->Arg(1)
    ->Arg(static_cast<long>(topil::default_jobs()))
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
