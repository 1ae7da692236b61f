// Reproduces the run-time overhead figure: CPU time consumed per second by
// the DVFS control loop (16 invocations/s, cost grows with the number of
// managed applications) and by the migration policy (2 invocations/s, cost
// nearly constant thanks to parallel batched NPU inference), for varying
// numbers of running applications. Also contrasts the modeled NPU batch
// latency against single-thread CPU inference.

#include <cstdio>
#include <iostream>

#include "common/csv.hpp"
#include "core/experiment.hpp"
#include "governors/topil_governor.hpp"
#include "npu/npu_cost_model.hpp"
#include "support/bench_support.hpp"
#include "validate/invariant_checker.hpp"

namespace topil::bench {
namespace {

void run(const BenchOptions& options) {
  print_header("Fig. 11", "Run-time overhead of TOP-IL vs. #applications");
  const PlatformSpec& platform = hikey970_platform();

  // A long-running synthetic app so the population stays constant.
  const AppSpec app = make_single_phase_app(
      "steady", 1e14, {2.5, 0.2, 0.9}, {1.4, 0.1, 1.0}, 0.015, false);

  TextTable table({"#apps", "DVFS loop [ms/s]", "migration [ms/s]",
                   "per DVFS invocation [ms]", "per migration epoch [ms]",
                   "total overhead [% of one core]"});
  CsvWriter csv(results_dir() + "/fig11_overhead.csv",
                {"apps", "dvfs_ms_per_s", "migration_ms_per_s",
                 "total_percent"});

  const double horizon = 30.0;
  for (std::size_t n_apps : {1u, 2u, 4u, 8u, 12u, 16u}) {
    il::IlPolicyModel model = PolicyCache::instance().il_model(0);
    TopIlGovernor governor(std::move(model));

    SimConfig sim_config;
    sim_config.seed = 3;
    sim_config.integrator = options.integrator;
    sim_config.validate = options.validate;
    SystemSim sim(platform, CoolingConfig::fan(), sim_config);
    // Direct SystemSim loop (no run_experiment), so attach by hand.
    validate::InvariantChecker checker{validate::ValidationConfig{}};
    if (options.validate) sim.attach_monitor(&checker);
    governor.reset(sim);
    for (std::size_t i = 0; i < n_apps; ++i) {
      sim.spawn(app, 1e8, i % platform.num_cores());
    }
    while (sim.now() < horizon) {
      governor.tick(sim);
      sim.step();
    }

    const double dvfs_ms = 1e3 * sim.metrics().overhead_s("dvfs") / horizon;
    const double mig_ms =
        1e3 * sim.metrics().overhead_s("migration") / horizon;
    const double dvfs_per_inv = dvfs_ms / 20.0;   // 20 invocations per s
    const double mig_per_inv = mig_ms / 2.0;      // 2 invocations per s
    const double total_pct = (dvfs_ms + mig_ms) / 10.0;  // of one core

    table.add_row({std::to_string(n_apps), TextTable::fmt(dvfs_ms, 2),
                   TextTable::fmt(mig_ms, 2),
                   TextTable::fmt(dvfs_per_inv, 3),
                   TextTable::fmt(mig_per_inv, 2),
                   TextTable::fmt(total_pct, 2)});
    csv.add_row({std::to_string(n_apps), TextTable::fmt(dvfs_ms, 3),
                 TextTable::fmt(mig_ms, 3), TextTable::fmt(total_pct, 3)});
  }
  csv.close();
  table.print(std::cout);

  std::printf("\nNN inference latency, NPU batch vs. CPU single-thread:\n");
  TextTable lat({"batch (apps)", "NPU [ms]", "CPU [ms]"});
  const npu::NpuCostModel npu_model;
  const npu::CpuInferenceModel cpu_model;
  const nn::Topology policy{21, {64, 64, 64, 64}, 8};
  const double macs = 21.0 * 64 + 3 * 64.0 * 64 + 64.0 * 8;
  for (std::size_t batch : {1u, 4u, 8u, 16u}) {
    lat.add_row({std::to_string(batch),
                 TextTable::fmt(1e3 * npu_model.latency_s(policy, batch), 2),
                 TextTable::fmt(1e3 * cpu_model.latency_s(batch, macs), 2)});
  }
  lat.print(std::cout);
  std::printf(
      "\nExpected shape (paper): DVFS-loop cost grows with #apps (perf "
      "reads);\nmigration cost is nearly constant (NPU batch); total <= "
      "~1.7%% of one core.\nCSV: %s/fig11_overhead.csv\n",
      results_dir().c_str());
}

}  // namespace
}  // namespace topil::bench

int main(int argc, char** argv) {
  topil::bench::run(topil::bench::parse_bench_args(argc, argv));
  return 0;
}
