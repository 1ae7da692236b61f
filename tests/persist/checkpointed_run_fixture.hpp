#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "apps/app_database.hpp"
#include "core/experiment.hpp"
#include "governors/topil_governor.hpp"
#include "il/features.hpp"
#include "scenario/scenario_spec.hpp"
#include "validate/digest_monitor.hpp"
#include "workloads/generator.hpp"

// The device of the checkpointed-run tests: a HiKey970 running six mixed
// apps under a governor chosen by name.
namespace topil::persist {
namespace {

class CheckpointedRunTest : public ::testing::Test {
 protected:
  PlatformSpec platform_ = PlatformSpec::hikey970();

  Workload workload() const {
    const WorkloadGenerator generator(platform_);
    WorkloadGenerator::MixedConfig wc;
    wc.num_apps = 6;
    wc.arrival_rate_per_s = 0.2;
    wc.seed = 3;
    return generator.mixed(wc, AppDatabase::instance().mixed_pool());
  }

  ExperimentConfig run_config(double duration_s) const {
    ExperimentConfig config;
    config.sim.seed = 17;
    config.max_duration_s = duration_s;
    return config;
  }

  std::unique_ptr<Governor> governor(const std::string& name) const {
    if (name == "topil") {
      // Untrained policy: determinism (not quality) is under test, and a
      // TopIlGovernor exercises the DVFS and in-flight batch snapshot path.
      nn::Topology topo;
      topo.inputs = il::FeatureExtractor(platform_).num_features();
      topo.outputs = platform_.num_cores();
      topo.hidden = {8, 8};
      nn::Mlp policy(topo);
      policy.init(19);
      return std::make_unique<TopIlGovernor>(
          il::IlPolicyModel(std::move(policy), platform_));
    }
    return scenario::make_scenario_governor(name, platform_, 23);
  }

  std::uint64_t golden_digest(const std::string& name, double duration_s) {
    validate::DigestMonitor monitor;
    ExperimentConfig config = run_config(duration_s);
    config.monitor = &monitor;
    const auto gov = governor(name);
    run_experiment(platform_, *gov, workload(), config);
    return monitor.digest();
  }
};

}  // namespace
}  // namespace topil::persist
