#include "core/dagger.hpp"

#include <sstream>

#include "common/parallel_for.hpp"
#include "core/experiment.hpp"
#include "governors/oracle_governor.hpp"
#include "governors/topil_governor.hpp"
#include "il/runtime_features.hpp"
#include "persist/training_wal.hpp"
#include "workloads/generator.hpp"

namespace topil::il {

namespace {

/// Everything one rollout owns: the labeled-capture state its observer
/// closure writes into, plus the workload and run configuration. The
/// observer captures `this`, so a context must not move once built.
struct RolloutContext {
  OnlineOracle oracle;
  FeatureExtractor features;
  Workload workload;
  ExperimentConfig run_config;
  std::vector<TrainingExample> examples;
  double next_capture = 0.5;

  RolloutContext(const PlatformSpec& platform, const CoolingConfig& cooling,
                 const DaggerConfig& config, std::uint64_t seed)
      : oracle(platform, cooling, config.alpha, config.integrator),
        features(platform) {
    // Random constant-QoS workload over the training kernels.
    const WorkloadGenerator generator(platform);
    WorkloadGenerator::MixedConfig wc;
    wc.num_apps = config.workload_apps;
    wc.arrival_rate_per_s = config.arrival_rate_per_s;
    wc.seed = seed;
    workload = generator.mixed(wc, config.app_pool.empty()
                                       ? AppDatabase::instance().training_apps()
                                       : config.app_pool);

    run_config.cooling = cooling;
    run_config.max_duration_s = config.rollout_duration_s;
    run_config.sim.seed = seed ^ 0xda66e4ull;
    run_config.sim.integrator = config.integrator;
    run_config.observer = [this](const SystemSim& sim) { observe(sim); };
  }

  void observe(const SystemSim& sim) {
    if (sim.now() + 1e-9 < next_capture) return;
    next_capture = sim.now() + 0.5;  // once per migration epoch
    const std::vector<Pid> pids = sim.running_pids();
    if (pids.empty()) return;
    const auto inputs = collect_runtime_features(sim, pids);
    const auto states = OnlineOracle::snapshot(sim);
    TOPIL_ASSERT(states.size() == inputs.size(),
                 "snapshot/feature batch mismatch");
    // All pending feature rows of this epoch go through one batched
    // extraction; each row is then paired with its oracle labels.
    const nn::Matrix batch = features.extract_batch(inputs);
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      TrainingExample example;
      example.features.assign(batch.row(k), batch.row(k) + batch.cols());
      example.labels = oracle.rate_mappings(states, k);
      examples.push_back(std::move(example));
    }
  }
};

/// Rollout governor: iteration 0 rolls out the oracle expert; later
/// iterations the latest learned policy.
std::unique_ptr<Governor> make_rollout_governor(const nn::Mlp* policy,
                                                const PlatformSpec& platform,
                                                const CoolingConfig& cooling) {
  if (policy != nullptr) {
    return std::make_unique<TopIlGovernor>(IlPolicyModel(*policy, platform));
  }
  return std::make_unique<OracleGovernor>(platform, cooling);
}

}  // namespace

std::string dagger_wal_meta(const DaggerConfig& config) {
  std::ostringstream os;
  os << "dagger:v1 it=" << config.iterations
     << " ro=" << config.rollouts_per_iteration
     << " dur=" << config.rollout_duration_s
     << " apps=" << config.workload_apps
     << " rate=" << config.arrival_rate_per_s << " alpha=" << config.alpha
     << " seed=" << config.seed
     << " integ=" << static_cast<int>(config.integrator) << " hidden=";
  for (std::size_t h : config.training.hidden) os << h << ",";
  return os.str();
}

DaggerTrainer::DaggerTrainer(const PlatformSpec& platform,
                             const CoolingConfig& cooling)
    : platform_(&platform), cooling_(cooling) {}

std::vector<TrainingExample> DaggerTrainer::collect_rollout(
    const nn::Mlp* policy, const DaggerConfig& config,
    std::uint64_t seed) const {
  RolloutContext context(*platform_, cooling_, config, seed);
  const std::unique_ptr<Governor> governor =
      make_rollout_governor(policy, *platform_, cooling_);
  run_experiment(*platform_, *governor, context.workload,
                 context.run_config);
  return std::move(context.examples);
}

DaggerResult DaggerTrainer::run(const DaggerConfig& config) const {
  TOPIL_REQUIRE(config.iterations >= 1, "need at least one iteration");
  const FeatureExtractor features(*platform_);
  const IlPipeline pipeline(*platform_, cooling_);

  Dataset aggregate(features.num_features(), platform_->num_cores());
  DaggerResult result{nn::Mlp([&] {
                        nn::Topology topo;
                        topo.inputs = features.num_features();
                        topo.outputs = platform_->num_cores();
                        topo.hidden = config.training.hidden;
                        return topo;
                      }()),
                      {}};

  std::optional<persist::TrainingWal> wal;
  std::size_t start_iteration = 0;
  if (!config.wal_path.empty()) {
    const std::string meta = dagger_wal_meta(config);
    const std::size_t fw = features.num_features();
    const std::size_t lw = platform_->num_cores();
    if (config.wal_resume) {
      persist::TrainingRecovery recovery;
      wal.emplace(
          persist::TrainingWal::resume(config.wal_path, meta, fw, lw,
                                       &recovery));
      start_iteration = recovery.iterations_completed;
      aggregate = std::move(recovery.dataset);
      for (const persist::TrainingWalIteration& it : recovery.iterations) {
        result.iterations.push_back(DaggerIterationStats{
            it.new_examples, it.total_examples, it.validation_loss});
      }
      if (recovery.model_topology) {
        const nn::Topology& topo = *recovery.model_topology;
        TOPIL_REQUIRE(topo.inputs == result.model.topology().inputs &&
                          topo.outputs == result.model.topology().outputs &&
                          topo.hidden == result.model.topology().hidden,
                      "training WAL model topology does not match");
        result.model.load_weights(recovery.model_weights);
      }
    } else {
      wal.emplace(persist::TrainingWal::create(config.wal_path, meta, fw, lw));
    }
  }

  for (std::size_t iter = start_iteration; iter < config.iterations; ++iter) {
    // Iteration 0: expert (oracle) rollouts; afterwards: the policy. The
    // rollouts of one iteration only share the immutable current policy,
    // so they fan out over the pool; each gets its index-derived seed and
    // aggregation keeps rollout order (bit-identical to serial).
    const nn::Mlp* policy = iter == 0 ? nullptr : &result.model;
    std::vector<std::vector<TrainingExample>> per_rollout = parallel_map(
        config.rollouts_per_iteration, config.jobs, [&](std::size_t r) {
          const std::uint64_t seed = config.seed + 1000 * iter + 17 * r;
          return collect_rollout(policy, config, seed);
        });
    std::size_t new_examples = 0;
    for (std::vector<TrainingExample>& examples : per_rollout) {
      new_examples += examples.size();
      if (wal) wal->append_examples(examples);
      aggregate.add_all(std::move(examples));
    }

    const PipelineResult trained =
        pipeline.train_on(config.training, aggregate);
    result.model = trained.model;

    DaggerIterationStats stats;
    stats.new_examples = new_examples;
    stats.total_examples = aggregate.size();
    stats.validation_loss = trained.train_result.best_validation_loss;
    result.iterations.push_back(stats);

    if (wal) {
      wal->append_model(result.model);
      wal->append_iteration_end(persist::TrainingWalIteration{
          iter, new_examples, aggregate.size(), stats.validation_loss});
    }
  }
  return result;
}

}  // namespace topil::il
