// Workload `design`: the paper's design-time flow at reduced scale. One
// flow builds a dataset (traces + oracle), trains the 4x64 policy network
// on it, and runs DAgger, whose second iteration rolls out the learned
// TOP-IL policy with small per-device NPU batches. nn training does most
// of the work; the server, persistence and the fleet engine stay idle.
//
// One unit runs three copies of the flow on the same inputs at once, one
// per worker thread, and ends when the last one does. Training is
// single-threaded, and on shared hosts one vCPU can run it 1.8x faster
// than another for minutes at a time; a unit that waits for three vCPUs
// reads the same whichever one of them is fast, where a single flow would
// read whatever its one vCPU gives.

#include <algorithm>
#include <array>
#include <cmath>
#include <exception>
#include <thread>

#include "core/dagger.hpp"
#include "core/training.hpp"
#include "harness.hpp"
#include "sim/system_sim.hpp"

namespace perfbench {
namespace {

using namespace topil;

/// Concurrent copies of the flow per unit, each on its own thread with
/// jobs = 1 inside.
constexpr std::size_t kFlows = 3;
/// Dataset: scenarios traced per flow, and the cap on examples drawn from
/// them. Every seed yields more than the cap, so training rows per flow
/// do not depend on the seed.
constexpr std::size_t kScenarios = 8;
constexpr std::size_t kExamples = 400;
constexpr std::size_t kEpochs = 10;
/// DAgger: iteration 0 rolls out the oracle, iteration 1 the learned
/// policy. Many early arrivals keep the number of running apps, and so
/// the labelled states per rollout, nearly the same for every seed.
constexpr std::size_t kDaggerIterations = 2;
constexpr std::size_t kRollouts = 3;
constexpr double kRolloutSeconds = 4.0;
constexpr std::size_t kRolloutApps = 6;
constexpr double kRolloutArrivalsPerSecond = 4.0;
constexpr std::size_t kDaggerEpochs = 3;

/// What one flow produced: counts and losses that must repeat exactly
/// across flows and units, and the time of each stage.
struct FlowOutput {
  std::size_t examples = 0;
  double train_loss = 0.0;  ///< best validation loss of train_on
  std::size_t epochs = 0;
  std::size_t dagger_examples = 0;
  double dagger_loss = 0.0;  ///< best validation loss of the last iteration
  double dataset_s = 0.0;
  double train_s = 0.0;
  double dagger_s = 0.0;
};

bool same_output(const FlowOutput& a, const FlowOutput& b) {
  return a.examples == b.examples && a.dagger_examples == b.dagger_examples &&
         same_bits(a.train_loss, b.train_loss) &&
         same_bits(a.dagger_loss, b.dagger_loss);
}

class Design final : public BenchWorkload {
 public:
  explicit Design(std::uint64_t seed)
      : platform_(hikey970_platform()),
        pipeline_(platform_, CoolingConfig::fan()),
        dagger_(platform_, CoolingConfig::fan()) {
    data_.num_scenarios = kScenarios;
    data_.max_examples = kExamples;
    data_.seed = derive_seed(seed, 1);
    data_.jobs = 1;
    data_.traces.integrator = ThermalIntegrator::Exponential;
    data_.trainer.max_epochs = kEpochs;
    data_.trainer.patience = kEpochs;  // fixed epochs: no early stop
    data_.trainer.seed = derive_seed(seed, 2);

    dagger_config_.iterations = kDaggerIterations;
    dagger_config_.rollouts_per_iteration = kRollouts;
    dagger_config_.rollout_duration_s = kRolloutSeconds;
    dagger_config_.workload_apps = kRolloutApps;
    dagger_config_.arrival_rate_per_s = kRolloutArrivalsPerSecond;
    dagger_config_.integrator = ThermalIntegrator::Exponential;
    dagger_config_.seed = derive_seed(seed, 3);
    dagger_config_.jobs = 1;
    dagger_config_.training.trainer.max_epochs = kDaggerEpochs;
    dagger_config_.training.trainer.patience = kDaggerEpochs;
    dagger_config_.training.trainer.seed = derive_seed(seed, 4);

    SimConfig rollout_sim;
    rollout_sim.integrator = ThermalIntegrator::Exponential;
    warm_propagator(platform_, CoolingConfig::fan(), rollout_sim);
  }

  std::size_t scenarios_per_unit() const override {
    return kFlows * (kScenarios + kDaggerIterations * kRollouts);
  }
  std::size_t workers() const override { return kFlows; }

  /// Flow 0 runs on the calling thread, so its spans are the unit's.
  void run_unit(std::size_t, Tracer* trace, Layers& layers) override {
    std::array<FlowOutput, kFlows> out;
    std::array<std::exception_ptr, kFlows> errors;
    {
      std::vector<std::thread> threads;
      for (std::size_t f = 1; f < kFlows; ++f) {
        threads.emplace_back([this, f, &out, &errors] {
          try {
            out[f] = run_flow(nullptr);
          } catch (...) {
            errors[f] = std::current_exception();
          }
        });
      }
      try {
        out[0] = run_flow(trace);
      } catch (...) {
        errors[0] = std::current_exception();
      }
      for (std::thread& t : threads) t.join();
    }
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    outputs_.insert(outputs_.end(), out.begin(), out.end());

    if (trace == nullptr) return;
    const FlowOutput& f = out[0];
    // Trainer::fit holds out round(0.2 n) rows for validation.
    const double validation_rows =
        std::max(1.0, std::round(data_.trainer.validation_fraction *
                                 static_cast<double>(f.examples)));
    const double train_rows = static_cast<double>(f.examples) - validation_rows;
    layers["il.dataset_s"] = f.dataset_s;
    layers["il.examples"] = static_cast<double>(f.examples);
    layers["nn.train_s"] = f.train_s;
    layers["nn.epochs"] = static_cast<double>(f.epochs);
    layers["nn.rows_per_s"] =
        train_rows * static_cast<double>(f.epochs) / f.train_s;
    layers["core.dagger_s"] = f.dagger_s;
    layers["core.dagger_examples"] = static_cast<double>(f.dagger_examples);
  }

  Outcome check() override {
    Outcome outcome;
    const FlowOutput& first = outputs_.front();
    if (first.examples != kExamples) {
      outcome.problems.push_back("dataset has " +
                                 std::to_string(first.examples) +
                                 " examples, expected the cap " +
                                 std::to_string(kExamples));
    }
    const std::size_t per_flow = kScenarios + kDaggerIterations * kRollouts;
    for (std::size_t i = 0; i < outputs_.size(); ++i) {
      outcome.attempted += per_flow;
      if (!same_output(outputs_[i], first)) {
        outcome.failed += per_flow;
        outcome.problems.push_back("flow " + std::to_string(i % kFlows) +
                                   " of unit " + std::to_string(i / kFlows) +
                                   " differs from flow 0 of unit 0");
      }
    }
    return outcome;
  }

 private:
  /// One design flow, timed per stage. `trace` is non-null only on the
  /// calling thread of a traced unit.
  FlowOutput run_flow(Tracer* trace) const {
    FlowOutput out;
    double t0 = wall_now_s();
    il::Dataset dataset = [&] {
      Tracer::Scope span(trace, "il.build_dataset");
      return pipeline_.build_dataset(data_);
    }();
    out.dataset_s = wall_now_s() - t0;
    out.examples = dataset.size();

    t0 = wall_now_s();
    const il::PipelineResult trained = [&] {
      Tracer::Scope span(trace, "nn.train_on");
      return pipeline_.train_on(data_, dataset);
    }();
    out.train_s = wall_now_s() - t0;
    out.train_loss = trained.train_result.best_validation_loss;
    out.epochs = trained.train_result.epochs_run;

    t0 = wall_now_s();
    const il::DaggerResult dagger = [&] {
      Tracer::Scope span(trace, "core.dagger_run");
      return dagger_.run(dagger_config_);
    }();
    out.dagger_s = wall_now_s() - t0;
    out.dagger_examples = dagger.iterations.back().total_examples;
    out.dagger_loss = dagger.iterations.back().validation_loss;
    return out;
  }

  const PlatformSpec& platform_;
  il::IlPipeline pipeline_;
  il::DaggerTrainer dagger_;
  il::PipelineConfig data_;
  il::DaggerConfig dagger_config_;
  std::vector<FlowOutput> outputs_;  ///< every flow of every unit, in order
};

}  // namespace

std::unique_ptr<BenchWorkload> make_design(std::uint64_t seed) {
  return std::make_unique<Design>(seed);
}

}  // namespace perfbench
