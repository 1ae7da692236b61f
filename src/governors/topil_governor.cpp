#include "governors/topil_governor.hpp"

#include <algorithm>

#include "il/runtime_features.hpp"
#include "persist/snapshot.hpp"
#include "sim/perf_counters.hpp"

namespace topil {

namespace {
constexpr const char* kOverheadComponent = "migration";

npu::NpuCostModel governor_cost_model(const TopIlGovernor::Config& config) {
  npu::NpuCostModel cost = npu::NpuCostModel::from_legacy(config.npu_latency);
  cost.queueing = config.npu_queueing;
  return cost;
}
}  // namespace

TopIlGovernor::TopIlGovernor(il::IlPolicyModel model)
    : TopIlGovernor(std::move(model), Config{}) {}

TopIlGovernor::TopIlGovernor(il::IlPolicyModel model, Config config)
    : model_(std::move(model)),
      config_(config),
      compiled_(npu::CompiledModel::compile(model_.network())),
      npu_(governor_cost_model(config)),
      dvfs_(config.dvfs) {
  TOPIL_REQUIRE(config.migration_period_s > 0.0,
                "migration period must be positive");
  npu_.set_aggregator(config.aggregator);
}

void TopIlGovernor::reset(SystemSim& sim) {
  dvfs_.reset(sim);
  next_migration_ = sim.now() + config_.migration_period_s;
  pending_.reset();
  epoch_deferred_ = false;
  migrations_ = 0;
  epochs_started_ = 0;
  epochs_deferred_ = 0;
}

void TopIlGovernor::start_migration_epoch(SystemSim& sim) {
  ++epochs_started_;
  const std::vector<Pid> pids = sim.running_pids();
  if (pids.empty()) return;

  sim.charge_overhead(
      kOverheadComponent,
      config_.invocation_cost_s +
          config_.per_app_cost_s * static_cast<double>(pids.size()));

  const std::vector<il::FeatureInput> inputs =
      il::collect_runtime_features(sim, pids);
  const nn::Matrix batch = model_.build_batch(inputs);

  // The NPU path requires the platform to actually have one; otherwise
  // fall back to (slower, linear-cost) CPU inference transparently.
  if (config_.use_npu && sim.platform().npu().present) {
    const auto job = npu_.submit(compiled_, batch, sim.now());
    sim.npu_busy_for(npu_.latency_s(compiled_, batch.rows()));
    pending_ = PendingJob{job, pids};
  } else {
    // CPU fallback: synchronous inference, its latency charged as CPU time.
    sim.charge_overhead(kOverheadComponent,
                        config_.cpu_inference.latency_s(
                            batch.rows(), compiled_.macs_per_row()));
    model_.network().predict_into(batch, cpu_ratings_, cpu_ws_);
    finish_migration_epoch(sim, cpu_ratings_, pids);
  }
}

void TopIlGovernor::finish_migration_epoch(SystemSim& sim,
                                           const nn::Matrix& ratings,
                                           const std::vector<Pid>& pids) {
  const PlatformSpec& platform = sim.platform();
  const std::size_t n_cores = platform.num_cores();

  // Some applications may have finished while the batch was in flight.
  std::vector<std::size_t> live_rows;
  std::vector<CoreId> current;
  for (std::size_t k = 0; k < pids.size(); ++k) {
    if (!sim.is_running(pids[k])) continue;
    live_rows.push_back(k);
    current.push_back(sim.process(pids[k]).core());
  }
  if (live_rows.empty()) return;

  nn::Matrix live_ratings(live_rows.size(), n_cores);
  for (std::size_t r = 0; r < live_rows.size(); ++r) {
    for (CoreId c = 0; c < n_cores; ++c) {
      live_ratings.at(r, c) = ratings.at(live_rows[r], c);
    }
  }

  // Allowed targets: cores not occupied by any *other* application.
  std::vector<bool> occupied(n_cores, false);
  for (Pid pid : sim.running_pids()) {
    occupied[sim.process(pid).core()] = true;
  }
  std::vector<std::vector<bool>> allowed(live_rows.size());
  for (std::size_t r = 0; r < live_rows.size(); ++r) {
    allowed[r].assign(n_cores, false);
    for (CoreId c = 0; c < n_cores; ++c) {
      allowed[r][c] = !occupied[c] || c == current[r];
    }
  }

  const auto choice = il::select_best_migration(
      live_ratings, current, allowed, config_.min_improvement);
  if (choice) {
    sim.migrate(pids[live_rows[choice->app_index]], choice->target_core);
    ++migrations_;
    dvfs_.notify_migration();
  }
}

void TopIlGovernor::save_state(persist::StateWriter& out) const {
  out.tag("TIL ");
  persist::SnapshotAccess::save(out, dvfs_);
  persist::SnapshotAccess::save(out, npu_);
  out.f64(next_migration_);
  out.boolean(epoch_deferred_);
  out.u64(migrations_);
  out.u64(epochs_started_);
  out.u64(epochs_deferred_);
  out.boolean(pending_.has_value());
  if (pending_) {
    out.u64(pending_->job);
    out.vec_size(pending_->pids);
  }
}

void TopIlGovernor::restore_state(persist::StateReader& in) {
  in.expect_tag("TIL ");
  persist::SnapshotAccess::restore(in, dvfs_);
  persist::SnapshotAccess::restore(in, npu_);
  next_migration_ = in.f64();
  epoch_deferred_ = in.boolean();
  migrations_ = in.size();
  epochs_started_ = in.size();
  epochs_deferred_ = in.size();
  if (in.boolean()) {
    PendingJob pending;
    pending.job = in.size();
    pending.pids = in.vec_size();
    pending_ = std::move(pending);
  } else {
    pending_.reset();
  }
}

void TopIlGovernor::tick(SystemSim& sim) {
  dvfs_.tick(sim);

  if (pending_ && npu_.ready(pending_->job, sim.now())) {
    const nn::Matrix ratings = npu_.take_result(pending_->job, sim.now());
    const std::vector<Pid> pids = pending_->pids;
    pending_.reset();
    finish_migration_epoch(sim, ratings, pids);
    if (epoch_deferred_) {
      // An epoch deadline passed while the batch was still in flight: run
      // the deferred epoch now instead of silently skipping it.
      epoch_deferred_ = false;
      ++epochs_deferred_;
      start_migration_epoch(sim);
    }
  }

  if (sim.now() + 1e-9 >= next_migration_) {
    const double deadline = next_migration_;
    // Advance from the previous deadline, not from now(): rescheduling
    // from now() stretches the effective epoch by up to one tick whenever
    // the period is not an exact tick multiple, and the drift compounds.
    do {
      next_migration_ += config_.migration_period_s;
    } while (sim.now() + 1e-9 >= next_migration_);
    sim.note_migration_epoch(deadline, config_.migration_period_s);
    if (!pending_) {
      start_migration_epoch(sim);
    } else {
      epoch_deferred_ = true;
    }
  }
}

}  // namespace topil
