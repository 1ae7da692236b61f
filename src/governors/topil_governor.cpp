#include "governors/topil_governor.hpp"

#include <algorithm>

#include "il/runtime_features.hpp"
#include "npu/batch_aggregator.hpp"
#include "persist/snapshot.hpp"

namespace topil {

namespace {
constexpr const char* kOverheadComponent = "migration";
}  // namespace

TopIlGovernor::TopIlGovernor(il::IlPolicyModel model)
    : TopIlGovernor(std::move(model), Config{}) {}

TopIlGovernor::TopIlGovernor(il::IlPolicyModel model, Config config)
    : model_(std::move(model)),
      config_(config),
      compiled_(npu::CompiledModel::compile(model_.network())),
      dvfs_(config.dvfs) {
  TOPIL_REQUIRE(config.migration_period_s > 0.0,
                "migration period must be positive");
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
  std::vector<Pid> pids = sim.running_pids();
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
  if (sim.platform().npu().present) {
    const double latency =
        config_.npu.latency_s(compiled_.topology(), batch.rows());
    if (config_.aggregator != nullptr) {
      // The result lands at the aggregator's flush; until then `ratings_`
      // holds no rows, which tick() refuses to apply.
      ratings_ = nn::Matrix();
      config_.aggregator->enqueue(compiled_, batch, &ratings_);
    } else {
      compiled_.infer_batched_into(batch, ratings_, ws_);
    }
    sim.npu_busy_for(latency);
    pending_ = PendingJob{sim.now() + latency, std::move(pids)};
  } else {
    // CPU fallback: synchronous inference, its latency charged as CPU time.
    sim.charge_overhead(kOverheadComponent,
                        config_.cpu_inference.latency_s(
                            batch.rows(), compiled_.macs_per_row()));
    model_.network().predict_into(batch, ratings_, ws_);
    finish_migration_epoch(sim, ratings_, pids);
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

template <typename Io, typename Self>
void TopIlGovernor::fields(Io& io, Self& self) {
  io.tag("TIL ");
  persist::SnapshotAccess::fields(io, self.dvfs_);
  io.f64(self.next_migration_);
  io.boolean(self.epoch_deferred_);
  io.u64(self.migrations_);
  io.u64(self.epochs_started_);
  io.u64(self.epochs_deferred_);
  io.optional(self.pending_, [&](auto& pending) {
    io.f64(pending.done_at);
    persist::SnapshotAccess::fields(io, self.ratings_);
    io.seq(pending.pids);
  });
}

void TopIlGovernor::save_state(persist::StateWriter& out) const {
  fields(out, *this);
}

void TopIlGovernor::restore_state(persist::StateReader& in) {
  fields(in, *this);
}

void TopIlGovernor::tick(SystemSim& sim) {
  dvfs_.tick(sim);

  if (pending_ && sim.now() + 1e-12 >= pending_->done_at) {
    TOPIL_REQUIRE(ratings_.rows() == pending_->pids.size(),
                  "NPU batch not materialized (aggregator not flushed)");
    const std::vector<Pid> pids = std::move(pending_->pids);
    pending_.reset();
    finish_migration_epoch(sim, ratings_, pids);
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
