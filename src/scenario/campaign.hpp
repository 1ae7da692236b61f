#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/differential.hpp"
#include "scenario/generator.hpp"
#include "scenario/shrink.hpp"

namespace topil::scenario {

struct CampaignConfig {
  std::uint64_t seed = 42;
  std::size_t count = 100;
  /// Worker threads for the differential executions (0 = hardware).
  std::size_t jobs = 0;
  /// When > 1, every executed scenario is additionally replayed through
  /// the fleet engine (fleet::run_experiments, exponential integrator,
  /// at most `fleet_batch` lanes per engine) and its per-tick digest is
  /// compared against the scalar exponential run. A mismatch fails the
  /// scenario with a "fleet-determinism" finding. Journal records carry
  /// no fleet verdict, so a resumed campaign replays its restored
  /// scenarios too. 1 disables the stage.
  std::size_t fleet_batch = 1;
  /// Wall-clock budget in seconds; scenarios not started before it
  /// expires are reported as skipped. 0 = unlimited. Note that a bounded
  /// campaign's digest covers only the executed prefix set, so digest
  /// reproducibility is only meaningful for unbudgeted campaigns.
  double budget_s = 0.0;
  GeneratorConfig generator{};
  OracleTolerances tol{};
  bool shrink = true;
  std::size_t shrink_budget = 150;
  /// When non-empty, minimized reproducers are serialized here as
  /// fail-<seed>-<index>.scenario.
  std::string corpus_dir;
  /// Durable campaign journal (persist/wal.hpp): a meta record of every
  /// setting above but `jobs`, `budget_s` and the shrink settings, then
  /// one CRC-framed record per scenario, appended and fsync'd as soon as
  /// its differential verdict is final (a failing one after shrinking and
  /// its reproducer). Empty = no journal.
  std::string journal_path;
  /// Resume from `journal_path`: journaled scenarios are not re-executed —
  /// their recorded outcomes feed the campaign digest, so a killed and
  /// resumed campaign reproduces the uninterrupted campaign digest
  /// bit-for-bit. A missing or empty journal starts fresh.
  bool journal_resume = false;
};

enum class ScenarioStatus { Passed, Failed, Skipped };

struct ScenarioOutcome {
  std::uint64_t index = 0;
  ScenarioStatus status = ScenarioStatus::Skipped;
  std::uint64_t digest = 0;
  std::uint64_t ticks = 0;
  /// Scalar exponential-run digest (the fleet stage's reference).
  std::uint64_t exp_digest = 0;
  std::uint64_t exp_ticks = 0;
  std::vector<Finding> findings;  ///< of the original (unshrunk) scenario
  /// The generated scenario and its reproducer (== spec unless shrinking
  /// ran), kept for a failing scenario only: a passing or restored one
  /// leaves both empty, and whoever needs its spec regenerates it by
  /// index. A scenario only the fleet stage fails gets `minimized`, the
  /// regenerated spec.
  ScenarioSpec spec;
  ScenarioSpec minimized;
  std::size_t shrink_runs = 0;
  std::string corpus_path;        ///< where the reproducer was written
  /// Outcome was replayed from the campaign journal, not executed.
  bool restored = false;
};

struct CampaignResult {
  std::vector<ScenarioOutcome> outcomes;  ///< index order, length = count
  /// FNV-1a over (index, trace digest) of every executed scenario in
  /// index order — one number that certifies an entire campaign replayed
  /// identically (and, since scenario streams are index-derived, that it
  /// is independent of the job count).
  std::uint64_t campaign_digest = 0;
  std::size_t executed = 0;
  std::size_t failed = 0;
  std::size_t skipped = 0;

  bool ok() const { return failed == 0; }
};

/// Generate and differentially execute `count` scenarios across the
/// worker threads; the worker that finds a failure shrinks it and writes
/// its reproducer.
CampaignResult run_campaign(const CampaignConfig& config);

/// Trace digest and tick count of one fleet lane.
struct LaneDigest {
  std::uint64_t digest = 0;
  std::uint64_t ticks = 0;
};

/// Run every spec as one lane of the lockstep fleet engine
/// (fleet::run_experiments, exponential integrator, at most `batch` lanes
/// per engine, `jobs` workers with 0 = hardware concurrency) and return each
/// lane's digest in input order. Each must equal the scalar exponential
/// run of its spec (DESIGN.md §10); the caller compares and reports.
std::vector<LaneDigest> replay_through_fleet(
    const std::vector<const ScenarioSpec*>& specs, std::size_t batch,
    std::size_t jobs);

}  // namespace topil::scenario
