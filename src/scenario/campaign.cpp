#include "scenario/campaign.hpp"

#include <atomic>
#include <charconv>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <type_traits>

#include "common/parallel_for.hpp"
#include "persist/state_codec.hpp"
#include "persist/wal.hpp"
#include "sim/fleet/batch_runner.hpp"
#include "validate/digest_monitor.hpp"
#include "validate/state_digest.hpp"

namespace topil::scenario {

namespace {

/// Campaign journal record types.
constexpr std::uint32_t kJournalMeta = 0;
constexpr std::uint32_t kJournalScenario = 1;

/// ` name=value`, doubles in their shortest round-trip form, so two
/// settings print alike only if they are equal.
template <typename T>
void put_setting(std::ostream& os, const char* name, T value) {
  os << ' ' << name << '=';
  if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    os.write(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr - buf);
  } else {
    os << value;
  }
}

/// Campaign fingerprint recorded in the journal's meta record: scenarios
/// are (seed, index, generator)-derived and judged by the oracle
/// tolerances, so resuming under any other setting would silently mix two
/// campaigns.
std::string journal_meta(const CampaignConfig& config) {
  std::ostringstream os;
  os << "campaign:v2 seed=" << config.seed << " count=" << config.count
     << " fleet=" << config.fleet_batch << " corpus='" << config.corpus_dir
     << "'";
  const GeneratorConfig& g = config.generator;
  put_setting(os, "min_apps", g.min_apps);
  put_setting(os, "max_apps", g.max_apps);
  put_setting(os, "min_runtime_s", g.min_runtime_s);
  put_setting(os, "max_runtime_s", g.max_runtime_s);
  put_setting(os, "min_qos_fraction", g.min_qos_fraction);
  put_setting(os, "max_qos_fraction", g.max_qos_fraction);
  put_setting(os, "min_arrival_rate_per_s", g.min_arrival_rate_per_s);
  put_setting(os, "max_arrival_rate_per_s", g.max_arrival_rate_per_s);
  put_setting(os, "min_clusters", g.min_clusters);
  put_setting(os, "max_clusters", g.max_clusters);
  put_setting(os, "min_cores_per_cluster", g.min_cores_per_cluster);
  put_setting(os, "max_cores_per_cluster", g.max_cores_per_cluster);
  put_setting(os, "p_grid", g.p_grid);
  put_setting(os, "vf_jitter", g.vf_jitter);
  put_setting(os, "power_jitter", g.power_jitter);
  put_setting(os, "p_npu", g.p_npu);
  put_setting(os, "max_floorplan_jitter", g.max_floorplan_jitter);
  put_setting(os, "p_no_fan", g.p_no_fan);
  put_setting(os, "min_ambient_c", g.min_ambient_c);
  put_setting(os, "max_ambient_c", g.max_ambient_c);
  put_setting(os, "min_heatsink_g_scale", g.min_heatsink_g_scale);
  put_setting(os, "max_heatsink_g_scale", g.max_heatsink_g_scale);
  put_setting(os, "max_substeps_per_tick", g.max_substeps_per_tick);
  put_setting(os, "max_steady_temp_c", g.max_steady_temp_c);
  put_setting(os, "max_worst_case_runtime_s", g.max_worst_case_runtime_s);
  put_setting(os, "max_attempts", g.max_attempts);
  const OracleTolerances& t = config.tol;
  put_setting(os, "cross_integrator_tol_c", t.cross_integrator_tol_c);
  put_setting(os, "avg_temp_tol_c", t.avg_temp_tol_c);
  put_setting(os, "peak_temp_tol_c", t.peak_temp_tol_c);
  put_setting(os, "app_ips_rel_tol", t.app_ips_rel_tol);
  put_setting(os, "steady_margin_c", t.steady_margin_c);
  put_setting(os, "ips_headroom", t.ips_headroom);
  return os.str();
}

/// CJML: the campaign's fingerprint. A reader refuses another campaign's
/// journal.
template <typename Io>
void meta_record(Io& io, const std::string& path, const std::string& meta) {
  io.tag("CJML");
  std::string recorded = meta;
  io.str(recorded);
  if constexpr (Io::kReading) {
    if (recorded != meta) {
      // A plain, self-explanatory error rather than TOPIL_REQUIRE: this
      // is an operator mistake (resuming with changed --seed/--count/
      // --fleet-batch/--corpus-dir or generator flags), not an internal
      // invariant, and the macro's [condition] at file:line suffix only
      // obscures the fix.
      throw InvalidArgument(
          "journal '" + path +
          "' belongs to a different campaign: it records \"" + recorded +
          "\" but this invocation is \"" + meta +
          "\"; resume with the original seed/count/fleet/corpus, "
          "generator and tolerance settings or start a fresh journal "
          "without --resume");
    }
  }
}

/// CJSC: one scenario's differential verdict. A restored outcome keeps
/// no spec: the fleet stage regenerates it by index.
template <typename Io>
void scenario_record(Io& io, persist::Ref<Io, ScenarioOutcome> out) {
  io.tag("CJSC");
  io.u64(out.index);
  bool failed = out.status == ScenarioStatus::Failed;
  io.boolean(failed);
  if constexpr (Io::kReading) {
    out.status = failed ? ScenarioStatus::Failed : ScenarioStatus::Passed;
    out.restored = true;
  }
  io.u64(out.digest);
  io.u64(out.ticks);
  io.u64(out.exp_digest);
  io.u64(out.exp_ticks);
  io.seq(out.findings, [&](auto& finding) {
    io.str(finding.oracle);
    io.str(finding.detail);
  });
}

/// Minimize a failing scenario (unless shrinking is off or the budget is
/// spent) and write its reproducer to the corpus directory, if any.
void finish_failure(const CampaignConfig& config, ScenarioOutcome& out,
                    bool shrink) {
  if (shrink) {
    ShrinkConfig sc;
    sc.max_runs = config.shrink_budget;
    sc.tol = config.tol;
    ShrinkResult shrunk = shrink_scenario(out.spec, sc);
    out.minimized = std::move(shrunk.spec);
    out.shrink_runs = shrunk.runs;
  }
  if (!config.corpus_dir.empty()) {
    out.corpus_path = config.corpus_dir + "/fail-" +
                      std::to_string(config.seed) + "-" +
                      std::to_string(out.index) + ".scenario";
    out.minimized.save(out.corpus_path);
  }
}

/// Fleet-determinism stage: replay every executed scenario through the
/// lockstep fleet engine (exponential integrator) and require each lane's
/// trace digest to reproduce its scalar exponential run bit-for-bit. A
/// mismatch is a batching bug — cross-lane state leakage, reordered FP
/// accumulation, or aggregator misrouting — and fails the scenario.
/// Journal records hold the differential verdict only, so restored
/// scenarios are replayed too. Every spec is regenerated by index.
void run_fleet_stage(const CampaignConfig& config,
                     std::vector<ScenarioOutcome>& outcomes) {
  std::vector<ScenarioOutcome*> executed;
  std::deque<ScenarioSpec> regenerated;
  std::vector<const ScenarioSpec*> specs;
  for (ScenarioOutcome& out : outcomes) {
    if (out.status == ScenarioStatus::Skipped) continue;
    executed.push_back(&out);
    specs.push_back(&regenerated.emplace_back(
        generate_scenario(config.seed, out.index, config.generator)));
  }
  if (executed.empty()) return;

  const std::vector<LaneDigest> lanes =
      replay_through_fleet(specs, config.fleet_batch, config.jobs);
  for (std::size_t i = 0; i < executed.size(); ++i) {
    ScenarioOutcome& out = *executed[i];
    if (lanes[i].digest == out.exp_digest && lanes[i].ticks == out.exp_ticks) {
      continue;
    }
    const bool newly_failed = out.status == ScenarioStatus::Passed;
    out.findings.push_back(
        {"fleet-determinism",
         "fleet replay digest " + validate::digest_hex(lanes[i].digest) +
             " (" + std::to_string(lanes[i].ticks) +
             " ticks) != scalar exponential " +
             validate::digest_hex(out.exp_digest) + " (" +
             std::to_string(out.exp_ticks) + " ticks) at batch " +
             std::to_string(config.fleet_batch)});
    out.status = ScenarioStatus::Failed;
    if (newly_failed) {
      // Shrinking replays candidates through the scalar differential
      // runner, so a failure only visible under fleet batching cannot be
      // minimized by it: the reproducer is the whole scenario.
      out.minimized = *specs[i];
      finish_failure(config, out, /*shrink=*/false);
    }
  }
}

}  // namespace

std::vector<LaneDigest> replay_through_fleet(
    const std::vector<const ScenarioSpec*>& specs, std::size_t batch,
    std::size_t jobs) {
  std::deque<MaterializedScenario> ms;
  std::deque<validate::DigestMonitor> monitors(specs.size());
  std::vector<fleet::FleetJob> fleet_jobs;
  fleet_jobs.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ScenarioSpec* spec = specs[i];
    const MaterializedScenario* m = &ms.emplace_back(materialize(*spec));
    fleet::FleetJob job;
    job.platform = &m->platform;
    job.workload = &m->workload;
    job.config.cooling = m->cooling;
    job.config.sim = m->sim;
    job.config.sim.integrator = ThermalIntegrator::Exponential;
    job.config.max_duration_s = m->max_duration_s;
    job.config.monitor = &monitors[i];
    job.make_governor = [spec, m](npu::InferenceAggregator*) {
      return make_scenario_governor(spec->governor, m->platform,
                                    spec->sim_seed);
    };
    fleet_jobs.push_back(std::move(job));
  }

  fleet::FleetOptions options;
  options.batch = batch;
  options.jobs = jobs;
  fleet::run_experiments(fleet_jobs, options);

  std::vector<LaneDigest> lanes;
  lanes.reserve(specs.size());
  for (const validate::DigestMonitor& monitor : monitors) {
    lanes.push_back({monitor.digest(), monitor.ticks()});
  }
  return lanes;
}

CampaignResult run_campaign(const CampaignConfig& config) {
  TOPIL_REQUIRE(config.count >= 1, "campaign: need at least one scenario");

  const auto start = std::chrono::steady_clock::now();
  std::atomic<bool> out_of_budget{false};
  const auto budget_spent = [&] {
    if (config.budget_s <= 0.0) return false;
    if (out_of_budget.load(std::memory_order_relaxed)) return true;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (elapsed.count() < config.budget_s) return false;
    out_of_budget.store(true, std::memory_order_relaxed);
    return true;
  };

  // Campaign journal: replay completed scenarios, then append new ones.
  std::optional<persist::WalWriter> journal;
  std::map<std::uint64_t, ScenarioOutcome> journaled;
  if (!config.journal_path.empty()) {
    const std::string meta = journal_meta(config);
    persist::WalRecovery recovery;
    if (config.journal_resume) {
      journal.emplace(
          persist::WalWriter::open_for_append(config.journal_path, &recovery));
    } else {
      journal.emplace(persist::WalWriter::create(config.journal_path));
    }
    if (recovery.records.empty()) {
      persist::StateWriter out;
      meta_record(out, config.journal_path, meta);
      journal->append(kJournalMeta, out.buffer());
      journal->sync();
    } else {
      const persist::WalRecord& head = recovery.records.front();
      TOPIL_REQUIRE(head.type == kJournalMeta,
                    "campaign journal does not start with a meta record: " +
                        config.journal_path);
      persist::StateReader in(head.payload);
      meta_record(in, config.journal_path, meta);
      in.require_done();
      for (std::size_t i = 1; i < recovery.records.size(); ++i) {
        TOPIL_REQUIRE(recovery.records[i].type == kJournalScenario,
                      "unknown campaign journal record type: " +
                          config.journal_path);
        persist::StateReader record(recovery.records[i].payload);
        ScenarioOutcome out;
        scenario_record(record, out);
        record.require_done();
        TOPIL_REQUIRE(out.index < config.count,
                      "campaign journal scenario index out of range: " +
                          config.journal_path);
        journaled[out.index] = std::move(out);
      }
    }
  }

  // Journal each outcome as soon as it is final: a passing scenario after
  // its differential run, a failing one once it is shrunk and its
  // reproducer written. One fsync per scenario makes it durable at once.
  std::mutex journal_mutex;
  const auto record = [&](const ScenarioOutcome& out) {
    if (!journal) return;
    persist::StateWriter payload;
    scenario_record(payload, out);
    const std::lock_guard<std::mutex> lock(journal_mutex);
    journal->append(kJournalScenario, payload.buffer());
    journal->sync();
  };

  CampaignResult result;
  result.outcomes = parallel_map(
      config.count, config.jobs, [&](std::size_t i) -> ScenarioOutcome {
        ScenarioOutcome out;
        out.index = i;
        if (const auto it = journaled.find(i); it != journaled.end()) {
          return it->second;  // replayed, not re-executed
        }
        if (budget_spent()) return out;  // Skipped
        ScenarioSpec spec = generate_scenario(config.seed, i, config.generator);
        const DifferentialResult r = run_differential(spec, config.tol);
        out.status = r.ok() ? ScenarioStatus::Passed : ScenarioStatus::Failed;
        out.digest = r.digest;
        out.ticks = r.ticks;
        out.exp_digest = r.exp_digest;
        out.exp_ticks = r.exp_ticks;
        out.findings = r.findings;
        if (out.status == ScenarioStatus::Failed) {
          out.minimized = spec;
          out.spec = std::move(spec);
          finish_failure(config, out, config.shrink && !budget_spent());
        }
        record(out);
        return out;
      });

  if (config.fleet_batch > 1) {
    run_fleet_stage(config, result.outcomes);
  }

  validate::Fnv64 digest;
  for (ScenarioOutcome& out : result.outcomes) {
    switch (out.status) {
      case ScenarioStatus::Skipped:
        ++result.skipped;
        continue;
      case ScenarioStatus::Passed:
        ++result.executed;
        break;
      case ScenarioStatus::Failed:
        ++result.executed;
        ++result.failed;
        break;
    }
    digest.u64(out.index);
    digest.u64(out.digest);
  }
  result.campaign_digest = digest.value();
  return result;
}

}  // namespace topil::scenario
