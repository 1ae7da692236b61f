#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/runner.hpp"
#include "core/training.hpp"
#include "thermal/thermal_propagator.hpp"
#include "workloads/generator.hpp"

namespace topil::bench {

/// The four techniques compared throughout the paper's evaluation.
enum class Technique { GtsOndemand, GtsPowersave, TopRl, TopIl };

std::vector<Technique> all_techniques();
std::string technique_name(Technique technique);

/// Governor instance for one repetition. TOP-IL loads the policy network
/// trained with seed `rep`; TOP-RL loads the Q-table pre-trained with seed
/// `rep` and continues learning online (as on the real platform).
std::unique_ptr<Governor> make_governor(Technique technique,
                                        std::size_t rep);

/// Number of model-seed repetitions per experiment (paper: three).
inline constexpr std::size_t kRepetitions = 3;

/// Print a figure/table banner.
void print_header(const std::string& id, const std::string& title);

/// Directory for CSV exports (created on demand): ./bench_results.
std::string results_dir();

/// Convenience: `value +- std` with fixed precision.
std::string pm(const RunningStats& stats, int precision = 2);

/// Command-line options shared by every bench binary.
///
///   --jobs N     worker threads for the design-time parallel layers
///                (default: hardware concurrency; 1 = serial, reproduces
///                the historical behavior exactly — outputs are
///                bit-identical either way)
///   --json FILE  append perf records to FILE (see BenchJsonWriter)
///   --integrator heun|exp
///                thermal integration scheme for the design-time sims
///                (default: exp — the exponential propagator; heun
///                reproduces historical transients exactly)
///   --validate   run every simulation under the runtime invariant
///                checker (src/validate); the first violated invariant
///                aborts the run with a structured error
struct BenchOptions {
  std::size_t jobs = ThreadPool::default_jobs();
  std::string json_path;  ///< empty = no JSON output
  /// Bench binaries default to the fast exponential propagator; pass
  /// `--integrator heun` to reproduce historical Heun transients.
  ThermalIntegrator integrator = ThermalIntegrator::Exponential;
  /// Attach the runtime invariant checker to every simulation.
  bool validate = false;

  bool json_enabled() const { return !json_path.empty(); }

  /// Apply the simulator-relevant options (integrator, validate) to an
  /// experiment configuration — what every bench does per run.
  void apply(ExperimentConfig& config) const {
    config.sim.integrator = integrator;
    config.sim.validate = validate;
  }
};

/// Parse `--jobs N` / `--json FILE` / `--integrator heun|exp` /
/// `--validate`; exits with a usage message on malformed input, ignores
/// nothing (unknown flags are an error).
/// Also warns on stderr when `--jobs` exceeds the machine's hardware
/// threads (speedup figures would be meaningless).
BenchOptions parse_bench_args(int argc, char** argv);

/// Short name used in bench output and JSON record names.
std::string integrator_name(ThermalIntegrator integrator);

/// Monotonic wall-clock stopwatch for bench phase timing.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void restart() { start_ = std::chrono::steady_clock::now(); }
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Collects {name, wall_ms, jobs, speedup_vs_serial} perf records and
/// writes them as a JSON document on flush()/destruction, so the perf
/// trajectory of the pipeline can be tracked across PRs (BENCH_*.json)
/// without external tooling.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string path);
  ~BenchJsonWriter();

  void add(const std::string& name, double wall_ms, std::size_t jobs,
           double speedup_vs_serial);
  /// Like add(), with a throughput figure (e.g. scenarios/sec) that lands
  /// in the record as "rate_per_s".
  void add_rate(const std::string& name, double wall_ms, std::size_t jobs,
                double speedup_vs_serial, double rate_per_s);
  /// Write the document now (idempotent; destructor flushes too).
  void flush();

 private:
  struct Record {
    std::string name;
    double wall_ms;
    std::size_t jobs;
    double speedup_vs_serial;
    double rate_per_s = 0.0;
  };
  std::string path_;
  std::vector<Record> records_;
  bool dirty_ = false;
};

}  // namespace topil::bench
