#pragma once

// Shared pieces of the topil benchmark: clocks, the span tracer of the
// traced run, and the interface every workload implements.
//
// A run is a sequence of equal-work units (same seed, same inputs, fresh
// state). main.cpp times each unit from outside and reports medians
// over units, so a short slow episode of the host moves one sample, not
// the result.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace topil {
class PlatformSpec;
struct CoolingConfig;
struct SimConfig;
}  // namespace topil

namespace perfbench {

/// Seconds on the steady clock.
double wall_now_s();
/// CPU seconds used by every thread of the process so far.
double process_cpu_s();

/// Independent 64-bit input seed for one part of a workload, derived from
/// the run's seed alone through topil::Rng::stream.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t part);

/// Fill the process-wide thermal propagator cache for simulators built
/// with (platform, cooling, sim) — a cost users pay once per process, so
/// it belongs to set-up, not to the first unit.
void warm_propagator(const topil::PlatformSpec& platform,
                     const topil::CoolingConfig& cooling,
                     const topil::SimConfig& sim);

/// Bit-for-bit equality of two doubles.
bool same_bits(double a, double b);

/// Per-layer samples of one traced unit, by metric name.
using Layers = std::map<std::string, double>;

/// Spans of the traced run: name, start, end, parent and unit id, kept in
/// memory and written once at exit. Spans wrap the benchmark's own calls
/// into the library and are opened on the main thread only; per-tick
/// calls are summed by the workload instead.
class Tracer {
 public:
  /// RAII span. A null tracer records nothing (tracing off).
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  void begin_unit(std::size_t unit) { unit_ = unit; }

  /// Self time per span name in seconds, summed over all spans: each
  /// span's duration minus the part of it its child spans cover.
  std::map<std::string, double> self_seconds() const;

  /// Write every span as JSON to `path`.
  void write_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    long parent = -1;  ///< index into spans_, -1 for a root span
    std::size_t unit = 0;
  };
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::size_t unit_ = 0;
};

/// What the output checks found, over every unit of the run.
struct Outcome {
  std::size_t attempted = 0;  ///< operations (scenarios, devices) run
  std::size_t failed = 0;     ///< operations that failed or mismatched
  std::vector<std::string> problems;
};

/// One benchmark workload. Its constructor is the set-up: it derives the
/// inputs from the seed, fills process-wide caches and starts whatever
/// serves the units.
class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;

  /// Scenarios one unit runs; the same for every unit of a seed.
  virtual std::size_t scenarios_per_unit() const = 0;
  /// Threads doing the workload's work: the denominator of
  /// common.cpu_util.
  virtual std::size_t workers() const = 0;
  /// Run one equal-work unit. `trace` is null on untraced units; on
  /// traced units the workload opens spans and fills `layers`.
  virtual void run_unit(std::size_t unit, Tracer* trace, Layers& layers) = 0;

  /// Check the outputs of the unit just run, after its timing stopped.
  /// `layers` is the traced unit's layer map (null when untraced), for
  /// numbers that need a snapshot the timed span must not pay for.
  virtual void check_unit(std::size_t unit, Layers* layers) {
    (void)unit;
    (void)layers;
  }

  /// Remaining output checks, run after the last unit.
  virtual Outcome check() = 0;
};

std::unique_ptr<BenchWorkload> make_design(std::uint64_t seed);
std::unique_ptr<BenchWorkload> make_fleet(std::uint64_t seed);
/// `scratch_dir` holds the server's durable state; it lies inside the
/// checkout and is removed with the workload.
std::unique_ptr<BenchWorkload> make_serve(std::uint64_t seed,
                                          const std::string& scratch_dir);

}  // namespace perfbench
