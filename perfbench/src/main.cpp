// The topil benchmark binary: runs one workload for a fixed time as a
// sequence of equal-work units and prints a run record, then the result.
//
//   topil_perfbench --workload design|fleet|serve --seed N --seconds S
//                   --trace 0|1 --scratch DIR
//
// --trace 0 reports the end-to-end metrics, medians over the units.
// --trace 1 traces every other unit and reports the per-layer metrics of
// the traced units, plus the tracing overhead against the untraced ones;
// the spans go to DIR/trace-<workload>-<seed>.json. Exit code 1 when an
// output check fails, 2 on bad arguments.
//
// Set-up is timed in fresh child processes, each this binary run with
// --setup-only: it builds the workload, writes the seconds that took to
// stdout as a raw double and exits.

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/stats.hpp"
#include "harness.hpp"
#include "thermal/thermal_propagator.hpp"

extern char** environ;

namespace perfbench {
namespace {

/// Set-ups per run, each in a fresh process; setup_s is their median.
constexpr std::size_t kSetups = 45;
/// Units every run makes however slow the host: enough for a median, and
/// for two traced and two untraced units in a traced run.
constexpr std::size_t kMinUnits = 5;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"scenarios_per_s", "1/s"}};

/// Every per-layer metric, printed by the traced run of every workload; a
/// layer the workload does not run reads 0.
constexpr Metric kPerLayer[] = {
    {"il.dataset_s", "s"},
    {"il.examples", "count"},
    {"nn.train_s", "s"},
    {"nn.epochs", "count"},
    {"nn.rows_per_s", "1/s"},
    {"core.dagger_s", "s"},
    {"core.dagger_examples", "count"},
    {"governors.tick_s", "s"},
    {"governors.ticks", "count"},
    {"sim.lane_ticks", "count"},
    {"sim.ns_per_lane_tick", "ns"},
    {"sim.lanes_per_tick", "count"},
    {"sim.device_ticks_per_s", "1/s"},
    {"npu.calls", "count"},
    {"npu.rows_per_call", "count"},
    {"persist.wal_bytes", "B"},
    {"server.frames", "count"},
    {"server.failed", "count"},
    {"server.admit_ms_p50", "ms"},
    {"server.admit_ms_p95", "ms"},
    {"common.cpu_util", "ratio"},
    {"trace.overhead_pct", "%"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string scratch;
  bool setup_only = false;
};

struct UnitSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  bool traced = false;
  Layers layers;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "topil_perfbench: %s\n"
               "usage: topil_perfbench --workload design|fleet|serve "
               "--seed N --seconds S --trace 0|1 --scratch DIR "
               "[--setup-only]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0) {
    usage("bad value for " + flag + ": '" + text + "'");
  }
  return value;
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if (++i >= argc) usage("missing value for " + flag);
    const std::string value = argv[i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_uint(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_uint(flag, value));
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
      have_trace = true;
    } else if (flag == "--scratch") {
      o.scratch = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload != "design" && o.workload != "fleet" &&
      o.workload != "serve") {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!have_seed || !have_seconds || !have_trace || o.scratch.empty()) {
    usage("--seed, --seconds, --trace and --scratch are required");
  }
  return o;
}

std::unique_ptr<BenchWorkload> make_workload(const Options& o) {
  if (o.workload == "design") return make_design(o.seed);
  if (o.workload == "fleet") return make_fleet(o.seed);
  return make_serve(o.seed, o.scratch);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_number(values[i]);
  }
  return out + "]";
}

std::string first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      return line.substr(std::min(colon + 2, line.size()));
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

/// First, second and third quartile of `values` (none for fewer than two).
std::vector<double> quartiles(const std::vector<double>& values) {
  if (values.size() < 2) return {};
  return {topil::percentile(values, 25.0), topil::percentile(values, 50.0),
          topil::percentile(values, 75.0)};
}

/// Median of `values`, 0 when there are none (a layer the workload does
/// not run).
double median_or_zero(const std::vector<double>& values) {
  return values.empty() ? 0.0 : topil::median(values);
}

/// One set-up in a fresh process: spawn this binary with --setup-only and
/// read back the seconds it took to build the workload. A fresh process
/// pays every once-per-process cost (lazy singletons, first-touch memory,
/// the thermal propagator cache); process start-up itself is left out, as
/// it is the same for any program and on this host varies more than the
/// smallest set-up takes.
double setup_in_child(const Options& o) {
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  exe[len] = '\0';
  std::vector<std::string> args = {exe,
                                   "--workload", o.workload,
                                   "--seed", std::to_string(o.seed),
                                   "--seconds", "1",
                                   "--trace", "0",
                                   "--scratch", o.scratch,
                                   "--setup-only"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, exe, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (spawned != 0) {
    close(fds[0]);
    throw std::runtime_error("cannot spawn a set-up process");
  }
  double seconds = 0.0;
  ssize_t got = 0;
  do {
    got = read(fds[0], &seconds, sizeof seconds);
  } while (got < 0 && errno == EINTR);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof seconds || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("a set-up process failed");
  }
  return seconds;
}

int run(const Options& o) {
  if (o.setup_only) {
    const double t0 = wall_now_s();
    const std::unique_ptr<BenchWorkload> workload = make_workload(o);
    const double seconds = wall_now_s() - t0;
    return write(STDOUT_FILENO, &seconds, sizeof seconds) == sizeof seconds
               ? 0
               : 1;
  }
  const std::string loadavg = first_line("/proc/loadavg");

  std::vector<double> setup_s;
  for (std::size_t k = 0; k < kSetups; ++k) {
    setup_s.push_back(setup_in_child(o));
  }
  const std::unique_ptr<BenchWorkload> workload = make_workload(o);
  const std::size_t propagators =
      topil::ThermalPropagator::shared_cache_size();

  Tracer tracer;
  std::vector<UnitSample> units;
  const double start = wall_now_s();
  while (units.size() < kMinUnits || wall_now_s() - start < o.seconds) {
    const std::size_t u = units.size();
    UnitSample sample;
    sample.traced = o.trace && u % 2 == 1;
    Tracer* trace = sample.traced ? &tracer : nullptr;
    tracer.begin_unit(u);
    const double cpu0 = process_cpu_s();
    const double t0 = wall_now_s();
    {
      Tracer::Scope span(trace, "unit");
      workload->run_unit(u, trace, sample.layers);
    }
    sample.wall_s = wall_now_s() - t0;
    sample.cpu_s = process_cpu_s() - cpu0;
    workload->check_unit(u, sample.traced ? &sample.layers : nullptr);
    units.push_back(std::move(sample));
  }
  const bool cache_grew =
      topil::ThermalPropagator::shared_cache_size() != propagators;

  Outcome outcome = workload->check();
  if (cache_grew) {
    outcome.problems.push_back(
        "the units built a thermal propagator that set-up did not");
  }
  const double scenarios = static_cast<double>(workload->scenarios_per_unit());
  const double workers = static_cast<double>(workload->workers());

  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> traced_walls;
  std::vector<double> untraced_walls;
  std::vector<double> cpu_util;
  for (const UnitSample& s : units) {
    walls.push_back(s.wall_s);
    cpus.push_back(s.cpu_s);
    (s.traced ? traced_walls : untraced_walls).push_back(s.wall_s);
    if (s.traced) cpu_util.push_back(s.cpu_s / (s.wall_s * workers));
  }

  std::map<std::string, double> values;
  if (!o.trace) {
    values["setup_s"] = topil::median(setup_s);
    values["peak_rss_mb"] = peak_rss_mb();
    values["scenarios_per_s"] = scenarios / topil::median(walls);
  } else {
    for (const Metric& m : kPerLayer) {
      std::vector<double> samples;
      for (const UnitSample& s : units) {
        const auto it = s.layers.find(m.name);
        if (s.traced && it != s.layers.end()) samples.push_back(it->second);
      }
      values[m.name] = median_or_zero(samples);
    }
    const double traced_wall = topil::median(traced_walls);
    values["sim.device_ticks_per_s"] = values["sim.lane_ticks"] / traced_wall;
    values["common.cpu_util"] = topil::median(cpu_util);
    values["trace.overhead_pct"] =
        100.0 * (traced_wall / topil::median(untraced_walls) - 1.0);
  }
  for (auto& [name, value] : values) {
    if (!std::isfinite(value)) {
      outcome.problems.push_back("metric " + name + " is not finite");
      value = 0.0;
    }
  }
  const bool correct = outcome.failed == 0 && outcome.problems.empty();

  std::ostringstream record;
  record << "{\"record\": {\"workload\": " << json_string(o.workload)
         << ", \"seed\": " << o.seed << ", \"trace\": " << (o.trace ? 1 : 0)
         << ", \"seconds\": " << json_number(o.seconds)
         << ", \"nproc\": " << std::thread::hardware_concurrency()
         << ", \"cpu_model\": " << json_string(cpu_model())
         << ", \"loadavg_start\": " << json_string(loadavg)
         << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
         << ", \"cxx_flags\": " << json_string(PERFBENCH_CXX_FLAGS)
         << ", \"compiler\": " << json_string(__VERSION__)
         << ", \"scenarios_per_unit\": " << json_number(scenarios)
         << ", \"setup_s\": " << json_array(setup_s)
         << ", \"unit_wall_s\": " << json_array(walls)
         << ", \"unit_wall_s_quartiles\": " << json_array(quartiles(walls))
         << ", \"unit_cpu_s\": " << json_array(cpus);
  if (o.trace) {
    record << ", \"traced_unit_wall_s_quartiles\": "
           << json_array(quartiles(traced_walls))
           << ", \"untraced_unit_wall_s_quartiles\": "
           << json_array(quartiles(untraced_walls))
           << ", \"span_self_s\": {";
    bool first = true;
    for (const auto& [name, seconds] : tracer.self_seconds()) {
      record << (first ? "" : ", ") << json_string(name) << ": "
             << json_number(seconds);
      first = false;
    }
    record << "}";
  }
  record << ", \"problems\": [";
  for (std::size_t i = 0; i < outcome.problems.size(); ++i) {
    record << (i > 0 ? ", " : "") << json_string(outcome.problems[i]);
  }
  record << "]}}";
  std::printf("%s\n", record.str().c_str());

  if (o.trace) {
    tracer.write_json(o.scratch + "/trace-" + o.workload + "-" +
                      std::to_string(o.seed) + ".json");
  }

  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << outcome.attempted
         << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  bool first = true;
  const std::span<const Metric> printed =
      o.trace ? std::span<const Metric>(kPerLayer)
              : std::span<const Metric>(kEndToEnd);
  for (const Metric& m : printed) {
    result << (first ? "" : ", ") << json_string(m.name)
           << ": {\"value\": " << json_number(values[m.name])
           << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  result << "}}";
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);

  for (const std::string& problem : outcome.problems) {
    std::fprintf(stderr, "topil_perfbench: check failed: %s\n",
                 problem.c_str());
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "topil_perfbench: %s\n", e.what());
    return 1;
  }
}
