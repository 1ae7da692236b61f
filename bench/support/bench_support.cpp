#include "support/bench_support.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "governors/powersave.hpp"
#include "governors/topil_governor.hpp"
#include "governors/toprl_governor.hpp"

namespace topil::bench {

std::vector<Technique> all_techniques() {
  return {Technique::GtsOndemand, Technique::GtsPowersave, Technique::TopRl,
          Technique::TopIl};
}

std::string technique_name(Technique technique) {
  switch (technique) {
    case Technique::GtsOndemand:
      return "GTS/ondemand";
    case Technique::GtsPowersave:
      return "GTS/powersave";
    case Technique::TopRl:
      return "TOP-RL";
    case Technique::TopIl:
      return "TOP-IL";
  }
  throw InvalidArgument("unknown technique");
}

std::unique_ptr<Governor> make_governor(Technique technique,
                                        std::size_t rep) {
  const PlatformSpec& platform = hikey970_platform();
  switch (technique) {
    case Technique::GtsOndemand:
      return make_gts_ondemand();
    case Technique::GtsPowersave:
      return make_gts_powersave();
    case Technique::TopRl: {
      TopRlGovernor::Config config;
      config.learning_enabled = true;  // RL keeps training at run time
      config.seed = 1000 + rep;
      return std::make_unique<TopRlGovernor>(
          platform, PolicyCache::instance().rl_qtable(rep), config);
    }
    case Technique::TopIl:
      return std::make_unique<TopIlGovernor>(
          PolicyCache::instance().il_model(rep));
  }
  throw InvalidArgument("unknown technique");
}

void print_header(const std::string& id, const std::string& title) {
  std::printf("\n=== %s: %s ===\n", id.c_str(), title.c_str());
}

std::string results_dir() {
  const std::string dir = "bench_results";
  std::filesystem::create_directories(dir);
  return dir;
}

std::string pm(const RunningStats& stats, int precision) {
  return TextTable::fmt_pm(stats.mean(), stats.stddev(), precision);
}

BenchOptions parse_bench_args(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s requires a value\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--jobs") == 0) {
      char* end = nullptr;
      const char* value = next_value("--jobs");
      const unsigned long jobs = std::strtoul(value, &end, 10);
      if (end == value || *end != '\0' || jobs == 0) {
        std::fprintf(stderr, "%s: --jobs expects a positive integer, got %s\n",
                     argv[0], value);
        std::exit(2);
      }
      options.jobs = static_cast<std::size_t>(jobs);
    } else if (std::strcmp(arg, "--json") == 0) {
      options.json_path = next_value("--json");
    } else if (std::strcmp(arg, "--integrator") == 0) {
      const char* value = next_value("--integrator");
      if (std::strcmp(value, "heun") == 0) {
        options.integrator = ThermalIntegrator::Heun;
      } else if (std::strcmp(value, "exp") == 0) {
        options.integrator = ThermalIntegrator::Exponential;
      } else {
        std::fprintf(stderr, "%s: --integrator expects heun or exp, got %s\n",
                     argv[0], value);
        std::exit(2);
      }
    } else if (std::strcmp(arg, "--validate") == 0) {
      options.validate = true;
    } else {
      std::fprintf(stderr,
                   "%s: unknown argument %s\n"
                   "usage: %s [--jobs N] [--json FILE] "
                   "[--integrator heun|exp] [--validate]\n",
                   argv[0], arg, argv[0]);
      std::exit(2);
    }
  }
  const std::size_t hardware = std::thread::hardware_concurrency();
  if (hardware > 0 && options.jobs > hardware) {
    std::fprintf(stderr,
                 "%s: warning: --jobs %zu exceeds the %zu hardware threads; "
                 "wall-clock speedups will be unreliable\n",
                 argv[0], options.jobs, hardware);
  }
  return options;
}

std::string integrator_name(ThermalIntegrator integrator) {
  return integrator == ThermalIntegrator::Exponential ? "exp" : "heun";
}

BenchJsonWriter::BenchJsonWriter(std::string path) : path_(std::move(path)) {}

BenchJsonWriter::~BenchJsonWriter() { flush(); }

void BenchJsonWriter::add(const std::string& name, double wall_ms,
                          std::size_t jobs, double speedup_vs_serial) {
  records_.push_back({name, wall_ms, jobs, speedup_vs_serial, 0.0});
  dirty_ = true;
}

void BenchJsonWriter::add_rate(const std::string& name, double wall_ms,
                               std::size_t jobs, double speedup_vs_serial,
                               double rate_per_s) {
  records_.push_back({name, wall_ms, jobs, speedup_vs_serial, rate_per_s});
  dirty_ = true;
}

namespace {

/// JSON string escaping for the machine-metadata values (compiler banner
/// and flag strings can contain quotes or backslashes).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

void BenchJsonWriter::flush() {
  if (!dirty_) return;
  std::ofstream out(path_);
  if (!out) {
    std::fprintf(stderr, "cannot write bench JSON to %s\n", path_.c_str());
    return;
  }
#if defined(__VERSION__)
  const std::string compiler = __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#if defined(TOPIL_BUILD_TYPE)
  const std::string build_type = TOPIL_BUILD_TYPE;
#else
  const std::string build_type = "";
#endif
#if defined(TOPIL_CXX_FLAGS)
  const std::string cxx_flags = TOPIL_CXX_FLAGS;
#else
  const std::string cxx_flags = "";
#endif
  // Self-flagging speedup claims: a 1-thread machine cannot demonstrate
  // parallel speedups, and records measured with more workers than
  // hardware threads oversubscribe the machine.
  const std::size_t hardware = std::thread::hardware_concurrency();
  std::size_t max_jobs = 0;
  for (const Record& r : records_) max_jobs = std::max(max_jobs, r.jobs);
  std::string warning;
  if (hardware <= 1) {
    warning =
        "single hardware thread: parallel speedup figures are not "
        "demonstrable on this machine";
  } else if (max_jobs > hardware) {
    warning = "records use more jobs than hardware threads: wall-clock "
              "speedups are unreliable";
  }
  if (!warning.empty()) {
    std::fprintf(stderr, "%s: warning: %s\n", path_.c_str(), warning.c_str());
  }
  out << "{\n"
      << "  \"hardware_concurrency\": " << hardware << ",\n"
      << "  \"machine\": {\n"
      << "    \"hardware_threads\": " << hardware << ",\n"
      << "    \"compiler\": \"" << json_escape(compiler) << "\",\n"
      << "    \"build_type\": \"" << json_escape(build_type) << "\",\n"
      << "    \"cxx_flags\": \"" << json_escape(cxx_flags) << "\"";
  if (!warning.empty()) {
    out << ",\n    \"warning\": \"" << json_escape(warning) << "\"";
  }
  out << "\n  },\n"
      << "  \"records\": [\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    char line[320];
    std::snprintf(line, sizeof(line),
                  "    {\"name\": \"%s\", \"wall_ms\": %.3f, \"jobs\": %zu, "
                  "\"speedup_vs_serial\": %.3f, \"rate_per_s\": %.3f}%s\n",
                  r.name.c_str(), r.wall_ms, r.jobs, r.speedup_vs_serial,
                  r.rate_per_s, i + 1 < records_.size() ? "," : "");
    out << line;
  }
  out << "  ]\n}\n";
  dirty_ = false;
}

}  // namespace topil::bench
