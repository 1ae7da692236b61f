// Command-line experiment driver: run any governor on any workload and
// print (or export) the results without writing C++.
//
//   topil_run --governor topil --workload mixed --apps 20 --rate 0.025
//   topil_run --governor gts-ondemand --workload single:canneal --no-fan
//   topil_run --governor toprl --trace out/run --reps 3
//
// TOP-IL / TOP-RL policies come from the on-disk policy cache (trained on
// first use; see README).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "core/training.hpp"
#include "persist/checkpoint.hpp"
#include "governors/powersave.hpp"
#include "governors/schedutil.hpp"
#include "governors/topil_governor.hpp"
#include "governors/toprl_governor.hpp"
#include "sim/trace_log.hpp"
#include "validate/state_digest.hpp"
#include "workloads/generator.hpp"

namespace {

using namespace topil;

struct Options {
  std::string governor = "topil";
  std::string workload = "mixed";
  std::size_t num_apps = 20;
  double arrival_rate = 0.025;
  bool fan = true;
  std::uint64_t seed = 42;
  std::size_t reps = 1;
  std::string trace_prefix;
  double max_duration_s = 3600.0;
  ThermalIntegrator integrator = ThermalIntegrator::Heun;
  bool validate = false;
  std::string digest_out;
  /// Worker threads for design-time training (topil-quick); 1 = serial.
  std::size_t jobs = 1;
  std::string checkpoint_path;
  double checkpoint_every_s = 10.0;
  bool resume = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --governor G    topil | topil-quick | toprl | gts-ondemand |\n"
      "                  gts-powersave | gts-schedutil  (default: topil)\n"
      "                  (topil-quick trains a small policy in seconds —\n"
      "                  for smoke tests and determinism gates, not for\n"
      "                  reproducing paper numbers)\n"
      "  --workload W    mixed | single:<app>     (default: mixed)\n"
      "  --apps N        mixed-workload size      (default: 20)\n"
      "  --rate R        Poisson arrivals per s   (default: 0.025)\n"
      "  --fan | --no-fan                         (default: fan)\n"
      "  --seed S        workload seed            (default: 42)\n"
      "  --reps N        repetitions (policy seed = rep)  (default: 1)\n"
      "  --trace PREFIX  write PREFIX_system.csv / PREFIX_apps.csv\n"
      "  --duration S    simulated-time cap       (default: 3600)\n"
      "  --integrator I  heun | exp               (default: heun)\n"
      "  --validate      run under the runtime invariant checker and\n"
      "                  print the validation report per repetition\n"
      "  --digest-out F  write each repetition's trace digest to F\n"
      "                  (one hex line per rep; implies --validate)\n"
      "  --jobs N        worker threads for design-time training\n"
      "                  (topil-quick; default: 1)\n"
      "  --checkpoint F  write a crash-safe checkpoint to F every\n"
      "                  --checkpoint-every seconds of simulated time\n"
      "                  (requires --reps 1; excludes --validate/--trace)\n"
      "  --checkpoint-every S   checkpoint interval  (default: 10)\n"
      "  --resume        resume from --checkpoint F if it exists; the\n"
      "                  final digest is bit-identical to an\n"
      "                  uninterrupted run\n"
      "  --list-apps     print the application database and exit\n",
      argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--governor") {
      opt.governor = value();
    } else if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--apps") {
      opt.num_apps = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg == "--rate") {
      opt.arrival_rate = std::stod(value());
    } else if (arg == "--fan") {
      opt.fan = true;
    } else if (arg == "--no-fan") {
      opt.fan = false;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--reps") {
      opt.reps = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg == "--trace") {
      opt.trace_prefix = value();
    } else if (arg == "--duration") {
      opt.max_duration_s = std::stod(value());
    } else if (arg == "--integrator") {
      const std::string name = value();
      if (name == "heun") {
        opt.integrator = ThermalIntegrator::Heun;
      } else if (name == "exp") {
        opt.integrator = ThermalIntegrator::Exponential;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--validate") {
      opt.validate = true;
    } else if (arg == "--digest-out") {
      opt.digest_out = value();
      opt.validate = true;
    } else if (arg == "--jobs") {
      opt.jobs = static_cast<std::size_t>(std::stoul(value()));
      if (opt.jobs == 0) usage(argv[0]);
    } else if (arg == "--checkpoint") {
      opt.checkpoint_path = value();
    } else if (arg == "--checkpoint-every") {
      opt.checkpoint_every_s = std::stod(value());
      if (opt.checkpoint_every_s <= 0.0) usage(argv[0]);
    } else if (arg == "--resume") {
      opt.resume = true;
    } else if (arg == "--list-apps") {
      for (const AppSpec& app : AppDatabase::instance().all()) {
        std::printf("%-16s %zu phase(s), %.0fG instructions%s\n",
                    app.name.c_str(), app.num_phases(),
                    app.total_instructions() / 1e9,
                    app.used_for_training ? "  [training]" : "");
      }
      std::exit(0);
    } else {
      usage(argv[0]);
    }
  }
  return opt;
}

std::unique_ptr<Governor> make_governor(const std::string& name,
                                        std::size_t rep, std::size_t jobs) {
  if (name == "topil") {
    return std::make_unique<TopIlGovernor>(
        PolicyCache::instance().il_model(rep));
  }
  if (name == "topil-quick") {
    // Deliberately tiny pipeline (the test suite's smoke configuration):
    // trains in seconds and still exercises the full governor path. The
    // dataset is bit-identical for any --jobs value, so the determinism
    // gate can compare serial and parallel training runs.
    il::PipelineConfig config;
    config.num_scenarios = 8;
    config.seed = 13;
    config.oracle.qos_fractions = {0.3, 0.6};
    config.hidden = {24, 24};
    config.trainer.max_epochs = 15;
    config.trainer.patience = 15;
    config.max_examples = 4000;
    config.jobs = jobs;
    return std::make_unique<TopIlGovernor>(
        PolicyCache::instance().il_model(rep, config, "quick"));
  }
  if (name == "toprl") {
    TopRlGovernor::Config config;
    config.learning_enabled = true;
    config.seed = 1000 + rep;
    return std::make_unique<TopRlGovernor>(
        hikey970_platform(), PolicyCache::instance().rl_qtable(rep),
        config);
  }
  if (name == "gts-ondemand") return make_gts_ondemand();
  if (name == "gts-powersave") return make_gts_powersave();
  if (name == "gts-schedutil") return make_gts_schedutil();
  throw InvalidArgument("unknown governor: " + name);
}

Workload make_workload(const Options& opt) {
  const WorkloadGenerator generator(hikey970_platform());
  if (opt.workload.rfind("single:", 0) == 0) {
    const std::string app = opt.workload.substr(7);
    return generator.single(AppDatabase::instance().by_name(app));
  }
  if (opt.workload == "mixed") {
    WorkloadGenerator::MixedConfig wc;
    wc.num_apps = opt.num_apps;
    wc.arrival_rate_per_s = opt.arrival_rate;
    wc.seed = opt.seed;
    return generator.mixed(wc, AppDatabase::instance().mixed_pool());
  }
  throw InvalidArgument("unknown workload: " + opt.workload);
}

/// Configuration fingerprint recorded in the checkpoint; a resume under
/// different flags is rejected (restore requires identical configuration).
std::string checkpoint_meta(const Options& opt) {
  std::ostringstream os;
  os << "topil_run:v1 gov=" << opt.governor << " wl=" << opt.workload
     << " apps=" << opt.num_apps << " rate=" << opt.arrival_rate
     << " fan=" << (opt.fan ? 1 : 0) << " seed=" << opt.seed
     << " dur=" << opt.max_duration_s
     << " integ=" << static_cast<int>(opt.integrator);
  return os.str();
}

int run(const Options& opt) {
  const PlatformSpec& platform = hikey970_platform();
  const Workload workload = make_workload(opt);
  std::printf("workload: %zu app(s); governor: %s; cooling: %s\n",
              workload.size(), opt.governor.c_str(),
              opt.fan ? "fan" : "no-fan");

  RunningStats temp;
  RunningStats violations;
  std::ofstream digest_out;
  if (!opt.digest_out.empty()) {
    digest_out.open(opt.digest_out);
    TOPIL_REQUIRE(static_cast<bool>(digest_out),
                  "cannot open digest file: " + opt.digest_out);
  }
  for (std::size_t rep = 0; rep < opt.reps; ++rep) {
    ExperimentConfig config;
    config.cooling = opt.fan ? CoolingConfig::fan() : CoolingConfig::no_fan();
    config.max_duration_s = opt.max_duration_s;
    config.sim.seed = opt.seed + 0x1000 * (rep + 1);
    config.sim.integrator = opt.integrator;
    config.sim.validate = opt.validate;

    TraceLog trace(0.5);
    if (!opt.trace_prefix.empty() && rep == 0) {
      config.observer = [&](const SystemSim& sim) { trace.sample(sim); };
    }

    const auto governor = make_governor(opt.governor, rep, opt.jobs);
    ExperimentResult result;
    if (!opt.checkpoint_path.empty()) {
      TOPIL_REQUIRE(opt.reps == 1, "--checkpoint requires --reps 1");
      TOPIL_REQUIRE(!opt.validate || !opt.digest_out.empty(),
                    "--checkpoint and --validate are mutually exclusive");
      TOPIL_REQUIRE(opt.trace_prefix.empty(),
                    "--checkpoint and --trace are mutually exclusive");
      config.sim.validate = false;  // checkpointed runs carry a digest monitor
      persist::CheckpointOptions ck;
      ck.path = opt.checkpoint_path;
      ck.every_s = opt.checkpoint_every_s;
      ck.resume = opt.resume;
      ck.meta = checkpoint_meta(opt);
      const persist::CheckpointedResult ckr =
          persist::run_experiment_checkpointed(platform, *governor, workload,
                                               config, ck);
      result = ckr.result;
      std::printf("  checkpoints: %zu written%s; digest %s (%llu ticks)\n",
                  ckr.checkpoints_written,
                  ckr.resumed ? " (resumed)" : "",
                  validate::digest_hex(ckr.digest).c_str(),
                  static_cast<unsigned long long>(ckr.ticks));
      if (digest_out.is_open()) {
        digest_out << validate::digest_hex(ckr.digest) << "\n";
      }
    } else {
      result = run_experiment(platform, *governor, workload, config);
    }
    temp.add(result.avg_temp_c);
    violations.add(static_cast<double>(result.qos_violations));
    if (result.validation != nullptr) {
      std::printf("%s\n", result.validation->summary().c_str());
      if (digest_out.is_open()) {
        digest_out << validate::digest_hex(result.validation->trace_digest)
                   << "\n";
      }
    }

    std::printf(
        "  rep %zu: %.0f s, avg %.1f degC (peak %.1f), violations %zu/%zu, "
        "throttled %zux\n",
        rep, result.duration_s, result.avg_temp_c, result.peak_temp_c,
        result.qos_violations, result.apps_completed,
        result.throttle_events);
    if (!opt.trace_prefix.empty() && rep == 0 && !trace.empty()) {
      trace.write_csv(opt.trace_prefix);
      std::printf("  trace: %s_system.csv / %s_apps.csv\n",
                  opt.trace_prefix.c_str(), opt.trace_prefix.c_str());
    }
  }
  if (opt.reps > 1) {
    std::printf("summary: avg temp %.1f +- %.1f degC, violations %.1f +- "
                "%.1f\n",
                temp.mean(), temp.stddev(), violations.mean(),
                violations.stddev());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
