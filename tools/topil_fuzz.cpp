// Differential fuzzing campaign runner for the full-system simulator.
//
//   topil_fuzz --seed 42 --count 200 --jobs 8        # fuzz campaign
//   topil_fuzz --seed 7 --count 500 --budget 60      # bounded (CI) run
//   topil_fuzz --replay tests/scenario/corpus/*.scenario
//   topil_fuzz --emit-corpus tests/scenario/corpus
//
// Each scenario is executed three times (Heun + invariant checker, Heun +
// digest-only rerun, exponential integrator) and cross-checked by the
// differential oracles in src/scenario/differential.hpp. Failures are
// shrunk to minimal reproducers and serialized as replayable .scenario
// files. Exit status: 0 = no findings, 1 = findings, 2 = usage.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/campaign.hpp"
#include "validate/state_digest.hpp"

namespace {

using namespace topil;
using namespace topil::scenario;

struct Options {
  std::uint64_t seed = 42;
  std::size_t count = 100;
  std::size_t jobs = 0;
  double budget_s = 0.0;
  bool shrink = true;
  GeneratorConfig generator;
  std::string corpus_dir;
  std::string digest_out;
  std::size_t fleet_batch = 1;
  std::string golden;
  std::string update_golden;
  std::vector<std::string> replay;
  std::string emit_corpus_dir;
  std::string journal_path;
  bool resume = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --seed S          campaign seed               (default: 42)\n"
      "  --count N         scenarios to generate       (default: 100)\n"
      "  --jobs N          worker threads (0 = all)    (default: 0)\n"
      "  --budget S        wall-clock budget in seconds; scenarios not\n"
      "                    started in time are skipped (default: none)\n"
      "  --no-shrink       keep failing scenarios unminimized\n"
      "  --min-clusters N  fewest tiers per generated topology (default: 1)\n"
      "  --max-clusters N  most tiers per generated topology    (default: 4)\n"
      "  --min-cores N     fewest cores per tier                (default: 2)\n"
      "  --max-cores N     most cores per tier                  (default: 4)\n"
      "  --p-grid P        probability of a many-core grid floorplan\n"
      "                    placement in [0, 1]             (default: 0.15)\n"
      "  --corpus-dir D    write failing reproducers into D\n"
      "  --digest-out F    write the campaign digest (hex) to F\n"
      "  --fleet-batch N   additionally replay scenarios through the fleet\n"
      "                    engine, at most N lanes per engine, and require\n"
      "                    bit-identical digests    (default: 1 = off)\n"
      "  --golden F        replay only: verify per-scenario digests against\n"
      "                    the golden file F\n"
      "  --update-golden F replay only: rewrite the golden file F from the\n"
      "                    replayed digests\n"
      "  --checkpoint F    durable campaign journal: one fsync'd record per\n"
      "                    completed scenario (crash-safe progress log)\n"
      "  --resume          with --checkpoint F: skip journaled scenarios; the\n"
      "                    final campaign digest is bit-identical to an\n"
      "                    uninterrupted campaign\n"
      "  --replay F...     replay .scenario files instead of fuzzing\n"
      "                    (every remaining argument is a file)\n"
      "  --emit-corpus D   write the curated passing corpus into D\n",
      argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) usage(argv[0]);
        return argv[++i];
      };
      if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--count") {
        opt.count = static_cast<std::size_t>(std::stoul(value()));
      } else if (arg == "--jobs") {
        opt.jobs = static_cast<std::size_t>(std::stoul(value()));
      } else if (arg == "--budget") {
        std::string v = value();
        if (!v.empty() && v.back() == 's') v.pop_back();
        opt.budget_s = std::stod(v);
      } else if (arg == "--no-shrink") {
        opt.shrink = false;
      } else if (arg == "--min-clusters") {
        opt.generator.min_clusters =
            static_cast<std::size_t>(std::stoul(value()));
      } else if (arg == "--max-clusters") {
        opt.generator.max_clusters =
            static_cast<std::size_t>(std::stoul(value()));
      } else if (arg == "--min-cores") {
        opt.generator.min_cores_per_cluster =
            static_cast<std::size_t>(std::stoul(value()));
      } else if (arg == "--max-cores") {
        opt.generator.max_cores_per_cluster =
            static_cast<std::size_t>(std::stoul(value()));
      } else if (arg == "--p-grid") {
        opt.generator.p_grid = std::stod(value());
        if (opt.generator.p_grid < 0.0 || opt.generator.p_grid > 1.0) {
          usage(argv[0]);
        }
      } else if (arg == "--corpus-dir") {
        opt.corpus_dir = value();
      } else if (arg == "--digest-out") {
        opt.digest_out = value();
      } else if (arg == "--fleet-batch") {
        opt.fleet_batch = static_cast<std::size_t>(std::stoul(value()));
        if (opt.fleet_batch == 0) usage(argv[0]);
      } else if (arg == "--golden") {
        opt.golden = value();
      } else if (arg == "--update-golden") {
        opt.update_golden = value();
      } else if (arg == "--checkpoint") {
        opt.journal_path = value();
      } else if (arg == "--resume") {
        opt.resume = true;
      } else if (arg == "--replay") {
        while (i + 1 < argc) opt.replay.push_back(argv[++i]);
        if (opt.replay.empty()) usage(argv[0]);
      } else if (arg == "--emit-corpus") {
        opt.emit_corpus_dir = value();
      } else {
        usage(argv[0]);
      }
    }
  } catch (const std::invalid_argument&) {
    usage(argv[0]);  // malformed numeric flag value
  } catch (const std::out_of_range&) {
    usage(argv[0]);
  }
  return opt;
}

void print_findings(const std::vector<Finding>& findings) {
  for (const Finding& f : findings) {
    std::printf("    [%s] %s\n", f.oracle.c_str(), f.detail.c_str());
  }
}

/// One replayed corpus entry: the scenario, its scalar differential result
/// (the Heun and exponential reference digests), and a failure flag that
/// the fleet and golden stages can extend.
struct ReplayEntry {
  std::string path;
  std::string name;  ///< basename, the golden-file key
  ScenarioSpec spec;
  DifferentialResult result;
  bool failed = false;
};

/// Replay every entry through the lockstep fleet engine (exponential
/// integrator, at most `batch` lanes per engine, `jobs` workers) and
/// require each lane to reproduce its scalar exponential digest
/// bit-for-bit. Mirrors the campaign's fleet-determinism stage, but against
/// the committed corpus.
void replay_fleet_stage(std::vector<ReplayEntry>& entries, std::size_t batch,
                        std::size_t jobs) {
  std::vector<const ScenarioSpec*> specs;
  specs.reserve(entries.size());
  for (const ReplayEntry& e : entries) specs.push_back(&e.spec);
  const std::vector<LaneDigest> lanes =
      replay_through_fleet(specs, batch, jobs);

  for (std::size_t i = 0; i < entries.size(); ++i) {
    ReplayEntry& e = entries[i];
    if (lanes[i].digest == e.result.exp_digest &&
        lanes[i].ticks == e.result.exp_ticks) {
      continue;
    }
    std::printf("FAIL %s  fleet digest %s (%llu ticks) != scalar %s "
                "(%llu ticks) at batch %zu\n",
                e.path.c_str(), validate::digest_hex(lanes[i].digest).c_str(),
                static_cast<unsigned long long>(lanes[i].ticks),
                validate::digest_hex(e.result.exp_digest).c_str(),
                static_cast<unsigned long long>(e.result.exp_ticks), batch);
    e.failed = true;
  }
}

/// Golden file format, one line per scenario (basename-keyed so the file
/// is independent of where the corpus is checked out):
///   <name> <heun-digest> <heun-ticks> <exp-digest> <exp-ticks>
void write_golden(const std::string& path,
                  const std::vector<ReplayEntry>& entries) {
  std::ofstream out(path);
  TOPIL_REQUIRE(static_cast<bool>(out), "cannot open golden file: " + path);
  out << "# topil_fuzz golden digests: "
      << "<scenario> <heun-digest> <heun-ticks> <exp-digest> <exp-ticks>\n";
  for (const ReplayEntry& e : entries) {
    out << e.name << " " << validate::digest_hex(e.result.digest) << " "
        << e.result.ticks << " " << validate::digest_hex(e.result.exp_digest)
        << " " << e.result.exp_ticks << "\n";
  }
  std::printf("wrote %zu golden digest(s) to %s\n", entries.size(),
              path.c_str());
}

void check_golden(const std::string& path, std::vector<ReplayEntry>& entries) {
  std::ifstream in(path);
  TOPIL_REQUIRE(static_cast<bool>(in), "cannot open golden file: " + path);
  std::map<std::string, std::string> golden;  // name -> expected record
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.find(' ');
    TOPIL_REQUIRE(space != std::string::npos,
                  "malformed golden line: " + line);
    golden[line.substr(0, space)] = line.substr(space + 1);
  }
  for (ReplayEntry& e : entries) {
    std::ostringstream actual;
    actual << validate::digest_hex(e.result.digest) << " " << e.result.ticks
           << " " << validate::digest_hex(e.result.exp_digest) << " "
           << e.result.exp_ticks;
    const auto it = golden.find(e.name);
    if (it == golden.end()) {
      std::printf("FAIL %s  not in golden file %s\n", e.path.c_str(),
                  path.c_str());
      e.failed = true;
    } else if (it->second != actual.str()) {
      std::printf("FAIL %s  digests [%s] != golden [%s]\n", e.path.c_str(),
                  actual.str().c_str(), it->second.c_str());
      e.failed = true;
    }
  }
}

int replay(const Options& opt) {
  std::vector<ReplayEntry> entries;
  entries.reserve(opt.replay.size());
  for (const std::string& path : opt.replay) {
    ReplayEntry e;
    e.path = path;
    e.name = std::filesystem::path(path).filename().string();
    e.spec = ScenarioSpec::load(path);
    e.result = run_differential(e.spec);
    e.failed = !e.result.ok();
    std::printf("%-4s %s  (digest %s, %llu ticks)\n",
                e.result.ok() ? "ok" : "FAIL", path.c_str(),
                validate::digest_hex(e.result.digest).c_str(),
                static_cast<unsigned long long>(e.result.ticks));
    print_findings(e.result.findings);
    entries.push_back(std::move(e));
  }

  if (opt.fleet_batch > 1) {
    replay_fleet_stage(entries, opt.fleet_batch, opt.jobs);
  }
  if (!opt.update_golden.empty()) write_golden(opt.update_golden, entries);
  if (!opt.golden.empty()) check_golden(opt.golden, entries);

  std::size_t failed = 0;
  for (const ReplayEntry& e : entries) {
    if (e.failed) ++failed;
  }
  std::printf("replayed %zu scenario(s), %zu failed\n", entries.size(),
              failed);
  return failed == 0 ? 0 : 1;
}

/// Curated committed corpus, two sets:
///  - the legacy seed-1000 files (indices 0..99): generated by the
///    big.LITTLE-era generator, committed, and frozen — the topology-
///    general generator draws a different stream, so they can no longer
///    be regenerated and this tool leaves them alone;
///  - the topology set: a deterministic ascending scan of campaign seed
///    2000 that keeps the first scenarios with >= 3 tiers, >= 4 tiers,
///    and a grid placement — the non-big.LITTLE coverage the fleet and
///    replay gates pin.
int emit_corpus(const Options& opt) {
  constexpr std::uint64_t kSeed = 2000;
  constexpr std::uint64_t kMaxScan = 500;
  std::filesystem::create_directories(opt.emit_corpus_dir);
  std::size_t failed = 0;
  std::size_t want_three = 2;  // exactly 3 tiers
  std::size_t want_four = 1;   // 4 tiers
  std::size_t want_grid = 2;   // many-core grid placement
  for (std::uint64_t index = 0;
       index < kMaxScan && want_three + want_four + want_grid > 0; ++index) {
    const ScenarioSpec spec = generate_scenario(kSeed, index);
    const char* tag = nullptr;
    if (spec.grid.enabled() && want_grid > 0) {
      tag = "grid";
      --want_grid;
    } else if (spec.tiers.size() >= 4 && want_four > 0) {
      tag = "4tier";
      --want_four;
    } else if (spec.tiers.size() == 3 && want_three > 0) {
      tag = "3tier";
      --want_three;
    }
    if (tag == nullptr) continue;
    const DifferentialResult r = run_differential(spec);
    const std::string path = opt.emit_corpus_dir + "/seed" +
                             std::to_string(kSeed) + "-" + tag + "-" +
                             std::to_string(index) + ".scenario";
    spec.save(path);
    std::printf("%-4s %s  (digest %s)\n", r.ok() ? "ok" : "FAIL",
                path.c_str(), validate::digest_hex(r.digest).c_str());
    print_findings(r.findings);
    if (!r.ok()) ++failed;
  }
  TOPIL_REQUIRE(want_three + want_four + want_grid == 0,
                "corpus scan exhausted without filling every topology slot");
  return failed == 0 ? 0 : 1;
}

int fuzz(const Options& opt) {
  CampaignConfig config;
  config.seed = opt.seed;
  config.count = opt.count;
  config.jobs = opt.jobs;
  config.budget_s = opt.budget_s;
  config.fleet_batch = opt.fleet_batch;
  config.generator = opt.generator;
  config.shrink = opt.shrink;
  config.corpus_dir = opt.corpus_dir;
  config.journal_path = opt.journal_path;
  config.journal_resume = opt.resume;
  TOPIL_REQUIRE(!opt.resume || !opt.journal_path.empty(),
                "--resume requires --checkpoint");
  if (!opt.corpus_dir.empty()) {
    std::filesystem::create_directories(opt.corpus_dir);
  }

  std::printf("fuzzing %zu scenario(s), seed %llu, jobs %zu%s\n", opt.count,
              static_cast<unsigned long long>(opt.seed), opt.jobs,
              opt.budget_s > 0.0 ? " (budgeted)" : "");
  const CampaignResult result = run_campaign(config);

  for (const ScenarioOutcome& out : result.outcomes) {
    if (out.status != ScenarioStatus::Failed) continue;
    std::printf("scenario %llu FAILED (%zu finding(s), shrunk in %zu runs)\n",
                static_cast<unsigned long long>(out.index),
                out.findings.size(), out.shrink_runs);
    print_findings(out.findings);
    if (!out.corpus_path.empty()) {
      std::printf("    reproducer: %s\n", out.corpus_path.c_str());
    } else {
      std::printf("    reproducer (inline):\n%s", out.minimized.serialize()
                                                      .c_str());
    }
  }

  std::size_t restored = 0;
  for (const ScenarioOutcome& out : result.outcomes) {
    restored += out.restored ? 1 : 0;
  }
  std::printf(
      "executed %zu (restored %zu), failed %zu, skipped %zu; campaign "
      "digest %s\n",
      result.executed, restored, result.failed, result.skipped,
      validate::digest_hex(result.campaign_digest).c_str());
  if (!opt.digest_out.empty()) {
    std::ofstream out(opt.digest_out);
    TOPIL_REQUIRE(static_cast<bool>(out),
                  "cannot open digest file: " + opt.digest_out);
    out << validate::digest_hex(result.campaign_digest) << "\n";
  }
  return result.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse(argc, argv);
    if (!opt.replay.empty()) return replay(opt);
    if (!opt.emit_corpus_dir.empty()) return emit_corpus(opt);
    return fuzz(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
