#include "apps/app_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace topil {

double PhaseSpec::duration_s(ClusterId cluster, double freq_ghz) const {
  return instructions / ips(cluster, freq_ghz);
}

double AppSpec::total_instructions() const {
  double total = 0.0;
  for (const auto& p : phases) total += p.instructions;
  return total;
}

const PhaseSpec& AppSpec::phase(std::size_t i) const {
  TOPIL_REQUIRE(i < phases.size(), "phase index out of range");
  return phases[i];
}

double AppSpec::average_ips(ClusterId cluster, double freq_ghz) const {
  TOPIL_REQUIRE(!phases.empty(), "app has no phases");
  // Instruction-weighted harmonic combination: total instructions over
  // total time, which is the IPS an observer would measure end to end.
  double insts = 0.0;
  double time = 0.0;
  for (const auto& p : phases) {
    insts += p.instructions;
    time += p.duration_s(cluster, freq_ghz);
  }
  return insts / time;
}

double AppSpec::peak_ips(const PlatformSpec& platform) const {
  double best = 0.0;
  for (ClusterId c = 0; c < platform.num_clusters(); ++c) {
    best = std::max(best,
                    average_ips(c, platform.cluster(c).vf.max_freq()));
  }
  return best;
}

std::size_t AppSpec::min_level_for_ips(const PlatformSpec& platform,
                                       ClusterId cluster,
                                       double target_ips) const {
  const VFTable& vf = platform.cluster(cluster).vf;
  for (std::size_t level = 0; level < vf.num_levels(); ++level) {
    if (average_ips(cluster, vf.at(level).freq_ghz) >= target_ips) {
      return level;
    }
  }
  return vf.num_levels();
}

AppSpec make_single_phase_app(std::string name, double instructions,
                              ClusterPerf little, ClusterPerf big,
                              double l2d_per_inst, bool used_for_training) {
  TOPIL_REQUIRE(instructions > 0.0, "instruction count must be positive");
  PhaseSpec phase;
  phase.name = "main";
  phase.instructions = instructions;
  phase.perf = {little, big};
  phase.l2d_per_inst = l2d_per_inst;

  AppSpec app;
  app.name = std::move(name);
  app.phases.push_back(std::move(phase));
  app.used_for_training = used_for_training;
  return app;
}

ClusterPerf interpolate_perf(const ClusterPerf& a, const ClusterPerf& b,
                             double t) {
  TOPIL_REQUIRE(t >= 0.0 && t <= 1.0, "interpolation weight out of [0, 1]");
  TOPIL_REQUIRE(a.cpi > 0.0 && b.cpi > 0.0, "cpi must be positive");
  auto geometric = [t](double x, double y) {
    if (x <= 0.0 || y <= 0.0) return x + t * (y - x);  // linear fallback
    return std::pow(x, 1.0 - t) * std::pow(y, t);
  };
  ClusterPerf out;
  out.cpi = geometric(a.cpi, b.cpi);
  out.mem_ns_per_inst = geometric(a.mem_ns_per_inst, b.mem_ns_per_inst);
  out.activity = a.activity + t * (b.activity - a.activity);
  return out;
}

ClusterPerf blend_perf(const std::vector<ClusterPerf>& ranked, double t) {
  TOPIL_REQUIRE(!ranked.empty(), "blend_perf needs reference rows");
  TOPIL_REQUIRE(t >= 0.0 && t <= 1.0, "blend position out of [0, 1]");
  if (ranked.size() == 1) return ranked.front();
  // Map t onto the segment between its two adjacent reference rows.
  // Positions landing exactly on a row copy it bit-identically, so tiers
  // at the calibrated endpoints keep the reference characterization.
  const double pos = t * static_cast<double>(ranked.size() - 1);
  const std::size_t seg = std::min(static_cast<std::size_t>(pos),
                                   ranked.size() - 2);
  const double local = pos - static_cast<double>(seg);
  if (local <= 0.0) return ranked[seg];
  if (local >= 1.0) return ranked[seg + 1];
  return interpolate_perf(ranked[seg], ranked[seg + 1], local);
}

AppSpec scale_app_instructions(const AppSpec& app, double factor) {
  TOPIL_REQUIRE(factor > 0.0, "instruction scale must be positive");
  AppSpec out = app;
  for (PhaseSpec& phase : out.phases) phase.instructions *= factor;
  return out;
}

}  // namespace topil
