#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "platform/platform.hpp"

namespace topil {

/// Performance/power characteristics of one execution phase on one cluster
/// type.
///
/// The simulator uses the classic two-component latency model: the time per
/// instruction is  cpi / f  +  mem_ns_per_inst , i.e. a core-frequency-
/// dependent pipeline component plus a frequency-independent memory-stall
/// component. Fitting this model to the IPS-vs-frequency tables published in
/// the paper reproduces them almost exactly (e.g. seidel-2d on the LITTLE
/// cluster fits cpi=3.56, mem=0.19 ns within 1 MIPS at all three reported
/// frequencies). Out-of-order big cores have lower cpi *and* lower apparent
/// memory stall (latency hiding), which is precisely why the big-vs-LITTLE
/// trade-off differs per application.
struct ClusterPerf {
  double cpi = 1.0;              ///< core cycles per instruction
  double mem_ns_per_inst = 0.0;  ///< exposed memory stall per instruction
  double activity = 1.0;         ///< switching-activity factor for power
};

/// One phase of an application: a fixed instruction budget with stationary
/// characteristics. Polybench kernels are single-phase (constant QoS, as the
/// oracle trace collection requires); PARSEC applications have multiple
/// phases, which the evaluation uses to test generalization.
struct PhaseSpec {
  std::string name;
  double instructions = 0.0;
  std::vector<ClusterPerf> perf;  ///< indexed by ClusterId
  double l2d_per_inst = 0.0;      ///< L2 data-cache accesses per instruction

  /// Instructions per second when running alone on a core of `cluster`
  /// at `freq_ghz`. Inline: the simulator tick calls it for every process.
  double ips(ClusterId cluster, double freq_ghz) const {
    TOPIL_REQUIRE(cluster < perf.size(), "no perf data for cluster");
    TOPIL_REQUIRE(freq_ghz > 0.0, "frequency must be positive");
    const ClusterPerf& p = perf[cluster];
    const double ns_per_inst = p.cpi / freq_ghz + p.mem_ns_per_inst;
    return 1e9 / ns_per_inst;
  }
  /// Seconds to retire `instructions` instructions at the given point.
  double duration_s(ClusterId cluster, double freq_ghz) const;
};

/// A complete application: an ordered sequence of phases.
struct AppSpec {
  std::string name;
  std::vector<PhaseSpec> phases;
  bool used_for_training = false;  ///< seen by the IL oracle (Polybench)

  double total_instructions() const;
  std::size_t num_phases() const { return phases.size(); }
  const PhaseSpec& phase(std::size_t i) const;

  /// Instruction-weighted average IPS across phases at a fixed operating
  /// point (used to choose feasible QoS targets).
  double average_ips(ClusterId cluster, double freq_ghz) const;

  /// Highest sustainable IPS anywhere on the platform (peak VF level of the
  /// fastest cluster). The paper normalizes QoS targets against this.
  double peak_ips(const PlatformSpec& platform) const;

  /// Lowest frequency of `cluster` (as a VF level index) whose average IPS
  /// meets `target_ips`; returns num_levels() when unattainable.
  std::size_t min_level_for_ips(const PlatformSpec& platform,
                                ClusterId cluster, double target_ips) const;
};

/// Convenience builder for single-phase applications.
AppSpec make_single_phase_app(std::string name, double instructions,
                              ClusterPerf little, ClusterPerf big,
                              double l2d_per_inst, bool used_for_training);

/// Geometric interpolation between two cluster characterizations
/// (t = 0 -> a, t = 1 -> b). Used by the scenario generator to synthesize
/// a mid-tier cluster entry for apps characterized on two clusters: cpi and
/// memory stall are log-linear in core capability, so the geometric mean
/// lands between the endpoints without ever going negative.
ClusterPerf interpolate_perf(const ClusterPerf& a, const ClusterPerf& b,
                             double t);

/// Interpolates an app characterization at position `t` in [0, 1] along a
/// list of reference rows ranked ascending by cluster capability: `pos =
/// t * (n - 1)` picks the two adjacent ranked rows and interpolate_perf
/// blends between them. Positions landing exactly on a row (in particular
/// t = 0 and t = 1) copy that row bit-identically. This is how the
/// scenario layer derives per-tier perf rows from the database's
/// [little, big] characterization without keying on tier names.
ClusterPerf blend_perf(const std::vector<ClusterPerf>& ranked, double t);

/// Copy of `app` with every phase's instruction budget multiplied by
/// `factor` (> 0). Scenario fuzzing shrinks multi-minute benchmark apps to
/// seconds-long instances without touching their per-cluster shape.
AppSpec scale_app_instructions(const AppSpec& app, double factor);

}  // namespace topil
