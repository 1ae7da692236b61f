#include "power/power_model.hpp"

#include <algorithm>

namespace topil {

double PowerBreakdown::total_w() const {
  double total = npu_w;
  for (double w : core_w) total += w;
  for (double w : uncore_w) total += w;
  return total;
}

PowerModel::PowerModel(const PlatformSpec& platform) : platform_(&platform) {
  clusters_.resize(platform.num_clusters());
  for (ClusterId c = 0; c < platform.num_clusters(); ++c) {
    const ClusterSpec& spec = platform.cluster(c);
    Cluster& cluster = clusters_[c];
    cluster.first_core = platform.core_id(c, 0);
    cluster.num_cores = spec.num_cores;
    cluster.leak_g0 = spec.power.leak_g0_w_per_v;
    cluster.leak_g1 = spec.power.leak_g1_w_per_v_k;
    cluster.leak_tref = spec.power.leak_tref_c;
    cluster.levels.resize(spec.vf.num_levels());
    for (std::size_t l = 0; l < spec.vf.num_levels(); ++l) {
      const VFPoint& vf = spec.vf.at(l);
      Level& level = cluster.levels[l];
      level.voltage_v = vf.voltage_v;
      level.dyn_vvf = spec.power.dyn_coeff_w * vf.voltage_v * vf.voltage_v *
                      vf.freq_ghz;
      level.uncore_vvf = spec.power.uncore_coeff_w * vf.voltage_v *
                         vf.voltage_v * vf.freq_ghz;
    }
  }
  const NpuSpec& npu = platform.npu();
  if (npu.present) {
    npu_w_active_ = npu.power_active_w;
    npu_w_idle_ = npu.power_idle_w;
  }
}

const PowerModel::Level& PowerModel::level(ClusterId cluster,
                                           std::size_t vf_level) const {
  TOPIL_REQUIRE(cluster < clusters_.size(), "cluster id out of range");
  const std::vector<Level>& levels = clusters_[cluster].levels;
  TOPIL_REQUIRE(vf_level < levels.size(), "VF level out of range");
  return levels[vf_level];
}

double PowerModel::dynamic_w(const Level& level, double activity) {
  return level.dyn_vvf * std::max(activity, kIdleActivityFloor);
}

double PowerModel::leakage_w(const Cluster& cluster, const Level& level,
                             double temp_c) {
  const double leak =
      level.voltage_v *
      (cluster.leak_g0 + cluster.leak_g1 * (temp_c - cluster.leak_tref));
  return std::max(leak, 0.0);
}

double PowerModel::core_dynamic_w(ClusterId cluster, std::size_t vf_level,
                                  double activity) const {
  return dynamic_w(level(cluster, vf_level), activity);
}

double PowerModel::core_leakage_w(ClusterId cluster, std::size_t vf_level,
                                  double temp_c) const {
  const Level& lv = level(cluster, vf_level);
  return leakage_w(clusters_[cluster], lv, temp_c);
}

PowerBreakdown PowerModel::compute(const std::vector<std::size_t>& vf_levels,
                                   const std::vector<double>& core_activity,
                                   const std::vector<double>& core_temp_c,
                                   bool npu_active) const {
  PowerBreakdown out;
  compute_into(vf_levels, core_activity, core_temp_c, npu_active, out);
  return out;
}

// Hot entry: 64-byte aligned (tools/hot_symbols.sh).
__attribute__((aligned(64))) void PowerModel::compute_into(
    const std::vector<std::size_t>& vf_levels,
    const std::vector<double>& core_activity,
    const std::vector<double>& core_temp_c, bool npu_active,
    PowerBreakdown& out) const {
  TOPIL_REQUIRE(vf_levels.size() == clusters_.size(),
                "one VF level per cluster required");
  TOPIL_REQUIRE(core_activity.size() == platform_->num_cores(),
                "one activity per core required");
  TOPIL_REQUIRE(core_temp_c.size() == platform_->num_cores(),
                "one temperature per core required");

  out.core_w.resize(core_activity.size());
  out.uncore_w.resize(clusters_.size());

  for (ClusterId c = 0; c < clusters_.size(); ++c) {
    const Cluster& cluster = clusters_[c];
    const Level& lv = level(c, vf_levels[c]);

    double activity_sum = 0.0;
    const CoreId end = cluster.first_core + cluster.num_cores;
    for (CoreId core = cluster.first_core; core < end; ++core) {
      const double act = core_activity[core];
      TOPIL_REQUIRE(act >= 0.0, "activity must be non-negative");
      out.core_w[core] =
          dynamic_w(lv, act) + leakage_w(cluster, lv, core_temp_c[core]);
      activity_sum += act;
    }

    // Uncore switching tracks the busiest-core share of the cluster: the L2
    // and interconnect are active whenever any core issues traffic.
    const double uncore_activity = std::min(
        1.0, std::max(activity_sum / static_cast<double>(cluster.num_cores),
                      kIdleActivityFloor));
    out.uncore_w[c] = lv.uncore_vvf * uncore_activity;
  }

  out.npu_w = npu_active ? npu_w_active_ : npu_w_idle_;
}

}  // namespace topil
