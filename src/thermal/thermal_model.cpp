#include "thermal/thermal_model.hpp"

#include <algorithm>

namespace topil {

CoolingConfig CoolingConfig::fan() {
  return {"fan", 0.25, 25.0};
}

CoolingConfig CoolingConfig::no_fan() {
  return {"no-fan", 0.13, 25.0};
}

RCNetwork::Inputs ThermalModel::network_inputs(const Floorplan& fp,
                                                const CoolingConfig& cooling) {
  TOPIL_REQUIRE(cooling.heatsink_to_ambient_g > 0.0,
                "cooling conductance must be positive");
  TOPIL_REQUIRE(fp.heatsink_node < fp.nodes.size(),
                "heatsink node out of range");
  RCNetwork::Inputs inputs;
  inputs.capacitance_j_per_k.reserve(fp.nodes.size());
  for (const auto& node : fp.nodes) {
    inputs.capacitance_j_per_k.push_back(node.capacitance_j_per_k);
  }
  inputs.ambient_g_w_per_k.assign(fp.nodes.size(), 0.0);
  inputs.ambient_g_w_per_k[fp.heatsink_node] = cooling.heatsink_to_ambient_g;
  inputs.conductances = fp.conductances;
  return inputs;
}

ThermalModel::ThermalModel(const PlatformSpec& platform,
                           const Floorplan& floorplan,
                           const CoolingConfig& cooling,
                           ThermalIntegrator integrator)
    : platform_(&platform),
      floorplan_(&floorplan),
      cooling_(cooling),
      integrator_(integrator),
      network_(ThermalNetwork::shared(network_inputs(floorplan, cooling))),
      temps_(floorplan.nodes.size(), cooling.ambient_c) {
  TOPIL_REQUIRE(floorplan.core_nodes.size() == platform.num_cores(),
                "floorplan does not match platform (cores)");
  TOPIL_REQUIRE(floorplan.cluster_nodes.size() == platform.num_clusters(),
                "floorplan does not match platform (clusters)");
}

void ThermalModel::reset() {
  std::fill(temps_.begin(), temps_.end(), cooling_.ambient_c);
}

void ThermalModel::set_node_temps_c(const std::vector<double>& temps_c) {
  TOPIL_REQUIRE(temps_c.size() == temps_.size(),
                "node temperature count mismatch");
  temps_ = temps_c;
}

void ThermalModel::node_power_into(const PowerBreakdown& power,
                                   std::vector<double>& p) const {
  node_power_into(*platform_, *floorplan_, power, p);
}

void ThermalModel::node_power_into(const PlatformSpec& platform,
                                   const Floorplan& floorplan,
                                   const PowerBreakdown& power,
                                   std::vector<double>& p) {
  TOPIL_REQUIRE(power.core_w.size() == platform.num_cores(),
                "power breakdown core count mismatch");
  TOPIL_REQUIRE(power.uncore_w.size() == platform.num_clusters(),
                "power breakdown cluster count mismatch");
  p.assign(floorplan.nodes.size(), 0.0);
  for (CoreId core = 0; core < platform.num_cores(); ++core) {
    p[floorplan.core_nodes[core]] += power.core_w[core];
  }
  for (ClusterId c = 0; c < platform.num_clusters(); ++c) {
    p[floorplan.cluster_nodes[c]] += power.uncore_w[c];
  }
  if (floorplan.npu_node != kNoNode) {
    p[floorplan.npu_node] += power.npu_w;
  }
}

std::vector<double> ThermalModel::node_power(
    const PowerBreakdown& power) const {
  std::vector<double> p;
  node_power_into(power, p);
  return p;
}

void ThermalModel::step(const PowerBreakdown& power, double dt) {
  node_power_into(power, power_buf_);
  if (integrator_ == ThermalIntegrator::Heun) {
    network_->rc().step(temps_, power_buf_, cooling_.ambient_c, dt,
                        step_ws_);
    return;
  }
  TOPIL_REQUIRE(dt >= 0.0, "negative time step");
  if (dt == 0.0) return;
  if (!propagator_ || propagator_->dt() != dt) {
    propagator_ = network_->propagator(dt);
  }
  propagator_->step(temps_, power_buf_, cooling_.ambient_c, prop_ws_);
}

std::shared_ptr<const ThermalPropagator> ThermalModel::propagator_for(
    double dt) const {
  TOPIL_REQUIRE(dt > 0.0, "time step must be positive");
  if (!propagator_ || propagator_->dt() != dt) {
    propagator_ = network_->propagator(dt);
  }
  return propagator_;
}

void ThermalModel::settle(const PowerBreakdown& power) {
  node_power_into(power, power_buf_);
  network_->steady_solver().solve_into(power_buf_, cooling_.ambient_c,
                                      temps_);
}

std::vector<double> ThermalModel::steady_state(
    const PowerBreakdown& power) const {
  return network_->steady_solver().solve(node_power(power),
                                        cooling_.ambient_c);
}

double ThermalModel::core_temp_c(CoreId core) const {
  TOPIL_REQUIRE(core < platform_->num_cores(), "core id out of range");
  return temps_[floorplan_->core_nodes[core]];
}

double ThermalModel::cluster_temp_c(ClusterId cluster) const {
  TOPIL_REQUIRE(cluster < platform_->num_clusters(),
                "cluster id out of range");
  return temps_[floorplan_->cluster_nodes[cluster]];
}

double ThermalModel::package_temp_c() const {
  return temps_[floorplan_->package_node];
}

double ThermalModel::max_core_temp_c() const {
  double max_t = temps_[floorplan_->core_nodes[0]];
  for (CoreId core = 1; core < platform_->num_cores(); ++core) {
    max_t = std::max(max_t, temps_[floorplan_->core_nodes[core]]);
  }
  return max_t;
}

}  // namespace topil
