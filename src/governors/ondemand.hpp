#pragma once

#include "governors/gts.hpp"

namespace topil {

/// Linux `ondemand` cpufreq governor model: per cluster, jump to the peak
/// VF level when utilization exceeds the up-threshold, step down one level
/// when it falls below the down-threshold. Application characteristics and
/// QoS targets are not considered.
class OndemandPolicy : public FreqPolicy {
 public:
  struct Config {
    double period_s = 0.1;
    double up_threshold = 0.8;
    double down_threshold = 0.3;
  };

  OndemandPolicy();
  explicit OndemandPolicy(Config config);

  std::string name() const override { return "ondemand"; }
  void reset(SystemSim& sim) override;
  void tick(SystemSim& sim) override;

  void save_state(persist::StateWriter& out) const override;
  void restore_state(persist::StateReader& in) override;

 private:
  Config config_;
  double next_run_ = 0.0;

  template <typename Io, typename Self>
  static void fields(Io& io, Self& self);
};

}  // namespace topil
