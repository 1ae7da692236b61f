#pragma once

#include "governors/gts.hpp"

namespace topil {

/// Linux `schedutil` cpufreq governor model (the modern kernel default,
/// not evaluated in the paper — included as an extension baseline):
/// per cluster, the requested frequency tracks utilization proportionally,
///   f = headroom * util * f_max,
/// re-evaluated at the scheduler-tick rate with a rate limit. Unlike
/// `ondemand` there is no jump-to-peak / step-down asymmetry.
class SchedutilPolicy : public FreqPolicy {
 public:
  struct Config {
    double period_s = 0.05;
    /// The kernel's 1.25x utilization headroom.
    double headroom = 1.25;
    /// Minimum time between frequency changes.
    double rate_limit_s = 0.1;
  };

  SchedutilPolicy() : SchedutilPolicy(Config{}) {}
  explicit SchedutilPolicy(Config config);

  std::string name() const override { return "schedutil"; }
  void reset(SystemSim& sim) override;
  void tick(SystemSim& sim) override;

  void save_state(persist::StateWriter& out) const override;
  void restore_state(persist::StateReader& in) override;

 private:
  Config config_;
  double next_run_ = 0.0;
  std::vector<double> last_change_;

  template <typename Io, typename Self>
  static void fields(Io& io, Self& self);
};

/// GTS scheduling paired with schedutil.
std::unique_ptr<Governor> make_gts_schedutil();

}  // namespace topil
