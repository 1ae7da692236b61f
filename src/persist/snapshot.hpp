#pragma once

#include "persist/state_codec.hpp"

namespace topil {
class SystemSim;
class Process;
class RateTracker;
class ThermalSensor;
class Dtm;
class Metrics;
class TimeWeightedAverage;
class RunningStats;
class DvfsControlLoop;
class GtsScheduler;
class Rng;
struct AppSpec;
}  // namespace topil
namespace topil::rl {
class QTable;
class RlMigrationController;
}
namespace topil::nn {
class Matrix;
}

namespace topil::persist {

/// Private-state gateway for checkpoint/restore: every class whose mutable
/// run-time state a checkpoint must capture friends this struct, and all
/// serialization lives in snapshot.cpp behind it.
///
/// Contract: `restore` is called on an object *constructed with the same
/// configuration* as the one that was saved (same platform, cooling, sim
/// config, governor setup). Only mutable run-time state is serialized —
/// derived structure (floorplan, power model, thermal propagator,
/// compiled models) is rebuilt by the constructor. After a restore the
/// object continues bit-identically to the original.
struct SnapshotAccess {
  static void save(StateWriter& out, const SystemSim& sim);
  static void restore(StateReader& in, SystemSim& sim);

  static void save(StateWriter& out, const DvfsControlLoop& loop);
  static void restore(StateReader& in, DvfsControlLoop& loop);

  static void save(StateWriter& out, const GtsScheduler& scheduler);
  static void restore(StateReader& in, GtsScheduler& scheduler);

  /// Values only; `restore` requires matching dimensions.
  static void save(StateWriter& out, const rl::QTable& table);
  static void restore(StateReader& in, rl::QTable& table);

  static void save(StateWriter& out, const rl::RlMigrationController& c);
  static void restore(StateReader& in, rl::RlMigrationController& c);

  static void save(StateWriter& out, const RunningStats& stats);
  static void restore(StateReader& in, RunningStats& stats);

 private:
  static void save(StateWriter& out, const TimeWeightedAverage& avg);
  static void restore(StateReader& in, TimeWeightedAverage& avg);
  static void save(StateWriter& out, const RateTracker& tracker);
  static void restore(StateReader& in, RateTracker& tracker);
  static void save(StateWriter& out, const ThermalSensor& sensor);
  static void restore(StateReader& in, ThermalSensor& sensor);
  static void save(StateWriter& out, const Dtm& dtm);
  static void restore(StateReader& in, Dtm& dtm);
  static void save(StateWriter& out, const Metrics& metrics);
  static void restore(StateReader& in, Metrics& metrics);
  static void save_processes(StateWriter& out, const SystemSim& sim);
  static void restore_processes(StateReader& in, SystemSim& sim);
};

/// An engine round-trips as its 312 state words and its position, 2,504
/// bytes; a restore rejects a position past 312 or an all-zero state.
void save_rng(StateWriter& out, const Rng& rng);
void restore_rng(StateReader& in, Rng& rng);

void save_matrix(StateWriter& out, const nn::Matrix& m);
nn::Matrix restore_matrix(StateReader& in);

void save_app_spec(StateWriter& out, const AppSpec& app);
AppSpec restore_app_spec(StateReader& in);

}  // namespace topil::persist
