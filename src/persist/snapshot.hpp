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
/// run-time state a checkpoint must capture friends this struct, and each
/// one's field list lives in snapshot.cpp behind it. `fields(io, x)` with
/// a StateWriter saves `x`; with a StateReader it restores `x`.
///
/// Contract: a restore fills an object *constructed with the same
/// configuration* as the one that was saved (same platform, cooling, sim
/// config, governor setup). Only mutable run-time state is serialized —
/// derived structure (floorplan, power model, thermal propagator,
/// compiled models) is rebuilt by the constructor. After a restore the
/// object continues bit-identically to the original.
struct SnapshotAccess {
  template <typename Io>
  static void fields(Io& io, Ref<Io, SystemSim> sim);
  template <typename Io>
  static void fields(Io& io, Ref<Io, DvfsControlLoop> loop);
  template <typename Io>
  static void fields(Io& io, Ref<Io, GtsScheduler> scheduler);
  /// Values only; a restore requires matching dimensions.
  template <typename Io>
  static void fields(Io& io, Ref<Io, rl::QTable> table);
  template <typename Io>
  static void fields(Io& io, Ref<Io, rl::RlMigrationController> c);
  template <typename Io>
  static void fields(Io& io, Ref<Io, RunningStats> stats);
  /// An engine is its 312 state words and its position, 2,504 bytes; a
  /// restore rejects a position past 312 or an all-zero state.
  template <typename Io>
  static void fields(Io& io, Ref<Io, Rng> rng);
  template <typename Io>
  static void fields(Io& io, Ref<Io, nn::Matrix> m);
  template <typename Io>
  static void fields(Io& io, Ref<Io, AppSpec> app);

 private:
  template <typename Io>
  static void fields(Io& io, Ref<Io, TimeWeightedAverage> avg);
  template <typename Io>
  static void fields(Io& io, Ref<Io, RateTracker> tracker);
  template <typename Io>
  static void fields(Io& io, Ref<Io, ThermalSensor> sensor);
  template <typename Io>
  static void fields(Io& io, Ref<Io, Dtm> dtm);
  template <typename Io>
  static void fields(Io& io, Ref<Io, Metrics> metrics);
  /// A process of `sim`, less its pid (the process table's key).
  template <typename Io>
  static void fields(Io& io, Ref<Io, Process> proc, Ref<Io, SystemSim> sim);
};

}  // namespace topil::persist
