#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "platform/floorplan.hpp"
#include "sim/system_sim.hpp"
#include "thermal/thermal_propagator.hpp"

namespace topil::fleet {

/// Lockstep SoA stepper over many independent simulations ("lanes").
///
/// Each fleet tick advances every still-active lane by exactly one
/// simulator tick, in lane order, with the per-lane work split so the
/// expensive shared piece batches across lanes:
///
///   1. per lane: `pre_tick` hook (arrivals, termination test, governor),
///      then `SystemSim::tick_begin`; an exponential-integrator lane's
///      block powers are copied into its group's power slab;
///   2. the tick barrier hook — where a driver flushes the shared NPU
///      inference aggregator, turning every lane's governor submission of
///      this tick into one device call;
///   3. thermal advance: exponential lanes live in persistent node-major
///      SoA slabs grouped by shared propagator (same RC-network structural
///      hash and dt, i.e. the same cache entry from src/thermal), advanced
///      with one `ThermalPropagator::step_batched` matrix-matrix product
///      per group; Heun lanes take the ordinary `ThermalModel::step`;
///   4. per lane: the slab column is copied back into the lane's thermal
///      model, then `SystemSim::tick_finish` and the `post_tick` hook.
///
/// Slab lanes keep their temperatures authoritative in the group slab and
/// mirror them into `ThermalModel::node_temps_c()` at the end of every
/// tick, so external readers always see live values; hooks must not write
/// node temperatures behind the engine's back. Lane retirement repacks the
/// slab columns in place, so a ragged fleet (lanes finishing at different
/// times) keeps batching densely to the end.
///
/// Determinism contract (DESIGN.md §10): the engine runs each lane's own
/// tick and batches only the thermal advance, which `step_batched` performs
/// bit-identically to `ThermalPropagator::step`. A lane's state digest
/// therefore never depends on its batch-mates, the batch size, the batch
/// composition, or when it joined the fleet. CI enforces this over the
/// pinned scenario corpus.
///
/// The engine knows nothing about governors or workloads — drivers express
/// those through the hooks (see fleet::run_experiments for the standard
/// experiment-loop adapter). Not thread-safe: one engine per worker.
///
/// Dynamic fleets (the governor server's shards): lanes may be attached at
/// any step boundary with `attach_lane` and removed with `detach_lane` (or
/// by their own `pre_tick` returning false). Retired lanes keep a small
/// tombstone entry until `compact()` reclaims them, so a long-lived engine
/// serving a churning device fleet stays bounded by its *live* lane count.
class FleetEngine {
 public:
  struct Lane {
    SystemSim* sim = nullptr;
    /// One loop-head of the lane's driver: spawn due work, test for
    /// completion, run the governor. Returning false retires the lane
    /// *without* stepping it (mirroring a scalar driver's loop exit).
    std::function<bool(SystemSim&)> pre_tick;
    /// After the lane's tick completes (observers, trace capture). May be
    /// empty.
    std::function<void(SystemSim&)> post_tick;
  };

  /// An empty engine accepting lanes via `attach_lane` (dynamic fleets).
  FleetEngine() = default;
  explicit FleetEngine(std::vector<Lane> lanes);

  /// Hook run once per fleet tick between every active lane's `pre_tick`
  /// and the thermal advance (step 2 above). May be empty.
  void set_tick_barrier(std::function<void()> barrier);

  /// Add a lane at a step boundary (never from inside a hook). Returns the
  /// lane's index — stable until the next `compact()`. The lane's first
  /// tick is bit-identical to the same simulation stepped alone, exactly
  /// as for construction-time lanes.
  std::size_t attach_lane(Lane lane);

  /// Retire a still-active lane at a step boundary without stepping it
  /// (e.g. a client deregistering its device). The lane's simulator is
  /// not touched again; its slab column is repacked away immediately.
  void detach_lane(std::size_t index);

  bool lane_active(std::size_t index) const;

  /// Drop retired lanes' tombstones and return the index remap:
  /// `remap[old] == new` for surviving lanes, `kRemovedLane` for reclaimed
  /// ones. Call at a step boundary, after the retired lanes' simulators
  /// are done being read (their sims may be destroyed afterwards).
  static constexpr std::size_t kRemovedLane = static_cast<std::size_t>(-1);
  std::vector<std::size_t> compact();

  /// Advance every active lane one tick; returns lanes still active.
  std::size_t step();

  /// Step until every lane has retired.
  void run();

  std::size_t num_lanes() const { return lanes_.size(); }
  std::size_t active_lanes() const { return active_; }

  // --- lifetime statistics (bench / test introspection) ---

  /// Lane-ticks whose thermal advance went through the batched propagator
  /// (every exponential lane, including width-1 groups: the batched kernel
  /// is bit-identical to the scalar step at any width).
  std::uint64_t batched_thermal_lane_ticks() const { return batched_ticks_; }
  /// Lane-ticks that fell back to the scalar thermal step (Heun lanes).
  std::uint64_t scalar_thermal_lane_ticks() const { return scalar_ticks_; }

 private:
  /// One persistent thermal batch: all exponential lanes sharing a
  /// propagator (identical RC-network structural hash and dt). The
  /// node-major temperature slab is the authoritative thermal state of its
  /// lanes while the fleet runs; each lane's `ThermalModel` is re-synced
  /// from its column at the end of every tick.
  struct FastGroup {
    std::shared_ptr<const ThermalPropagator> prop;
    std::size_t n = 0;      ///< thermal nodes
    std::size_t width = 0;  ///< active columns (lanes)
    std::vector<std::size_t> lane_of_col;
    std::vector<double> temps;    ///< node-major, element (i, s) at i*width+s
    std::vector<double> power;    ///< node-major heat input
    std::vector<double> ambient;  ///< per column
    ThermalPropagator::BatchWorkspace ws;
    // Heat-input rows shared by every lane in the group (same structural
    // network implies the same generated node layout).
    std::vector<std::size_t> core_rows;
    std::vector<std::size_t> cluster_rows;
    std::size_t npu_row = kNoNode;

    /// Write one lane's block powers into its power column. Rows without a
    /// heat source (package, heatsink) stay at the zero they started with.
    void write_power(std::size_t col, const PowerBreakdown& p);
    /// Advance every column by dt in one matrix-matrix sweep.
    void step();
    /// Copy one column's temperatures out into a lane's node vector.
    void read_temps(std::size_t col, std::vector<double>& lane_temps) const;
    /// Append a column for `lane_index` (a newly attached lane), re-striding
    /// the slabs w -> w+1; existing columns keep their values bit-exactly.
    /// The new column's temperatures are seeded from `lane_temps` and its
    /// power rows start at zero.
    void add_column(std::size_t lane_index,
                    const std::vector<double>& lane_temps,
                    double lane_ambient);
    /// Repack the slabs without column `col` (a retired lane) and shrink
    /// the stride; remaining columns keep their values bit-exactly. The
    /// caller fixes the `col` index of every lane after the removed one.
    void remove_column(std::size_t col);
  };

  struct LaneState {
    Lane lane;
    bool fast = false;  ///< exponential lane: thermal state in a group slab
    std::size_t group = 0;  ///< fast lanes: index into fast_groups_
    std::size_t col = 0;    ///< fast lanes: column in that group's slabs
    bool active = true;
    bool ticking = false;  ///< active and pre_tick passed this fleet tick
  };

  std::vector<LaneState> lanes_;
  std::function<void()> barrier_;
  std::size_t active_ = 0;
  std::uint64_t batched_ticks_ = 0;
  std::uint64_t scalar_ticks_ = 0;

  // One FastGroup per distinct propagator ever seen. The group's
  // shared_ptr keeps the propagator — and with it the uniqueness of the
  // map key — alive, so empty groups are safely reusable by later lanes.
  std::vector<FastGroup> fast_groups_;
  std::map<const ThermalPropagator*, std::size_t> group_of_;

  void join_slab_group(std::size_t index);
  void retire_lane(std::size_t index);
};

}  // namespace topil::fleet
