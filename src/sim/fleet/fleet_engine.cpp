#include "sim/fleet/fleet_engine.hpp"

#include "common/error.hpp"

namespace topil::fleet {

void FleetEngine::FastGroup::write_power(std::size_t col,
                                         const PowerBreakdown& p) {
  const std::size_t w = width;
  for (std::size_t core = 0; core < core_rows.size(); ++core) {
    power[core_rows[core] * w + col] = p.core_w[core];
  }
  for (std::size_t c = 0; c < cluster_rows.size(); ++c) {
    power[cluster_rows[c] * w + col] = p.uncore_w[c];
  }
  if (npu_row != kNoNode) power[npu_row * w + col] = p.npu_w;
}

void FleetEngine::FastGroup::step() {
  prop->step_batched(temps, power, ambient, width, ws);
}

void FleetEngine::FastGroup::read_temps(
    std::size_t col, std::vector<double>& lane_temps) const {
  for (std::size_t i = 0; i < n; ++i) lane_temps[i] = temps[i * width + col];
}

void FleetEngine::FastGroup::add_column(std::size_t lane_index,
                                        const std::vector<double>& lane_temps,
                                        double lane_ambient) {
  TOPIL_REQUIRE(lane_temps.size() == n,
                "fleet group column temperature size mismatch");
  const std::size_t w = width;
  temps.resize(n * (w + 1));
  power.resize(n * (w + 1));
  // In-place stride repack w -> w+1, backwards: the write index never drops
  // below the read index (i*(w+1)+s >= i*w+s), so descending iteration is
  // safe.
  for (std::size_t i = n; i-- > 0;) {
    temps[i * (w + 1) + w] = lane_temps[i];
    power[i * (w + 1) + w] = 0.0;
    for (std::size_t s = w; s-- > 0;) {
      temps[i * (w + 1) + s] = temps[i * w + s];
      power[i * (w + 1) + s] = power[i * w + s];
    }
  }
  ambient.push_back(lane_ambient);
  lane_of_col.push_back(lane_index);
  width = w + 1;
}

void FleetEngine::FastGroup::remove_column(std::size_t col) {
  TOPIL_REQUIRE(col < width, "fleet group column out of range");
  const std::size_t w = width;
  // In-place stride repack w -> w-1: the write index never passes the read
  // index (i*(w-1)+s <= i*w+s), so forward iteration is safe.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t s = 0; s + 1 < w; ++s) {
      const std::size_t src = i * w + (s < col ? s : s + 1);
      temps[i * (w - 1) + s] = temps[src];
      power[i * (w - 1) + s] = power[src];
    }
  }
  temps.resize(n * (w - 1));
  power.resize(n * (w - 1));
  ambient.erase(ambient.begin() + static_cast<std::ptrdiff_t>(col));
  lane_of_col.erase(lane_of_col.begin() + static_cast<std::ptrdiff_t>(col));
  width = w - 1;
}

FleetEngine::FleetEngine(std::vector<Lane> lanes) {
  TOPIL_REQUIRE(!lanes.empty(), "fleet engine needs at least one lane");
  lanes_.reserve(lanes.size());
  for (Lane& lane : lanes) attach_lane(std::move(lane));
}

std::size_t FleetEngine::attach_lane(Lane lane) {
  TOPIL_REQUIRE(lane.sim != nullptr, "fleet lane without a simulator");
  TOPIL_REQUIRE(static_cast<bool>(lane.pre_tick),
                "fleet lane without a pre_tick hook");
  const std::size_t index = lanes_.size();
  LaneState state;
  state.lane = std::move(lane);
  lanes_.push_back(std::move(state));
  ++active_;
  join_slab_group(index);
  return index;
}

void FleetEngine::join_slab_group(std::size_t index) {
  LaneState& state = lanes_[index];
  SystemSim& sim = *state.lane.sim;
  if (sim.thermal().integrator() != ThermalIntegrator::Exponential) {
    return;  // Heun lanes step their own thermal model.
  }
  state.fast = true;

  const std::shared_ptr<const ThermalPropagator> prop =
      sim.thermal().propagator_for(sim.config().tick_s);
  const Floorplan& fp = sim.thermal().floorplan();
  auto [group_it, group_new] =
      group_of_.emplace(prop.get(), fast_groups_.size());
  if (group_new) {
    FastGroup group;
    group.prop = prop;
    group.n = sim.thermal().node_temps_c().size();
    group.core_rows = fp.core_nodes;
    group.cluster_rows = fp.cluster_nodes;
    group.npu_row = fp.npu_node;
    fast_groups_.push_back(std::move(group));
  }
  FastGroup& group = fast_groups_[group_it->second];
  // A shared propagator means an identical RC network, but the heat-input
  // row mapping lives in the floorplan — require it to match too.
  TOPIL_REQUIRE(fp.core_nodes == group.core_rows &&
                    fp.cluster_nodes == group.cluster_rows &&
                    fp.npu_node == group.npu_row,
                "fleet group lanes disagree on floorplan node layout");

  state.group = group_it->second;
  state.col = group.width;
  group.add_column(index, sim.thermal().node_temps_c(),
                   sim.thermal().cooling().ambient_c);
}

void FleetEngine::set_tick_barrier(std::function<void()> barrier) {
  barrier_ = std::move(barrier);
}

void FleetEngine::detach_lane(std::size_t index) {
  TOPIL_REQUIRE(index < lanes_.size(), "fleet lane index out of range");
  TOPIL_REQUIRE(lanes_[index].active, "fleet lane already retired");
  retire_lane(index);
}

bool FleetEngine::lane_active(std::size_t index) const {
  TOPIL_REQUIRE(index < lanes_.size(), "fleet lane index out of range");
  return lanes_[index].active;
}

void FleetEngine::retire_lane(std::size_t index) {
  LaneState& state = lanes_[index];
  state.active = false;
  --active_;
  if (!state.fast) return;
  FastGroup& group = fast_groups_[state.group];
  group.remove_column(state.col);
  for (std::size_t s = state.col; s < group.width; ++s) {
    lanes_[group.lane_of_col[s]].col = s;
  }
}

std::vector<std::size_t> FleetEngine::compact() {
  std::vector<std::size_t> remap(lanes_.size(), kRemovedLane);
  std::vector<LaneState> kept;
  kept.reserve(active_);
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (!lanes_[i].active) continue;
    remap[i] = kept.size();
    kept.push_back(std::move(lanes_[i]));
  }
  lanes_ = std::move(kept);
  // Retirement already repacked retired lanes out of every slab, so the
  // surviving groups only reference surviving lanes.
  for (FastGroup& group : fast_groups_) {
    for (std::size_t& lane : group.lane_of_col) lane = remap[lane];
  }
  return remap;
}

std::size_t FleetEngine::step() {
  if (active_ == 0) return 0;

  // Phase 1: per-lane loop head + first tick half, in lane order. A lane
  // retiring here repacks its group's slab before the group steps.
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    LaneState& state = lanes_[i];
    state.ticking = false;
    if (!state.active) continue;
    SystemSim& sim = *state.lane.sim;
    if (!state.lane.pre_tick(sim)) {
      retire_lane(i);
      continue;
    }
    sim.tick_begin();
    if (state.fast) {
      fast_groups_[state.group].write_power(state.col, sim.last_power());
    }
    state.ticking = true;
  }

  // Phase 2: cross-lane barrier (NPU inference aggregation).
  if (barrier_) barrier_();

  // Phase 3: thermal advance — one matrix-matrix product per group for
  // the slab lanes, scalar steps for the Heun lanes.
  for (FastGroup& group : fast_groups_) {
    if (group.width == 0) continue;
    group.step();
    batched_ticks_ += group.width;
  }
  for (LaneState& state : lanes_) {
    if (!state.ticking || state.fast) continue;
    SystemSim& sim = *state.lane.sim;
    sim.thermal().step(sim.last_power(), sim.config().tick_s);
    ++scalar_ticks_;
  }

  // Phase 4: publish each slab column, then the second tick half and the
  // observers, in lane order.
  for (LaneState& state : lanes_) {
    if (!state.ticking) continue;
    SystemSim& sim = *state.lane.sim;
    if (state.fast) {
      fast_groups_[state.group].read_temps(
          state.col, sim.thermal().mutable_node_temps_c());
    }
    sim.tick_finish();
    if (state.lane.post_tick) state.lane.post_tick(sim);
  }
  return active_;
}

void FleetEngine::run() {
  while (step() > 0) {
  }
}

}  // namespace topil::fleet
