#include "npu/npu_cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace topil::npu {

double CpuInferenceModel::latency_s(std::size_t batch_rows,
                                    double macs_per_row) const {
  TOPIL_REQUIRE(batch_rows > 0, "empty batch");
  return fixed_s +
         macs_per_row * static_cast<double>(batch_rows) / macs_per_s;
}

double NpuCostModel::layer_latency_s(std::size_t batch_rows, std::size_t in,
                                     std::size_t out) const {
  TOPIL_REQUIRE(batch_rows > 0, "empty batch");
  TOPIL_REQUIRE(in > 0 && out > 0, "empty layer");
  const double b = static_cast<double>(batch_rows);
  const double waves =
      std::ceil(b / static_cast<double>(std::max<std::size_t>(pe_rows, 1)));
  const double col_tiles = std::ceil(
      static_cast<double>(out) /
      static_cast<double>(std::max<std::size_t>(pe_cols, 1)));
  const double weights = static_cast<double>(in) * static_cast<double>(out);
  const double compute_s =
      weights * waves * static_cast<double>(pe_rows) / macs_per_s;
  const double weight_s = 2.0 * weights / weight_bytes_per_s;
  const double act_s =
      2.0 * b * static_cast<double>(in + out) / act_bytes_per_s;
  return waves * col_tiles * tile_launch_s + std::max(compute_s, weight_s) +
         act_s;
}

double NpuCostModel::latency_s(const nn::Topology& topology,
                               std::size_t batch_rows) const {
  TOPIL_REQUIRE(batch_rows > 0, "empty batch");
  double total = fixed_s;
  std::size_t prev = topology.inputs;
  for (std::size_t width : topology.hidden) {
    total += layer_latency_s(batch_rows, prev, width);
    prev = width;
  }
  total += layer_latency_s(batch_rows, prev, topology.outputs);
  return total;
}

}  // namespace topil::npu
