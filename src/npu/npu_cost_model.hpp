#pragma once

#include <cstddef>

#include "nn/mlp.hpp"

namespace topil::npu {

/// CPU-side single-thread inference cost (mobile core, fp32, used by the
/// overhead benchmark to contrast against the NPU).
struct CpuInferenceModel {
  double fixed_s = 2.0e-5;
  double macs_per_s = 6.0e7;  ///< effective scalar fp32 MAC throughput

  double latency_s(std::size_t batch_rows, double macs_per_row) const;
};

/// ONNXim-style per-layer NPU cost model (DESIGN.md §12).
///
/// Each dense layer (in -> out) of a batch of `b` rows is tiled onto a
/// `pe_rows x pe_cols` systolic array:
///
///   waves     = ceil(b / pe_rows)         rows per parallel wave
///   col_tiles = ceil(out / pe_cols)       output-channel tiles
///   compute_s = in*out * waves*pe_rows / macs_per_s   (rows rounded up
///               to a full wave: a partial wave costs a full one)
///   weight_s  = 2*in*out / weight_bytes_per_s         (fp16 weights are
///               streamed ONCE per batch — the Fig. 12 amortization)
///   act_s     = 2*b*(in+out) / act_bytes_per_s
///   layer_s   = waves*col_tiles*tile_launch_s
///               + max(compute_s, weight_s) + act_s    (roofline)
///
/// and `latency_s = fixed_s + sum over layers`. Weight traffic is paid per
/// batch, not per row, so latency-per-row falls as the batch grows — the
/// paper's batching claim becomes a model property instead of a constant.
///
/// The defaults are the calibration: a 1.2 ms driver/DMA round trip and an
/// 80 us wave of 16 rows split evenly over the paper net's 5 dense layers,
/// so the paper-scale policy net ({21,64x4,8}) costs ~1.28 ms at 1-16 rows.
struct NpuCostModel {
  double fixed_s = 1.2e-3;        ///< driver call + DMA round trip
  std::size_t pe_rows = 16;       ///< systolic rows (batch wave width)
  std::size_t pe_cols = 64;       ///< systolic cols (output-channel tile)
  /// Per (wave, col-tile) launch cost: the 80 us wave over 5 layers. The
  /// quotient rounds one ulp above the literal 1.6e-5; it is the value
  /// every recorded run was charged with, so it stays a quotient.
  double tile_launch_s = 8.0e-5 / 5.0;
  double macs_per_s = 1.92e12;    ///< fp16 MAC throughput
  double weight_bytes_per_s = 12.0e9;  ///< LPDDR4X weight stream
  double act_bytes_per_s = 12.0e9;     ///< activation DMA

  double layer_latency_s(std::size_t batch_rows, std::size_t in,
                         std::size_t out) const;
  double latency_s(const nn::Topology& topology,
                   std::size_t batch_rows) const;
};

}  // namespace topil::npu
