#include "npu/npu_cost_model.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace topil::npu {
namespace {

const nn::Topology kPaperTopology{21, {64, 64, 64, 64}, 8};

TEST(NpuCostModel, MonotoneNonDecreasingInBatchSize) {
  const NpuCostModel cost;
  double prev = 0.0;
  for (std::size_t b = 1; b <= 200; ++b) {
    const double latency = cost.latency_s(kPaperTopology, b);
    EXPECT_GE(latency, prev) << "batch " << b;
    prev = latency;
  }
}

TEST(NpuCostModel, MonotoneNonDecreasingInLayerWidth) {
  const NpuCostModel cost;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{16},
                                  std::size_t{64}}) {
    double prev = 0.0;
    for (const std::size_t width :
         {std::size_t{8}, std::size_t{16}, std::size_t{32}, std::size_t{64},
          std::size_t{128}, std::size_t{256}}) {
      const nn::Topology topology{21, {width, width, width, width}, 8};
      const double latency = cost.latency_s(topology, batch);
      EXPECT_GE(latency, prev) << "width " << width << " batch " << batch;
      prev = latency;
    }
  }
}

TEST(NpuCostModel, LatencyPerRowNonIncreasingOverDoublingBatches) {
  // Fig. 12's property: along the benchmark's batch axis (powers of two),
  // amortizing the fixed overhead and the per-batch weight traffic makes
  // the cost per inferred row fall (or stay flat), never rise.
  const NpuCostModel cost;
  double prev_per_row = cost.latency_s(kPaperTopology, 1);
  for (std::size_t b = 2; b <= 512; b *= 2) {
    const double per_row =
        cost.latency_s(kPaperTopology, b) / static_cast<double>(b);
    EXPECT_LE(per_row, prev_per_row) << "batch " << b;
    prev_per_row = per_row;
  }
}

TEST(NpuCostModel, DefaultsMatchCalibrationBitForBit) {
  // The defaults are the calibration every recorded run was charged with
  // (the quotient 8e-5 / 5, one ulp above the literal 1.6e-5), and the
  // paper net's latency at one wave (1 and 16 rows) and two waves (17).
  const NpuCostModel cost;
  EXPECT_EQ(cost.tile_launch_s, 0x1.0c6f7a0b5ed8ep-16);
  EXPECT_EQ(cost.latency_s(kPaperTopology, 1), 0x1.502f98490c8e4p-10);
  EXPECT_EQ(cost.latency_s(kPaperTopology, 16), 0x1.508a5c0ef48f8p-10);
  EXPECT_EQ(cost.latency_s(kPaperTopology, 17), 0x1.65891ea509923p-10);
}

TEST(NpuCostModel, DefaultsStayInPaperLatencyRange) {
  // The paper-scale policy net costs low single-digit milliseconds at
  // batch 16.
  NpuCostModel cost;
  const double latency = cost.latency_s(kPaperTopology, 16);
  EXPECT_GT(latency, 0.5e-3);
  EXPECT_LT(latency, 3.0e-3);

  // A caller-configured fixed overhead (the governor deferral tests use
  // 0.7 s) carries through.
  cost.fixed_s = 0.7;
  EXPECT_GT(cost.latency_s(kPaperTopology, 4), 0.7);
}

TEST(NpuCostModel, RejectsEmptyBatchAndEmptyLayer) {
  const NpuCostModel cost;
  EXPECT_THROW(cost.latency_s(kPaperTopology, 0), InvalidArgument);
  EXPECT_THROW(cost.layer_latency_s(0, 4, 4), InvalidArgument);
  EXPECT_THROW(cost.layer_latency_s(1, 0, 4), InvalidArgument);
  EXPECT_THROW(cost.layer_latency_s(1, 4, 0), InvalidArgument);
}

TEST(NpuCostModel, WeightTrafficIsAmortizedAcrossTheBatch) {
  // Doubling the batch must NOT double the latency while the batch still
  // fits in one wave: fixed overhead and weight streaming are per-batch.
  const NpuCostModel cost;
  const double t1 = cost.latency_s(kPaperTopology, 1);
  const double t16 = cost.latency_s(kPaperTopology, 16);
  EXPECT_LT(t16, 1.05 * t1) << "batch 16 should cost nearly the same as "
                               "batch 1 (the paper's constant-overhead "
                               "observation)";
}

}  // namespace
}  // namespace topil::npu
