#include "npu/npu_cost_model.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "npu/compiled_model.hpp"
#include "npu/npu_device.hpp"

namespace topil::npu {
namespace {

const nn::Topology kPaperTopology{21, {64, 64, 64, 64}, 8};

TEST(NpuCostModel, MonotoneNonDecreasingInBatchSize) {
  const NpuCostModel cost = NpuCostModel::from_legacy(NpuLatencyModel{});
  double prev = 0.0;
  for (std::size_t b = 1; b <= 200; ++b) {
    const double latency = cost.latency_s(kPaperTopology, b);
    EXPECT_GE(latency, prev) << "batch " << b;
    prev = latency;
  }
}

TEST(NpuCostModel, MonotoneNonDecreasingInLayerWidth) {
  const NpuCostModel cost = NpuCostModel::from_legacy(NpuLatencyModel{});
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
  const NpuCostModel cost = NpuCostModel::from_legacy(NpuLatencyModel{});
  double prev_per_row = cost.latency_s(kPaperTopology, 1);
  for (std::size_t b = 2; b <= 512; b *= 2) {
    const double per_row =
        cost.latency_s(kPaperTopology, b) / static_cast<double>(b);
    EXPECT_LE(per_row, prev_per_row) << "batch " << b;
    prev_per_row = per_row;
  }
}

TEST(NpuCostModel, FromLegacyStaysInPaperLatencyRange) {
  // The per-layer model must land where the legacy constant model put the
  // paper-scale policy net: low single-digit milliseconds at batch 16.
  const NpuCostModel cost = NpuCostModel::from_legacy(NpuLatencyModel{});
  const double latency = cost.latency_s(kPaperTopology, 16);
  EXPECT_GT(latency, 0.5e-3);
  EXPECT_LT(latency, 3.0e-3);

  // A caller-configured fixed overhead (the governor deferral tests use
  // 0.7 s) must carry through from_legacy.
  NpuLatencyModel slow;
  slow.fixed_s = 0.7;
  EXPECT_GT(NpuCostModel::from_legacy(slow).latency_s(kPaperTopology, 4),
            0.7);
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
  const NpuCostModel cost = NpuCostModel::from_legacy(NpuLatencyModel{});
  const double t1 = cost.latency_s(kPaperTopology, 1);
  const double t16 = cost.latency_s(kPaperTopology, 16);
  EXPECT_LT(t16, 1.05 * t1) << "batch 16 should cost nearly the same as "
                               "batch 1 (the paper's constant-overhead "
                               "observation)";
}

TEST(NpuDeviceQueueing, SerializesJobsBehindBusyHorizon) {
  const nn::Mlp network = [] {
    nn::Mlp m(kPaperTopology);
    m.init(1);
    return m;
  }();
  const CompiledModel compiled = CompiledModel::compile(network);
  nn::Matrix input(4, kPaperTopology.inputs);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input.data()[i] = 0.25f;
  }

  NpuCostModel cost = NpuCostModel::from_legacy(NpuLatencyModel{});
  const double service = cost.latency_s(kPaperTopology, input.rows());

  // Default (queueing off): concurrent tenants overlap freely.
  {
    NpuDevice device{cost};
    const auto a = device.submit(compiled, input, 1.0);
    const auto b = device.submit(compiled, input, 1.0);
    EXPECT_DOUBLE_EQ(device.completion_time(a), 1.0 + service);
    EXPECT_DOUBLE_EQ(device.completion_time(b), 1.0 + service);
  }

  // Queueing on: the second tenant waits for the first to drain.
  cost.queueing = true;
  {
    NpuDevice device{cost};
    const auto a = device.submit(compiled, input, 1.0);
    const auto b = device.submit(compiled, input, 1.0);
    EXPECT_DOUBLE_EQ(device.completion_time(a), 1.0 + service);
    EXPECT_DOUBLE_EQ(device.completion_time(b), 1.0 + 2.0 * service);
    // After the queue drains, a later job starts immediately again.
    const double idle = device.completion_time(b) + 1.0;
    const auto c = device.submit(compiled, input, idle);
    EXPECT_DOUBLE_EQ(device.completion_time(c), idle + service);
  }
}

TEST(NpuDeviceCostModel, ModelAwareLatencyMatchesSubmitDoneAt) {
  const nn::Mlp network = [] {
    nn::Mlp m(kPaperTopology);
    m.init(2);
    return m;
  }();
  const CompiledModel compiled = CompiledModel::compile(network);
  nn::Matrix input(7, kPaperTopology.inputs);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input.data()[i] = 0.5f;
  }

  NpuDevice device;
  const double now = 3.25;
  const auto job = device.submit(compiled, input, now);
  // (now + latency) - now re-rounds, so allow the device's own ready()
  // epsilon; NpuDevice.ReadyAtSubmitTimePlusLatency checks the polling
  // contract.
  EXPECT_NEAR(device.completion_time(job) - now,
              device.latency_s(compiled, input.rows()), 1e-12);
}

}  // namespace
}  // namespace topil::npu
