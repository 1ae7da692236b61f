#include "npu/npu_device.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace topil::npu {
namespace {

nn::Mlp small_model() {
  nn::Topology t;
  t.inputs = 21;
  t.hidden = {64, 64, 64, 64};
  t.outputs = 8;
  nn::Mlp model(t);
  model.init(3);
  return model;
}

nn::Matrix random_batch(std::size_t rows, std::size_t cols,
                        std::uint64_t seed) {
  nn::Matrix m(rows, cols);
  Rng rng(seed);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  return m;
}

TEST(CompiledModel, QuantizationIsCloseButNotExact) {
  const nn::Mlp model = small_model();
  const CompiledModel compiled = CompiledModel::compile(model);
  const nn::Matrix x = random_batch(8, 21, 5);
  const nn::Matrix exact = model.predict(x);
  const nn::Matrix quant = compiled.infer(x);
  double max_err = 0.0;
  bool any_diff = false;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    const double err = std::abs(exact.data()[i] - quant.data()[i]);
    max_err = std::max(max_err, err);
    any_diff |= (exact.data()[i] != quant.data()[i]);
  }
  EXPECT_TRUE(any_diff) << "fp16 compile should perturb weights";
  EXPECT_LT(max_err, 0.05) << "fp16 error should be small";
}

TEST(CompiledModel, MacCountMatchesTopology) {
  const CompiledModel compiled = CompiledModel::compile(small_model());
  EXPECT_DOUBLE_EQ(compiled.macs_per_row(),
                   21.0 * 64 + 3 * 64.0 * 64 + 64.0 * 8);
  EXPECT_EQ(compiled.num_params(),
            21u * 64 + 64 + 3 * (64 * 64 + 64) + 64 * 8 + 8);
}

TEST(CompiledModel, BatchedInferenceBitIdenticalToRowAtATime) {
  const CompiledModel compiled = CompiledModel::compile(small_model());
  const nn::Matrix batch = random_batch(17, 21, 7);

  nn::Matrix batched;
  nn::InferenceWorkspace ws;
  compiled.infer_batched_into(batch, batched, ws);
  ASSERT_EQ(batched.rows(), 17u);
  ASSERT_EQ(batched.cols(), 8u);

  for (std::size_t r = 0; r < batch.rows(); ++r) {
    nn::Matrix row(1, batch.cols());
    std::copy(batch.row(r), batch.row(r) + batch.cols(), row.row(0));
    const nn::Matrix single = compiled.infer(row);
    for (std::size_t c = 0; c < single.cols(); ++c) {
      // Exact equality: batching must not change the arithmetic.
      ASSERT_EQ(single.at(0, c), batched.at(r, c)) << "row " << r;
    }
  }

  // Workspace reuse across calls does not perturb results either.
  nn::Matrix again;
  compiled.infer_batched_into(batch, again, ws);
  for (std::size_t i = 0; i < batched.size(); ++i) {
    ASSERT_EQ(batched.data()[i], again.data()[i]);
  }
}

TEST(NpuLatency, NearlyConstantInBatchSize) {
  const NpuLatencyModel model;
  const double macs = 14000.0;
  const double t1 = model.latency_s(1, macs);
  const double t16 = model.latency_s(16, macs);
  // One wave of 16 rows: same tile count, negligible extra compute.
  EXPECT_LT(t16 / t1, 1.05);
  // 17 rows needs a second wave.
  EXPECT_GT(model.latency_s(17, macs), t16);
}

TEST(NpuLatency, PaperScaleLatency) {
  // The governor's policy batch must land in the low-millisecond range
  // the paper reports for the migration policy invocation.
  const NpuLatencyModel model;
  const double t = model.latency_s(16, 14144.0);
  EXPECT_GT(t, 0.5e-3);
  EXPECT_LT(t, 3e-3);
}

TEST(CpuInference, ScalesLinearlyAndSlower) {
  const CpuInferenceModel cpu;
  const NpuLatencyModel npu;
  const double macs = 14144.0;
  const double cpu1 = cpu.latency_s(1, macs);
  const double cpu16 = cpu.latency_s(16, macs);
  EXPECT_GT(cpu16, cpu1 * 10.0);  // linear scaling
  EXPECT_GT(cpu16, npu.latency_s(16, macs));  // NPU wins on big batches
}

TEST(NpuDevice, AsyncJobLifecycle) {
  NpuDevice device;
  const CompiledModel compiled = CompiledModel::compile(small_model());
  const nn::Matrix x = random_batch(4, 21, 9);

  const auto job = device.submit(compiled, x, 1.0);
  EXPECT_EQ(device.pending_jobs(), 1u);
  EXPECT_FALSE(device.ready(job, 1.0));
  const double done = device.completion_time(job);
  EXPECT_GT(done, 1.0);
  EXPECT_TRUE(device.ready(job, done));
  EXPECT_THROW(device.take_result(job, 1.0), InvalidArgument);  // too early
  const nn::Matrix result = device.take_result(job, done);
  EXPECT_EQ(result.rows(), 4u);
  EXPECT_EQ(result.cols(), 8u);
  EXPECT_EQ(device.pending_jobs(), 0u);
  EXPECT_THROW(device.ready(job, done), InvalidArgument);  // consumed
}

TEST(NpuDevice, ReadyAtSubmitTimePlusLatency) {
  // The governor's polling contract: a submitted job is not ready at
  // submit, is ready exactly `latency_s` later (the busy time it charges),
  // and then yields one output row per input row.
  NpuDevice device;
  const CompiledModel compiled = CompiledModel::compile(small_model());
  const double now = 2.5;
  const auto job = device.submit(compiled, random_batch(2, 21, 4), now);
  EXPECT_FALSE(device.ready(job, now));
  const double ready_at = now + device.latency_s(compiled, 2);
  ASSERT_TRUE(device.ready(job, ready_at));
  const nn::Matrix result = device.take_result(job, ready_at);
  EXPECT_EQ(result.rows(), 2u);
  EXPECT_EQ(result.cols(), 8u);
}

TEST(NpuDevice, ResultMatchesCompiledInference) {
  NpuDevice device;
  const CompiledModel compiled = CompiledModel::compile(small_model());
  const nn::Matrix x = random_batch(3, 21, 10);
  const auto job = device.submit(compiled, x, 0.0);
  const nn::Matrix expected = compiled.infer(x);
  const nn::Matrix got = device.take_result(job, 1.0);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_FLOAT_EQ(got.data()[i], expected.data()[i]);
  }
}

TEST(NpuDevice, MultipleOutstandingJobs) {
  NpuDevice device;
  const CompiledModel compiled = CompiledModel::compile(small_model());
  const auto a = device.submit(compiled, random_batch(1, 21, 1), 0.0);
  const auto b = device.submit(compiled, random_batch(2, 21, 2), 0.0);
  EXPECT_NE(a, b);
  EXPECT_EQ(device.pending_jobs(), 2u);
  device.take_result(a, 1.0);
  device.take_result(b, 1.0);
  EXPECT_EQ(device.pending_jobs(), 0u);
}

TEST(NpuDevice, RejectsEmptyBatch) {
  NpuDevice device;
  const CompiledModel compiled = CompiledModel::compile(small_model());
  EXPECT_THROW(device.latency_s(0, 100.0), InvalidArgument);
}

}  // namespace
}  // namespace topil::npu
