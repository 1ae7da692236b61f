// Inference perf gate: the production dense kernel against the scalar
// reference at each batch size for the paper's policy net (Fig. 12 shape),
// plus ragged-shape fp16 GEMM micro-records. Writes BENCH_npu.json
// (override with --json).
//
//   perf_infer [--smoke] [--jobs N] [--json FILE]
//
// Measured curves (single-threaded, per inference call):
//   infer_scalar_b<N>    scalar reference (nn::dense_forward_reference per
//                        layer of the compiled model)
//   infer_simd_b<N>      production path (CompiledModel::infer_batched_into,
//                        i.e. nn::dense_forward_simd)
//   gemm_<in>x<out>_b<N> one fused dense layer vs the scalar reference
// Modeled curve (per-layer NPU cost model, not wall clock):
//   npu_model_b<N>       "speedup" = per-row amortization vs batch 1
//
// Every measured record's speedup_vs_serial is vs the scalar reference at
// the same batch size; rate_per_s is inferred rows per second. The binary
// also cross-checks that the production path's outputs are bit-identical
// to the reference and exits non-zero on any mismatch, so CI can use
// --smoke as a gate.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "npu/compiled_model.hpp"
#include "npu/npu_cost_model.hpp"
#include "support/bench_support.hpp"

namespace topil::bench {
namespace {

struct InferBenchConfig {
  std::vector<std::size_t> batches = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  struct GemmShape {
    std::size_t in;
    std::size_t out;
  };
  std::vector<GemmShape> gemm_shapes = {{21, 8}, {64, 64}, {33, 17}, {61, 3}};
  std::vector<std::size_t> gemm_batches = {1, 16, 64};
  double target_ms = 20.0;  ///< calibration target per measurement
};

const nn::Topology kPolicyTopology{21, {64, 64, 64, 64}, 8};

nn::Matrix random_batch(std::size_t rows, std::size_t cols,
                        std::uint64_t seed) {
  nn::Matrix batch(rows, cols);
  Rng rng(seed);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch.data()[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
  }
  return batch;
}

/// Per-call wall milliseconds: calibrate the repetition count to
/// ~target_ms, then keep the best of three runs (least interference).
template <typename Fn>
double time_call_ms(Fn&& fn, double target_ms) {
  fn();  // warm-up (weight caches, page faults)
  std::size_t reps = 1;
  for (;;) {
    WallTimer timer;
    for (std::size_t i = 0; i < reps; ++i) fn();
    if (timer.elapsed_ms() >= target_ms / 4.0 || reps >= (1u << 20)) break;
    reps *= 2;
  }
  double best = 1e300;
  for (int run = 0; run < 3; ++run) {
    WallTimer timer;
    for (std::size_t i = 0; i < reps; ++i) fn();
    best = std::min(best, timer.elapsed_ms());
  }
  return best / static_cast<double>(reps);
}

/// Scalar reference forward over every layer of `network`: ReLU on hidden
/// layers, linear output, caller-owned buffers reused across calls.
void reference_infer(const nn::Mlp& network, const nn::Matrix& input,
                     nn::Matrix& out, nn::InferenceWorkspace& ws,
                     std::vector<float>& bt) {
  const std::vector<nn::DenseLayer>& layers = network.layers();
  const nn::Matrix* x = &input;
  for (std::size_t i = 0; i + 1 < layers.size(); ++i) {
    nn::Matrix& activation = (i % 2 == 0) ? ws.a : ws.b;
    nn::dense_forward_reference(*x, layers[i].weights(), layers[i].bias(),
                                activation, bt, /*relu=*/true);
    x = &activation;
  }
  nn::dense_forward_reference(*x, layers.back().weights(),
                              layers.back().bias(), out, bt, /*relu=*/false);
}

bool bit_identical(const nn::Matrix& a, const nn::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

int run(const InferBenchConfig& bench, const BenchOptions& options) {
  print_header("perf_infer",
               "batch-size inference curves, production kernel vs scalar "
               "reference (policy net 21-64-64-64-64-8)");

  nn::Mlp network(kPolicyTopology);
  network.init(4242);
  const npu::CompiledModel compiled = npu::CompiledModel::compile(network);

  const npu::NpuCostModel cost =
      npu::NpuCostModel::from_legacy(npu::NpuLatencyModel{});

  BenchJsonWriter json(options.json_enabled() ? options.json_path
                                              : "BENCH_npu.json");
  bool identical = true;

  std::printf("\n  %-8s %12s %12s %10s %14s\n", "batch", "scalar_us",
              "simd_us", "simd_x", "npu_model_us");
  for (const std::size_t batch : bench.batches) {
    const nn::Matrix input =
        random_batch(batch, kPolicyTopology.inputs, 1000 + batch);

    nn::Matrix reference;
    nn::InferenceWorkspace ref_ws;
    std::vector<float> bt;
    reference_infer(compiled.network(), input, reference, ref_ws, bt);
    nn::Matrix out;
    nn::InferenceWorkspace ws;
    compiled.infer_batched_into(input, out, ws);
    if (!bit_identical(out, reference)) {
      std::fprintf(stderr,
                   "FAIL: production output differs from the scalar "
                   "reference at batch %zu\n",
                   batch);
      identical = false;
    }

    const double scalar_ms = time_call_ms(
        [&] {
          reference_infer(compiled.network(), input, reference, ref_ws, bt);
        },
        bench.target_ms);
    const double simd_ms = time_call_ms(
        [&] { compiled.infer_batched_into(input, out, ws); },
        bench.target_ms);
    const double rows = static_cast<double>(batch);
    json.add_rate("infer_scalar_b" + std::to_string(batch), scalar_ms, 1,
                  1.0, rows / (scalar_ms / 1e3));
    json.add_rate("infer_simd_b" + std::to_string(batch), simd_ms, 1,
                  scalar_ms / simd_ms, rows / (simd_ms / 1e3));

    // Modeled NPU curve: latency from the per-layer cost model; the
    // "speedup" column records the Fig. 12 property — how much cheaper a
    // row gets when the batch amortizes fixed overhead + weight traffic.
    const double model_ms = cost.latency_s(kPolicyTopology, batch) * 1e3;
    const double model_amortization =
        cost.latency_s(kPolicyTopology, 1) * rows / (model_ms / 1e3);
    json.add_rate("npu_model_b" + std::to_string(batch), model_ms, 1,
                  model_amortization, rows / (model_ms / 1e3));

    std::printf("  %-8zu %12.2f %12.2f %9.2fx %14.1f\n", batch,
                scalar_ms * 1e3, simd_ms * 1e3, scalar_ms / simd_ms,
                model_ms * 1e3);
  }

  print_header("perf_infer", "ragged fp16 GEMM (fused SIMD vs scalar)");
  std::printf("\n  %-12s %-8s %12s %12s %10s\n", "shape", "batch",
              "scalar_us", "simd_us", "simd_x");
  for (const auto& shape : bench.gemm_shapes) {
    const nn::Topology gemm_topology{shape.in, {}, shape.out};
    nn::Mlp layer_net(gemm_topology);
    layer_net.init(7 + shape.in * 131 + shape.out);
    const nn::DenseLayer& layer = layer_net.layers().front();
    for (const std::size_t batch : bench.gemm_batches) {
      const nn::Matrix input =
          random_batch(batch, shape.in, 9000 + shape.in + batch);
      nn::Matrix out;
      nn::InferenceWorkspace ws;
      std::vector<float> bt;
      const double scalar_ms = time_call_ms(
          [&] {
            nn::dense_forward_reference(input, layer.weights(), layer.bias(),
                                        out, bt, /*relu=*/false);
          },
          bench.target_ms);
      const double simd_ms = time_call_ms(
          [&] { layer_net.predict_into(input, out, ws); }, bench.target_ms);
      const std::string name = "gemm_" + std::to_string(shape.in) + "x" +
                               std::to_string(shape.out) + "_b" +
                               std::to_string(batch);
      json.add_rate(name, simd_ms, 1, scalar_ms / simd_ms,
                    static_cast<double>(batch) / (simd_ms / 1e3));
      std::printf("  %-12s %-8zu %12.3f %12.3f %9.2fx\n",
                  (std::to_string(shape.in) + "x" + std::to_string(shape.out))
                      .c_str(),
                  batch, scalar_ms * 1e3, simd_ms * 1e3,
                  scalar_ms / simd_ms);
    }
  }

  json.flush();
  if (!identical) {
    std::fprintf(stderr,
                 "perf_infer: production outputs are NOT bit-identical to "
                 "the scalar reference\n");
    return 1;
  }
  std::printf("\nproduction path bit-identical to the scalar reference; "
              "records written\n");
  return 0;
}

}  // namespace
}  // namespace topil::bench

int main(int argc, char** argv) {
  // Pre-scan --smoke (parse_bench_args rejects unknown flags).
  topil::bench::InferBenchConfig bench;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--smoke") == 0) {
      bench.batches = {1, 16, 64};
      bench.gemm_shapes = {{21, 8}, {33, 17}};
      bench.gemm_batches = {1, 16};
      bench.target_ms = 4.0;
      continue;
    }
    args.push_back(argv[i]);
  }
  const auto options = topil::bench::parse_bench_args(
      static_cast<int>(args.size()), args.data());
  (void)options.jobs;  // the kernels under test are single-threaded
  return topil::bench::run(bench, options);
}
