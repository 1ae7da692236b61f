#include "nn/serialize.hpp"

#include <cstdint>

#include "persist/atomic_file.hpp"

namespace topil::nn {

namespace {

constexpr std::uint32_t kMagic = 0x544f504cu;  // "TOPL"
constexpr std::uint32_t kVersion = 1;
// Plausibility bounds: the policy nets here are tens of inputs and a few
// dozen hidden units. Anything near these limits is a corrupt header,
// and rejecting it up front keeps a bit-flipped dimension from turning
// into a multi-GB allocation.
constexpr std::uint64_t kMaxDim = 1u << 20;
constexpr std::uint64_t kMaxParams = 1u << 26;

/// The model file: magic, version, then the model's fields.
template <typename Io>
void file_fields(Io& io, persist::Ref<Io, Topology> topo,
                 persist::Ref<Io, std::vector<float>> weights) {
  std::uint32_t magic = kMagic;
  std::uint32_t version = kVersion;
  io.u32(magic);
  io.u32(version);
  if constexpr (Io::kReading) {
    TOPIL_REQUIRE(magic == kMagic, "not a TOP-IL model file");
    TOPIL_REQUIRE(version == kVersion, "unsupported model file version");
  }
  model_fields(io, topo, weights);
}

}  // namespace

template <typename Io>
void model_fields(Io& io, persist::Ref<Io, Topology> topo,
                  persist::Ref<Io, std::vector<float>> weights) {
  io.u64(topo.inputs);
  io.u64(topo.outputs);
  if constexpr (Io::kReading) {
    TOPIL_REQUIRE(topo.inputs > 0 && topo.inputs <= kMaxDim,
                  "implausible model input width");
    TOPIL_REQUIRE(topo.outputs > 0 && topo.outputs <= kMaxDim,
                  "implausible model output width");
  }
  io.seq(topo.hidden);
  // The parameter count the bounded dimensions give: each term is at most
  // 2^40 and there are < 66 of them, so the sum cannot overflow.
  std::uint64_t params = 0;
  if constexpr (Io::kReading) {
    TOPIL_REQUIRE(topo.hidden.size() < 64, "implausible hidden layer count");
    std::uint64_t prev = topo.inputs;
    for (std::size_t h : topo.hidden) {
      TOPIL_REQUIRE(h > 0 && h <= kMaxDim, "implausible hidden layer width");
      params += prev * h + h;
      prev = h;
    }
    params += prev * topo.outputs + topo.outputs;
    TOPIL_REQUIRE(params <= kMaxParams, "implausible model size");
  }
  io.seq(weights);
  if constexpr (Io::kReading) {
    TOPIL_REQUIRE(weights.size() == params,
                  "weight count does not match topology");
  }
}

template void model_fields(persist::StateWriter&, const Topology&,
                           const std::vector<float>&);
template void model_fields(persist::StateReader&, Topology&,
                           std::vector<float>&);

void save_model(const Mlp& model, const std::string& path) {
  persist::StateWriter out;
  file_fields(out, model.topology(), model.save_weights());
  persist::atomic_write(path, out.buffer());
}

Mlp load_model(const std::string& path) {
  Topology topo;
  std::vector<float> weights;
  persist::parse_file(path, "model file", [&](persist::StateReader& in) {
    file_fields(in, topo, weights);
  });
  Mlp model(topo);
  model.load_weights(weights);
  return model;
}

}  // namespace topil::nn
