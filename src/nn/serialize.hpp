#pragma once

#include <string>
#include <vector>

#include "nn/mlp.hpp"
#include "persist/state_codec.hpp"

namespace topil::nn {

/// Save a model (topology + weights) to a simple self-describing binary
/// format, so a trained policy can be shipped and loaded by the runtime
/// governor or compiled for the NPU without retraining.
void save_model(const Mlp& model, const std::string& path);

/// Load a model saved with save_model. Throws on format mismatch; every
/// error names the file.
Mlp load_model(const std::string& path);

/// A model's topology and weights inside a record (the model file, the
/// training log's model record). A reader refuses implausible dimensions
/// and a weight count that does not match them.
template <typename Io>
void model_fields(Io& io, persist::Ref<Io, Topology> topo,
                  persist::Ref<Io, std::vector<float>> weights);

}  // namespace topil::nn
