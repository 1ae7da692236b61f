// The propagator build (Jacobi eigendecomposition and A/B/k assembly) must
// produce the same bits as the textbook code it replaced, on every
// instruction-set variant this CPU executes, not only the one dispatched.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "../common/simd_isas.hpp"
#include "platform/floorplan.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/thermal_model.hpp"
#include "thermal/thermal_propagator.hpp"

namespace topil {
namespace {

/// The cyclic Jacobi eigendecomposition as the propagator ran it before
/// the lower-triangle, transposed-eigenvector kernel: full symmetric `m`
/// (row-major, destroyed; eigenvalues end on its diagonal), column k of
/// `v` is the k-th eigenvector.
void reference_jacobi_eigen(std::vector<double>& m, std::vector<double>& v,
                            std::size_t n) {
  v.assign(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) v[i * n + i] = 1.0;

  for (int sweep = 0; sweep < 100; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        off += m[p * n + q] * m[p * n + q];
      }
    }
    if (off <= 1e-24) break;

    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = m[p * n + q];
        if (std::abs(apq) < 1e-300) continue;
        const double theta = (m[q * n + q] - m[p * n + p]) / (2.0 * apq);
        const double t = std::copysign(1.0, theta) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (std::size_t j = 0; j < n; ++j) {
          if (j == p || j == q) continue;
          const double mjp = m[j * n + p];
          const double mjq = m[j * n + q];
          m[j * n + p] = m[p * n + j] = c * mjp - s * mjq;
          m[j * n + q] = m[q * n + j] = s * mjp + c * mjq;
        }
        const double mpp = m[p * n + p];
        const double mqq = m[q * n + q];
        m[p * n + p] = c * c * mpp - 2.0 * s * c * apq + s * s * mqq;
        m[q * n + q] = s * s * mpp + 2.0 * s * c * apq + c * c * mqq;
        m[p * n + q] = m[q * n + p] = 0.0;

        for (std::size_t j = 0; j < n; ++j) {
          const double vjp = v[j * n + p];
          const double vjq = v[j * n + q];
          v[j * n + p] = c * vjp - s * vjq;
          v[j * n + q] = s * vjp + c * vjq;
        }
      }
    }
  }
}

/// The scaled-symmetric matrix M = D^-1 L D^-1, both triangles.
std::vector<double> scaled_symmetric(const RCNetwork& network) {
  const std::size_t n = network.num_nodes();
  const std::vector<double>& cap = network.capacitances();
  const std::vector<double>& g = network.conductance_matrix();
  const std::vector<double>& row_sum = network.laplacian_row_sums();
  std::vector<double> d(n);
  for (std::size_t i = 0; i < n; ++i) d[i] = std::sqrt(cap[i]);
  std::vector<double> m(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double l = (i == j) ? row_sum[i] : -g[i * n + j];
      m[i * n + j] = l / (d[i] * d[j]);
    }
  }
  return m;
}

struct ReferenceEigen {
  std::vector<double> values;
  std::vector<double> v;  ///< column k is the k-th eigenvector
};

ReferenceEigen reference_eigen(const RCNetwork& network) {
  const std::size_t n = network.num_nodes();
  std::vector<double> m = scaled_symmetric(network);
  ReferenceEigen eig;
  reference_jacobi_eigen(m, eig.v, n);
  for (std::size_t k = 0; k < n; ++k) eig.values.push_back(m[k * n + k]);
  return eig;
}

struct ReferenceUpdate {
  std::vector<double> a;
  std::vector<double> b;
  std::vector<double> k;
};

/// A, B and k assembled as the propagator did before: every (i, j) pair
/// summed on its own over the column-major eigenvectors.
ReferenceUpdate reference_update(const RCNetwork& network,
                                 const ReferenceEigen& eig, double dt) {
  const std::size_t n = network.num_nodes();
  const std::vector<double>& cap = network.capacitances();
  const std::vector<double>& g_amb = network.ambient_conductances();
  const std::vector<double>& v = eig.v;
  std::vector<double> d(n);
  for (std::size_t i = 0; i < n; ++i) d[i] = std::sqrt(cap[i]);
  std::vector<double> e(n);
  std::vector<double> phi(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double lambda = std::max(eig.values[k], 0.0);
    const double x = lambda * dt;
    e[k] = std::exp(-x);
    phi[k] = x > 1e-12 ? -std::expm1(-x) / lambda : dt;
  }
  ReferenceUpdate out;
  out.a.assign(n * n, 0.0);
  out.b.assign(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sa = 0.0;
      double sb = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        const double vv = v[i * n + k] * v[j * n + k];
        sa += vv * e[k];
        sb += vv * phi[k];
      }
      out.a[i * n + j] = sa * d[j] / d[i];
      out.b[i * n + j] = sb / (d[i] * d[j]);
    }
  }
  out.k.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += out.b[i * n + j] * g_amb[j];
    out.k[i] = acc;
  }
  return out;
}

/// Index of the first element whose bits differ, or -1.
long first_bit_difference(const std::vector<double>& got,
                          const std::vector<double>& want) {
  if (got.size() != want.size()) return 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

struct NamedNetwork {
  std::string name;
  RCNetwork network;
};

/// The package grid's networks with fan and without, plain and jittered.
std::vector<NamedNetwork> grid_networks(std::size_t grid) {
  const PlatformSpec platform = PlatformSpec::hikey970();
  std::vector<NamedNetwork> out;
  for (const double jitter : {0.0, 0.05}) {
    FloorplanParams params;
    params.package_grid = grid;
    params.jitter_rel = jitter;
    params.jitter_seed = 7 + grid;
    const Floorplan fp = Floorplan::for_platform(platform, params);
    for (const CoolingConfig& cooling :
         {CoolingConfig::fan(), CoolingConfig::no_fan()}) {
      out.push_back({std::to_string(fp.nodes.size()) + " nodes, " +
                         cooling.name + ", jitter " + std::to_string(jitter),
                     RCNetwork(ThermalModel::network_inputs(fp, cooling))});
    }
  }
  return out;
}

void expect_build_matches_reference(const NamedNetwork& named) {
  const RCNetwork& network = named.network;
  const std::size_t n = network.num_nodes();
  const ReferenceEigen want = reference_eigen(network);
  const std::vector<double> m = scaled_symmetric(network);

  for (const SimdIsa isa : executable_isas()) {
    SCOPED_TRACE(named.name + ", " + isa_name(isa));
    const detail::SymmetricEigen got = detail::jacobi_eigen(m, n, isa);
    ASSERT_EQ(first_bit_difference(got.values, want.values), -1)
        << "eigenvalue differs";
    std::vector<double> vectors(n * n);
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t j = 0; j < n; ++j) {
        vectors[j * n + k] = got.vectors[k * got.stride + j];
      }
    }
    ASSERT_EQ(first_bit_difference(vectors, want.v), -1)
        << "eigenvector element differs";

    for (const double dt : {0.001, 0.01, 0.5}) {
      SCOPED_TRACE("dt " + std::to_string(dt));
      const ReferenceUpdate ref = reference_update(network, want, dt);
      const ThermalPropagator prop(network, dt, isa);
      EXPECT_EQ(first_bit_difference(prop.state_matrix(), ref.a), -1)
          << "A differs";
      EXPECT_EQ(first_bit_difference(prop.input_matrix(), ref.b), -1)
          << "B differs";
      EXPECT_EQ(first_bit_difference(prop.ambient_drive(), ref.k), -1)
          << "k differs";
    }
  }
}

class PropagatorBuildOnGrid : public ::testing::TestWithParam<std::size_t> {};

// 13, 49 and 156 nodes; fan and no fan; plain and jittered; three dts.
TEST_P(PropagatorBuildOnGrid, BitIdenticalToReferenceOnEveryIsa) {
  for (const NamedNetwork& named : grid_networks(GetParam())) {
    expect_build_matches_reference(named);
  }
}

INSTANTIATE_TEST_SUITE_P(PackageGrids, PropagatorBuildOnGrid,
                         ::testing::Values(std::size_t{1}, std::size_t{6},
                                           std::size_t{12}));

// A floating network (no path to ambient) has the lambda = 0 mode, whose
// phi takes the dt branch.
TEST(PropagatorBuild, FloatingNetworkBitIdenticalToReferenceOnEveryIsa) {
  const PlatformSpec platform = PlatformSpec::hikey970();
  RCNetwork::Inputs inputs = ThermalModel::network_inputs(
      Floorplan::for_platform(platform), CoolingConfig::fan());
  std::fill(inputs.ambient_g_w_per_k.begin(), inputs.ambient_g_w_per_k.end(),
            0.0);
  expect_build_matches_reference({"floating", RCNetwork(std::move(inputs))});
}

}  // namespace
}  // namespace topil
