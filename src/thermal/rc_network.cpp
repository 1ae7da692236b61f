#include "thermal/rc_network.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"

namespace topil {

namespace {

std::uint64_t bits_of(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

std::uint64_t RCNetwork::Inputs::hash() const {
  // FNV-1a's step on whole 64-bit words, with an xor-shift so high-bit
  // differences reach the low bits too. Only a bucket key: `identical`
  // decides whether two inputs are the same network.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t word) {
    h = (h ^ word) * 1099511628211ull;
    h ^= h >> 32;
  };
  mix(capacitance_j_per_k.size());
  for (const double c : capacitance_j_per_k) mix(bits_of(c));
  for (const double g : ambient_g_w_per_k) mix(bits_of(g));
  for (const ThermalConductance& c : conductances) {
    mix(c.a);
    mix(c.b);
    mix(bits_of(c.g_w_per_k));
  }
  return h;
}

bool RCNetwork::Inputs::identical(const Inputs& other) const {
  if (!same_bits(capacitance_j_per_k, other.capacitance_j_per_k) ||
      !same_bits(ambient_g_w_per_k, other.ambient_g_w_per_k) ||
      conductances.size() != other.conductances.size()) {
    return false;
  }
  for (std::size_t i = 0; i < conductances.size(); ++i) {
    const ThermalConductance& x = conductances[i];
    const ThermalConductance& y = other.conductances[i];
    if (x.a != y.a || x.b != y.b ||
        bits_of(x.g_w_per_k) != bits_of(y.g_w_per_k)) {
      return false;
    }
  }
  return true;
}

RCNetwork::RCNetwork(std::vector<double> capacitance_j_per_k,
                     std::vector<double> ambient_g_w_per_k) {
  inputs_.capacitance_j_per_k = std::move(capacitance_j_per_k);
  inputs_.ambient_g_w_per_k = std::move(ambient_g_w_per_k);
  const std::vector<double>& cap = inputs_.capacitance_j_per_k;
  const std::vector<double>& g_amb = inputs_.ambient_g_w_per_k;
  TOPIL_REQUIRE(!cap.empty(), "RC network needs at least one node");
  TOPIL_REQUIRE(g_amb.size() == cap.size(),
                "ambient conductance per node required");
  for (double c : cap) TOPIL_REQUIRE(c > 0.0, "capacitance must be positive");
  for (double g : g_amb) {
    TOPIL_REQUIRE(g >= 0.0, "ambient conductance must be non-negative");
  }
  g_.assign(cap.size() * cap.size(), 0.0);
  row_sum_ = g_amb;
}

RCNetwork::RCNetwork(Inputs inputs)
    : RCNetwork(std::move(inputs.capacitance_j_per_k),
                std::move(inputs.ambient_g_w_per_k)) {
  inputs_.conductances.reserve(inputs.conductances.size());
  for (const ThermalConductance& c : inputs.conductances) {
    add_conductance(c.a, c.b, c.g_w_per_k);
  }
}

void RCNetwork::add_conductance(std::size_t a, std::size_t b,
                                double g_w_per_k) {
  const std::size_t n = num_nodes();
  TOPIL_REQUIRE(a < n && b < n, "node index out of range");
  TOPIL_REQUIRE(a != b, "self-conductance not allowed");
  TOPIL_REQUIRE(g_w_per_k > 0.0, "conductance must be positive");
  g_[a * n + b] += g_w_per_k;
  g_[b * n + a] += g_w_per_k;
  row_sum_[a] += g_w_per_k;
  row_sum_[b] += g_w_per_k;
  inputs_.conductances.push_back({a, b, g_w_per_k});
  stable_dt_dirty_ = true;
}

double RCNetwork::conductance(std::size_t a, std::size_t b) const {
  const std::size_t n = num_nodes();
  TOPIL_REQUIRE(a < n && b < n && a != b, "node index out of range");
  return g_[a * n + b];
}

double RCNetwork::ambient_conductance(std::size_t node) const {
  TOPIL_REQUIRE(node < num_nodes(), "node index out of range");
  return inputs_.ambient_g_w_per_k[node];
}

double RCNetwork::max_stable_dt() const {
  if (stable_dt_dirty_) {
    ++stable_dt_scans_;
    const std::vector<double>& cap = inputs_.capacitance_j_per_k;
    double max_rate = 0.0;
    for (std::size_t i = 0; i < cap.size(); ++i) {
      max_rate = std::max(max_rate, row_sum_[i] / cap[i]);
    }
    // Heun's method is stable for dt < 2/rate; a quarter of the fastest
    // time constant keeps the per-step error well below sensor resolution.
    stable_dt_cache_ = (max_rate <= 0.0) ? 1.0 : 0.25 / max_rate;
    stable_dt_dirty_ = false;
  }
  return stable_dt_cache_;
}

void RCNetwork::euler_step(std::vector<double>& temps_c,
                           const std::vector<double>& power_w,
                           double ambient_c, double dt,
                           StepWorkspace& ws) const {
  // One step of Heun's method (explicit trapezoidal rule): second-order
  // accurate, which matters because governors compare temperatures that
  // differ by fractions of a degree. Every stage element is overwritten
  // before use, so the workspace only needs the right size — `step`
  // resizes it once per call, not per substep.
  const std::size_t n = num_nodes();
  const std::vector<double>& cap = inputs_.capacitance_j_per_k;
  const std::vector<double>& g_amb = inputs_.ambient_g_w_per_k;
  std::vector<double>& k1 = ws.k1;
  std::vector<double>& predictor = ws.predictor;
  std::vector<double>& k2 = ws.k2;

  auto derivative = [&](const std::vector<double>& t,
                        std::vector<double>& out) {
    for (std::size_t i = 0; i < n; ++i) {
      double flux = power_w[i] + g_amb[i] * (ambient_c - t[i]);
      const double* row = &g_[i * n];
      for (std::size_t j = 0; j < n; ++j) {
        if (row[j] != 0.0) flux += row[j] * (t[j] - t[i]);
      }
      out[i] = flux / cap[i];
    }
  };

  derivative(temps_c, k1);
  for (std::size_t i = 0; i < n; ++i) {
    predictor[i] = temps_c[i] + dt * k1[i];
  }
  derivative(predictor, k2);
  for (std::size_t i = 0; i < n; ++i) {
    temps_c[i] += 0.5 * dt * (k1[i] + k2[i]);
  }
}

void RCNetwork::step(std::vector<double>& temps_c,
                     const std::vector<double>& power_w, double ambient_c,
                     double dt) const {
  StepWorkspace ws;
  step(temps_c, power_w, ambient_c, dt, ws);
}

void RCNetwork::step(std::vector<double>& temps_c,
                     const std::vector<double>& power_w, double ambient_c,
                     double dt, StepWorkspace& ws) const {
  const std::size_t n = num_nodes();
  TOPIL_REQUIRE(temps_c.size() == n, "temperature vector size");
  TOPIL_REQUIRE(power_w.size() == n, "power vector size");
  TOPIL_REQUIRE(dt >= 0.0, "negative time step");
  if (dt == 0.0) return;
  ws.k1.resize(n);
  ws.predictor.resize(n);
  ws.k2.resize(n);
  const double max_dt = max_stable_dt();
  const auto substeps =
      static_cast<std::size_t>(std::ceil(dt / max_dt));
  const double h = dt / static_cast<double>(substeps);
  for (std::size_t s = 0; s < substeps; ++s) {
    euler_step(temps_c, power_w, ambient_c, h, ws);
  }
}

std::vector<double> RCNetwork::steady_state(const std::vector<double>& power_w,
                                            double ambient_c) const {
  const std::size_t n = num_nodes();
  TOPIL_REQUIRE(power_w.size() == n, "power vector size");
  const std::vector<double>& g_amb = inputs_.ambient_g_w_per_k;

  // Solve L * T = P + Gamb * T_amb with L = diag(row_sum) - G via Gaussian
  // elimination with partial pivoting. L is strictly diagonally dominant as
  // long as at least one node couples to ambient, hence non-singular.
  bool grounded = false;
  for (double g : g_amb) grounded |= (g > 0.0);
  TOPIL_REQUIRE(grounded,
                "steady state requires a path to ambient (floating network)");

  std::vector<double> a(n * n);
  std::vector<double> rhs(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a[i * n + j] = (i == j) ? row_sum_[i] : -g_[i * n + j];
    }
    rhs[i] = power_w[i] + g_amb[i] * ambient_c;
  }

  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a[r * n + col]) > std::abs(a[pivot * n + col])) pivot = r;
    }
    TOPIL_ASSERT(std::abs(a[pivot * n + col]) > 1e-12,
                 "singular thermal network");
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(a[col * n + j], a[pivot * n + j]);
      }
      std::swap(rhs[col], rhs[pivot]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a[r * n + col] / a[col * n + col];
      if (factor == 0.0) continue;
      for (std::size_t j = col; j < n; ++j) {
        a[r * n + j] -= factor * a[col * n + j];
      }
      rhs[r] -= factor * rhs[col];
    }
  }
  std::vector<double> temps(n);
  for (std::size_t i = n; i-- > 0;) {
    double acc = rhs[i];
    for (std::size_t j = i + 1; j < n; ++j) acc -= a[i * n + j] * temps[j];
    temps[i] = acc / a[i * n + i];
  }
  return temps;
}

}  // namespace topil
