#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <vector>

#include "common/error.hpp"

namespace topil {

/// The 64-bit Mersenne Twister as the C++ standard defines std::mt19937_64
/// ([rand.predef]): the same seeding, twist and tempering, so it yields the
/// same outputs, and every standard distribution drawn through it the same
/// values. The library owns it so that its state is plain words that a
/// snapshot copies instead of formatting.
class Mt19937_64 {
 public:
  using result_type = std::uint_fast64_t;
  static constexpr std::size_t kStateWords = 312;
  static constexpr result_type kDefaultSeed = 5489u;

  /// The state words and the index of the next word to temper. At 312 the
  /// next draw twists first, as it does right after seeding.
  struct State {
    std::array<std::uint64_t, kStateWords> words;
    std::size_t position;
  };

  explicit Mt19937_64(result_type seed = kDefaultSeed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (state_.position >= kStateWords) twist();
    std::uint64_t z = state_.words[state_.position++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    z ^= z >> 43;
    return z;
  }

  const State& state() const { return state_; }
  /// Throws InvalidArgument on a position past 312 or an all-zero state,
  /// from which the twist yields nothing but zeros.
  void set_state(const State& state);

 private:
  void twist();

  State state_;
};

/// Deterministic random number generator used throughout the library.
///
/// All stochastic components (weight initialization, workload generation,
/// sensor noise, epsilon-greedy exploration) draw from an explicitly seeded
/// Rng so experiments are reproducible bit-for-bit across runs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    TOPIL_REQUIRE(lo <= hi, "uniform bounds inverted");
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int uniform_int(int lo, int hi) {
    TOPIL_REQUIRE(lo <= hi, "uniform_int bounds inverted");
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Gaussian with the given mean and standard deviation.
  double gaussian(double mean, double stddev) {
    TOPIL_REQUIRE(stddev >= 0.0, "negative stddev");
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Exponential with the given rate (events per unit time).
  double exponential(double rate) {
    TOPIL_REQUIRE(rate > 0.0, "exponential rate must be positive");
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p) {
    TOPIL_REQUIRE(p >= 0.0 && p <= 1.0, "probability out of range");
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Random index in [0, n).
  std::size_t index(std::size_t n) {
    TOPIL_REQUIRE(n > 0, "index over empty range");
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  /// Derive an independent child generator (for parallel components).
  Rng fork() { return Rng(engine_() ^ 0xd1b54a32d192ed03ull); }

  /// Independent, reproducible stream for parallel task `index` under a
  /// shared base seed. Streams are derived purely from (seed, index) with
  /// a splitmix64 finalizer, never from shared generator state, so the
  /// same index always sees the same stream regardless of job count or
  /// execution order (the determinism contract of `parallel_for.hpp`).
  static Rng stream(std::uint64_t seed, std::uint64_t index) {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return Rng(z ^ (z >> 31));
  }

  Mt19937_64& engine() { return engine_; }
  const Mt19937_64& engine() const { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace topil
