#include "common/rng.hpp"

namespace topil {

Mt19937_64::Mt19937_64(result_type seed) {
  std::uint64_t x = seed;
  state_.words[0] = x;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    x = 6364136223846793005ull * (x ^ (x >> 62)) + i;
    state_.words[i] = x;
  }
  state_.position = kStateWords;
}

void Mt19937_64::set_state(const State& state) {
  TOPIL_REQUIRE(state.position <= kStateWords,
                "mt19937_64 state: position " +
                    std::to_string(state.position) + " past its 312 words");
  TOPIL_REQUIRE(std::any_of(state.words.begin(), state.words.end(),
                            [](std::uint64_t w) { return w != 0; }),
                "mt19937_64 state: all words are zero");
  state_ = state;
}

void Mt19937_64::twist() {
  constexpr std::size_t n = kStateWords;
  constexpr std::size_t m = 156;
  constexpr std::uint64_t upper = ~std::uint64_t{0} << 31;
  constexpr std::uint64_t lower = ~upper;
  std::array<std::uint64_t, n>& x = state_.words;
  const auto mix = [](std::uint64_t hi, std::uint64_t lo, std::uint64_t far) {
    const std::uint64_t y = (hi & upper) | (lo & lower);
    return far ^ (y >> 1) ^ ((y & 1u) ? 0xb5026f5aa96619e9ull : 0u);
  };
  std::size_t k = 0;
  for (; k < n - m; ++k) x[k] = mix(x[k], x[k + 1], x[k + m]);
  for (; k < n - 1; ++k) x[k] = mix(x[k], x[k + 1], x[k + m - n]);
  x[n - 1] = mix(x[n - 1], x[0], x[m - 1]);
  state_.position = 0;
}

}  // namespace topil
