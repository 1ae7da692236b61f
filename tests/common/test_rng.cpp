#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <random>

namespace topil {
namespace {

// The standard's own check value for mt19937_64 ([rand.predef]).
TEST(Mt19937_64, TenThousandthOutputIsTheStandardsValue) {
  Mt19937_64 engine;
  for (int i = 1; i < 10000; ++i) engine();
  EXPECT_EQ(engine(), 9981545732273789042ull);
}

// Every seed the library uses is a plain 64-bit value: 5489 (the
// standard's default), 0, Rng's default and a Rng::stream seed. Right
// after seeding, state word 0 is the seed itself.
std::vector<std::uint64_t> identity_seeds() {
  return {5489u, 0u, Rng().engine().state().words[0],
          Rng::stream(11, 3).engine().state().words[0]};
}

// Identical raw output is what keeps every digest, trained policy and CSV
// where std::mt19937_64 put it.
TEST(Mt19937_64, RawOutputsMatchStdEngine) {
  for (const std::uint64_t seed : identity_seeds()) {
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 100000; ++i) {
      ASSERT_EQ(engine(), reference()) << "seed " << seed << " draw " << i;
    }
  }
}

// Rng's distributions use only the engine's URBG interface, so they draw
// what the same std distributions draw from std::mt19937_64.
TEST(Mt19937_64, RngDrawsMatchStdDistributionsOnStdEngine) {
  for (const std::uint64_t seed : identity_seeds()) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 10000; ++i) {
      ASSERT_EQ(rng.uniform(-1.5, 4.0),
                std::uniform_real_distribution<double>(-1.5, 4.0)(ref));
      ASSERT_EQ(rng.uniform_int(-3, 1000),
                std::uniform_int_distribution<int>(-3, 1000)(ref));
      ASSERT_EQ(rng.gaussian(2.0, 0.5),
                std::normal_distribution<double>(2.0, 0.5)(ref));
      ASSERT_EQ(rng.exponential(3.0),
                std::exponential_distribution<double>(3.0)(ref));
      ASSERT_EQ(rng.bernoulli(0.3), std::bernoulli_distribution(0.3)(ref));
      ASSERT_EQ(rng.index(37),
                std::uniform_int_distribution<std::size_t>(0, 36)(ref));
      if (i % 100 == 0) {
        std::vector<int> mine(1 + i % 61);
        std::iota(mine.begin(), mine.end(), 0);
        std::vector<int> theirs = mine;
        rng.shuffle(mine);
        std::shuffle(theirs.begin(), theirs.end(), ref);
        ASSERT_EQ(mine, theirs) << "seed " << seed << " round " << i;
      }
    }
    ASSERT_EQ(rng.engine()(), ref()) << "seed " << seed;
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.uniform(0, 1) != b.uniform(0, 1)) ++differing;
  }
  EXPECT_GT(differing, 25);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.5, 7.5);
    EXPECT_GE(x, -2.5);
    EXPECT_LT(x, 7.5);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(4);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int x = rng.uniform_int(0, 3);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 3);
    saw_lo |= (x == 0);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMatchesMoments) {
  Rng rng(5);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gaussian(3.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.25);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(6);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, BernoulliRespectsProbability) {
  Rng rng(7);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(Rng, IndexUniformOverRange) {
  Rng rng(8);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) counts[rng.index(5)]++;
  for (int c : counts) EXPECT_GT(c, 800);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(10);
  Rng child = a.fork();
  // The fork must not replay the parent stream.
  Rng b(10);
  b.fork();
  int same = 0;
  for (int i = 0; i < 16; ++i) {
    if (child.uniform(0, 1) == b.uniform(0, 1)) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, InvalidArgumentsThrow) {
  Rng rng(11);
  EXPECT_THROW(rng.uniform(2.0, 1.0), InvalidArgument);
  EXPECT_THROW(rng.uniform_int(5, 4), InvalidArgument);
  EXPECT_THROW(rng.gaussian(0.0, -1.0), InvalidArgument);
  EXPECT_THROW(rng.exponential(0.0), InvalidArgument);
  EXPECT_THROW(rng.bernoulli(1.5), InvalidArgument);
  EXPECT_THROW(rng.index(0), InvalidArgument);
}

}  // namespace
}  // namespace topil
