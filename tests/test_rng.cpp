// Unit and statistical tests for the PRNG suite. Statistical bounds are set
// for negligible flake probability (many sigma).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace nfacount {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DeterministicUnderSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, ZeroSeedIsFine) {
  Rng rng(0);
  std::set<uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(rng.NextU64());
  EXPECT_GT(seen.size(), 95u);  // not stuck
}

TEST(Rng, UniformU64RespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, (1ull << 40)}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.UniformU64(bound), bound);
    }
  }
}

TEST(Rng, UniformU64BoundOneAlwaysZero) {
  Rng rng(8);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.UniformU64(1), 0u);
}

TEST(Rng, UniformU64IsRoughlyUniform) {
  Rng rng(21);
  const int buckets = 10;
  const int trials = 100000;
  std::vector<int> counts(buckets, 0);
  for (int i = 0; i < trials; ++i) ++counts[rng.UniformU64(buckets)];
  // Expected 10000 per bucket, sigma ~ 95; allow 8 sigma.
  for (int c : counts) EXPECT_NEAR(c, trials / buckets, 800);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(5);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng.UniformInt(42, 42), 42);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000, 0.5, 0.01);  // ~10 sigma
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(17);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.015);
}

TEST(Rng, DiscreteIndexMatchesWeights) {
  Rng rng(19);
  std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  std::vector<int> counts(4, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    int idx = rng.DiscreteIndex(weights);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, 4);
    ++counts[idx];
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / trials, weights[i] / 10.0, 0.02);
  }
}

TEST(Rng, DiscreteIndexSkipsZeroWeights) {
  Rng rng(23);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 500; ++i) EXPECT_EQ(rng.DiscreteIndex(weights), 1);
}

TEST(Rng, DiscreteIndexAllZeroReturnsMinusOne) {
  Rng rng(29);
  std::vector<double> weights = {0.0, 0.0};
  EXPECT_EQ(rng.DiscreteIndex(weights), -1);
  EXPECT_EQ(rng.DiscreteIndex({}), -1);
}

/// Draws `draws` indices through a DiscreteTable and through
/// Rng::DiscreteIndex from two generators on the same seed; every selection
/// must agree, and both generators must stay in lockstep.
void ExpectTableMatchesDiscreteIndex(const std::vector<double>& weights,
                                     uint64_t seed, int draws = 100000) {
  DiscreteTable table;
  table.Rebuild(weights);
  Rng via_table(seed), via_index(seed);
  for (int d = 0; d < draws; ++d) {
    const int expected = via_index.DiscreteIndex(weights);
    ASSERT_EQ(table.Draw(via_table), expected)
        << "draw " << d << " of k=" << weights.size();
  }
  EXPECT_EQ(via_table.NextU64(), via_index.NextU64());
}

TEST(DiscreteTable, MatchesDiscreteIndexOnPlainWeights) {
  Rng gen(41);
  for (size_t k : {size_t{2}, size_t{3}, size_t{7}, size_t{64}, size_t{300}}) {
    std::vector<double> weights(k);
    for (double& w : weights) w = gen.UniformDouble() * 100.0;
    ExpectTableMatchesDiscreteIndex(weights, 1000 + k);
  }
}

TEST(DiscreteTable, MatchesDiscreteIndexAroundZeroWeights) {
  ExpectTableMatchesDiscreteIndex({0.0, 0.0, 0.0, 1.0, 2.0, 3.0}, 43);
  ExpectTableMatchesDiscreteIndex({1.0, 2.0, 3.0, 0.0, 0.0}, 44);
  ExpectTableMatchesDiscreteIndex({1.0, 0.0, 0.0, 2.0, 0.0, 3.0}, 45);
}

TEST(DiscreteTable, MatchesDiscreteIndexWhenTinyWeightIsAbsorbed) {
  // 1e-20 vanishes in the running sum: its prefix equals its predecessor's,
  // so it can never be selected — by either method.
  ExpectTableMatchesDiscreteIndex({1.0, 1e-20, 1.0}, 47);
  ExpectTableMatchesDiscreteIndex({1e-20, 1.0, 1e-20}, 48);
  ExpectTableMatchesDiscreteIndex({3.0, 1e-30}, 49);
}

TEST(DiscreteTable, MatchesDiscreteIndexForSingleWeight) {
  ExpectTableMatchesDiscreteIndex({5.0}, 51);
  ExpectTableMatchesDiscreteIndex({0.0, 5.0, 0.0}, 52);
}

TEST(DiscreteTable, MatchesDiscreteIndexAboveTheGuideCap) {
  // k > 2^16 = the bucket cap, so some buckets span several indices.
  // Harmonic weights reach deep indices; every tenth weight is zero.
  // DiscreteIndex re-sums all k weights per draw, so this vector gets 10^4
  // draws: 10^5 would take minutes in the sanitizer builds.
  const size_t k = (size_t{1} << 16) + 1;
  std::vector<double> weights(k);
  for (size_t i = 0; i < k; ++i) {
    weights[i] = i % 10 == 9 ? 0.0 : 1.0 / static_cast<double>(i + 1);
  }
  ExpectTableMatchesDiscreteIndex(weights, 53, /*draws=*/10000);
}

TEST(DiscreteTable, MatchesDiscreteIndexOnHugeAndSubnormalTotals) {
  ExpectTableMatchesDiscreteIndex({1e300, 3e300, 1e299, 0.0}, 55);
  // The sum overflows to +inf: every draw takes the slack fallback.
  ExpectTableMatchesDiscreteIndex({1e308, 1e308, 1e308, 0.0}, 56);
  ExpectTableMatchesDiscreteIndex({4.9e-324, 1e-320, 0.0, 2e-322}, 57);
  ExpectTableMatchesDiscreteIndex({1e-310, 1e-315, 1e-312}, 58);
}

/// Rng::DiscreteIndex's rule for the draw whose UniformDouble is built from
/// the 53-bit integer `bits`: the first i with u < prefix[i],
/// u = (bits·2⁻⁵³)·total, else the last positive weight. Prefix sums run in
/// DiscreteIndex's order; prefixes never decrease, so the first such i is an
/// upper_bound.
struct DiscreteIndexRule {
  explicit DiscreteIndexRule(const std::vector<double>& weights) {
    double acc = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
      acc += weights[i];
      prefix.push_back(acc);
      if (weights[i] > 0.0) last_positive = static_cast<int>(i);
    }
    total = acc;
  }
  double U(uint64_t bits) const {
    return static_cast<double>(bits) * 0x1.0p-53 * total;
  }
  int Select(uint64_t bits) const {
    const auto it = std::upper_bound(prefix.begin(), prefix.end(), U(bits));
    return it != prefix.end() ? static_cast<int>(it - prefix.begin())
                              : last_positive;
  }
  std::vector<double> prefix;
  double total = 0.0;
  int last_positive = -1;
};

/// Checks DiscreteTable::Select against the rule at the first and last
/// 53-bit value of every guide bucket and on either side of every prefix
/// threshold. The rule itself is first pinned to Rng::DiscreteIndex in
/// lockstep on 1000 draws.
void ExpectSelectFollowsRuleAtEveryEdge(const std::vector<double>& weights,
                                        uint64_t seed) {
  const DiscreteIndexRule rule(weights);
  Rng via_index(seed), via_rule(seed);
  for (int d = 0; d < 1000; ++d) {
    ASSERT_EQ(rule.Select(via_rule.NextU64() >> 11),
              via_index.DiscreteIndex(weights))
        << "draw " << d;
  }

  DiscreteTable table;
  table.Rebuild(weights);
  ASSERT_TRUE(table.valid());
  constexpr uint64_t kEnd = uint64_t{1} << 53;
  const size_t buckets = table.buckets();
  ASSERT_GE(buckets, 16u);
  ASSERT_LE(buckets, size_t{1} << 16);
  ASSERT_EQ(buckets & (buckets - 1), 0u);
  const uint64_t width = kEnd / buckets;
  for (size_t b = 0; b < buckets; ++b) {
    const uint64_t first = b * width;
    const uint64_t last = first + width - 1;
    ASSERT_EQ(table.Select(first), rule.Select(first)) << "bucket " << b;
    ASSERT_EQ(table.Select(last), rule.Select(last)) << "bucket " << b;
  }
  // Threshold i: the smallest x whose u reaches prefix[i] (u is monotone
  // in x), found by bisection; check x - 1 and x.
  for (double threshold : rule.prefix) {
    uint64_t lo = 0, hi = kEnd;  // the answer lies in [lo, hi]
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (rule.U(mid) >= threshold) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    for (uint64_t x : {lo - 1, lo}) {
      if (lo == 0 && x == lo - 1) continue;
      if (x >= kEnd) continue;
      ASSERT_EQ(table.Select(x), rule.Select(x))
          << "x=" << x << " threshold=" << threshold;
    }
  }
}

TEST(DiscreteTable, SelectFollowsDiscreteIndexRuleAtBucketAndThresholdEdges) {
  // Zero weights, leading, trailing and interleaved.
  ExpectSelectFollowsRuleAtEveryEdge({0.0, 0.0, 0.0, 1.0, 2.0, 3.0}, 61);
  ExpectSelectFollowsRuleAtEveryEdge({1.0, 0.0, 0.0, 2.0, 0.0, 3.0, 0.0}, 62);
  // Tiny weights absorbed by the running sum.
  ExpectSelectFollowsRuleAtEveryEdge({1.0, 1e-20, 1.0}, 63);
  ExpectSelectFollowsRuleAtEveryEdge({1e-20, 1.0, 1e-20}, 64);
  // k = 1: every bucket is pure.
  ExpectSelectFollowsRuleAtEveryEdge({5.0}, 65);
  // k above 2^16/16: the bucket count is capped, so some buckets hold
  // several thresholds.
  const size_t k = (size_t{1} << 12) + 1;
  std::vector<double> harmonic(k);
  for (size_t i = 0; i < k; ++i) {
    harmonic[i] = i % 10 == 9 ? 0.0 : 1.0 / static_cast<double>(i + 1);
  }
  ExpectSelectFollowsRuleAtEveryEdge(harmonic, 66);
  // An infinite total: every draw takes the slack fallback.
  ExpectSelectFollowsRuleAtEveryEdge({1e308, 1e308, 1e308, 0.0}, 67);
}

TEST(DiscreteTable, InvalidWithoutPositiveTotal) {
  DiscreteTable table;
  Rng rng(59);
  EXPECT_FALSE(table.valid());
  EXPECT_EQ(table.Draw(rng), -1);
  table.Rebuild({0.0, 0.0});
  EXPECT_FALSE(table.valid());
  EXPECT_EQ(table.Draw(rng), -1);
  table.Rebuild({2.0, 0.5});
  EXPECT_TRUE(table.valid());
  EXPECT_DOUBLE_EQ(table.total(), 2.5);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.Split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextU64() == child.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, StdShuffleInterface) {
  Rng rng(37);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  std::shuffle(v.begin(), v.end(), rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);  // a permutation
}

}  // namespace
}  // namespace nfacount
