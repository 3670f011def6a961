// SIMD kernel equivalence: every AVX2 kernel must produce bit-identical
// results to the scalar reference on exhaustive small sizes (0..~3 vector
// widths, hitting every tail-word count) and on randomized large arrays.
// Also covers the dispatch switches (SetForceScalar and the Bitset routing)
// — flipping tables mid-process must never change a Bitset operation's
// result.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "test_seed.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace nfacount {
namespace {

using simd::ActiveKernels;
using simd::Avx2Kernels;
using simd::BitsetKernels;
using simd::ScalarKernels;
using simd::SetForceScalar;
using testing_support::TestSeed;

std::vector<uint64_t> RandomWords(size_t n, Rng& rng) {
  std::vector<uint64_t> out(n);
  for (auto& w : out) w = rng.NextU64();
  return out;
}

/// Runs every kernel of `a` and `b` on the same inputs of `n` words and
/// asserts identical outputs/results.
void ExpectKernelsAgree(const BitsetKernels& a, const BitsetKernels& b,
                        size_t n, Rng& rng) {
  SCOPED_TRACE(std::string(a.name) + " vs " + b.name + " n=" +
               std::to_string(n));
  const std::vector<uint64_t> x = RandomWords(n, rng);
  const std::vector<uint64_t> y = RandomWords(n, rng);
  const std::vector<uint64_t> m = RandomWords(n, rng);

  std::vector<uint64_t> da = x, db = x;
  a.or_into(da.data(), y.data(), n);
  b.or_into(db.data(), y.data(), n);
  EXPECT_EQ(da, db) << "or_into";

  da = x;
  db = x;
  a.and_into(da.data(), y.data(), n);
  b.and_into(db.data(), y.data(), n);
  EXPECT_EQ(da, db) << "and_into";

  da = x;
  db = x;
  a.andnot_into(da.data(), y.data(), n);
  b.andnot_into(db.data(), y.data(), n);
  EXPECT_EQ(da, db) << "andnot_into";

  da = x;
  db = x;
  a.or_masked_into(da.data(), y.data(), m.data(), n);
  b.or_masked_into(db.data(), y.data(), m.data(), n);
  EXPECT_EQ(da, db) << "or_masked_into";

  EXPECT_EQ(a.intersects(x.data(), y.data(), n),
            b.intersects(x.data(), y.data(), n));
  EXPECT_EQ(a.popcount(x.data(), n), b.popcount(x.data(), n));
}

TEST(Simd, ScalarKernelsMatchDirectComputation) {
  Rng rng(TestSeed(601));
  const BitsetKernels& k = ScalarKernels();
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{17}}) {
    const std::vector<uint64_t> x = RandomWords(n, rng);
    const std::vector<uint64_t> y = RandomWords(n, rng);
    const std::vector<uint64_t> m = RandomWords(n, rng);
    std::vector<uint64_t> got = x;
    k.or_masked_into(got.data(), y.data(), m.data(), n);
    size_t pop = 0;
    bool inter = false;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i], x[i] | (y[i] & m[i])) << i;
      pop += static_cast<size_t>(__builtin_popcountll(x[i]));
      inter = inter || (x[i] & y[i]) != 0;
    }
    EXPECT_EQ(k.popcount(x.data(), n), pop);
    EXPECT_EQ(k.intersects(x.data(), y.data(), n), inter);
  }
}

TEST(Simd, Avx2MatchesScalarExhaustiveSmallSizes) {
  const BitsetKernels* avx2 = Avx2Kernels();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this host";
  Rng rng(TestSeed(602));
  // 0..13 words covers empty input, pure-tail inputs (1..3 words), exactly
  // one vector (4), and every vector+tail combination up to three vectors.
  for (size_t n = 0; n <= 13; ++n) {
    for (int rep = 0; rep < 8; ++rep) {
      ExpectKernelsAgree(ScalarKernels(), *avx2, n, rng);
    }
  }
}

TEST(Simd, Avx2MatchesScalarRandomizedLargeSizes) {
  const BitsetKernels* avx2 = Avx2Kernels();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this host";
  Rng rng(TestSeed(603));
  for (int rep = 0; rep < 40; ++rep) {
    // Large spans with every tail-word residue mod 4.
    const size_t n = 64 + rng.UniformU64(256);
    ExpectKernelsAgree(ScalarKernels(), *avx2, n, rng);
  }
}

TEST(Simd, Avx2IntersectsFindsSingleSharedBit) {
  const BitsetKernels* avx2 = Avx2Kernels();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this host";
  // Randomized agreement rarely exercises the all-zero overlap case; plant
  // exactly one shared bit at every position of a 9-word span.
  const size_t n = 9;
  for (size_t bit = 0; bit < n * 64; ++bit) {
    std::vector<uint64_t> a(n, 0), b(n, 0);
    a[bit / 64] = uint64_t{1} << (bit % 64);
    b[bit / 64] = uint64_t{1} << (bit % 64);
    EXPECT_TRUE(avx2->intersects(a.data(), b.data(), n)) << bit;
    b[bit / 64] = 0;
    EXPECT_FALSE(avx2->intersects(a.data(), b.data(), n)) << bit;
  }
}

/// Sparse random words (~1/8 of bits set), so that both disjoint and
/// intersecting rows are common.
std::vector<uint64_t> SparseWords(size_t n, Rng& rng) {
  std::vector<uint64_t> out(n);
  for (auto& w : out) w = rng.NextU64() & rng.NextU64() & rng.NextU64();
  return out;
}

size_t NaiveCountDisjoint(const std::vector<uint64_t>& profiles,
                          size_t stride, size_t n,
                          const std::vector<uint64_t>& mask) {
  size_t count = 0;
  for (size_t j = 0; j < n; ++j) {
    bool hit = false;
    for (size_t w = 0; w < stride; ++w) {
      hit = hit || (profiles[j * stride + w] & mask[w]) != 0;
    }
    if (!hit) ++count;
  }
  return count;
}

TEST(Simd, ScalarCountDisjointMatchesDirectComputation) {
  Rng rng(TestSeed(606));
  for (size_t stride = 1; stride <= 5; ++stride) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{33}}) {
      const std::vector<uint64_t> profiles = SparseWords(n * stride, rng);
      const std::vector<uint64_t> mask = SparseWords(stride, rng);
      EXPECT_EQ(ScalarKernels().count_disjoint(profiles.data(), stride, n,
                                               mask.data()),
                NaiveCountDisjoint(profiles, stride, n, mask))
          << "stride=" << stride << " n=" << n;
    }
  }
}

TEST(Simd, Avx2CountDisjointMatchesScalar) {
  const BitsetKernels* avx2 = Avx2Kernels();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this host";
  Rng rng(TestSeed(607));
  // Strides 1-4 words; n runs through every residue of the vector width,
  // plus large n that is not a multiple of it.
  for (size_t stride = 1; stride <= 4; ++stride) {
    for (size_t n = 0; n <= 13; ++n) {
      for (int rep = 0; rep < 8; ++rep) {
        const std::vector<uint64_t> profiles = SparseWords(n * stride, rng);
        const std::vector<uint64_t> mask = SparseWords(stride, rng);
        EXPECT_EQ(avx2->count_disjoint(profiles.data(), stride, n,
                                       mask.data()),
                  ScalarKernels().count_disjoint(profiles.data(), stride, n,
                                                 mask.data()))
            << "stride=" << stride << " n=" << n;
      }
    }
    const size_t n = 1001 + rng.UniformU64(4);
    const std::vector<uint64_t> profiles = SparseWords(n * stride, rng);
    const std::vector<uint64_t> mask = SparseWords(stride, rng);
    EXPECT_EQ(
        avx2->count_disjoint(profiles.data(), stride, n, mask.data()),
        ScalarKernels().count_disjoint(profiles.data(), stride, n, mask.data()))
        << "stride=" << stride << " n=" << n;
  }
}

TEST(Simd, Avx2CountDisjointSeesEverySharedBit) {
  const BitsetKernels* avx2 = Avx2Kernels();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this host";
  // One row of five carries a single bit shared with the mask, planted at
  // every position of the row: exactly that row is not disjoint.
  const size_t n = 5;
  for (size_t stride = 1; stride <= 4; ++stride) {
    const std::vector<uint64_t> mask(stride, ~uint64_t{0});
    for (size_t row = 0; row < n; ++row) {
      for (size_t bit = 0; bit < stride * 64; ++bit) {
        std::vector<uint64_t> profiles(n * stride, 0);
        profiles[row * stride + bit / 64] = uint64_t{1} << (bit % 64);
        EXPECT_EQ(avx2->count_disjoint(profiles.data(), stride, n,
                                       mask.data()),
                  n - 1)
            << "stride=" << stride << " row=" << row << " bit=" << bit;
      }
    }
  }
}

TEST(Simd, ForceScalarSwitchRedirectsDispatchWithoutChangingResults) {
  Rng rng(TestSeed(604));
  Bitset a(200), b(200), mask(200);
  for (size_t i = 0; i < 200; ++i) {
    if (rng.Bernoulli(0.4)) a.Set(i);
    if (rng.Bernoulli(0.4)) b.Set(i);
    if (rng.Bernoulli(0.5)) mask.Set(i);
  }
  Bitset active_result = a;
  active_result.OrMasked(b, mask);
  const size_t active_count = a.Count();
  const bool active_inter = a.Intersects(b);

  SetForceScalar(true);
  EXPECT_STREQ(ActiveKernels().name, "scalar");
  Bitset scalar_result = a;
  scalar_result.OrMasked(b, mask);
  EXPECT_EQ(scalar_result, active_result);
  EXPECT_EQ(a.Count(), active_count);
  EXPECT_EQ(a.Intersects(b), active_inter);
  SetForceScalar(false);  // restore auto-detection for the rest of the suite

  if (Avx2Kernels() != nullptr && std::getenv("NFACOUNT_FORCE_SCALAR") == nullptr) {
    EXPECT_STREQ(ActiveKernels().name, "avx2");
  }
}

TEST(Simd, BitsetAndNotMatchesNaive) {
  Rng rng(TestSeed(605));
  for (size_t bits : {size_t{1}, size_t{63}, size_t{64}, size_t{257}}) {
    Bitset a(bits), b(bits);
    for (size_t i = 0; i < bits; ++i) {
      if (rng.Bernoulli(0.5)) a.Set(i);
      if (rng.Bernoulli(0.5)) b.Set(i);
    }
    Bitset expected(bits);
    for (size_t i = 0; i < bits; ++i) {
      if (a.Test(i) && !b.Test(i)) expected.Set(i);
    }
    Bitset got = a;
    got.AndNot(b);
    EXPECT_EQ(got, expected) << "bits=" << bits;
  }
}

}  // namespace
}  // namespace nfacount
