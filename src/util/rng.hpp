// Deterministic pseudo-random number generation for all randomized algorithms
// in the library. Every randomized entry point takes an explicit Rng so runs
// are reproducible from a single seed; Split() derives statistically
// independent child streams for subcomputations.

#ifndef NFACOUNT_UTIL_RNG_HPP_
#define NFACOUNT_UTIL_RNG_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nfacount {

/// SplitMix64: seeding / stream-derivation generator (Steele et al.).
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// Stateless 64→64 bit finalizer (the SplitMix64 output stage). Used to
/// derive counter-based substream keys: statistically independent outputs for
/// distinct inputs, bit-identical on every platform.
uint64_t Mix64(uint64_t z);

/// Folds `v` into the running substream key `h` (Mix64 over an injective-ish
/// combination). Chain calls to key a stream by several coordinates.
uint64_t HashCombine(uint64_t h, uint64_t v);

/// xoshiro256** 1.0 (Blackman & Vigna) wrapped with the draw primitives the
/// counting/sampling algorithms need. Not cryptographic.
class Rng {
 public:
  /// Seeds the four-word state via SplitMix64 (any seed, including 0, is fine).
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL);

  /// Counter-based substream derivation: a generator keyed by (seed, a, b)
  /// only. Unlike Split() — which couples the child to the parent's current
  /// position — the substream for given coordinates is the same no matter
  /// when, where, or on which thread it is created. The FPRAS keys one
  /// stream per (state q, level ℓ) cell, which is what makes the parallel
  /// level sweep bit-identical for every thread count (including 1).
  static Rng ForSubstream(uint64_t seed, uint64_t a, uint64_t b);

  /// Raw 64 uniform bits.
  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  /// `bound` must be > 0.
  uint64_t UniformU64(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1) with 53 random bits.
  double UniformDouble();

  /// Bernoulli draw; p outside [0,1] is clamped.
  bool Bernoulli(double p);

  /// Index i drawn with probability weights[i] / sum(weights).
  /// Weights must be non-negative with a positive finite sum; returns -1 if
  /// the sum is not positive. O(k) per draw (k is small in all call sites).
  int DiscreteIndex(const std::vector<double>& weights);

  /// Derives an independent child generator (distinct stream).
  Rng Split();

  /// std::uniform_random_bit_generator interface (for std::shuffle etc.).
  using result_type = uint64_t;
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~0ULL; }
  uint64_t operator()() { return NextU64(); }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

/// Prefix-sum table with a guide index over a fixed weight vector, for loops
/// that draw many indices from the same distribution (AppUnion's trial loop
/// draws t ≫ k times from k fixed size estimates). Draw() consumes exactly
/// one 64-bit output — the one UniformDouble would — and selects the
/// bit-identical index Rng::DiscreteIndex picks for the same generator state,
/// in expected O(1) time instead of DiscreteIndex's O(k) scan.
///
/// The prefix sums accumulate in DiscreteIndex's order, so the answer is the
/// first i with u < prefix[i], u = UniformDouble()·total. The guide table
/// splits [0, 1) into K = 2^B buckets (K the next power of two ≥ 2k, capped
/// at 2^16): the draw's bucket b is the top B bits of the 53-bit integer
/// UniformDouble is built from, so r ≥ b/K holds exactly for its r ∈ [0, 1).
/// Bucket b starts the scan at #{i : prefix[i] ≤ fl((b/K)·total)}; rounding
/// is monotone, so u = fl(r·total) ≥ fl((b/K)·total) and no index below the
/// start can satisfy u < prefix[i]. The scan then walks forward to the first
/// i that does. When none does (floating-point slack), the draw falls back to
/// the last positive weight, exactly as DiscreteIndex does. Rebuild() reuses
/// the table's storage across calls.
class DiscreteTable {
 public:
  DiscreteTable() = default;

  /// Recomputes the prefix sums and the guide table for `weights`
  /// (non-negative).
  void Rebuild(const std::vector<double>& weights);

  /// True when the weights had a positive finite sum.
  bool valid() const { return total_ > 0.0; }

  /// Sum of the weights (0 before Rebuild).
  double total() const { return total_; }

  /// Index i drawn with probability weights[i] / total, or -1 when !valid().
  /// Identical selection to Rng::DiscreteIndex on the same weights and rng.
  int Draw(Rng& rng) const {
    if (!(total_ > 0.0)) return -1;
    const uint64_t bits = rng.NextU64() >> 11;  // UniformDouble's 53 bits
    const double u = static_cast<double>(bits) * 0x1.0p-53 * total_;
    size_t i = guide_[static_cast<size_t>(bits >> guide_shift_)];
    const size_t k = prefix_.size();
    while (i < k && !(u < prefix_[i])) ++i;
    return i < k ? static_cast<int>(i) : last_positive_;
  }

 private:
  std::vector<double> prefix_;
  std::vector<uint32_t> guide_;  // per bucket: first index the scan tests
  int guide_shift_ = 53;         // 53 - B: bucket = bits >> guide_shift_
  int last_positive_ = -1;       // the floating-point-slack fallback
  double total_ = 0.0;
};

}  // namespace nfacount

#endif  // NFACOUNT_UTIL_RNG_HPP_
