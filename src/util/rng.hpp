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
  int DiscreteIndex(const std::vector<double>& weights) {
    return DiscreteIndex(weights.data(), weights.size());
  }
  /// DiscreteIndex over the k weights at `weights`.
  int DiscreteIndex(const double* weights, size_t k);

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
/// The prefix sums accumulate in DiscreteIndex's order, so the answer for the
/// 53-bit integer x UniformDouble is built from is the first i with
/// u < prefix[i], u = fl(x·2⁻⁵³·total), or the last positive weight when no i
/// qualifies (floating-point slack), exactly as DiscreteIndex falls back.
/// That answer never decreases as x grows: u is monotone in x, and the
/// fallback is at least every index the scan can return (prefixes past the
/// last positive weight repeat its prefix).
///
/// The guide table splits the 53-bit range into K = 2^B buckets (K the next
/// power of two ≥ 16k, at least 16, capped at 2^16); a draw's bucket is the
/// top B bits of x. A bucket whose first and last x resolve to the same
/// index is *pure*: by monotonicity every x in it resolves there, so its
/// entry stores that index with kPure set and Select() answers without
/// reading the prefix sums. Only a bucket holding one of the k thresholds can
/// be impure, so below the cap at most one draw in 16 scans. An impure bucket
/// b stores the scan start #{i : prefix[i] ≤ fl((b/K)·total)}; rounding is
/// monotone, so no index below it can satisfy u < prefix[i], and the scan
/// walks forward from there. Rebuild() reuses the table's storage across
/// calls.
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

  /// Number of guide buckets K; bucket b holds the 53-bit draws
  /// [b·2⁵³/K, (b+1)·2⁵³/K).
  size_t buckets() const { return guide_.size(); }

  /// Index i drawn with probability weights[i] / total, or -1 when !valid().
  /// Identical selection to Rng::DiscreteIndex on the same weights and rng.
  int Draw(Rng& rng) const {
    if (!(total_ > 0.0)) return -1;
    return Select(rng.NextU64() >> 11);  // UniformDouble's 53 bits
  }

  /// The index Draw() returns when the generator yields 53-bit value `bits`
  /// (< 2^53). Requires valid().
  int Select(uint64_t bits) const {
    const uint32_t entry = guide_[static_cast<size_t>(bits >> guide_shift_)];
    if (entry & kPure) return static_cast<int>(entry & ~kPure);
    return Scan(bits, entry);
  }

 private:
  /// Guide-entry flag: the bucket resolves to one index, stored in the
  /// remaining bits.
  static constexpr uint32_t kPure = uint32_t{1} << 31;

  /// First i ≥ start with u < prefix[i] for the draw `bits`, or k when no
  /// such i exists.
  size_t ScanIndex(uint64_t bits, size_t start) const {
    const double u = static_cast<double>(bits) * 0x1.0p-53 * total_;
    const size_t k = prefix_.size();
    size_t i = start;
    while (i < k && !(u < prefix_[i])) ++i;
    return i;
  }

  /// ScanIndex, with k mapped to the floating-point-slack fallback.
  int Scan(uint64_t bits, size_t start) const {
    const size_t i = ScanIndex(bits, start);
    return i < prefix_.size() ? static_cast<int>(i) : last_positive_;
  }

  std::vector<double> prefix_;
  std::vector<uint32_t> guide_;  // per bucket: kPure|index, or a scan start
  int guide_shift_ = 53;         // 53 - B: bucket = bits >> guide_shift_
  int last_positive_ = -1;       // the floating-point-slack fallback
  double total_ = 0.0;
};

}  // namespace nfacount

#endif  // NFACOUNT_UTIL_RNG_HPP_
