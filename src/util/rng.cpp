#include "util/rng.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace nfacount {

uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t HashCombine(uint64_t h, uint64_t v) {
  return Mix64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

Rng::Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.Next();
}

Rng Rng::ForSubstream(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t key = Mix64(seed + 0x9e3779b97f4a7c15ULL);
  key = HashCombine(key, a);
  key = HashCombine(key, b);
  return Rng(key);
}

uint64_t Rng::UniformU64(uint64_t bound) {
  assert(bound > 0);
  // Lemire's multiply-shift rejection method.
  uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t lo = static_cast<uint64_t>(m);
  if (lo < bound) {
    uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextU64());  // full 64-bit range
  return lo + static_cast<int64_t>(UniformU64(span));
}

double Rng::UniformDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

int Rng::DiscreteIndex(const double* weights, size_t k) {
  double total = 0.0;
  for (size_t i = 0; i < k; ++i) {
    assert(weights[i] >= 0.0);
    total += weights[i];
  }
  if (!(total > 0.0)) return -1;
  double u = UniformDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < k; ++i) {
    acc += weights[i];
    if (u < acc) return static_cast<int>(i);
  }
  // Floating-point slack: fall back to the last positive weight.
  for (size_t i = k; i-- > 0;) {
    if (weights[i] > 0.0) return static_cast<int>(i);
  }
  return -1;
}

Rng Rng::Split() { return Rng(NextU64() ^ 0x9e3779b97f4a7c15ULL); }

void DiscreteTable::Rebuild(const std::vector<double>& weights) {
  const size_t k = weights.size();
  prefix_.resize(k);
  double acc = 0.0;
  last_positive_ = -1;
  for (size_t i = 0; i < k; ++i) {
    assert(weights[i] >= 0.0);
    acc += weights[i];
    prefix_[i] = acc;
    if (weights[i] > 0.0) last_positive_ = static_cast<int>(i);
  }
  total_ = acc;

  // K = 2^B buckets: the next power of two >= 16k (at least 16), capped at
  // 2^16.
  constexpr int kMinGuideBits = 4;
  constexpr int kMaxGuideBits = 16;
  assert(k < kPure);
  int bits = kMinGuideBits;
  while (bits < kMaxGuideBits && (size_t{1} << bits) < 16 * k) ++bits;
  const size_t buckets = size_t{1} << bits;
  guide_shift_ = 53 - bits;
  guide_.resize(buckets);
  if (!(total_ > 0.0)) return;  // Draw never reads the guide
  // start[b] = #{i : prefix[i] <= fl((b/K)·total)}; the thresholds never
  // decrease in b, so one merge pass fills every bucket. A bucket whose
  // first and last draws scan to the same index is pure. Every index below
  // a draw's answer fails for all later draws too, so the first draw's scan
  // resumes at the previous bucket's last answer and the last draw's at the
  // first's.
  const double inv_buckets = 1.0 / static_cast<double>(buckets);
  const uint64_t last_in_bucket = (uint64_t{1} << guide_shift_) - 1;
  size_t start = 0, previous = 0;
  for (size_t b = 0; b < buckets; ++b) {
    const double threshold = (static_cast<double>(b) * inv_buckets) * total_;
    while (start < k && prefix_[start] <= threshold) ++start;
    const uint64_t first = static_cast<uint64_t>(b) << guide_shift_;
    const size_t lo = ScanIndex(first, std::max(start, previous));
    previous = ScanIndex(first + last_in_bucket, lo);
    if (lo == previous) {
      guide_[b] = kPure | static_cast<uint32_t>(
                              lo < k ? lo : static_cast<size_t>(last_positive_));
    } else {
      guide_[b] = static_cast<uint32_t>(start);
    }
  }
}

}  // namespace nfacount
