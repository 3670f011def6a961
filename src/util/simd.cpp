#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>

// The AVX2 kernels are compiled with per-function target attributes so the
// whole library can stay on the baseline ISA: only these functions carry
// AVX2 instructions, and they are only ever called behind the runtime
// __builtin_cpu_supports check.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NFACOUNT_HAVE_AVX2_KERNELS 1
#include <immintrin.h>
#else
#define NFACOUNT_HAVE_AVX2_KERNELS 0
#endif

namespace nfacount {
namespace simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels
// ---------------------------------------------------------------------------

void OrScalar(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] |= src[i];
}

void AndScalar(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] &= src[i];
}

void AndNotScalar(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] &= ~src[i];
}

void OrMaskedScalar(uint64_t* dst, const uint64_t* src, const uint64_t* mask,
                    size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] |= src[i] & mask[i];
}

bool IntersectsScalar(const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (a[i] & b[i]) return true;
  }
  return false;
}

size_t PopcountScalar(const uint64_t* w, size_t n) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += static_cast<size_t>(__builtin_popcountll(w[i]));
  }
  return total;
}

size_t CountDisjointScalar(const uint64_t* profiles, size_t stride, size_t n,
                           const uint64_t* mask) {
  size_t count = 0;
  for (size_t j = 0; j < n; ++j) {
    if (!IntersectsScalar(profiles + j * stride, mask, stride)) ++count;
  }
  return count;
}

constexpr BitsetKernels kScalar = {
    "scalar",         OrScalar,         AndScalar,
    AndNotScalar,     OrMaskedScalar,   IntersectsScalar,
    PopcountScalar,   CountDisjointScalar,
};

// ---------------------------------------------------------------------------
// AVX2 kernels (bit-identical results; 4 words per vector, scalar tail)
// ---------------------------------------------------------------------------

#if NFACOUNT_HAVE_AVX2_KERNELS

__attribute__((target("avx2"))) void OrAvx2(uint64_t* dst, const uint64_t* src,
                                            size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(d, s));
  }
  for (; i < n; ++i) dst[i] |= src[i];
}

__attribute__((target("avx2"))) void AndAvx2(uint64_t* dst,
                                             const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(d, s));
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

__attribute__((target("avx2"))) void AndNotAvx2(uint64_t* dst,
                                                const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    // _mm256_andnot_si256(a, b) = ~a & b, so pass src first.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_andnot_si256(s, d));
  }
  for (; i < n; ++i) dst[i] &= ~src[i];
}

__attribute__((target("avx2"))) void OrMaskedAvx2(uint64_t* dst,
                                                  const uint64_t* src,
                                                  const uint64_t* mask,
                                                  size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i m = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + i));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_or_si256(d, _mm256_and_si256(s, m)));
  }
  for (; i < n; ++i) dst[i] |= src[i] & mask[i];
}

__attribute__((target("avx2"))) bool IntersectsAvx2(const uint64_t* a,
                                                    const uint64_t* b,
                                                    size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    if (!_mm256_testz_si256(va, vb)) return true;
  }
  for (; i < n; ++i) {
    if (a[i] & b[i]) return true;
  }
  return false;
}

__attribute__((target("avx2"))) size_t PopcountAvx2(const uint64_t* w,
                                                    size_t n) {
  // Nibble-LUT popcount (Muła): per-byte counts via pshufb, folded into
  // 64-bit lanes with psadbw. Exact, so identical to the scalar kernel.
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    __m256i lo = _mm256_and_si256(v, low_mask);
    __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
    __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                  _mm256_shuffle_epi8(lut, hi));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, zero));
  }
  uint64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  size_t total = static_cast<size_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  for (; i < n; ++i) {
    total += static_cast<size_t>(__builtin_popcountll(w[i]));
  }
  return total;
}

// Rows of one or two words pack four or two samples into each vector: a
// lane compares equal to zero iff its masked word is empty, and a sample is
// disjoint iff all of its lanes are. Wider rows fall back to a per-row
// IntersectsAvx2.
__attribute__((target("avx2"))) size_t CountDisjointAvx2(
    const uint64_t* profiles, size_t stride, size_t n, const uint64_t* mask) {
  const __m256i zero = _mm256_setzero_si256();
  size_t count = 0;
  size_t j = 0;
  if (stride == 1) {
    const __m256i m = _mm256_set1_epi64x(static_cast<long long>(mask[0]));
    for (; j + 4 <= n; j += 4) {
      __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(profiles + j));
      __m256i empty = _mm256_cmpeq_epi64(_mm256_and_si256(v, m), zero);
      count += static_cast<size_t>(__builtin_popcount(
          _mm256_movemask_pd(_mm256_castsi256_pd(empty))));
    }
  } else if (stride == 2) {
    const __m256i m = _mm256_setr_epi64x(
        static_cast<long long>(mask[0]), static_cast<long long>(mask[1]),
        static_cast<long long>(mask[0]), static_cast<long long>(mask[1]));
    for (; j + 2 <= n; j += 2) {
      __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(profiles + 2 * j));
      __m256i empty = _mm256_cmpeq_epi64(_mm256_and_si256(v, m), zero);
      const int lanes = _mm256_movemask_pd(_mm256_castsi256_pd(empty));
      count += static_cast<size_t>((lanes & 0x3) == 0x3) +
               static_cast<size_t>((lanes & 0xc) == 0xc);
    }
  }
  for (; j < n; ++j) {
    if (!IntersectsAvx2(profiles + j * stride, mask, stride)) ++count;
  }
  return count;
}

constexpr BitsetKernels kAvx2 = {
    "avx2",         OrAvx2,         AndAvx2,
    AndNotAvx2,     OrMaskedAvx2,   IntersectsAvx2,
    PopcountAvx2,   CountDisjointAvx2,
};

#endif  // NFACOUNT_HAVE_AVX2_KERNELS

bool ForcedScalarByEnv() {
  const char* env = std::getenv("NFACOUNT_FORCE_SCALAR");
  if (env == nullptr || *env == '\0') return false;
  return !(env[0] == '0' && env[1] == '\0');
}

const BitsetKernels* DetectKernels() {
  if (ForcedScalarByEnv()) return &kScalar;
#if NFACOUNT_HAVE_AVX2_KERNELS
  if (__builtin_cpu_supports("avx2")) return &kAvx2;
#endif
  return &kScalar;
}

std::atomic<const BitsetKernels*> g_active{nullptr};

}  // namespace

const BitsetKernels& ScalarKernels() { return kScalar; }

bool Avx2Available() {
#if NFACOUNT_HAVE_AVX2_KERNELS
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

const BitsetKernels* Avx2Kernels() {
#if NFACOUNT_HAVE_AVX2_KERNELS
  return Avx2Available() ? &kAvx2 : nullptr;
#else
  return nullptr;
#endif
}

const BitsetKernels& ActiveKernels() {
  const BitsetKernels* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    // Concurrent first calls race benignly: both sides detect the same table.
    table = DetectKernels();
    g_active.store(table, std::memory_order_release);
  }
  return *table;
}

void SetForceScalar(bool force) {
  if (force) {
    g_active.store(&kScalar, std::memory_order_release);
    return;
  }
  g_active.store(DetectKernels(), std::memory_order_release);
}

}  // namespace simd
}  // namespace nfacount
