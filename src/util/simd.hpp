// Runtime-dispatched word-array kernels behind Bitset and the sampling
// plane. Every kernel is a pure function over little-endian uint64 word
// arrays; the AVX2 implementations compute bit-identical results to the
// scalar ones (bitwise ops are exact, popcount is an integer), so which
// table is active can never change an estimate — only its cost. The active
// table is chosen once, at first use: AVX2 when the CPU supports it, scalar
// when it does not or when NFACOUNT_FORCE_SCALAR is set in the environment
// (any value other than "0"/""). SetForceScalar() re-points the dispatch at
// runtime for tests and the nfa_cli --no-simd flag.

#ifndef NFACOUNT_UTIL_SIMD_HPP_
#define NFACOUNT_UTIL_SIMD_HPP_

#include <cstddef>
#include <cstdint>

namespace nfacount {
namespace simd {

/// One implementation family of the word-array kernels. All pointers are
/// non-null for nwords > 0; dst/src/mask ranges must not partially overlap.
struct BitsetKernels {
  const char* name;  ///< "scalar" or "avx2" — reported in bench output

  /// dst[i] |= src[i]
  void (*or_into)(uint64_t* dst, const uint64_t* src, size_t nwords);
  /// dst[i] &= src[i]
  void (*and_into)(uint64_t* dst, const uint64_t* src, size_t nwords);
  /// dst[i] &= ~src[i]
  void (*andnot_into)(uint64_t* dst, const uint64_t* src, size_t nwords);
  /// dst[i] |= src[i] & mask[i] — the fused frontier-propagation step.
  void (*or_masked_into)(uint64_t* dst, const uint64_t* src,
                         const uint64_t* mask, size_t nwords);
  /// true iff a[i] & b[i] != 0 for some i.
  bool (*intersects)(const uint64_t* a, const uint64_t* b, size_t nwords);
  /// Σ popcount(w[i]).
  size_t (*popcount)(const uint64_t* w, size_t nwords);
  /// Number of j in [0, n) whose row profiles[j·stride_words ..
  /// (j+1)·stride_words) shares no set bit with mask[0 .. stride_words) —
  /// `n` intersects() calls over a fixed-stride slab, folded into one count.
  /// stride_words must be > 0.
  size_t (*count_disjoint)(const uint64_t* profiles, size_t stride_words,
                           size_t n, const uint64_t* mask);
};

/// The portable reference implementation (always available).
const BitsetKernels& ScalarKernels();

/// True when this binary carries AVX2 kernels AND the CPU reports AVX2.
bool Avx2Available();

/// The AVX2 table, or nullptr when Avx2Available() is false. Exposed so the
/// equivalence tests and the kernel microbench can compare both tables
/// directly, independent of the active dispatch.
const BitsetKernels* Avx2Kernels();

/// The table all dispatched callers (Bitset operators, the sampling plane's
/// default) currently use. First call decides: scalar when forced via the
/// NFACOUNT_FORCE_SCALAR environment variable or when AVX2 is unavailable,
/// AVX2 otherwise. Safe to call concurrently.
const BitsetKernels& ActiveKernels();

/// Re-points ActiveKernels() at the scalar (true) or auto-detected (false)
/// table. Process-wide; intended for tests and nfa_cli --no-simd.
void SetForceScalar(bool force);

}  // namespace simd
}  // namespace nfacount

#endif  // NFACOUNT_UTIL_SIMD_HPP_
