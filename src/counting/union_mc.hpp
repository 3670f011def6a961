// Algorithm 1 of the paper: AppUnion — Monte-Carlo estimation of |∪ T_i| from
// per-set (membership oracle, pre-drawn sample list, size estimate) triples.
// A modification of the classic Karp-Luby union/DNF estimator [12]: instead
// of drawing fresh uniform samples from T_i, it consumes a pre-drawn list
// S_i; Theorem 1 gives the (ε,δ)(1+ε_sz) guarantee under the entangled
// uniform distribution.
//
// The estimator is templated over an Input type providing:
//   double  size_estimate() const;            // sz_i
//   int64_t num_samples()   const;            // |S_i|
//   const SampleT& Sample(int64_t idx) const; // S_i in draw order
//   bool    Contains(const SampleT&) const;   // membership oracle O_i
//
// AppUnion and AppUnionBatched share one trial loop that runs in two passes:
// all t input draws first (expected O(1) each, through DiscreteTable's guide
// table), then one scan of each sample list's read prefix (see
// union_mc_internal::TwoPassTrials). Its outcome is bit-identical to the
// sequential per-trial loop of Algorithm 1 on the same Rng state.
//
// A resampling variant (fresh draws, classic Karp-Luby) is provided for the
// DNF application and as a test oracle.

#ifndef NFACOUNT_COUNTING_UNION_MC_HPP_
#define NFACOUNT_COUNTING_UNION_MC_HPP_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/bitset.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace nfacount {

/// Batched membership oracle for AppUnion's covered-earlier checks.
///
/// Algorithm 1 asks, for a trial sample σ drawn from input i, whether σ lies
/// in any earlier set T_0..T_{i-1} — classically a loop of up to i individual
/// membership probes. When every sample carries a membership *profile* (a
/// Bitset with bit q set iff σ ∈ T-of-owner-q, cf. StoredSample::reach) the
/// whole loop collapses to one word-parallel intersection against a
/// precomputed prefix mask {owner_0, ..., owner_{i-1}}: O(m/64) instead of
/// O(i) dependent probes.
///
/// The object is a reusable scratch: Rebuild() re-derives the prefix masks
/// for one AppUnionBatched call without reallocating when sizes repeat.
class MembershipBatch {
 public:
  MembershipBatch() = default;

  /// Prepares prefix masks over a universe of `universe_bits` owner ids for
  /// the ordered owner list of one AppUnion call: prefix i covers
  /// owners[0..i).
  void Rebuild(size_t universe_bits, const std::vector<int>& owners);

  /// Covered-earlier check for a trial drawn from input `i`: true iff the
  /// sample's membership profile intersects {owners[0..i)}. Answers i probes
  /// in one scan.
  bool CoveredBefore(const Bitset& profile, size_t i) const {
    return profile.Intersects(prefix_[i]);
  }

  /// Batched form over a fixed-stride profile slab (the SampleBlock layout):
  /// how many of the `n` rows at `profiles` (stride `profile_words`) are NOT
  /// covered before input `i` — one kernel call instead of n checks.
  int64_t CountUncovered(const uint64_t* profiles, size_t profile_words,
                         int64_t n, size_t i,
                         const simd::BitsetKernels& kern) const {
    assert(profile_words == prefix_[i].words().size());
    return static_cast<int64_t>(kern.count_disjoint(
        profiles, profile_words, static_cast<size_t>(n),
        prefix_[i].words().data()));
  }

  /// Number of inputs the current prefix masks cover.
  size_t size() const { return prefix_.size(); }

 private:
  std::vector<Bitset> prefix_;
};

/// Caller-owned scratch for AppUnionBatched, reused across the thousands of
/// calls one FPRAS run makes: the prefix-mask membership index and the flat
/// trial-draw table (both rebuild in place without reallocating when sizes
/// repeat).
///
/// Thread safety: the AppUnion* estimators are pure functions of (inputs,
/// params, scratch, rng) — concurrent calls are safe iff each thread owns
/// its scratch and its Rng (the level-sweep executor keeps one
/// AppUnionScratch per worker slot; see FprasEngine::WorkerScratch).
struct AppUnionScratch {
  MembershipBatch batch;  ///< covered-earlier prefix masks
  DiscreteTable table;    ///< guide-table index draws over the k sizes
};

/// What to do when an input's sample list runs out mid-call.
///
/// At faithful constants this is the low-probability Line-8 event of Alg. 1
/// (Theorem 1 Part 2 bounds it): the paper breaks out, and the Y/t estimate
/// silently loses the missing trials. Under calibrated constants ns can be
/// smaller than t, making starvation systematic — and the Y/t bias compounds
/// multiplicatively per level. kRecycle wraps the cursor (the list is an
/// empirical stand-in for "uniform with replacement", so re-reading it is the
/// natural calibrated semantics); kScaleByCompleted renormalizes by the
/// completed trial count instead.
enum class StarvationPolicy {
  kBreak,            ///< paper-faithful: stop, divide by the full t
  kScaleByCompleted, ///< stop, divide by completed trials
  kRecycle,          ///< wrap the cursor and keep drawing (calibrated default)
};

/// Parameters of one AppUnion invocation.
struct AppUnionParams {
  double eps = 0.1;    ///< multiplicative accuracy ε of this call
  double delta = 0.1;  ///< failure probability δ of this call
  double eps_sz = 0.0; ///< accuracy (1+ε_sz) of the input size estimates

  /// Calibration multiplier on the worst-case trial count (see
  /// `Calibration` in fpras/params.hpp). 1.0 = the paper's constant.
  double trial_scale = 1.0;
  int64_t min_trials = 8;               ///< floor applied after scaling
  int64_t max_trials = int64_t{1} << 40;///< cap applied after scaling

  /// What to do when a sample list runs out (see StarvationPolicy).
  StarvationPolicy starvation = StarvationPolicy::kBreak;
};

/// Diagnostics of one AppUnion invocation.
struct AppUnionOutcome {
  double estimate = 0.0;        ///< (Y/t)·Σ sz
  int64_t trials = 0;           ///< t
  int64_t completed_trials = 0; ///< < t only when starved
  int64_t hits = 0;             ///< Y
  bool starved = false;         ///< some S_i ran out (Line 8 of Alg. 1)
  int64_t membership_checks = 0;
};

/// Trial count t = trial_scale · ceil(12·(1+ε_sz)²·m̄/ε²·ln(4/δ)), clamped,
/// with m̄ = ceil(Σ sz / max sz) (Alg. 1 lines 2-3).
int64_t AppUnionTrialCount(const AppUnionParams& params, double sum_sz,
                           double max_sz);

/// Sample-list length the analysis requires:
/// thresh = 24·(1+ε_sz)²/ε²·ln(4k/δ) (Theorem 1).
double AppUnionThresh(const AppUnionParams& params, int64_t k);

namespace union_mc_internal {

/// Uncovered samples and answered membership probes over one index range of
/// one input's sample list.
struct PrefixTally {
  int64_t uncovered = 0;
  int64_t probes = 0;
};

/// The trial loop of Algorithm 1, shared by AppUnion and AppUnionBatched.
///
/// The sequential loop draws an input i per trial, reads the next sample of
/// S_i (cursor c), and counts a hit when no earlier set covers it. Whether a
/// trial hits depends only on (i, c), never on the trial's position, so the
/// loop runs as two passes with bit-identical results:
///
///  1. Draw the same t indices from the same Rng, only counting c_i per
///     input. The pass stops at exactly the trial where the sequential loop
///     breaks: c_i == |S_i| under kBreak/kScaleByCompleted, |S_i| == 0 under
///     kRecycle.
///  2. Scan each set's read prefix once. Recycling reads S_i ⌊c_i/|S_i|⌋
///     times in full and then its first c_i mod |S_i| samples, so
///     Y = Σ_i ⌊c_i/|S_i|⌋·U_i(|S_i|) + U_i(c_i mod |S_i|), where U_i(p)
///     counts uncovered samples among the first p of S_i; membership probes
///     assemble the same way.
///
/// `tally(i, begin, end)` returns the PrefixTally of samples [begin, end) of
/// input i — the only step the two estimators do differently. Each sample is
/// tallied at most once per call.
template <typename Input, typename Tally>
AppUnionOutcome TwoPassTrials(const std::vector<const Input*>& inputs,
                              const AppUnionParams& params,
                              DiscreteTable& table, Rng& rng, Tally&& tally) {
  AppUnionOutcome out;
  const int k = static_cast<int>(inputs.size());
  if (k == 0) return out;

  std::vector<double> sizes(k);
  double sum_sz = 0.0, max_sz = 0.0;
  for (int i = 0; i < k; ++i) {
    sizes[i] = inputs[i]->size_estimate();
    sum_sz += sizes[i];
    max_sz = std::max(max_sz, sizes[i]);
  }
  if (!(sum_sz > 0.0)) return out;  // all inputs empty: the union is empty
  // The k size estimates are fixed for all t trials; the guide table draws
  // the bit-identical index Rng::DiscreteIndex would, in expected O(1).
  table.Rebuild(sizes);

  const int64_t t = AppUnionTrialCount(params, sum_sz, max_sz);
  out.trials = t;

  // Pass 1: per-input read counts c_i. limits[i] is the count at which the
  // next draw of input i ends the loop (Line 8 of Alg. 1).
  std::vector<int64_t> num_samples(k), limits(k), counts(k, 0);
  for (int i = 0; i < k; ++i) {
    num_samples[i] = inputs[i]->num_samples();
    limits[i] = (params.starvation == StarvationPolicy::kRecycle &&
                 num_samples[i] > 0)
                    ? INT64_MAX
                    : num_samples[i];
  }
  for (int64_t trial = 0; trial < t; ++trial) {
    const int i = table.Draw(rng);
    assert(i >= 0);
    if (counts[i] == limits[i]) {  // starvation without recycling
      out.starved = true;
      break;
    }
    ++counts[i];
  }

  // Pass 2: one scan of each set's read prefix.
  for (int i = 0; i < k; ++i) {
    const int64_t c = counts[i];
    if (c == 0) continue;  // also covers every empty list
    const int64_t ns = num_samples[i];
    out.completed_trials += c;
    if (c > ns) out.starved = true;  // recycled: the cursor wrapped
    const int64_t full = c / ns, rem = c % ns;
    const PrefixTally head = tally(i, int64_t{0}, rem);
    out.hits += head.uncovered;
    out.membership_checks += head.probes;
    if (full > 0) {
      const PrefixTally rest = tally(i, rem, ns);
      out.hits += full * (head.uncovered + rest.uncovered);
      out.membership_checks += full * (head.probes + rest.probes);
    }
  }

  const double denom =
      (params.starvation == StarvationPolicy::kScaleByCompleted &&
       out.completed_trials > 0)
          ? static_cast<double>(out.completed_trials)
          : static_cast<double>(t);
  out.estimate = (static_cast<double>(out.hits) / denom) * sum_sz;
  return out;
}

}  // namespace union_mc_internal

/// Algorithm 1. `inputs` are non-owning pointers; per-input read cursors are
/// local to this call (the sample lists are never mutated). The
/// covered-earlier check probes T_0..T_{i-1} one Contains() at a time;
/// `membership_checks` counts those probes for every trial, exactly as a
/// sequential per-trial loop would.
template <typename Input>
AppUnionOutcome AppUnion(const std::vector<const Input*>& inputs,
                         const AppUnionParams& params, Rng& rng) {
  DiscreteTable table;
  return union_mc_internal::TwoPassTrials(
      inputs, params, table, rng, [&](int i, int64_t begin, int64_t end) {
        union_mc_internal::PrefixTally tally;
        for (int64_t idx = begin; idx < end; ++idx) {
          const auto& sample = inputs[i]->Sample(idx);
          bool covered_earlier = false;
          for (int j = 0; j < i && !covered_earlier; ++j) {
            ++tally.probes;
            covered_earlier = inputs[j]->Contains(sample);
          }
          if (!covered_earlier) ++tally.uncovered;
        }
        return tally;
      });
}

/// Algorithm 1 with batched membership (the CSR-hot-path variant of
/// AppUnion). Identical estimator and identical RNG stream — given the same
/// inputs, params, and rng state it returns the same outcome as AppUnion —
/// but the covered-earlier check of a whole sample-list prefix is one
/// prefix-mask kernel call (see MembershipBatch::CountUncovered). Input
/// extends the AppUnion concept with:
///   int    owner()    const;  // dense id of the set's owning state
///   size_t universe() const;  // owner-id universe size (m for NFA states)
///   const uint64_t* profile_slab()   const;  // membership profiles, in
///   size_t          profile_stride() const;  //   draw order, fixed stride
/// where sample j's profile (bit q set iff the sample lies in the set owned
/// by q) occupies profile_slab()[j·stride, (j+1)·stride) and the stride is
/// the universe's word count — a SampleBlock's profile slab.
///
/// `scratch` is caller-owned so repeated calls (one per (q, ℓ, b) in
/// Algorithm 3) reuse the prefix-mask and draw-table storage.
/// `membership_checks` counts answered probes (i per trial) to stay
/// comparable with the per-probe loop's upper bound.
template <typename Input>
AppUnionOutcome AppUnionBatched(const std::vector<const Input*>& inputs,
                                const AppUnionParams& params,
                                AppUnionScratch& scratch, Rng& rng) {
  if (inputs.empty()) return AppUnionOutcome{};
  std::vector<int> owners(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) owners[i] = inputs[i]->owner();
  scratch.batch.Rebuild(inputs[0]->universe(), owners);

  const simd::BitsetKernels& kern = simd::ActiveKernels();
  return union_mc_internal::TwoPassTrials(
      inputs, params, scratch.table, rng,
      [&](int i, int64_t begin, int64_t end) {
        const int64_t n = end - begin;
        using union_mc_internal::PrefixTally;
        if (i == 0 || n == 0) return PrefixTally{n, 0};  // nothing earlier
        const Input& in = *inputs[i];
        const size_t stride = in.profile_stride();
        return PrefixTally{
            scratch.batch.CountUncovered(
                in.profile_slab() + static_cast<size_t>(begin) * stride,
                stride, n, static_cast<size_t>(i), kern),
            static_cast<int64_t>(i) * n};
      });
}

/// Classic Karp-Luby variant: draws fresh samples via Input::Draw(rng) with
/// exact sizes — the [12] algorithm AppUnion modifies. Input requirements:
///   double size_estimate() const;
///   SampleT Draw(Rng&) const;
///   bool Contains(const SampleT&) const;
template <typename Input>
AppUnionOutcome AppUnionResample(const std::vector<const Input*>& inputs,
                                 const AppUnionParams& params, Rng& rng) {
  AppUnionOutcome out;
  const int k = static_cast<int>(inputs.size());
  if (k == 0) return out;

  std::vector<double> sizes(k);
  double sum_sz = 0.0, max_sz = 0.0;
  for (int i = 0; i < k; ++i) {
    sizes[i] = inputs[i]->size_estimate();
    sum_sz += sizes[i];
    max_sz = std::max(max_sz, sizes[i]);
  }
  if (!(sum_sz > 0.0)) return out;

  const int64_t t = AppUnionTrialCount(params, sum_sz, max_sz);
  out.trials = t;
  for (int64_t trial = 0; trial < t; ++trial) {
    int i = rng.DiscreteIndex(sizes);
    if (i < 0) break;
    auto sample = inputs[i]->Draw(rng);
    bool covered_earlier = false;
    for (int j = 0; j < i; ++j) {
      ++out.membership_checks;
      if (inputs[j]->Contains(sample)) {
        covered_earlier = true;
        break;
      }
    }
    if (!covered_earlier) ++out.hits;
    ++out.completed_trials;
  }
  out.estimate =
      (static_cast<double>(out.hits) / static_cast<double>(t)) * sum_sz;
  return out;
}

}  // namespace nfacount

#endif  // NFACOUNT_COUNTING_UNION_MC_HPP_
