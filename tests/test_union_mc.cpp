// Tests for Algorithm 1 (AppUnion): trial-count formulas, estimator accuracy
// under exact and perturbed size estimates, overlap handling, starvation
// policies, the fresh-draw Karp-Luby variant, and exact agreement of the
// two-pass trial loop (AppUnion, AppUnionBatched) with a sequential
// per-trial loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "counting/union_mc.hpp"
#include "test_seed.hpp"
#include "util/rng.hpp"

namespace nfacount {
namespace {

using testing_support::TestSeed;

/// Test input: an explicit integer set with a pre-drawn uniform sample list.
struct IntSetInput {
  std::set<int> elements;
  std::vector<int> samples;  // pre-drawn uniformly with replacement
  double reported_size;      // possibly perturbed estimate

  double size_estimate() const { return reported_size; }
  int64_t num_samples() const { return static_cast<int64_t>(samples.size()); }
  const int& Sample(int64_t i) const { return samples[static_cast<size_t>(i)]; }
  bool Contains(const int& x) const { return elements.count(x) > 0; }
};

IntSetInput MakeInput(std::set<int> elements, int64_t num_samples, Rng& rng,
                      double size_factor = 1.0) {
  IntSetInput input;
  input.elements = std::move(elements);
  std::vector<int> pool(input.elements.begin(), input.elements.end());
  for (int64_t i = 0; i < num_samples; ++i) {
    input.samples.push_back(pool[rng.UniformU64(pool.size())]);
  }
  input.reported_size = static_cast<double>(input.elements.size()) * size_factor;
  return input;
}

double TrueUnionSize(const std::vector<IntSetInput>& inputs) {
  std::set<int> u;
  for (const auto& in : inputs) u.insert(in.elements.begin(), in.elements.end());
  return static_cast<double>(u.size());
}

AppUnionOutcome RunAppUnion(const std::vector<IntSetInput>& inputs,
                            const AppUnionParams& params, Rng& rng) {
  std::vector<const IntSetInput*> ptrs;
  for (const auto& in : inputs) ptrs.push_back(&in);
  return AppUnion(ptrs, params, rng);
}

TEST(TrialCount, MatchesFormula) {
  AppUnionParams p;
  p.eps = 0.5;
  p.delta = 0.25;
  p.eps_sz = 0.0;
  p.min_trials = 1;
  // m̄ = ceil(10/4) = 3; t = ceil(12·3/0.25·ln(16)).
  int64_t t = AppUnionTrialCount(p, /*sum_sz=*/10.0, /*max_sz=*/4.0);
  EXPECT_EQ(t, static_cast<int64_t>(std::ceil(12.0 * 3 / 0.25 * std::log(16.0))));
}

TEST(TrialCount, ScaleAndFloors) {
  AppUnionParams p;
  p.eps = 0.1;
  p.delta = 0.1;
  p.trial_scale = 1e-9;
  p.min_trials = 77;
  EXPECT_EQ(AppUnionTrialCount(p, 10, 10), 77);
  p.min_trials = 1;
  p.max_trials = 1000;
  p.trial_scale = 1e12;
  EXPECT_EQ(AppUnionTrialCount(p, 10, 10), 1000);
}

TEST(Thresh, MatchesTheoremFormula) {
  AppUnionParams p;
  p.eps = 0.5;
  p.delta = 0.2;
  p.eps_sz = 0.1;
  double expect = 24.0 * 1.1 * 1.1 / 0.25 * std::log(4.0 * 3 / 0.2);
  EXPECT_NEAR(AppUnionThresh(p, 3), expect, 1e-9);
}

TEST(AppUnion, EmptyInputsGiveZero) {
  Rng rng(TestSeed(1));
  std::vector<IntSetInput> inputs;
  AppUnionParams p;
  EXPECT_EQ(RunAppUnion(inputs, p, rng).estimate, 0.0);
  // All-zero size estimates: union is (estimated) empty.
  inputs.push_back(IntSetInput{{}, {}, 0.0});
  EXPECT_EQ(RunAppUnion(inputs, p, rng).estimate, 0.0);
}

TEST(AppUnion, SingleSetIsItsSize) {
  Rng rng(TestSeed(2));
  std::set<int> s;
  for (int i = 0; i < 100; ++i) s.insert(i);
  std::vector<IntSetInput> inputs = {MakeInput(s, 4096, rng)};
  AppUnionParams p;
  p.eps = 0.2;
  p.delta = 0.1;
  AppUnionOutcome out = RunAppUnion(inputs, p, rng);
  // Every sampled pair is in U_unique for a single set: estimate == sum_sz.
  EXPECT_DOUBLE_EQ(out.estimate, 100.0);
  EXPECT_EQ(out.hits, out.completed_trials);
}

class AppUnionAccuracy : public ::testing::TestWithParam<int> {};

TEST_P(AppUnionAccuracy, DisjointSetsSumUp) {
  Rng rng(GetParam());
  std::vector<IntSetInput> inputs;
  int base = 0;
  double total = 0;
  for (int i = 0; i < 4; ++i) {
    std::set<int> s;
    int size = 20 * (i + 1);
    for (int x = 0; x < size; ++x) s.insert(base + x);
    base += 1000;
    total += size;
    inputs.push_back(MakeInput(std::move(s), 8192, rng));
  }
  AppUnionParams p;
  p.eps = 0.15;
  p.delta = 0.05;
  AppUnionOutcome out = RunAppUnion(inputs, p, rng);
  EXPECT_NEAR(out.estimate / total, 1.0, 0.15);
}

TEST_P(AppUnionAccuracy, HeavyOverlapIsNotOvercounted) {
  Rng rng(GetParam() + 100);
  // Four sets that are 90% shared: naive summing overcounts ~3.4x.
  std::set<int> shared;
  for (int x = 0; x < 90; ++x) shared.insert(x);
  std::vector<IntSetInput> inputs;
  for (int i = 0; i < 4; ++i) {
    std::set<int> s = shared;
    for (int x = 0; x < 10; ++x) s.insert(1000 + 10 * i + x);
    inputs.push_back(MakeInput(std::move(s), 8192, rng));
  }
  const double truth = TrueUnionSize(inputs);  // 90 + 40 = 130
  ASSERT_EQ(truth, 130.0);
  AppUnionParams p;
  p.eps = 0.15;
  p.delta = 0.05;
  AppUnionOutcome out = RunAppUnion(inputs, p, rng);
  EXPECT_NEAR(out.estimate / truth, 1.0, 0.15);
}

TEST_P(AppUnionAccuracy, NestedSetsCollapseToLargest) {
  Rng rng(GetParam() + 200);
  // T1 ⊂ T2 ⊂ T3: union = T3.
  std::vector<IntSetInput> inputs;
  for (int size : {25, 50, 100}) {
    std::set<int> s;
    for (int x = 0; x < size; ++x) s.insert(x);
    inputs.push_back(MakeInput(std::move(s), 8192, rng));
  }
  AppUnionParams p;
  p.eps = 0.15;
  p.delta = 0.05;
  AppUnionOutcome out = RunAppUnion(inputs, p, rng);
  EXPECT_NEAR(out.estimate / 100.0, 1.0, 0.15);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AppUnionAccuracy, ::testing::Range(1, 6));

TEST(AppUnion, ToleratesPerturbedSizeEstimates) {
  // Size estimates off by (1±ε_sz) still give (1+ε)(1+ε_sz) accuracy
  // (Theorem 1). Perturb sizes by ±20% and pass eps_sz = 0.2.
  Rng rng(TestSeed(42));
  std::vector<IntSetInput> inputs;
  inputs.push_back(MakeInput([] {
                     std::set<int> s;
                     for (int x = 0; x < 80; ++x) s.insert(x);
                     return s;
                   }(),
                   8192, rng, /*size_factor=*/1.2));
  inputs.push_back(MakeInput([] {
                     std::set<int> s;
                     for (int x = 40; x < 140; ++x) s.insert(x);
                     return s;
                   }(),
                   8192, rng, /*size_factor=*/0.8333));
  AppUnionParams p;
  p.eps = 0.15;
  p.delta = 0.05;
  p.eps_sz = 0.2;
  AppUnionOutcome out = RunAppUnion(inputs, p, rng);
  const double truth = 140.0;
  // Combined guarantee: within (1+0.15)(1+0.2) multiplicative.
  EXPECT_GT(out.estimate, truth / (1.15 * 1.2) * 0.9);
  EXPECT_LT(out.estimate, truth * 1.15 * 1.2 * 1.1);
}

TEST(AppUnion, StarvationBreakUndercounts) {
  // Tiny sample lists + kBreak: the Y/t estimate collapses (the failure mode
  // the paper's thresh bound protects against; see union_mc.hpp).
  Rng rng(TestSeed(7));
  std::set<int> s;
  for (int x = 0; x < 50; ++x) s.insert(x);
  std::vector<IntSetInput> inputs = {MakeInput(s, /*num_samples=*/5, rng)};
  AppUnionParams p;
  p.eps = 0.1;
  p.delta = 0.1;
  p.starvation = StarvationPolicy::kBreak;
  AppUnionOutcome out = RunAppUnion(inputs, p, rng);
  EXPECT_TRUE(out.starved);
  EXPECT_LT(out.estimate, 50.0 * 0.5);
}

TEST(AppUnion, StarvationRecycleStaysAccurate) {
  Rng rng(TestSeed(8));
  std::set<int> s;
  for (int x = 0; x < 50; ++x) s.insert(x);
  std::vector<IntSetInput> inputs = {MakeInput(s, /*num_samples=*/64, rng)};
  AppUnionParams p;
  p.eps = 0.1;
  p.delta = 0.1;
  p.starvation = StarvationPolicy::kRecycle;
  AppUnionOutcome out = RunAppUnion(inputs, p, rng);
  EXPECT_TRUE(out.starved);  // the event is still reported
  EXPECT_DOUBLE_EQ(out.estimate, 50.0);
}

TEST(AppUnion, StarvationScaleByCompletedSingleSet) {
  Rng rng(TestSeed(9));
  std::set<int> s;
  for (int x = 0; x < 50; ++x) s.insert(x);
  std::vector<IntSetInput> inputs = {MakeInput(s, /*num_samples=*/16, rng)};
  AppUnionParams p;
  p.eps = 0.1;
  p.delta = 0.1;
  p.starvation = StarvationPolicy::kScaleByCompleted;
  AppUnionOutcome out = RunAppUnion(inputs, p, rng);
  // Single set: every completed trial hits, so Y/completed = 1 exactly.
  EXPECT_DOUBLE_EQ(out.estimate, 50.0);
}

TEST(AppUnion, MembershipChecksOnlyAgainstEarlierSets) {
  Rng rng(TestSeed(10));
  std::vector<IntSetInput> inputs;
  std::set<int> s = {1, 2, 3};
  inputs.push_back(MakeInput(s, 4096, rng));
  inputs.push_back(MakeInput(s, 4096, rng));
  AppUnionParams p;
  p.eps = 0.2;
  p.delta = 0.1;
  AppUnionOutcome out = RunAppUnion(inputs, p, rng);
  // Identical sets: union = 3. Checks happen only for draws from input 1.
  EXPECT_NEAR(out.estimate, 3.0, 0.8);
  EXPECT_GT(out.membership_checks, 0);
  EXPECT_LT(out.membership_checks, out.trials);  // never 2 checks per trial
}

/// Fresh-draw input for the classic variant.
struct DrawInput {
  std::set<int> elements;
  double size_estimate() const { return static_cast<double>(elements.size()); }
  int Draw(Rng& rng) const {
    std::vector<int> pool(elements.begin(), elements.end());
    return pool[rng.UniformU64(pool.size())];
  }
  bool Contains(const int& x) const { return elements.count(x) > 0; }
};

TEST(AppUnionResample, ClassicKarpLubyAccurate) {
  Rng rng(TestSeed(11));
  std::vector<DrawInput> inputs;
  std::set<int> a, b, c;
  for (int x = 0; x < 60; ++x) a.insert(x);
  for (int x = 30; x < 90; ++x) b.insert(x);
  for (int x = 60; x < 150; ++x) c.insert(x);
  inputs.push_back(DrawInput{a});
  inputs.push_back(DrawInput{b});
  inputs.push_back(DrawInput{c});
  std::vector<const DrawInput*> ptrs;
  for (const auto& in : inputs) ptrs.push_back(&in);
  AppUnionParams p;
  p.eps = 0.1;
  p.delta = 0.05;
  AppUnionOutcome out = AppUnionResample(ptrs, p, rng);
  EXPECT_NEAR(out.estimate / 150.0, 1.0, 0.1);
}

TEST(AppUnion, DeterministicUnderSeed) {
  Rng build(12);
  std::set<int> s;
  for (int x = 0; x < 40; ++x) s.insert(x);
  std::vector<IntSetInput> inputs = {MakeInput(s, 2048, build)};
  AppUnionParams p;
  p.eps = 0.2;
  p.delta = 0.2;
  Rng r1(77), r2(77);
  EXPECT_DOUBLE_EQ(RunAppUnion(inputs, p, r1).estimate,
                   RunAppUnion(inputs, p, r2).estimate);
}

// ---------------------------------------------------------------------------
// Two-pass trial loop vs the sequential per-trial loop
// ---------------------------------------------------------------------------

/// Test-only oracle: Algorithm 1 as a sequential per-trial loop — draw an
/// input, read the next sample of its list (wrapping under kRecycle), probe
/// the earlier sets one by one. AppUnion and AppUnionBatched must reproduce
/// its outcome exactly from the same rng state.
template <typename Input>
AppUnionOutcome SequentialAppUnion(const std::vector<const Input*>& inputs,
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
  std::vector<int64_t> cursor(k, 0);
  for (int64_t trial = 0; trial < t; ++trial) {
    const int i = rng.DiscreteIndex(sizes);
    if (i < 0) break;
    if (cursor[i] >= inputs[i]->num_samples()) {
      out.starved = true;
      if (params.starvation == StarvationPolicy::kRecycle &&
          inputs[i]->num_samples() > 0) {
        cursor[i] = 0;
      } else {
        break;
      }
    }
    const auto& sample = inputs[i]->Sample(cursor[i]++);
    bool covered_earlier = false;
    for (int j = 0; j < i && !covered_earlier; ++j) {
      ++out.membership_checks;
      covered_earlier = inputs[j]->Contains(sample);
    }
    if (!covered_earlier) ++out.hits;
    ++out.completed_trials;
  }
  const double denom =
      (params.starvation == StarvationPolicy::kScaleByCompleted &&
       out.completed_trials > 0)
          ? static_cast<double>(out.completed_trials)
          : static_cast<double>(t);
  out.estimate = (static_cast<double>(out.hits) / denom) * sum_sz;
  return out;
}

/// IntSetInput extended with the AppUnionBatched concept: each set is owned
/// by one id of a `universe`-bit owner space, and its samples' membership
/// profiles (bit q set iff the sample lies in the set owned by q) live in
/// one fixed-stride slab.
struct SlabInput {
  IntSetInput set;
  int owner_id = 0;
  size_t universe_bits = 0;
  std::vector<uint64_t> slab;

  double size_estimate() const { return set.size_estimate(); }
  int64_t num_samples() const { return set.num_samples(); }
  const int& Sample(int64_t i) const { return set.Sample(i); }
  bool Contains(const int& x) const { return set.Contains(x); }
  int owner() const { return owner_id; }
  size_t universe() const { return universe_bits; }
  const uint64_t* profile_slab() const { return slab.data(); }
  size_t profile_stride() const { return (universe_bits + 63) / 64; }
};

/// One test case: sets over [0, 60) with sample-list lengths and reported
/// sizes; owners are spread over a 130-bit universe (three profile words).
struct SlabCase {
  std::string name;
  std::vector<std::set<int>> sets;
  std::vector<int64_t> num_samples;
  std::vector<double> reported_sizes;  // empty: the exact sizes
};

std::vector<SlabInput> MakeSlabInputs(const SlabCase& c, Rng& rng) {
  const size_t universe = 130;
  std::vector<SlabInput> inputs(c.sets.size());
  for (size_t i = 0; i < c.sets.size(); ++i) {
    SlabInput& in = inputs[i];
    in.set.elements = c.sets[i];
    std::vector<int> pool(c.sets[i].begin(), c.sets[i].end());
    for (int64_t j = 0; j < c.num_samples[i]; ++j) {
      in.set.samples.push_back(pool[rng.UniformU64(pool.size())]);
    }
    in.set.reported_size = c.reported_sizes.empty()
                               ? static_cast<double>(c.sets[i].size())
                               : c.reported_sizes[i];
    in.owner_id = static_cast<int>((i * 47 + 5) % universe);
    in.universe_bits = universe;
  }
  for (SlabInput& in : inputs) {
    const size_t stride = in.profile_stride();
    in.slab.assign(in.set.samples.size() * stride, 0);
    for (size_t j = 0; j < in.set.samples.size(); ++j) {
      for (const SlabInput& other : inputs) {
        if (other.Contains(in.set.samples[j])) {
          const size_t bit = static_cast<size_t>(other.owner_id);
          in.slab[j * stride + bit / 64] |= uint64_t{1} << (bit % 64);
        }
      }
    }
  }
  return inputs;
}

std::set<int> Range(int lo, int hi) {
  std::set<int> out;
  for (int x = lo; x < hi; ++x) out.insert(x);
  return out;
}

std::vector<SlabCase> TwoPassCases() {
  return {
      {"ample lists", {Range(0, 30), Range(20, 50), Range(10, 60)},
       {4096, 4096, 4096}, {}},
      {"lists shorter than t", {Range(0, 30), Range(20, 50), Range(10, 60)},
       {7, 20, 13}, {}},
      {"empty list with positive size",
       {Range(0, 30), Range(20, 50), Range(10, 60)}, {400, 0, 400},
       {30.0, 45.0, 50.0}},
      {"single set", {Range(0, 25)}, {9}, {}},
      {"perturbed sizes, zero-size input",
       {Range(0, 30), Range(0, 10), Range(25, 40), Range(5, 35)},
       {50, 50, 3, 64}, {33.0, 0.0, 14.0, 29.0}},
  };
}

TEST(AppUnionTwoPass, MatchesSequentialLoopUnderEveryPolicy) {
  for (const SlabCase& c : TwoPassCases()) {
    for (StarvationPolicy policy :
         {StarvationPolicy::kBreak, StarvationPolicy::kScaleByCompleted,
          StarvationPolicy::kRecycle}) {
      for (uint64_t seed = 0; seed < 4; ++seed) {
        Rng build(TestSeed(20) + seed);
        const std::vector<SlabInput> inputs = MakeSlabInputs(c, build);
        std::vector<const SlabInput*> ptrs;
        for (const auto& in : inputs) ptrs.push_back(&in);
        AppUnionParams p;
        p.eps = 0.3;
        p.delta = 0.2;
        p.starvation = policy;
        SCOPED_TRACE(c.name + " policy=" +
                     std::to_string(static_cast<int>(policy)) +
                     " seed=" + std::to_string(seed));

        Rng r_oracle(TestSeed(30) + seed), r_probe(TestSeed(30) + seed),
            r_batched(TestSeed(30) + seed);
        const AppUnionOutcome oracle = SequentialAppUnion(ptrs, p, r_oracle);
        const AppUnionOutcome probe = AppUnion(ptrs, p, r_probe);
        AppUnionScratch scratch;
        const AppUnionOutcome batched =
            AppUnionBatched(ptrs, p, scratch, r_batched);

        for (const AppUnionOutcome* got : {&probe, &batched}) {
          EXPECT_EQ(got->estimate, oracle.estimate);
          EXPECT_EQ(got->hits, oracle.hits);
          EXPECT_EQ(got->trials, oracle.trials);
          EXPECT_EQ(got->completed_trials, oracle.completed_trials);
          EXPECT_EQ(got->starved, oracle.starved);
        }
        // The per-probe path counts the same probes the sequential loop
        // makes; the batched path answers i probes per trial from input i.
        EXPECT_EQ(probe.membership_checks, oracle.membership_checks);
        EXPECT_GE(batched.membership_checks, oracle.membership_checks);
      }
    }
  }
}

TEST(AppUnionTwoPass, ForcedStarvationIsReportedByEveryPolicy) {
  Rng build(TestSeed(21));
  const std::vector<SlabCase> cases = TwoPassCases();
  for (size_t ci = 1; ci < 4; ++ci) {  // the three starving cases
    const std::vector<SlabInput> inputs = MakeSlabInputs(cases[ci], build);
    std::vector<const SlabInput*> ptrs;
    for (const auto& in : inputs) ptrs.push_back(&in);
    for (StarvationPolicy policy :
         {StarvationPolicy::kBreak, StarvationPolicy::kScaleByCompleted,
          StarvationPolicy::kRecycle}) {
      AppUnionParams p;
      p.eps = 0.3;
      p.delta = 0.2;
      p.starvation = policy;
      Rng rng(TestSeed(31));
      AppUnionScratch scratch;
      const AppUnionOutcome out = AppUnionBatched(ptrs, p, scratch, rng);
      EXPECT_TRUE(out.starved) << cases[ci].name;
      // Only an empty list stops a recycling loop early.
      const bool stops_early = policy != StarvationPolicy::kRecycle || ci == 2;
      EXPECT_EQ(out.completed_trials < out.trials, stops_early)
          << cases[ci].name;
    }
  }
}

}  // namespace
}  // namespace nfacount
