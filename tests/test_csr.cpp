// Tests for the flat CSR transition layout and the batched membership path:
// construction equivalence against the per-state adjacency lists, PredSet
// equivalence on random frontiers against the Nfa::StepBack oracle,
// per-level counts cross-checked against the exact subset DP, and
// MembershipBatch prefix coverage.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "automata/generators.hpp"
#include "automata/unrolled.hpp"
#include "counting/exact.hpp"
#include "counting/union_mc.hpp"
#include "fpras/fpras.hpp"
#include "test_seed.hpp"
#include "util/rng.hpp"

namespace nfacount {
namespace {

using testing_support::TestSeed;

// CSR rows must list exactly the per-state adjacency, in the same order.
TEST(Csr, RowsMatchLegacyAdjacency) {
  Rng rng(TestSeed(101));
  for (int trial = 0; trial < 8; ++trial) {
    Nfa nfa = RandomNfa(5 + static_cast<int>(rng.UniformU64(12)), 0.25, 0.3, rng);
    CsrTransitions fwd = CsrTransitions::FromSuccessors(nfa);
    CsrTransitions bwd = CsrTransitions::FromPredecessors(nfa);
    ASSERT_EQ(fwd.num_states, nfa.num_states());
    ASSERT_EQ(fwd.alphabet_size, nfa.alphabet_size());
    ASSERT_EQ(static_cast<int64_t>(fwd.targets.size()), nfa.num_transitions());
    ASSERT_EQ(static_cast<int64_t>(bwd.targets.size()), nfa.num_transitions());
    ASSERT_EQ(fwd.targets.size(), fwd.symbols.size());
    for (StateId q = 0; q < nfa.num_states(); ++q) {
      for (int a = 0; a < nfa.alphabet_size(); ++a) {
        const Symbol s = static_cast<Symbol>(a);
        std::vector<StateId> fwd_row(fwd.RowBegin(q, s), fwd.RowEnd(q, s));
        EXPECT_EQ(fwd_row, nfa.Successors(q, s)) << "q=" << q << " a=" << a;
        std::vector<StateId> bwd_row(bwd.RowBegin(q, s), bwd.RowEnd(q, s));
        EXPECT_EQ(bwd_row, nfa.Predecessors(q, s)) << "q=" << q << " a=" << a;
        for (const StateId* e = fwd.RowBegin(q, s); e != fwd.RowEnd(q, s); ++e) {
          EXPECT_EQ(fwd.symbols[static_cast<size_t>(e - fwd.targets.data())], s);
        }
      }
    }
  }
}

// Row masks (when materialized) hold exactly the row's target set, and
// StepInto equals Nfa::Step's one-step image either way.
TEST(Csr, StepIntoMatchesNfaStep) {
  Rng rng(TestSeed(102));
  for (int trial = 0; trial < 8; ++trial) {
    Nfa nfa = RandomNfa(4 + static_cast<int>(rng.UniformU64(16)), 0.3, 0.3, rng);
    CsrTransitions fwd = CsrTransitions::FromSuccessors(nfa);
    ASSERT_TRUE(fwd.has_masks());  // tiny automata are always under budget
    Bitset out(nfa.num_states());
    for (int rep = 0; rep < 10; ++rep) {
      Bitset from(nfa.num_states());
      for (StateId q = 0; q < nfa.num_states(); ++q) {
        if (rng.Bernoulli(0.3)) from.Set(q);
      }
      for (int a = 0; a < nfa.alphabet_size(); ++a) {
        fwd.StepInto(from, static_cast<Symbol>(a), &out);
        EXPECT_EQ(out, nfa.Step(from, static_cast<Symbol>(a)));
      }
    }
  }
}

// The CSR predecessor expansion must equal the pointer-walk oracle
// StepBack(P, b) ∩ reachable(ℓ-1) for every level and random frontier.
TEST(Csr, PredSetMatchesLegacy) {
  Rng rng(TestSeed(103));
  for (int trial = 0; trial < 6; ++trial) {
    Nfa nfa = RandomNfa(6 + static_cast<int>(rng.UniformU64(10)), 0.25, 0.3, rng);
    const int n = 7;
    UnrolledNfa unr(&nfa, n);
    Bitset out(nfa.num_states());
    for (int level = 1; level <= n; ++level) {
      for (int rep = 0; rep < 6; ++rep) {
        Bitset frontier(nfa.num_states());
        for (StateId q = 0; q < nfa.num_states(); ++q) {
          if (rng.Bernoulli(0.4)) frontier.Set(q);
        }
        for (int a = 0; a < nfa.alphabet_size(); ++a) {
          const Symbol s = static_cast<Symbol>(a);
          Bitset oracle = nfa.StepBack(frontier, s);
          oracle &= unr.ReachableAt(level - 1);
          EXPECT_EQ(unr.PredSet(frontier, s, level), oracle);
          unr.PredSetInto(frontier, s, level, &out);
          EXPECT_EQ(out, oracle);
        }
      }
    }
  }
}

// Level reachability built on the CSR must agree with a from-scratch legacy
// computation (Nfa::Step) and with per-level counts under the exact DP:
// |L(q^ℓ)| > 0 exactly for the reachable copies.
TEST(Csr, ReachableSetsAndLevelCountsMatchExact) {
  Rng rng(TestSeed(104));
  for (int trial = 0; trial < 5; ++trial) {
    Nfa nfa = RandomNfa(6, 0.25, 0.3, rng);
    const int n = 6;
    UnrolledNfa unr(&nfa, n);

    // From-scratch recomputation of the level frontiers with Nfa::Step.
    Bitset cur(nfa.num_states());
    cur.Set(nfa.initial());
    EXPECT_EQ(unr.ReachableAt(0), cur);
    for (int level = 1; level <= n; ++level) {
      Bitset next(nfa.num_states());
      for (int a = 0; a < nfa.alphabet_size(); ++a) {
        next |= nfa.Step(cur, static_cast<Symbol>(a));
      }
      EXPECT_EQ(unr.ReachableAt(level), next) << "level=" << level;
      cur = next;
    }

    Result<SubsetDp> dp = SubsetDp::Run(nfa, n);
    ASSERT_TRUE(dp.ok());
    for (int level = 0; level <= n; ++level) {
      for (StateId q = 0; q < nfa.num_states(); ++q) {
        const bool nonempty = !dp->StateLevelCount(q, level).IsZero();
        EXPECT_EQ(unr.IsReachable(q, level), nonempty)
            << "trial=" << trial << " q=" << q << " level=" << level;
      }
    }
  }
}

// Reach profiles computed by forward-CSR stepping must match Nfa::Reach.
TEST(Csr, ReachProfileMatchesNfaReach) {
  Rng rng(TestSeed(105));
  Nfa nfa = RandomNfa(9, 0.3, 0.3, rng);
  UnrolledNfa unr(&nfa, 6);
  for (int trial = 0; trial < 40; ++trial) {
    Word w;
    const int len = static_cast<int>(rng.UniformU64(7));
    for (int i = 0; i < len; ++i) {
      w.push_back(static_cast<Symbol>(rng.UniformU64(2)));
    }
    EXPECT_EQ(unr.ReachProfile(w), nfa.Reach(w)) << WordToString(w);
  }
}

// Each row of the mask slab holds exactly its CSR target list, in both
// directions, with no bit set past the last state.
TEST(Csr, SlabRowsEqualTargetLists) {
  Rng rng(TestSeed(107));
  for (int m : {5, 64, 65, 130}) {
    const Nfa nfa = RandomNfa(m, 0.2, 0.3, rng);
    for (const CsrTransitions& csr : {CsrTransitions::FromSuccessors(nfa),
                                      CsrTransitions::FromPredecessors(nfa)}) {
      ASSERT_TRUE(csr.has_masks());
      const size_t rows =
          static_cast<size_t>(csr.num_states) * csr.alphabet_size;
      ASSERT_EQ(csr.mask_words, (static_cast<size_t>(m) + 63) / 64);
      ASSERT_EQ(csr.mask_slab.size(), rows * csr.mask_words);
      for (size_t r = 0; r < rows; ++r) {
        std::vector<StateId> in_mask;
        const uint64_t* mask = csr.MaskRow(r);
        for (size_t bit = 0; bit < csr.mask_words * 64; ++bit) {
          if ((mask[bit >> 6] >> (bit & 63)) & 1) {
            in_mask.push_back(static_cast<StateId>(bit));
          }
        }
        std::vector<StateId> listed(
            csr.targets.begin() + csr.offsets[r],
            csr.targets.begin() + csr.offsets[r + 1]);
        std::sort(listed.begin(), listed.end());
        listed.erase(std::unique(listed.begin(), listed.end()), listed.end());
        EXPECT_EQ(in_mask, listed) << "m=" << m << " row=" << r;
      }
    }
  }
}

// The forward byte tables are built exactly when C·⌈m/8⌉·256·⌈m/64⌉ words
// fit kByteTableBitBudget; with them the forward CSR carries no row masks,
// without them it does. At C = 2, m = 704 and 705 straddle the 4 MiB budget,
// and a sparse m ≈ 2100 automaton is far past it (but not past the row
// masks' budget). Every layout steps and profiles like Nfa::Step/Nfa::Reach.
TEST(Csr, ByteTableBudgetDecidesForwardLayout) {
  Rng rng(TestSeed(108));
  int with_tables = 0;
  int without_tables = 0;
  for (int m : {704, 705, 2100}) {
    const Nfa nfa = RandomNfa(m, m > 1000 ? 0.002 : 0.01, 0.05, rng);
    UnrolledNfa unr(&nfa, 2, /*symbol_classes=*/false);
    const size_t words = 2 * ((static_cast<size_t>(m) + 7) / 8) * 256 *
                         ((static_cast<size_t>(m) + 63) / 64);
    const bool fits = words * 64 <= UnrolledNfa::kByteTableBitBudget;
    ASSERT_EQ(unr.has_byte_tables(), fits) << "m=" << m;
    EXPECT_EQ(unr.forward_csr().has_masks(), !fits) << "m=" << m;
    EXPECT_TRUE(unr.reverse_csr().has_masks()) << "m=" << m;
    ++(fits ? with_tables : without_tables);
    Bitset out(static_cast<size_t>(m));
    for (double density : {0.001, 0.05, 0.5}) {
      Bitset from(static_cast<size_t>(m));
      for (StateId q = 0; q < m; ++q) {
        if (rng.Bernoulli(density)) from.Set(static_cast<size_t>(q));
      }
      for (int a = 0; a < 2; ++a) {
        unr.SuccSetInto(from, static_cast<Symbol>(a), &out);
        EXPECT_EQ(out, nfa.Step(from, static_cast<Symbol>(a)))
            << "m=" << m << " density=" << density << " a=" << a;
      }
    }
    for (int trial = 0; trial < 5; ++trial) {
      Word w;
      for (int i = 0; i < 4; ++i) {
        w.push_back(static_cast<Symbol>(rng.UniformU64(2)));
      }
      EXPECT_EQ(unr.ReachProfile(w), nfa.Reach(w))
          << "m=" << m << " " << WordToString(w);
    }
  }
  EXPECT_EQ(with_tables, 1);
  EXPECT_EQ(without_tables, 2);
}

// MembershipBatch::CoveredBefore must equal the naive prefix loop.
TEST(Csr, MembershipBatchMatchesNaivePrefixScan) {
  Rng rng(TestSeed(106));
  const size_t universe = 70;  // straddles a word boundary
  for (int trial = 0; trial < 10; ++trial) {
    const int k = 1 + static_cast<int>(rng.UniformU64(12));
    std::vector<int> owners;
    for (int i = 0; i < k; ++i) {
      owners.push_back(static_cast<int>(rng.UniformU64(universe)));
    }
    MembershipBatch batch;
    batch.Rebuild(universe, owners);
    ASSERT_EQ(batch.size(), static_cast<size_t>(k));
    for (int rep = 0; rep < 20; ++rep) {
      Bitset profile(universe);
      for (size_t b = 0; b < universe; ++b) {
        if (rng.Bernoulli(0.1)) profile.Set(b);
      }
      for (int i = 1; i < k; ++i) {
        bool naive = false;
        for (int j = 0; j < i && !naive; ++j) {
          naive = profile.Test(static_cast<size_t>(owners[j]));
        }
        EXPECT_EQ(batch.CoveredBefore(profile, static_cast<size_t>(i)), naive)
            << "trial=" << trial << " i=" << i;
      }
    }
  }
}

// SampleStored must return the drawn word's true reach profile.
TEST(Csr, SampleStoredCarriesReachProfile) {
  Rng rng(TestSeed(111));
  Nfa nfa = RandomNfa(6, 0.35, 0.4, rng);
  SamplerOptions opts;
  opts.seed = TestSeed(112);
  Result<WordSampler> sampler = WordSampler::Build(nfa, 5, opts);
  ASSERT_TRUE(sampler.ok());
  for (int i = 0; i < 8; ++i) {
    Result<StoredSample> s = sampler->SampleStored();
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s->reach, nfa.Reach(s->word)) << WordToString(s->word);
    EXPECT_TRUE(s->reach.Intersects(nfa.accepting()));
  }
}

}  // namespace
}  // namespace nfacount
