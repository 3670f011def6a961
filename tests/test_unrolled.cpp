// Tests for the unrolled-automaton view: level reachability, predecessor
// expansion (the self-reducible-union decomposition of the paper), witness
// extraction, and the amortized membership oracle.

#include <gtest/gtest.h>

#include <set>

#include "automata/generators.hpp"
#include "automata/unrolled.hpp"
#include "counting/exact.hpp"
#include "test_seed.hpp"
#include "util/rng.hpp"

namespace nfacount {
namespace {

using testing_support::TestSeed;

TEST(Unrolled, Level0IsInitialOnly) {
  Rng rng(TestSeed(1));
  Nfa nfa = RandomNfa(6, 0.3, 0.3, rng);
  UnrolledNfa unr(&nfa, 5);
  EXPECT_EQ(unr.ReachableAt(0).ToIndices(),
            std::vector<int>{static_cast<int>(nfa.initial())});
}

TEST(Unrolled, ReachabilityMatchesEnumeration) {
  Rng rng(TestSeed(2));
  for (int trial = 0; trial < 6; ++trial) {
    Nfa nfa = RandomNfa(6, 0.25, 0.3, rng);
    const int n = 6;
    UnrolledNfa unr(&nfa, n);
    for (int level = 0; level <= n; ++level) {
      for (StateId q = 0; q < nfa.num_states(); ++q) {
        Result<std::vector<Word>> words = EnumerateStateLevel(nfa, q, level);
        ASSERT_TRUE(words.ok());
        EXPECT_EQ(unr.IsReachable(q, level), !words->empty())
            << "trial=" << trial << " q=" << q << " level=" << level;
      }
    }
  }
}

TEST(Unrolled, PredSetDecompositionIdentity) {
  // The self-reducible union property behind the whole algorithm:
  // L(q^ℓ) = ⊎_b L(Pred(q,b)^{ℓ-1})·b. Verify exact counts both sides.
  Rng rng(TestSeed(3));
  for (int trial = 0; trial < 5; ++trial) {
    Nfa nfa = RandomNfa(6, 0.3, 0.3, rng);
    const int n = 6;
    UnrolledNfa unr(&nfa, n);
    Result<SubsetDp> dp = SubsetDp::Run(nfa, n);
    ASSERT_TRUE(dp.ok());
    for (int level = 1; level <= n; ++level) {
      for (StateId q = 0; q < nfa.num_states(); ++q) {
        if (!unr.IsReachable(q, level)) continue;
        Bitset singleton(nfa.num_states());
        singleton.Set(q);
        // Count words in L(q^ℓ) ending with b = words of L(P_b^{ℓ-1}) where
        // P_b = PredSet(q, b). The per-b sets are computed by enumeration.
        size_t total = 0;
        for (int b = 0; b < 2; ++b) {
          Bitset preds = unr.PredSet(singleton, static_cast<Symbol>(b), level);
          // |∪_{p∈preds} L(p^{ℓ-1})| by brute-force de-dup.
          std::set<Word> prefix_union;
          preds.ForEachSet([&](int p) {
            Result<std::vector<Word>> words =
                EnumerateStateLevel(nfa, p, level - 1);
            ASSERT_TRUE(words.ok());
            prefix_union.insert(words->begin(), words->end());
          });
          total += prefix_union.size();
        }
        EXPECT_EQ(BigUint(total), dp->StateLevelCount(q, level))
            << "trial=" << trial << " q=" << q << " level=" << level;
      }
    }
  }
}

TEST(Unrolled, WitnessWordIsInStateLanguage) {
  Rng rng(TestSeed(4));
  for (int trial = 0; trial < 8; ++trial) {
    Nfa nfa = RandomNfa(7, 0.25, 0.3, rng);
    const int n = 7;
    UnrolledNfa unr(&nfa, n);
    for (int level = 0; level <= n; ++level) {
      for (StateId q = 0; q < nfa.num_states(); ++q) {
        std::optional<Word> w = unr.WitnessWord(q, level);
        EXPECT_EQ(w.has_value(), unr.IsReachable(q, level));
        if (w.has_value()) {
          EXPECT_EQ(static_cast<int>(w->size()), level);
          EXPECT_TRUE(nfa.Reach(*w).Test(q))
              << "witness " << WordToString(*w) << " not in L(" << q << "^"
              << level << ")";
        }
      }
    }
  }
}

TEST(Unrolled, WitnessWordIsDeterministic) {
  Rng rng(TestSeed(5));
  Nfa nfa = RandomNfa(6, 0.3, 0.3, rng);
  UnrolledNfa a(&nfa, 6), b(&nfa, 6);
  for (StateId q = 0; q < nfa.num_states(); ++q) {
    EXPECT_EQ(a.WitnessWord(q, 6), b.WitnessWord(q, 6));
  }
}

TEST(Unrolled, MakeSampleReachProfileMatchesSlowOracle) {
  Rng rng(TestSeed(6));
  Nfa nfa = RandomNfa(8, 0.3, 0.3, rng);
  UnrolledNfa unr(&nfa, 6);
  Rng words_rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    Word w;
    for (int i = 0; i < 6; ++i) {
      w.push_back(static_cast<Symbol>(words_rng.UniformU64(2)));
    }
    StoredSample sample = unr.MakeSample(w);
    for (StateId q = 0; q < nfa.num_states(); ++q) {
      EXPECT_EQ(sample.reach.Test(q), unr.MemberSlow(w, q));
    }
  }
}

TEST(Unrolled, EmptyWordSample) {
  Nfa nfa = ParityNfa(2);
  UnrolledNfa unr(&nfa, 3);
  StoredSample s = unr.MakeSample(Word{});
  EXPECT_TRUE(s.reach.Test(nfa.initial()));
  EXPECT_EQ(s.reach.Count(), 1u);
}

TEST(Unrolled, PredSetRespectsLevelReachability) {
  // Build an NFA where state 2 is reachable only at even levels.
  Nfa nfa(2);
  nfa.AddStates(2);
  nfa.SetInitial(0);
  nfa.AddAccepting(1);
  nfa.AddTransition(0, 0, 1);
  nfa.AddTransition(1, 0, 0);
  UnrolledNfa unr(&nfa, 4);
  // State 0 reachable at even levels, state 1 at odd.
  EXPECT_TRUE(unr.IsReachable(0, 0));
  EXPECT_FALSE(unr.IsReachable(1, 0));
  EXPECT_TRUE(unr.IsReachable(1, 1));
  EXPECT_FALSE(unr.IsReachable(0, 1));
  EXPECT_TRUE(unr.IsReachable(0, 2));

  Bitset target(2);
  target.Set(1);
  // Pred(1, 0) = {0}; at level 1 the previous level is 0 where only state 0
  // lives — fine. At level 2, state 0 is NOT reachable at level 1, so empty.
  EXPECT_EQ(unr.PredSet(target, 0, 1).ToIndices(), std::vector<int>{0});
  EXPECT_TRUE(unr.PredSet(target, 0, 2).None());
}

/// A random m-state NFA over 4 symbols in which symbols 2 and 3 repeat the
/// rows of symbols 0 and 1, so the symbol-class partition is nontrivial.
Nfa RepeatedRowNfa(int m, Rng& rng) {
  Nfa nfa(4);
  nfa.AddStates(m);
  nfa.SetInitial(0);
  nfa.AddAccepting(static_cast<StateId>(m - 1));
  for (StateId q = 0; q < m; ++q) {
    for (int a = 0; a < 2; ++a) {
      for (StateId r = 0; r < m; ++r) {
        if (rng.Bernoulli(0.3)) {
          nfa.AddTransition(q, static_cast<Symbol>(a), r);
          nfa.AddTransition(q, static_cast<Symbol>(a + 2), r);
        }
      }
    }
  }
  return nfa;
}

// The forward byte tables must step exactly like Nfa::Step at every state
// count around the byte and word boundaries, with the symbol-class partition
// on and off, on empty, full, singleton and random frontiers.
TEST(Unrolled, ByteTableStepMatchesNfaStep) {
  Rng rng(TestSeed(8));
  for (int m : {1, 7, 8, 9, 63, 64, 65, 130}) {
    const Nfa nfa = RepeatedRowNfa(m, rng);
    std::vector<Bitset> frontiers(3, Bitset(static_cast<size_t>(m)));
    frontiers[1].SetAll();
    for (double density : {0.1, 0.5, 0.9}) {
      Bitset random(static_cast<size_t>(m));
      for (StateId q = 0; q < m; ++q) {
        if (rng.Bernoulli(density)) random.Set(static_cast<size_t>(q));
      }
      frontiers.push_back(random);
    }
    frontiers[2].Set(static_cast<size_t>(m - 1));
    for (StateId q = 0; q < m; ++q) {
      Bitset single(static_cast<size_t>(m));
      single.Set(static_cast<size_t>(q));
      frontiers.push_back(single);
    }
    for (bool classes : {true, false}) {
      UnrolledNfa unr(&nfa, 3, classes);
      ASSERT_TRUE(unr.has_byte_tables()) << "m=" << m;
      EXPECT_FALSE(unr.forward_csr().has_masks()) << "m=" << m;
      if (classes) {
        EXPECT_LE(unr.symbol_classes().num_classes(), 2);
      }
      Bitset out(static_cast<size_t>(m));
      for (const Bitset& from : frontiers) {
        for (int a = 0; a < nfa.alphabet_size(); ++a) {
          const Symbol sym = static_cast<Symbol>(a);
          const Bitset expect = nfa.Step(from, sym);
          unr.SuccSetInto(from, sym, &out);
          EXPECT_EQ(out, expect) << "m=" << m << " classes=" << classes
                                 << " a=" << a;
          std::vector<uint64_t> words(expect.words().size(), ~uint64_t{0});
          unr.SuccSetWordsInto(from.words().data(), sym, words.data(),
                               simd::ActiveKernels());
          EXPECT_EQ(words, expect.words()) << "m=" << m << " a=" << a;
        }
      }
      for (int trial = 0; trial < 10; ++trial) {
        Word w;
        for (int i = 0; i < 3; ++i) {
          w.push_back(static_cast<Symbol>(rng.UniformU64(4)));
        }
        EXPECT_EQ(unr.ReachProfile(w), nfa.Reach(w)) << WordToString(w);
      }
    }
  }
}

TEST(Unrolled, NZeroOnlyLevelZero) {
  Nfa nfa = DenseCompleteNfa(3);
  UnrolledNfa unr(&nfa, 0);
  EXPECT_EQ(unr.n(), 0);
  EXPECT_TRUE(unr.IsReachable(nfa.initial(), 0));
}

}  // namespace
}  // namespace nfacount
