#include "automata/unrolled.hpp"

#include <algorithm>
#include <cassert>

namespace nfacount {

namespace {

/// Word count of a num_states-bit frontier row.
inline size_t RowWords(int num_states) {
  return (static_cast<size_t>(num_states) + 63) / 64;
}

/// Calls fn(state) for every set bit of a raw word span, ascending.
template <typename Fn>
inline void ForEachSetWord(const uint64_t* words, size_t nwords, Fn&& fn) {
  for (size_t w = 0; w < nwords; ++w) {
    uint64_t bits = words[w];
    while (bits) {
      int b = __builtin_ctzll(bits);
      fn(static_cast<int>(w * 64 + b));
      bits &= bits - 1;
    }
  }
}

/// Shared CSR assembly over a row-visitor: `for_each_edge(q, a, fn)` must call
/// fn(target) for every edge of row (q, a) in ascending target order.
template <typename EdgeSource>
CsrTransitions BuildCsr(const Nfa& nfa, bool with_masks,
                        EdgeSource&& edges_of_row) {
  CsrTransitions csr;
  csr.num_states = nfa.num_states();
  csr.alphabet_size = nfa.alphabet_size();
  const size_t rows = static_cast<size_t>(csr.num_states) * csr.alphabet_size;

  csr.offsets.assign(rows + 1, 0);
  for (StateId q = 0; q < csr.num_states; ++q) {
    for (int a = 0; a < csr.alphabet_size; ++a) {
      csr.offsets[csr.Row(q, static_cast<Symbol>(a)) + 1] =
          static_cast<int32_t>(edges_of_row(q, static_cast<Symbol>(a)).size());
    }
  }
  for (size_t r = 0; r < rows; ++r) csr.offsets[r + 1] += csr.offsets[r];

  csr.targets.resize(static_cast<size_t>(csr.offsets[rows]));
  csr.symbols.resize(csr.targets.size());
  for (StateId q = 0; q < csr.num_states; ++q) {
    for (int a = 0; a < csr.alphabet_size; ++a) {
      const Symbol sym = static_cast<Symbol>(a);
      size_t at = static_cast<size_t>(csr.offsets[csr.Row(q, sym)]);
      for (StateId r : edges_of_row(q, sym)) {
        csr.targets[at] = r;
        csr.symbols[at] = sym;
        ++at;
      }
    }
  }

  // Word-parallel row masks, when the m·|Σ| rows of m bits fit the budget.
  const size_t mask_bits = rows * static_cast<size_t>(csr.num_states);
  csr.mask_words = RowWords(csr.num_states);
  if (with_masks && mask_bits > 0 &&
      mask_bits <= CsrTransitions::kMaskBitBudget) {
    csr.mask_slab.assign(rows * csr.mask_words, 0);
    for (size_t r = 0; r < rows; ++r) {
      uint64_t* mask = csr.mask_slab.data() + r * csr.mask_words;
      for (int32_t e = csr.offsets[r]; e < csr.offsets[r + 1]; ++e) {
        const size_t t =
            static_cast<size_t>(csr.targets[static_cast<size_t>(e)]);
        mask[t >> 6] |= uint64_t{1} << (t & 63);
      }
    }
  }
  return csr;
}

/// True when C·⌈m/8⌉·256·⌈m/64⌉ words of forward byte tables fit
/// UnrolledNfa::kByteTableBitBudget. The check runs in double: the product
/// can exceed 64 bits for huge automata, and near the budget every factor is
/// an exact integer.
bool ByteTablesFit(int num_states, int num_classes) {
  const size_t bytes = (static_cast<size_t>(num_states) + 7) / 8;
  const double bits = static_cast<double>(num_classes) *
                      static_cast<double>(bytes) * 256.0 *
                      static_cast<double>(RowWords(num_states)) * 64.0;
  return num_states > 0 &&
         bits <= static_cast<double>(UnrolledNfa::kByteTableBitBudget);
}

}  // namespace

CsrTransitions CsrTransitions::FromSuccessors(const Nfa& nfa, bool with_masks) {
  return BuildCsr(nfa, with_masks,
                  [&nfa](StateId q, Symbol a) -> const std::vector<StateId>& {
                    return nfa.Successors(q, a);
                  });
}

CsrTransitions CsrTransitions::FromPredecessors(const Nfa& nfa) {
  return BuildCsr(nfa, /*with_masks=*/true,
                  [&nfa](StateId q, Symbol a) -> const std::vector<StateId>& {
                    return nfa.Predecessors(q, a);
                  });
}

void CsrTransitions::StepInto(const Bitset& from, Symbol symbol,
                              Bitset* out) const {
  assert(out != nullptr && out->size() == static_cast<size_t>(num_states));
  out->Clear();
  if (has_masks()) {
    // One kernel-table fetch for the whole frontier, not one per set bit.
    const simd::BitsetKernels& kern = simd::ActiveKernels();
    uint64_t* dst = out->mutable_words();
    const size_t nwords = out->words().size();
    from.ForEachSet([&](int q) {
      kern.or_into(dst, MaskRow(Row(static_cast<StateId>(q), symbol)), nwords);
    });
  } else {
    from.ForEachSet([&](int q) {
      const StateId* end = RowEnd(static_cast<StateId>(q), symbol);
      for (const StateId* t = RowBegin(static_cast<StateId>(q), symbol);
           t != end; ++t) {
        out->Set(static_cast<size_t>(*t));
      }
    });
  }
}

UnrolledNfa::UnrolledNfa(const Nfa* nfa, int n, bool symbol_classes)
    : nfa_(nfa), n_(n) {
  assert(nfa != nullptr);
  assert(nfa->Validate().ok());
  assert(n >= 0);
  classes_ = symbol_classes ? SymbolClassIndex::Compute(*nfa)
                            : SymbolClassIndex::Trivial(nfa->alphabet_size());
  // The byte tables replace the forward row masks, so the masks are built
  // only for automata past the tables' budget.
  const bool tables = ByteTablesFit(nfa->num_states(), classes_.num_classes());
  forward_ = CsrTransitions::FromSuccessors(*nfa, /*with_masks=*/!tables);
  reverse_ = CsrTransitions::FromPredecessors(*nfa);
  if (tables) BuildByteTables();
  reachable_.reserve(n + 1);
  Bitset cur(nfa->num_states());
  cur.Set(nfa->initial());
  reachable_.push_back(cur);
  Bitset next(nfa->num_states());
  Bitset step(nfa->num_states());
  for (int level = 1; level <= n; ++level) {
    next.Clear();
    // Class members step identically, so one representative per class covers
    // the union — bit-identical to stepping every symbol.
    for (int c = 0; c < classes_.num_classes(); ++c) {
      SuccSetInto(cur, classes_.Representative(c), &step);
      next |= step;
    }
    reachable_.push_back(next);
    cur.CopyFrom(next);
  }
}

void UnrolledNfa::BuildByteTables() {
  const int m = nfa_->num_states();
  const size_t words = RowWords(m);
  const size_t num_classes = static_cast<size_t>(classes_.num_classes());
  table_bytes_ = (static_cast<size_t>(m) + 7) / 8;
  byte_tables_.assign(num_classes * table_bytes_ * 256 * words, 0);
  std::vector<uint64_t> row(words);
  for (size_t c = 0; c < num_classes; ++c) {
    const Symbol rep = classes_.Representative(static_cast<int>(c));
    for (size_t j = 0; j < table_bytes_; ++j) {
      uint64_t* table =
          byte_tables_.data() + (c * table_bytes_ + j) * 256 * words;
      // Doubling fill: entries [2^b, 2^(b+1)) are entries [0, 2^b) OR the
      // successor row of state 8j + b (empty past the last state), so each
      // entry is one OR of an earlier entry and one row.
      for (size_t b = 0; b < 8; ++b) {
        std::fill(row.begin(), row.end(), 0);
        const size_t q = 8 * j + b;
        if (q < static_cast<size_t>(m)) {
          const StateId state = static_cast<StateId>(q);
          for (const StateId* t = forward_.RowBegin(state, rep);
               t != forward_.RowEnd(state, rep); ++t) {
            row[static_cast<size_t>(*t) >> 6] |=
                uint64_t{1} << (static_cast<size_t>(*t) & 63);
          }
        }
        const size_t half = (size_t{1} << b) * words;
        for (size_t e = 0; e < half; e += words) {
          for (size_t k = 0; k < words; ++k) {
            table[half + e + k] = table[e + k] | row[k];
          }
        }
      }
    }
  }
}

void UnrolledNfa::PredSetInto(const Bitset& states, Symbol symbol, int level,
                              Bitset* out) const {
  assert(level >= 1 && level <= n_);
  assert(out != nullptr && out->size() == states.size());
  const Bitset& clip = reachable_[level - 1];
  if (reverse_.has_masks()) {
    // Fused OR-and-clip: every mask word is ANDed against the previous
    // level's reachable set as it lands, so `out` never holds dead states.
    // Kernel table fetched once for the whole frontier.
    const simd::BitsetKernels& kern = simd::ActiveKernels();
    uint64_t* dst = out->mutable_words();
    const uint64_t* clip_words = clip.words().data();
    const size_t nwords = out->words().size();
    out->Clear();
    states.ForEachSet([&](int q) {
      kern.or_masked_into(
          dst, reverse_.MaskRow(reverse_.Row(static_cast<StateId>(q), symbol)),
          clip_words, nwords);
    });
  } else {
    reverse_.StepInto(states, symbol, out);
    *out &= clip;
  }
}

void UnrolledNfa::PredSetWordsInto(const uint64_t* from, Symbol symbol,
                                   int level, uint64_t* out,
                                   const simd::BitsetKernels& kern) const {
  assert(level >= 1 && level <= n_);
  const size_t nwords = RowWords(nfa_->num_states());
  const uint64_t* clip = reachable_[level - 1].words().data();
  std::fill(out, out + nwords, 0);
  if (reverse_.has_masks()) {
    // Fused OR-and-clip, exactly as PredSetInto but on spans.
    ForEachSetWord(from, nwords, [&](int q) {
      kern.or_masked_into(
          out, reverse_.MaskRow(reverse_.Row(static_cast<StateId>(q), symbol)),
          clip, nwords);
    });
  } else {
    ForEachSetWord(from, nwords, [&](int q) {
      const StateId* end = reverse_.RowEnd(static_cast<StateId>(q), symbol);
      for (const StateId* t = reverse_.RowBegin(static_cast<StateId>(q), symbol);
           t != end; ++t) {
        out[static_cast<size_t>(*t) >> 6] |=
            uint64_t{1} << (static_cast<size_t>(*t) & 63);
      }
    });
    kern.and_into(out, clip, nwords);
  }
}

void UnrolledNfa::SuccSetWordsInto(const uint64_t* from, Symbol symbol,
                                   uint64_t* out,
                                   const simd::BitsetKernels& kern) const {
  const size_t nwords = RowWords(nfa_->num_states());
  std::fill(out, out + nwords, 0);
  if (has_byte_tables()) {
    // One table lookup per nonzero byte of the frontier; zero bytes are
    // skipped. No bit past the last state is set, so j < table_bytes_.
    const uint64_t* table =
        byte_tables_.data() + static_cast<size_t>(classes_.ClassOf(symbol)) *
                                  table_bytes_ * 256 * nwords;
    for (size_t w = 0; w < nwords; ++w) {
      uint64_t bits = from[w];
      while (bits != 0) {
        const int shift = __builtin_ctzll(bits) & ~7;
        const size_t j = 8 * w + static_cast<size_t>(shift) / 8;
        assert(j < table_bytes_);
        const uint64_t* entry =
            table + (j * 256 + ((bits >> shift) & 0xFF)) * nwords;
        for (size_t k = 0; k < nwords; ++k) out[k] |= entry[k];
        bits &= ~(uint64_t{0xFF} << shift);
      }
    }
  } else if (forward_.has_masks()) {
    ForEachSetWord(from, nwords, [&](int q) {
      kern.or_into(
          out, forward_.MaskRow(forward_.Row(static_cast<StateId>(q), symbol)),
          nwords);
    });
  } else {
    ForEachSetWord(from, nwords, [&](int q) {
      const StateId* end = forward_.RowEnd(static_cast<StateId>(q), symbol);
      for (const StateId* t = forward_.RowBegin(static_cast<StateId>(q), symbol);
           t != end; ++t) {
        out[static_cast<size_t>(*t) >> 6] |=
            uint64_t{1} << (static_cast<size_t>(*t) & 63);
      }
    });
  }
}

Bitset UnrolledNfa::PredSet(const Bitset& states, Symbol symbol,
                            int level) const {
  Bitset out(states.size());
  PredSetInto(states, symbol, level, &out);
  return out;
}

void UnrolledNfa::SuccSetInto(const Bitset& states, Symbol symbol,
                              Bitset* out) const {
  assert(out != nullptr && out->size() == states.size());
  SuccSetWordsInto(states.words().data(), symbol, out->mutable_words(),
                   simd::ActiveKernels());
}

Bitset UnrolledNfa::ReachProfile(const Word& word) const {
  Bitset cur(nfa_->num_states());
  cur.Set(nfa_->initial());
  Bitset next(nfa_->num_states());
  for (Symbol s : word) {
    SuccSetInto(cur, s, &next);
    std::swap(cur, next);
    if (cur.None()) break;
  }
  return cur;
}

std::optional<Word> UnrolledNfa::WitnessWord(StateId q, int level) const {
  assert(level >= 0 && level <= n_);
  if (!reachable_[level].Test(q)) return std::nullopt;
  // Walk backwards: at each step pick the smallest (symbol, predecessor) pair
  // whose predecessor is reachable at the previous level.
  Word word(level);
  Bitset cur(nfa_->num_states());
  Bitset preds(nfa_->num_states());
  cur.Set(q);
  for (int i = level; i >= 1; --i) {
    bool found = false;
    // Per-class scan, bit-identical to scanning every symbol: predecessor
    // emptiness is uniform within a class, and representatives are each
    // class's smallest member in ascending order — so the first nonempty
    // representative IS the smallest nonempty symbol.
    for (int c = 0; c < classes_.num_classes() && !found; ++c) {
      const Symbol a = classes_.Representative(c);
      PredSetInto(cur, a, i, &preds);
      int p = preds.FirstSet();
      if (p >= 0) {
        word[i - 1] = a;
        cur.Clear();
        cur.Set(p);
        found = true;
      }
    }
    assert(found && "reachable state must have a predecessor chain");
    if (!found) return std::nullopt;
  }
  assert(cur.Test(nfa_->initial()));
  return word;
}

StoredSample UnrolledNfa::MakeSample(Word word) const {
  Bitset reach = ReachProfile(word);
  return StoredSample{std::move(word), std::move(reach)};
}

bool UnrolledNfa::MemberSlow(const Word& word, StateId q) const {
  return ReachProfile(word).Test(q);
}

}  // namespace nfacount
