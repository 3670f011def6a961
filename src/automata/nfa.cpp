#include "automata/nfa.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <queue>
#include <utility>

namespace nfacount {

// ---------------------------------------------------------------------------
// alphabet.hpp helpers
// ---------------------------------------------------------------------------

char SymbolToChar(Symbol s) {
  assert(s < kMaxCharAlphabetSize);
  if (s < 10) return static_cast<char>('0' + s);
  return static_cast<char>('a' + (s - 10));
}

int CharToSymbol(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'z') return 10 + (c - 'a');
  return -1;
}

std::string SymbolToken(Symbol s) {
  if (s < kMaxCharAlphabetSize) return std::string(1, SymbolToChar(s));
  return std::to_string(s);
}

int ParseSymbolToken(std::string_view token) {
  if (token.size() == 1) return CharToSymbol(token[0]);
  if (token.empty() || token.size() > 5) return -1;  // 65535 has 5 digits
  int value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return -1;
    value = value * 10 + (c - '0');
  }
  return value < kMaxAlphabetSize ? value : -1;
}

std::string WordToString(const Word& word) {
  std::string out;
  out.reserve(word.size());
  for (Symbol s : word) {
    if (s < kMaxCharAlphabetSize) {
      out.push_back(SymbolToChar(s));
    } else {
      out += "[" + std::to_string(s) + "]";
    }
  }
  return out;
}

Result<Word> ParseWord(const std::string& text, int alphabet_size) {
  Word out;
  out.reserve(text.size());
  for (char c : text) {
    int s = CharToSymbol(c);
    if (s < 0 || s >= alphabet_size) {
      return Status::Invalid("bad symbol '" + std::string(1, c) + "' for alphabet size " +
                             std::to_string(alphabet_size));
    }
    out.push_back(static_cast<Symbol>(s));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Nfa
// ---------------------------------------------------------------------------

Nfa::Nfa(int alphabet_size) : alphabet_size_(alphabet_size), accepting_(0) {
  assert(alphabet_size >= 1 && alphabet_size <= kMaxAlphabetSize);
}

StateId Nfa::AddState() { return AddStates(1); }

StateId Nfa::AddStates(int count) {
  assert(count > 0);
  StateId first = num_states();
  const size_t total = static_cast<size_t>(first) + count;
  succ_.resize(total);
  pred_.resize(total);
  for (size_t q = first; q < total; ++q) {
    succ_[q].resize(alphabet_size_);
    pred_[q].resize(alphabet_size_);
  }
  // Grow the accepting bitset once, preserving old bits.
  Bitset grown(total);
  accepting_.ForEachSet([&](int i) { grown.Set(i); });
  accepting_ = std::move(grown);
  return first;
}

void Nfa::SetInitial(StateId q) {
  assert(q >= 0 && q < num_states());
  initial_ = q;
}

void Nfa::AddAccepting(StateId q) {
  assert(q >= 0 && q < num_states());
  accepting_.Set(q);
}

void Nfa::AddTransition(StateId from, Symbol symbol, StateId to) {
  assert(from >= 0 && from < num_states());
  assert(to >= 0 && to < num_states());
  assert(symbol < alphabet_size_);
  auto& fwd = succ_[from][symbol];
  auto it = std::lower_bound(fwd.begin(), fwd.end(), to);
  if (it != fwd.end() && *it == to) return;  // duplicate
  fwd.insert(it, to);
  auto& bwd = pred_[to][symbol];
  auto jt = std::lower_bound(bwd.begin(), bwd.end(), from);
  bwd.insert(jt, from);
  ++num_transitions_;
}

Status Nfa::Validate() const {
  if (num_states() == 0) return Status::Invalid("automaton has no states");
  if (initial_ < 0 || initial_ >= num_states()) {
    return Status::Invalid("initial state unset or out of range");
  }
  return Status::Ok();
}

Bitset Nfa::Step(const Bitset& from, Symbol symbol) const {
  Bitset out(num_states());
  from.ForEachSet([&](int q) {
    for (StateId r : succ_[q][symbol]) out.Set(r);
  });
  return out;
}

Bitset Nfa::StepBack(const Bitset& into, Symbol symbol) const {
  Bitset out(num_states());
  into.ForEachSet([&](int q) {
    for (StateId p : pred_[q][symbol]) out.Set(p);
  });
  return out;
}

bool Nfa::Accepts(const Word& word) const {
  return Reach(word).Intersects(accepting_);
}

Bitset Nfa::ReachFrom(const Bitset& from, const Word& word) const {
  Bitset cur = from;
  for (Symbol s : word) {
    cur = Step(cur, s);
    if (cur.None()) break;
  }
  return cur;
}

Bitset Nfa::Reach(const Word& word) const {
  assert(initial_ >= 0);
  Bitset start(num_states());
  start.Set(initial_);
  return ReachFrom(start, word);
}

Bitset Nfa::ReachableStates() const {
  assert(initial_ >= 0);
  Bitset seen(num_states());
  std::queue<StateId> frontier;
  seen.Set(initial_);
  frontier.push(initial_);
  while (!frontier.empty()) {
    StateId q = frontier.front();
    frontier.pop();
    for (int a = 0; a < alphabet_size_; ++a) {
      for (StateId r : succ_[q][a]) {
        if (!seen.Test(r)) {
          seen.Set(r);
          frontier.push(r);
        }
      }
    }
  }
  return seen;
}

Bitset Nfa::CoReachableStates() const {
  Bitset seen(num_states());
  std::queue<StateId> frontier;
  accepting_.ForEachSet([&](int q) {
    seen.Set(q);
    frontier.push(q);
  });
  while (!frontier.empty()) {
    StateId q = frontier.front();
    frontier.pop();
    for (int a = 0; a < alphabet_size_; ++a) {
      for (StateId p : pred_[q][a]) {
        if (!seen.Test(p)) {
          seen.Set(p);
          frontier.push(p);
        }
      }
    }
  }
  return seen;
}

Nfa Nfa::Trimmed() const {
  assert(initial_ >= 0);
  Bitset useful = ReachableStates();
  useful &= CoReachableStates();
  Nfa out(alphabet_size_);
  if (!useful.Test(initial_)) {
    // Empty language: single non-accepting initial state.
    StateId q = out.AddState();
    out.SetInitial(q);
    return out;
  }
  std::vector<StateId> remap(num_states(), -1);
  useful.ForEachSet([&](int q) { remap[q] = out.AddState(); });
  out.SetInitial(remap[initial_]);
  accepting_.ForEachSet([&](int q) {
    if (remap[q] >= 0) out.AddAccepting(remap[q]);
  });
  useful.ForEachSet([&](int q) {
    for (int a = 0; a < alphabet_size_; ++a) {
      for (StateId r : succ_[q][a]) {
        if (remap[r] >= 0) {
          out.AddTransition(remap[q], static_cast<Symbol>(a), remap[r]);
        }
      }
    }
  });
  return out;
}

std::string Nfa::ToString() const {
  std::string out = "NFA(states=" + std::to_string(num_states()) +
                    ", alphabet=" + std::to_string(alphabet_size_) +
                    ", initial=" + std::to_string(initial_) +
                    ", accepting=" + accepting_.ToString() + ")\n";
  for (StateId q = 0; q < num_states(); ++q) {
    for (int a = 0; a < alphabet_size_; ++a) {
      for (StateId r : succ_[q][a]) {
        out += "  " + std::to_string(q) + " --" +
               SymbolToken(static_cast<Symbol>(a)) + "--> " +
               std::to_string(r) + "\n";
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Language operations
// ---------------------------------------------------------------------------

Nfa Intersect(const Nfa& a, const Nfa& b) {
  assert(a.alphabet_size() == b.alphabet_size());
  assert(a.initial() >= 0 && b.initial() >= 0);
  Nfa out(a.alphabet_size());
  std::map<std::pair<StateId, StateId>, StateId> ids;
  std::queue<std::pair<StateId, StateId>> frontier;

  auto intern = [&](StateId qa, StateId qb) {
    auto key = std::make_pair(qa, qb);
    auto it = ids.find(key);
    if (it != ids.end()) return it->second;
    StateId id = out.AddState();
    ids.emplace(key, id);
    if (a.IsAccepting(qa) && b.IsAccepting(qb)) out.AddAccepting(id);
    frontier.push(key);
    return id;
  };

  StateId start = intern(a.initial(), b.initial());
  out.SetInitial(start);
  while (!frontier.empty()) {
    auto [qa, qb] = frontier.front();
    frontier.pop();
    StateId from = ids.at({qa, qb});
    for (int s = 0; s < a.alphabet_size(); ++s) {
      for (StateId ra : a.Successors(qa, static_cast<Symbol>(s))) {
        for (StateId rb : b.Successors(qb, static_cast<Symbol>(s))) {
          StateId to = intern(ra, rb);
          out.AddTransition(from, static_cast<Symbol>(s), to);
        }
      }
    }
  }
  return out;
}

Nfa Union(const Nfa& a, const Nfa& b) {
  assert(a.alphabet_size() == b.alphabet_size());
  assert(a.initial() >= 0 && b.initial() >= 0);
  Nfa out(a.alphabet_size());
  StateId start = out.AddState();
  out.SetInitial(start);
  StateId base_a = out.AddStates(a.num_states());
  StateId base_b = out.AddStates(b.num_states());

  auto copy_into = [&out](const Nfa& src, StateId base) {
    for (StateId q = 0; q < src.num_states(); ++q) {
      for (int s = 0; s < src.alphabet_size(); ++s) {
        for (StateId r : src.Successors(q, static_cast<Symbol>(s))) {
          out.AddTransition(base + q, static_cast<Symbol>(s), base + r);
        }
      }
    }
    src.accepting().ForEachSet([&](int q) { out.AddAccepting(base + q); });
  };
  copy_into(a, base_a);
  copy_into(b, base_b);

  // The fresh start mirrors both initial states' outgoing edges (no epsilon
  // transitions in this library).
  for (int s = 0; s < a.alphabet_size(); ++s) {
    for (StateId r : a.Successors(a.initial(), static_cast<Symbol>(s))) {
      out.AddTransition(start, static_cast<Symbol>(s), base_a + r);
    }
    for (StateId r : b.Successors(b.initial(), static_cast<Symbol>(s))) {
      out.AddTransition(start, static_cast<Symbol>(s), base_b + r);
    }
  }
  // Empty word: accepted iff either side accepts it.
  if (a.IsAccepting(a.initial()) || b.IsAccepting(b.initial())) {
    out.AddAccepting(start);
  }
  return out;
}

Nfa Concat(const Nfa& a, const Nfa& b) {
  assert(a.alphabet_size() == b.alphabet_size());
  assert(a.initial() >= 0 && b.initial() >= 0);
  Nfa out(a.alphabet_size());
  StateId base_a = out.AddStates(a.num_states());
  StateId base_b = out.AddStates(b.num_states());
  out.SetInitial(base_a + a.initial());

  for (StateId q = 0; q < a.num_states(); ++q) {
    for (int s = 0; s < a.alphabet_size(); ++s) {
      for (StateId r : a.Successors(q, static_cast<Symbol>(s))) {
        out.AddTransition(base_a + q, static_cast<Symbol>(s), base_a + r);
      }
    }
  }
  for (StateId q = 0; q < b.num_states(); ++q) {
    for (int s = 0; s < b.alphabet_size(); ++s) {
      for (StateId r : b.Successors(q, static_cast<Symbol>(s))) {
        out.AddTransition(base_b + q, static_cast<Symbol>(s), base_b + r);
      }
    }
  }
  // Entering b: every accepting state of a mirrors b-initial's edges.
  a.accepting().ForEachSet([&](int f) {
    for (int s = 0; s < b.alphabet_size(); ++s) {
      for (StateId r : b.Successors(b.initial(), static_cast<Symbol>(s))) {
        out.AddTransition(base_a + f, static_cast<Symbol>(s), base_b + r);
      }
    }
  });
  // Acceptance: end of b; or end of a when λ ∈ L(b).
  b.accepting().ForEachSet([&](int f) { out.AddAccepting(base_b + f); });
  if (b.IsAccepting(b.initial())) {
    a.accepting().ForEachSet([&](int f) { out.AddAccepting(base_a + f); });
  }
  return out;
}

Nfa Star(const Nfa& a) {
  assert(a.initial() >= 0);
  Nfa out(a.alphabet_size());
  StateId base = out.AddStates(a.num_states());
  StateId start = out.AddState();  // fresh accepting initial (λ ∈ L*)
  out.SetInitial(start);
  out.AddAccepting(start);

  for (StateId q = 0; q < a.num_states(); ++q) {
    for (int s = 0; s < a.alphabet_size(); ++s) {
      for (StateId r : a.Successors(q, static_cast<Symbol>(s))) {
        out.AddTransition(base + q, static_cast<Symbol>(s), base + r);
      }
    }
  }
  // The fresh start and every accepting state mirror a-initial's edges
  // (restart after each completed factor).
  auto mirror_initial_edges = [&](StateId from) {
    for (int s = 0; s < a.alphabet_size(); ++s) {
      for (StateId r : a.Successors(a.initial(), static_cast<Symbol>(s))) {
        out.AddTransition(from, static_cast<Symbol>(s), base + r);
      }
    }
  };
  mirror_initial_edges(start);
  a.accepting().ForEachSet([&](int f) {
    out.AddAccepting(base + f);
    mirror_initial_edges(base + f);
  });
  return out;
}

Nfa Reverse(const Nfa& a) {
  assert(a.initial() >= 0);
  Nfa out(a.alphabet_size());
  // States 0..n-1 mirror a's states; state n is the fresh initial simulating
  // the accepting set of a.
  StateId base = out.AddStates(a.num_states());
  (void)base;
  StateId start = out.AddState();
  out.SetInitial(start);
  out.AddAccepting(a.initial());
  for (StateId q = 0; q < a.num_states(); ++q) {
    for (int s = 0; s < a.alphabet_size(); ++s) {
      for (StateId r : a.Successors(q, static_cast<Symbol>(s))) {
        out.AddTransition(r, static_cast<Symbol>(s), q);  // reversed edge
      }
    }
  }
  // Fresh initial behaves like the union of accepting states.
  a.accepting().ForEachSet([&](int f) {
    for (int s = 0; s < a.alphabet_size(); ++s) {
      for (StateId p : a.Predecessors(f, static_cast<Symbol>(s))) {
        out.AddTransition(start, static_cast<Symbol>(s), p);
      }
    }
  });
  if (a.accepting().Test(a.initial())) out.AddAccepting(start);
  return out;
}

}  // namespace nfacount
