// Words and alphabets. The paper works over Σ = {0,1} and notes all results
// extend to any fixed constant-size alphabet; the library is generic in the
// alphabet size (symbols are dense indices 0..k-1).

#ifndef NFACOUNT_AUTOMATA_ALPHABET_HPP_
#define NFACOUNT_AUTOMATA_ALPHABET_HPP_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace nfacount {

/// A symbol is a dense index in [0, alphabet_size). 16 bits cover
/// tokenizer-vocab alphabets (up to 2^16) while keeping words compact.
using Symbol = uint16_t;

/// A word is a sequence of symbols; words compare lexicographically.
using Word = std::vector<Symbol>;

/// Maximum supported alphabet size ("arbitrary but fixed constant size").
inline constexpr int kMaxAlphabetSize = 1 << 16;

/// Largest alphabet whose symbols all render as single characters (0-9 then
/// a-z). Symbols at or above this bound use bracketed decimal notation in
/// text formats; the regex compiler, whose syntax is character-based, is
/// capped here.
inline constexpr int kMaxCharAlphabetSize = 36;

/// Renders symbol `s` as a character: 0-9 then a-z. Valid only for
/// s < kMaxCharAlphabetSize.
char SymbolToChar(Symbol s);

/// Parses a character into a symbol index; returns -1 if not a valid symbol.
int CharToSymbol(char c);

/// Renders a symbol as a text-format token: its single character below
/// kMaxCharAlphabetSize, its decimal digits otherwise. Tokens are
/// whitespace-separated in the text formats, so the two forms coexist
/// unambiguously (a one-character digit token names the same symbol either
/// way).
std::string SymbolToken(Symbol s);

/// Parses a token written by SymbolToken: single characters via CharToSymbol,
/// multi-character all-digit tokens as decimal. Returns -1 on malformed
/// tokens; callers bound the value against their alphabet size.
int ParseSymbolToken(std::string_view token);

/// Renders a word, e.g. {0,1,1} -> "011". Symbols >= kMaxCharAlphabetSize
/// render as bracketed decimals, e.g. {0,517} -> "0[517]". The empty word
/// renders as "".
std::string WordToString(const Word& word);

/// Parses a word; every character must be a valid symbol strictly below
/// `alphabet_size`.
Result<Word> ParseWord(const std::string& text, int alphabet_size);

}  // namespace nfacount

#endif  // NFACOUNT_AUTOMATA_ALPHABET_HPP_
