// Text serialization for automata: a line-oriented format for loading and
// storing NFAs (used by the CLI example and for fixture-based tests), plus
// Graphviz DOT export for visualization.
//
// Format (comments with '#', blank lines ignored):
//   nfa <num_states> <alphabet_size>
//   initial <state>
//   accepting <state> [<state> ...]
//   trans <from> <symbol> <to>           # one per line
//
// The header may declare at most kMaxNfaTextRows transition rows, counting
// num_states × (alphabet_size + 1): the automaton allocates a list per
// (state, symbol) pair plus a row of lists per state, so a larger header is
// rejected before any allocation.
//
// A <symbol> token is either the single character form (0-9 then a-z, for
// symbols below kMaxCharAlphabetSize) or the symbol's decimal index (the
// only form for large alphabets). NfaToText writes the character form when
// it exists, so files for alphabets <= 36 are unchanged.
//
// Example:
//   nfa 2 2
//   initial 0
//   accepting 1
//   trans 0 1 1
//   trans 1 0 1
//   trans 1 1 1

#ifndef NFACOUNT_AUTOMATA_IO_HPP_
#define NFACOUNT_AUTOMATA_IO_HPP_

#include <cstdint>
#include <string>

#include "automata/nfa.hpp"
#include "util/status.hpp"

namespace nfacount {

/// Largest num_states × (alphabet_size + 1) a text header may declare
/// (2^20 rows, ~50 MB of empty transition lists).
inline constexpr int64_t kMaxNfaTextRows = int64_t{1} << 20;

/// Parses an automaton from the text format above. Validates ranges and
/// requires the header, an initial state, and at least one state. Tokens
/// split as `std::istringstream` extraction splits them: an integer ends at
/// its first non-digit ("1x" is 1 then "x"), a leading '+' is accepted, and
/// extra tokens after a line's fields are ignored.
Result<Nfa> ParseNfaText(const std::string& text);

/// Serializes to the text format (round-trips through ParseNfaText).
std::string NfaToText(const Nfa& nfa);

/// Reads a file and parses it.
Result<Nfa> LoadNfaFile(const std::string& path);

/// Writes the text format to a file.
Status SaveNfaFile(const Nfa& nfa, const std::string& path);

/// Graphviz DOT rendering (initial state marked with an inbound arrow,
/// accepting states doubly circled, edges labeled by symbol characters).
std::string NfaToDot(const Nfa& nfa, const std::string& name = "nfa");

}  // namespace nfacount

#endif  // NFACOUNT_AUTOMATA_IO_HPP_
