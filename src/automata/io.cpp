#include "automata/io.hpp"

#include <charconv>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>

#include "util/file.hpp"

namespace nfacount {

namespace {

Status ParseError(int line_no, const std::string& message) {
  return Status::Invalid("nfa text line " + std::to_string(line_no) + ": " +
                         message);
}

/// Whitespace as `std::istream >>` skips it in the classic locale.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Tokenizes one line (comment already cut off) exactly as extraction from
/// a `std::istringstream` did: string tokens are whitespace-delimited, and
/// an integer is an optional sign plus decimal digits that ends at the first
/// non-digit, so "1x" reads 1 and leaves "x" as the next token.
class LineCursor {
 public:
  LineCursor(const char* begin, const char* end) : p_(begin), end_(end) {}

  /// The next whitespace-delimited token; empty at the end of the line.
  std::string_view Token() {
    SkipSpace();
    const char* start = p_;
    while (p_ < end_ && !IsSpace(*p_)) ++p_;
    return std::string_view(start, static_cast<size_t>(p_ - start));
  }

  /// Reads an int; false when no digits follow the optional sign or the
  /// value overflows int (both are failed extractions for `>>`).
  bool Int(int* out) {
    SkipSpace();
    const char* digits = p_;
    // from_chars takes a '-' itself but not a '+', and after a '+' must not
    // be handed a '-'.
    if (digits < end_ && *digits == '+') {
      ++digits;
      if (digits == end_ || *digits < '0' || *digits > '9') return false;
    }
    const std::from_chars_result r = std::from_chars(digits, end_, *out);
    if (r.ec != std::errc()) return false;
    p_ = r.ptr;
    return true;
  }

 private:
  void SkipSpace() {
    while (p_ < end_ && IsSpace(*p_)) ++p_;
  }

  const char* p_;
  const char* end_;
};

void AppendInt(int64_t value, std::string* out) {
  char digits[24];
  const std::to_chars_result r =
      std::to_chars(digits, digits + sizeof(digits), value);
  out->append(digits, r.ptr);
}

}  // namespace

Result<Nfa> ParseNfaText(const std::string& text) {
  const char* p = text.data();
  const char* const end = p + text.size();
  int line_no = 0;

  bool have_header = false;
  int num_states = 0, alphabet_size = 0;
  bool have_initial = false;
  // Staged so the header can appear before we construct the automaton.
  Nfa nfa(1);

  while (p < end) {
    ++line_no;
    const char* newline =
        static_cast<const char*>(std::memchr(p, '\n', end - p));
    const char* line_end = newline != nullptr ? newline : end;
    // Strip comments; whitespace-only lines yield no keyword.
    const char* hash =
        static_cast<const char*>(std::memchr(p, '#', line_end - p));
    LineCursor ls(p, hash != nullptr ? hash : line_end);
    p = newline != nullptr ? newline + 1 : end;
    const std::string_view keyword = ls.Token();
    if (keyword.empty()) continue;

    if (keyword == "nfa") {
      if (have_header) return ParseError(line_no, "duplicate header");
      if (!ls.Int(&num_states) || !ls.Int(&alphabet_size)) {
        return ParseError(line_no, "expected 'nfa <states> <alphabet>'");
      }
      if (num_states < 1) return ParseError(line_no, "need >= 1 state");
      if (alphabet_size < 1 || alphabet_size > kMaxAlphabetSize) {
        return ParseError(line_no, "alphabet size out of range");
      }
      // The automaton allocates a list per (state, symbol) and a row of
      // lists per state, so a short header must not be able to demand
      // gigabytes.
      if (static_cast<int64_t>(num_states) * (alphabet_size + 1) >
          kMaxNfaTextRows) {
        return ParseError(line_no,
                          "states x (alphabet + 1) exceeds the limit of " +
                              std::to_string(kMaxNfaTextRows) +
                              " transition rows");
      }
      nfa = Nfa(alphabet_size);
      nfa.AddStates(num_states);
      have_header = true;
      continue;
    }
    if (!have_header) return ParseError(line_no, "header must come first");

    if (keyword == "initial") {
      int q;
      if (!ls.Int(&q) || q < 0 || q >= num_states) {
        return ParseError(line_no, "bad initial state");
      }
      nfa.SetInitial(q);
      have_initial = true;
    } else if (keyword == "accepting") {
      int q;
      bool any = false;
      while (ls.Int(&q)) {
        if (q < 0 || q >= num_states) {
          return ParseError(line_no, "accepting state out of range");
        }
        nfa.AddAccepting(q);
        any = true;
      }
      if (!any) return ParseError(line_no, "expected at least one state");
    } else if (keyword == "trans") {
      int from, to;
      std::string_view symbol;
      if (!ls.Int(&from) || (symbol = ls.Token()).empty() || !ls.Int(&to)) {
        return ParseError(line_no, "expected 'trans <from> <symbol> <to>'");
      }
      if (from < 0 || from >= num_states || to < 0 || to >= num_states) {
        return ParseError(line_no, "transition state out of range");
      }
      int s = ParseSymbolToken(symbol);
      if (s < 0) {
        return ParseError(line_no,
                          "symbol must be one char or a decimal index");
      }
      if (s >= alphabet_size) {
        return ParseError(line_no, "symbol outside the alphabet");
      }
      nfa.AddTransition(from, static_cast<Symbol>(s), to);
    } else {
      return ParseError(line_no,
                        "unknown keyword '" + std::string(keyword) + "'");
    }
  }

  if (!have_header) return Status::Invalid("nfa text: missing header");
  if (!have_initial) return Status::Invalid("nfa text: missing initial state");
  NFA_RETURN_NOT_OK(nfa.Validate());
  return nfa;
}

std::string NfaToText(const Nfa& nfa) {
  std::string out = "nfa ";
  AppendInt(nfa.num_states(), &out);
  out += ' ';
  AppendInt(nfa.alphabet_size(), &out);
  out += "\ninitial ";
  AppendInt(nfa.initial(), &out);
  out += '\n';
  if (nfa.accepting().Any()) {
    out += "accepting";
    nfa.accepting().ForEachSet([&](int q) {
      out += ' ';
      AppendInt(q, &out);
    });
    out += '\n';
  }
  for (StateId q = 0; q < nfa.num_states(); ++q) {
    for (int a = 0; a < nfa.alphabet_size(); ++a) {
      for (StateId r : nfa.Successors(q, static_cast<Symbol>(a))) {
        out += "trans ";
        AppendInt(q, &out);
        out += ' ';
        if (a < kMaxCharAlphabetSize) {
          out += SymbolToChar(static_cast<Symbol>(a));
        } else {
          AppendInt(a, &out);
        }
        out += ' ';
        AppendInt(r, &out);
        out += '\n';
      }
    }
  }
  return out;
}

Result<Nfa> LoadNfaFile(const std::string& path) {
  std::string text;
  NFA_RETURN_NOT_OK(ReadWholeFile(path, &text));
  return ParseNfaText(text);
}

Status SaveNfaFile(const Nfa& nfa, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::Invalid("cannot write '" + path + "'");
  out << NfaToText(nfa);
  return out ? Status::Ok() : Status::Internal("write failed");
}

std::string NfaToDot(const Nfa& nfa, const std::string& name) {
  std::ostringstream out;
  out << "digraph " << name << " {\n";
  out << "  rankdir=LR;\n";
  out << "  __start [shape=point];\n";
  for (StateId q = 0; q < nfa.num_states(); ++q) {
    out << "  q" << q << " [shape="
        << (nfa.IsAccepting(q) ? "doublecircle" : "circle") << "];\n";
  }
  out << "  __start -> q" << nfa.initial() << ";\n";
  for (StateId q = 0; q < nfa.num_states(); ++q) {
    for (int a = 0; a < nfa.alphabet_size(); ++a) {
      for (StateId r : nfa.Successors(q, static_cast<Symbol>(a))) {
        out << "  q" << q << " -> q" << r << " [label=\""
            << SymbolToken(static_cast<Symbol>(a)) << "\"];\n";
      }
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace nfacount
