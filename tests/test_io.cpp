// Tests for automaton text serialization and DOT export, including a
// differential check of the single-pass parser against the stream parser it
// replaced.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "automata/generators.hpp"
#include "automata/io.hpp"
#include "counting/exact.hpp"
#include "test_seed.hpp"
#include "util/rng.hpp"

#ifndef NFACOUNT_TEST_DATA_DIR
#define NFACOUNT_TEST_DATA_DIR "tests/data"
#endif

namespace nfacount {
namespace {

using testing_support::TestSeed;

// ---------------------------------------------------------------------------
// Reference implementations: the std::istringstream parser and the
// std::ostringstream writer that the single-pass codec replaced, kept as
// oracles. The parser gained only the header row bound, so that both sides
// agree on the one input class the old parser could not survive.
// ---------------------------------------------------------------------------

Status ReferenceParseError(int line_no, const std::string& message) {
  return Status::Invalid("nfa text line " + std::to_string(line_no) + ": " +
                         message);
}

Result<Nfa> ReferenceParseNfaText(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  bool have_header = false;
  int num_states = 0, alphabet_size = 0;
  bool have_initial = false;
  Nfa nfa(1);
  while (std::getline(in, line)) {
    ++line_no;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string keyword;
    if (!(ls >> keyword)) continue;
    if (keyword == "nfa") {
      if (have_header) return ReferenceParseError(line_no, "duplicate header");
      if (!(ls >> num_states >> alphabet_size)) {
        return ReferenceParseError(line_no,
                                   "expected 'nfa <states> <alphabet>'");
      }
      if (num_states < 1) {
        return ReferenceParseError(line_no, "need >= 1 state");
      }
      if (alphabet_size < 1 || alphabet_size > kMaxAlphabetSize) {
        return ReferenceParseError(line_no, "alphabet size out of range");
      }
      if (static_cast<int64_t>(num_states) * (alphabet_size + 1) >
          kMaxNfaTextRows) {
        return ReferenceParseError(
            line_no, "states x (alphabet + 1) exceeds the limit of " +
                         std::to_string(kMaxNfaTextRows) + " transition rows");
      }
      nfa = Nfa(alphabet_size);
      nfa.AddStates(num_states);
      have_header = true;
      continue;
    }
    if (!have_header) {
      return ReferenceParseError(line_no, "header must come first");
    }
    if (keyword == "initial") {
      int q;
      if (!(ls >> q) || q < 0 || q >= num_states) {
        return ReferenceParseError(line_no, "bad initial state");
      }
      nfa.SetInitial(q);
      have_initial = true;
    } else if (keyword == "accepting") {
      int q;
      bool any = false;
      while (ls >> q) {
        if (q < 0 || q >= num_states) {
          return ReferenceParseError(line_no, "accepting state out of range");
        }
        nfa.AddAccepting(q);
        any = true;
      }
      if (!any) {
        return ReferenceParseError(line_no, "expected at least one state");
      }
    } else if (keyword == "trans") {
      int from, to;
      std::string symbol;
      if (!(ls >> from >> symbol >> to)) {
        return ReferenceParseError(line_no,
                                   "expected 'trans <from> <symbol> <to>'");
      }
      if (from < 0 || from >= num_states || to < 0 || to >= num_states) {
        return ReferenceParseError(line_no, "transition state out of range");
      }
      int s = ParseSymbolToken(symbol);
      if (s < 0) {
        return ReferenceParseError(
            line_no, "symbol must be one char or a decimal index");
      }
      if (s >= alphabet_size) {
        return ReferenceParseError(line_no, "symbol outside the alphabet");
      }
      nfa.AddTransition(from, static_cast<Symbol>(s), to);
    } else {
      return ReferenceParseError(line_no,
                                 "unknown keyword '" + keyword + "'");
    }
  }
  if (!have_header) return Status::Invalid("nfa text: missing header");
  if (!have_initial) return Status::Invalid("nfa text: missing initial state");
  NFA_RETURN_NOT_OK(nfa.Validate());
  return nfa;
}

std::string ReferenceNfaToText(const Nfa& nfa) {
  std::ostringstream out;
  out << "nfa " << nfa.num_states() << " " << nfa.alphabet_size() << "\n";
  out << "initial " << nfa.initial() << "\n";
  if (nfa.accepting().Any()) {
    out << "accepting";
    nfa.accepting().ForEachSet([&](int q) { out << " " << q; });
    out << "\n";
  }
  for (StateId q = 0; q < nfa.num_states(); ++q) {
    for (int a = 0; a < nfa.alphabet_size(); ++a) {
      for (StateId r : nfa.Successors(q, static_cast<Symbol>(a))) {
        out << "trans " << q << " " << SymbolToken(static_cast<Symbol>(a))
            << " " << r << "\n";
      }
    }
  }
  return out.str();
}

/// Escapes control and high bytes so a failing input prints legibly.
std::string Printable(const std::string& text) {
  std::string out;
  for (char c : text) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7f) {
      out += c;
    } else {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\x%02x", u);
      out += hex;
    }
  }
  return out;
}

/// Both parsers accept (building the same automaton) or both reject with
/// the same status, message and line number included.
void ExpectParsersAgree(const std::string& text) {
  Result<Nfa> want = ReferenceParseNfaText(text);
  Result<Nfa> got = ParseNfaText(text);
  ASSERT_EQ(want.ok(), got.ok())
      << "input <" << Printable(text) << ">\n reference: "
      << want.status().ToString() << "\n single-pass: "
      << got.status().ToString();
  if (want.ok()) {
    EXPECT_EQ(ReferenceNfaToText(*want), NfaToText(*got))
        << "input <" << Printable(text) << ">";
  } else {
    EXPECT_EQ(want.status().ToString(), got.status().ToString())
        << "input <" << Printable(text) << ">";
  }
}

std::string ReadTestData(const std::string& name) {
  std::ifstream in(std::string(NFACOUNT_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

constexpr char kSample[] =
    "# words containing '1'\n"
    "nfa 2 2\n"
    "initial 0\n"
    "accepting 1\n"
    "trans 0 0 0\n"
    "trans 0 1 0\n"
    "trans 0 1 1\n"
    "trans 1 0 1\n"
    "trans 1 1 1\n";

TEST(ParseNfaText, ParsesSample) {
  Result<Nfa> nfa = ParseNfaText(kSample);
  ASSERT_TRUE(nfa.ok()) << nfa.status().ToString();
  EXPECT_EQ(nfa->num_states(), 2);
  EXPECT_EQ(nfa->alphabet_size(), 2);
  EXPECT_EQ(nfa->initial(), 0);
  EXPECT_TRUE(nfa->IsAccepting(1));
  EXPECT_TRUE(nfa->Accepts(Word{0, 1, 0}));
  EXPECT_FALSE(nfa->Accepts(Word{0, 0}));
}

TEST(ParseNfaText, CommentsAndBlankLines) {
  Result<Nfa> nfa = ParseNfaText(
      "\n# leading comment\n\nnfa 1 2   # trailing comment\ninitial 0\n"
      "accepting 0\n\n# done\n");
  ASSERT_TRUE(nfa.ok()) << nfa.status().ToString();
  EXPECT_TRUE(nfa->Accepts(Word{}));
}

TEST(ParseNfaText, ErrorsCarryLineNumbers) {
  struct Case {
    const char* text;
    const char* fragment;
  };
  const Case cases[] = {
      {"initial 0\n", "header must come first"},
      {"nfa 0 2\n", "need >= 1 state"},
      {"nfa 2 99999\n", "alphabet size out of range"},
      {"nfa 2 2\nnfa 2 2\n", "duplicate header"},
      {"nfa 2 2\ninitial 5\n", "bad initial"},
      {"nfa 2 2\ninitial 0\naccepting 7\n", "out of range"},
      {"nfa 2 2\ninitial 0\naccepting\n", "at least one state"},
      {"nfa 2 2\ninitial 0\ntrans 0 2 1\n", "outside the alphabet"},
      {"nfa 2 100\ninitial 0\ntrans 0 517 1\n", "outside the alphabet"},
      {"nfa 2 2\ninitial 0\ntrans 0 1\n", "expected 'trans"},
      {"nfa 2 2\ninitial 0\nfrobnicate\n", "unknown keyword"},
      {"nfa 2 2\n", "missing initial"},
      {"", "missing header"},
  };
  for (const Case& c : cases) {
    Result<Nfa> nfa = ParseNfaText(c.text);
    ASSERT_FALSE(nfa.ok()) << c.text;
    EXPECT_NE(nfa.status().message().find(c.fragment), std::string::npos)
        << "text=<" << c.text << "> got: " << nfa.status().ToString();
  }
}

// The two worked examples of docs/FILE_FORMATS.md, verbatim: both must
// parse, match their documented language, and round-trip through NfaToText.
TEST(ParseNfaText, FileFormatsDocExamplesRoundTrip) {
  // Example 1 — words containing '1' (same automaton as kSample above).
  {
    Result<Nfa> nfa = ParseNfaText(kSample);
    ASSERT_TRUE(nfa.ok()) << nfa.status().ToString();
    Result<BigUint> count = BruteForceCount(*nfa, 10);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count->ToDouble(), 1023.0);  // 2^10 - 1
    Result<Nfa> reparsed = ParseNfaText(NfaToText(*nfa));
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ(nfa->ToString(), reparsed->ToString());
  }
  // Example 2 — base-2 numerals divisible by 3 (mod-3 tracking DFA).
  {
    constexpr char kDivisibleBy3[] =
        "# MSB-first binary numerals divisible by 3\n"
        "nfa 3 2\n"
        "initial 0\n"
        "accepting 0\n"
        "trans 0 0 0      # 2*0+0 = 0\n"
        "trans 0 1 1      # 2*0+1 = 1\n"
        "trans 1 0 2      # 2*1+0 = 2\n"
        "trans 1 1 0      # 2*1+1 = 0\n"
        "trans 2 0 1      # 2*2+0 = 1\n"
        "trans 2 1 2      # 2*2+1 = 2\n";
    Result<Nfa> nfa = ParseNfaText(kDivisibleBy3);
    ASSERT_TRUE(nfa.ok()) << nfa.status().ToString();
    EXPECT_TRUE(nfa->Accepts(Word{}));            // value 0
    EXPECT_TRUE(nfa->Accepts(Word{1, 1, 0}));     // 6
    EXPECT_FALSE(nfa->Accepts(Word{1, 0, 0}));    // 4
    Result<bool> eq = LanguageEquivalent(*nfa, DivisibilityNfa(3));
    ASSERT_TRUE(eq.ok());
    EXPECT_TRUE(eq.value());
    Result<Nfa> reparsed = ParseNfaText(NfaToText(*nfa));
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ(nfa->ToString(), reparsed->ToString());
  }
}

TEST(NfaToText, RoundTripPreservesEverything) {
  Rng rng(TestSeed(5));
  for (int trial = 0; trial < 8; ++trial) {
    Nfa original = RandomNfa(6, 0.3, 0.3, rng);
    Result<Nfa> reparsed = ParseNfaText(NfaToText(original));
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_EQ(original.ToString(), reparsed->ToString());
    Result<bool> eq = LanguageEquivalent(original, *reparsed);
    ASSERT_TRUE(eq.ok());
    EXPECT_TRUE(eq.value());
  }
}

TEST(NfaToText, LargerAlphabetSymbols) {
  Nfa nfa(12);  // symbols 0-9, a, b
  nfa.AddStates(2);
  nfa.SetInitial(0);
  nfa.AddAccepting(1);
  nfa.AddTransition(0, Symbol{11}, 1);
  std::string text = NfaToText(nfa);
  EXPECT_NE(text.find("trans 0 b 1"), std::string::npos);
  Result<Nfa> reparsed = ParseNfaText(text);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(reparsed->Accepts(Word{11}));
}

TEST(Files, SaveAndLoadRoundTrip) {
  Nfa nfa = SubstringNfa(Word{1, 0});
  const std::string path = ::testing::TempDir() + "/nfa_io_test.nfa";
  ASSERT_TRUE(SaveNfaFile(nfa, path).ok());
  Result<Nfa> loaded = LoadNfaFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Result<bool> eq = LanguageEquivalent(nfa, *loaded);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(eq.value());
  std::remove(path.c_str());
}

TEST(Files, LoadMissingFileFails) {
  Result<Nfa> loaded = LoadNfaFile("/nonexistent/path/x.nfa");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(ParseNfaText, HeaderBombIsRejectedBeforeAllocation) {
  // 27 bytes declaring 100000 states over 2^16 symbols: 6.5e9 transition
  // rows, hundreds of gigabytes if the header were trusted.
  Result<Nfa> nfa = ParseNfaText("nfa 100000 65536\ninitial 0\n");
  ASSERT_FALSE(nfa.ok());
  EXPECT_EQ(nfa.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(nfa.status().message().find("nfa text line 1:"),
            std::string::npos)
      << nfa.status().ToString();
  EXPECT_NE(nfa.status().message().find("transition rows"), std::string::npos)
      << nfa.status().ToString();
  // Just past the bound on either factor fails the same way; the largest
  // corpus automaton in the repository's benchmarks stays well inside it.
  EXPECT_FALSE(ParseNfaText("nfa 524289 1\ninitial 0\n").ok());
  EXPECT_FALSE(ParseNfaText("nfa 16 65536\ninitial 0\n").ok());
  const Nfa corpus = CorpusTokenNfa(10, 1 << 14, 10);
  EXPECT_LE(static_cast<int64_t>(corpus.num_states()) *
                (corpus.alphabet_size() + 1),
            kMaxNfaTextRows);
  EXPECT_TRUE(ParseNfaText(NfaToText(corpus)).ok());
}

TEST(ParseNfaText, LargestAcceptedStateCountParsesQuickly) {
  // 2^19 states over one symbol is the most states the bound admits. The
  // states are added in one batch, so the parse is linear in the state
  // count: tens of milliseconds in a Release build, where adding them one
  // at a time (regrowing the accepting bitset per state) took seconds.
  const auto start = std::chrono::steady_clock::now();
  Result<Nfa> nfa =
      ParseNfaText("nfa 524288 1\ninitial 0\naccepting 524287\n");
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_TRUE(nfa.ok()) << nfa.status().ToString();
  EXPECT_EQ(nfa->num_states(), 524288);
  EXPECT_TRUE(nfa->IsAccepting(524287));
  EXPECT_LT(seconds, 10.0);
}

TEST(NfaCodecDifferential, GeneratorFamiliesMatchStreamCodec) {
  std::vector<Nfa> automata;
  for (FamilyInstance& family : StandardFamilies(5, 8, TestSeed(41))) {
    automata.push_back(std::move(family.nfa));
  }
  Rng rng(TestSeed(42));
  for (int trial = 0; trial < 4; ++trial) {
    automata.push_back(RandomNfa(12, 0.3, 0.3, rng));
    automata.push_back(ReverseDeterministic(6, rng, 3));
  }
  automata.push_back(CombinationLock(Word{1, 0, 2}, 3));
  automata.push_back(DenseCompleteNfa(4, 5));
  automata.push_back(KthFromEndNfa(3, 36));   // symbols 0-9 and a-z
  automata.push_back(SubstringNfa(Word{35, 36, 37}, 40));  // both forms
  automata.push_back(CorpusTokenNfa(4, 512, 4));           // |Σ| > 256
  automata.push_back(CorpusTokenNfa(10, 1 << 14, 10));     // the benchmark's
  for (const Nfa& nfa : automata) {
    const std::string text = ReferenceNfaToText(nfa);
    EXPECT_EQ(text, NfaToText(nfa));
    ExpectParsersAgree(text);
  }
}

TEST(NfaCodecDifferential, StreamExtractionQuirksMatch) {
  const std::vector<std::string> inputs = {
      // A leading '+' is a valid sign; signs must precede a digit.
      "nfa +2 +2\ninitial +0\naccepting +1\ntrans +0 1 +1\n",
      "nfa 2 2\ninitial +-1\n", "nfa 2 2\ninitial +-0\n",
      "nfa 2 2\ninitial 0\naccepting 1 +-1\n", "nfa 2 2\ninitial -+1\n",
      "nfa 2 2\ninitial +\n", "nfa 2 2\ninitial -\n",
      "nfa 2 2\ninitial - 1\n", "nfa 2 2\ninitial ++1\n",
      "nfa 2 2\ninitial -0\n", "nfa 2 2\ninitial 00001\n",
      "nfa 2 2\ninitial 0x1\n",
      // Integers stop at the first non-digit; the rest is the next token.
      "nfa 2 36\ninitial 0\ntrans 1x 1\n",
      "nfa 2 36\ninitial 0\ntrans 0 1 1x\n",
      "nfa 2 36\ninitial 0\ntrans 0 1x 1\n",
      "nfa 2 2\ninitial 0\naccepting 1x 0\n",
      "nfa 2 2\ninitial 0junk\n", "nfa 2x2\ninitial 0\n",
      "nfa 2 2x\ninitial 0\n", "nfa2 2\ninitial 0\n",
      // Trailing extra tokens are ignored.
      "nfa 2 2 7 junk\ninitial 0 1 2\ntrans 0 1 1 extra\n",
      "nfa 2 2\ninitial 0\naccepting 0 1 junk 1\n",
      // int overflow is a failed extraction.
      "nfa 99999999999 2\ninitial 0\n", "nfa 2 2\ninitial 2147483648\n",
      "nfa 2 2\ninitial -2147483649\n",
      "nfa 2 2\ninitial 0\naccepting 1 2147483648\n",
      "nfa 2 2\ninitial 0\ntrans 0 1 99999999999999999999\n",
      "nfa 2147483647 1\ninitial 0\n",
      // Symbol tokens: one character, or up to five decimal digits.
      "nfa 2 2\ninitial 0\ntrans 0 00001 1\n",
      "nfa 2 2\ninitial 0\ntrans 0 000001 1\n",
      "nfa 2 2\ninitial 0\ntrans 0 +1 1\n",
      "nfa 2 2\ninitial 0\ntrans 0 -1 1\n",
      "nfa 2 65536\ninitial 0\ntrans 0 65535 1\n",
      "nfa 2 2\ninitial 0\ntrans 0 65536 1\n",
      "nfa 2 2\ninitial 0\ntrans 0 \xe9 1\n",
      "nfa 2 2\ninitial 0\ntrans 0 1\n",
      // Line endings and whitespace: CRLF, tabs, \v and \f separate tokens.
      "nfa 2 2\r\ninitial 0\r\n\r\naccepting 1\r\ntrans 0 1 1\r\n",
      "nfa\t2\t2\ninitial\v0\f\naccepting\t\t1 \r\n  trans 0 1 1\n",
      "\r\n\t\n   \nnfa 1 1\ninitial 0\n",
      // '#' starts a comment anywhere, even inside a token.
      "nfa 2 2#x\ninitial 0#\naccepting 1#0\n",
      "nfa 2 2\ninitial 0\ntrans 0 1#comment 1\n",
      "nfa 2 2\ninitial 0\naccep#ting 1\n", "#only\n#\n",
      // No newline at end of file, and empty or newline-only inputs.
      "nfa 1 1\ninitial 0\naccepting 0", "nfa 1 1\ninitial", "", "\n",
      "\n\n\n",
      // Ordering, duplicates and unknown keywords.
      "initial 0\nnfa 2 2\n", "nfa 2 2\nnfa 2 2\n",
      "nfa 2 2\ninitial 0\ninitial 1\naccepting 1\naccepting 0\n",
      "nfa 2 2\ninitial 0\nNFA 2 2\n", "nfa 2 2\ninitial 0\ntransx\n",
      "nfa 0 2\n", "nfa -1 2\n", "nfa 2 0\n", "nfa 2 65537\n",
      "nfa 100000 65536\ninitial 0\n",
  };
  for (const std::string& text : inputs) ExpectParsersAgree(text);
  // NUL bytes are ordinary token characters to both parsers.
  const char kNulInToken[] = "nfa 1 1\ninitial 0\0\naccepting 0\n";
  ExpectParsersAgree(std::string(kNulInToken, sizeof(kNulInToken) - 1));
  const char kNulKeyword[] = "nfa 1 1\ninitial 0\n\0trans\n";
  ExpectParsersAgree(std::string(kNulKeyword, sizeof(kNulKeyword) - 1));
}

TEST(NfaCodecDifferential, MutatedGoldenTextsMatch) {
  const std::string golden = ReadTestData("golden.nfa");
  ASSERT_FALSE(golden.empty());
  ExpectParsersAgree(golden);
  // Bytes that move token, line and comment boundaries or break numbers
  // (sizeof keeps the terminating NUL as one of them).
  const char kBytes[] = " \t\r\n#+-0129xa\xff";
  const std::string alphabet(kBytes, sizeof(kBytes));
  Rng rng(TestSeed(43));
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text = golden;
    const int edits = static_cast<int>(rng.UniformInt(1, 3));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(text.size()) - 1));
      const char byte = alphabet[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(alphabet.size()) - 1))];
      switch (rng.UniformInt(0, 3)) {
        case 0: text.erase(pos, 1); break;
        case 1: text.insert(pos, 1, byte); break;
        case 2: text[pos] = byte; break;
        default: text.resize(pos); break;
      }
    }
    ExpectParsersAgree(text);
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(Dot, ContainsStructure) {
  Nfa nfa(2);
  nfa.AddStates(2);
  nfa.SetInitial(0);
  nfa.AddAccepting(1);
  nfa.AddTransition(0, 1, 1);
  std::string dot = NfaToDot(nfa, "demo");
  EXPECT_NE(dot.find("digraph demo"), std::string::npos);
  EXPECT_NE(dot.find("q1 [shape=doublecircle]"), std::string::npos);
  EXPECT_NE(dot.find("q0 [shape=circle]"), std::string::npos);
  EXPECT_NE(dot.find("__start -> q0"), std::string::npos);
  EXPECT_NE(dot.find("q0 -> q1 [label=\"1\"]"), std::string::npos);
}

}  // namespace
}  // namespace nfacount
