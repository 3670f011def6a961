// Binary session checkpoints: save→load→extend must be bit-identical to an
// uninterrupted run at the same (seed, knob) point — across every
// num_threads × batch_width × simd combination — and every
// defective file (truncated, corrupted, wrong magic/version/endianness) must
// be rejected with a precise Status, never loaded partially. A committed
// golden file pins the on-disk format against accidental layout changes.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#ifndef _WIN32
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "automata/generators.hpp"
#include "automata/io.hpp"
#include "fpras/fpras.hpp"
#include "test_seed.hpp"
#include "test_tables.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

#ifndef NFACOUNT_TEST_DATA_DIR
#define NFACOUNT_TEST_DATA_DIR "tests/data"
#endif

namespace nfacount {
namespace {

using testing_support::ExpectTablesIdentical;
using testing_support::SessionTestOptions;
using testing_support::TestSeed;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + name;
}

TEST(Checkpoint, RoundTripRestoresFullState) {
  // Property: save → load reproduces every structural field, every table
  // cell, and the draw-cursor position (so draw streams continue in step).
  Rng rng(TestSeed(901));
  for (int trial = 0; trial < 3; ++trial) {
    Nfa nfa = RandomNfa(6, 0.3, 0.3, rng);
    const int horizon = 7;
    const int computed = 4;
    Result<EngineSession> original =
        EngineSession::Create(nfa, horizon, SessionTestOptions(TestSeed(902) + trial));
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(original->ExtendTo(computed).ok());
    // Advance the draw cursor before saving: resume must continue it.
    Result<std::vector<Word>> pre = original->SampleWords(computed, 3);
    ASSERT_TRUE(pre.ok());

    const std::string path = TempPath("roundtrip.ckpt");
    ASSERT_TRUE(original->Save(path).ok());
    Result<EngineSession> loaded = EngineSession::Load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    EXPECT_EQ(loaded->horizon(), horizon);
    EXPECT_EQ(loaded->computed_level(), computed);
    EXPECT_EQ(loaded->seed(), original->seed());
    EXPECT_EQ(loaded->params().ns, original->params().ns);
    EXPECT_EQ(loaded->params().xns, original->params().xns);
    EXPECT_EQ(loaded->params().beta, original->params().beta);
    EXPECT_EQ(loaded->params().eta, original->params().eta);
    EXPECT_EQ(loaded->nfa().num_states(), nfa.num_states());
    ExpectTablesIdentical(original->engine(), loaded->engine(), nfa,
                          computed);

    // Draw-stream continuity: the next draws agree between the session that
    // never stopped and the one that went through disk.
    Result<std::vector<Word>> a = original->SampleWords(computed, 4);
    Result<std::vector<Word>> b = loaded->SampleWords(computed, 4);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << "trial=" << trial;
  }
}

TEST(Checkpoint, SaveLoadExtendBitIdenticalToFreshAcrossKnobGrid) {
  // The acceptance matrix: a session saved at n/2 and resumed under every
  // (threads, batch, simd) combination, then extended to n, must equal
  // a fresh uninterrupted run — estimates, tables, and draws.
  Rng rng(TestSeed(911));
  Nfa nfa = RandomNfa(6, 0.3, 0.35, rng);
  const int n = 8;
  const int half = 4;
  CountOptions opts = SessionTestOptions(TestSeed(912));

  Result<EngineSession> fresh = EngineSession::Create(nfa, n, opts);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(fresh->ExtendTo(n).ok());
  Result<std::vector<Word>> fresh_words = fresh->SampleWords(n, 6);
  Result<std::vector<Word>> fresh_words2 = fresh->SampleWords(n, 4);
  ASSERT_TRUE(fresh_words.ok() && fresh_words2.ok());

  Result<EngineSession> half_way = EngineSession::Create(nfa, n, opts);
  ASSERT_TRUE(half_way.ok());
  ASSERT_TRUE(half_way->ExtendTo(half).ok());
  const std::string path = TempPath("grid.ckpt");
  ASSERT_TRUE(half_way->Save(path).ok());

  const int threads_grid[] = {1, 4};
  const int batch_grid[] = {1, 32};
  const bool simd_grid[] = {true, false};
  for (int threads : threads_grid) {
    for (int batch : batch_grid) {
      for (bool simd : simd_grid) {
        SessionKnobs knobs;
        knobs.num_threads = threads;
        knobs.batch_width = batch;
        knobs.simd_kernels = simd;
        Result<EngineSession> resumed = EngineSession::Load(path, &knobs);
        ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
        ASSERT_TRUE(resumed->ExtendTo(n).ok());
        SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                          << " batch=" << batch
                                          << " simd=" << simd);
        for (int level = 0; level <= n; ++level) {
          Result<double> a = fresh->CountAtLength(level);
          Result<double> b = resumed->CountAtLength(level);
          ASSERT_TRUE(a.ok() && b.ok());
          EXPECT_EQ(*a, *b) << "level=" << level;
        }
        ExpectTablesIdentical(fresh->engine(), resumed->engine(), nfa, n);
        // The draw stream must track the fresh session's across repeated
        // calls — the cursor advances exactly, never batch-rounded.
        Result<std::vector<Word>> words = resumed->SampleWords(n, 6);
        Result<std::vector<Word>> words2 = resumed->SampleWords(n, 4);
        ASSERT_TRUE(words.ok() && words2.ok());
        EXPECT_EQ(*fresh_words, *words);
        EXPECT_EQ(*fresh_words2, *words2);
      }
    }
  }
}

TEST(Checkpoint, InMemorySerializationMatchesFile) {
  Rng rng(TestSeed(921));
  Nfa nfa = RandomNfa(5, 0.3, 0.3, rng);
  Result<EngineSession> session =
      EngineSession::Create(nfa, 5, SessionTestOptions(TestSeed(922)));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->ExtendTo(3).ok());

  const std::string bytes = SerializeSessionCheckpoint(*session);
  const std::string path = TempPath("inmem.ckpt");
  ASSERT_TRUE(session->Save(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string file_bytes(bytes.size() + 64, '\0');
  const size_t got = std::fread(&file_bytes[0], 1, file_bytes.size(), f);
  std::fclose(f);
  file_bytes.resize(got);
  EXPECT_EQ(bytes, file_bytes);

  Result<EngineSession> loaded = DeserializeSessionCheckpoint(bytes);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->computed_level(), 3);
}

TEST(Checkpoint, TruncationIsDataLoss) {
  Rng rng(TestSeed(931));
  Nfa nfa = RandomNfa(5, 0.3, 0.3, rng);
  Result<EngineSession> session =
      EngineSession::Create(nfa, 5, SessionTestOptions(TestSeed(932)));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->ExtendTo(3).ok());
  const std::string bytes = SerializeSessionCheckpoint(*session);

  // Every proper prefix must be rejected as data loss (a handful of cut
  // points covers the preamble, the header, the tables, and the checksum).
  for (size_t cut : {size_t{0}, size_t{5}, size_t{11}, size_t{40},
                     bytes.size() / 2, bytes.size() - 1}) {
    Result<EngineSession> r =
        DeserializeSessionCheckpoint(bytes.substr(0, cut));
    ASSERT_FALSE(r.ok()) << "cut=" << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << "cut=" << cut;
  }
}

TEST(Checkpoint, BitCorruptionIsDetected) {
  Rng rng(TestSeed(941));
  Nfa nfa = RandomNfa(5, 0.3, 0.3, rng);
  Result<EngineSession> session =
      EngineSession::Create(nfa, 5, SessionTestOptions(TestSeed(942)));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->ExtendTo(3).ok());
  const std::string bytes = SerializeSessionCheckpoint(*session);

  // Flip one bit at a spread of positions past the preamble: the checksum
  // must catch every one (the preamble fields have their own diagnostics,
  // tested below).
  Rng flip_rng(TestSeed(943));
  for (int i = 0; i < 24; ++i) {
    const size_t pos =
        12 + static_cast<size_t>(
                 flip_rng.UniformU64(static_cast<uint64_t>(bytes.size() - 12)));
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << (i % 8)));
    Result<EngineSession> r = DeserializeSessionCheckpoint(corrupt);
    ASSERT_FALSE(r.ok()) << "pos=" << pos;
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << "pos=" << pos;
  }
}

TEST(Checkpoint, PreambleDefectsGetPreciseDiagnostics) {
  Rng rng(TestSeed(951));
  Nfa nfa = RandomNfa(5, 0.3, 0.3, rng);
  Result<EngineSession> session =
      EngineSession::Create(nfa, 5, SessionTestOptions(TestSeed(952)));
  ASSERT_TRUE(session.ok());
  const std::string bytes = SerializeSessionCheckpoint(*session);

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  Result<EngineSession> r1 = DeserializeSessionCheckpoint(bad_magic);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r1.status().message().find("magic"), std::string::npos);

  std::string bad_version = bytes;
  bad_version[4] = 99;  // version precedes the checksum check by design
  Result<EngineSession> r2 = DeserializeSessionCheckpoint(bad_version);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r2.status().message().find("version"), std::string::npos);

  // The canonical marker 0x01020304 serializes little-endian as the byte
  // run 04 03 02 01; a writer emitting native big-endian order would
  // produce the reverse, which the loader must name precisely.
  std::string bad_endian = bytes;
  bad_endian[8] = 0x01;
  bad_endian[9] = 0x02;
  bad_endian[10] = 0x03;
  bad_endian[11] = 0x04;
  Result<EngineSession> r3 = DeserializeSessionCheckpoint(bad_endian);
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r3.status().message().find("endian"), std::string::npos);
}

TEST(Checkpoint, MissingFileIsNotFound) {
  Result<EngineSession> r =
      EngineSession::Load(TempPath("no_such_file.ckpt"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Checkpoint, GoldenFileReadsBackAndExtends) {
  // The committed fixture pins format version 1: header geometry, parameter
  // block layout, level-table packing. Regenerate it with
  //   example_nfa_cli count tests/data/golden.nfa 4 0.3 0.2 12345
  //       --horizon 6 --save-state tests/data/golden_session.ckpt
  // (one line) and update the constants below ONLY on a deliberate format
  // bump.
  const std::string path =
      std::string(NFACOUNT_TEST_DATA_DIR) + "/golden_session.ckpt";
  Result<EngineSession> golden = EngineSession::Load(path);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  EXPECT_EQ(golden->nfa().num_states(), 4);
  EXPECT_EQ(golden->horizon(), 6);
  EXPECT_EQ(golden->computed_level(), 4);
  EXPECT_EQ(golden->seed(), 12345u);
  EXPECT_EQ(golden->params().eps, 0.3);
  EXPECT_EQ(golden->params().delta, 0.2);

  // The stored tables must answer exactly what the writer recorded (the
  // value is data read back, not recomputed, so the comparison is exact).
  Result<double> at4 = golden->CountAtLength(4);
  ASSERT_TRUE(at4.ok());
  // golden.nfa guesses a '1' three positions before the end: |L_4| = 2³ = 8.
  EXPECT_NEAR(*at4 / 8.0, 1.0, 0.35);

  // And the session must remain a live, extensible run.
  ASSERT_TRUE(golden->ExtendTo(6).ok());
  Result<double> at6 = golden->CountAtLength(6);
  ASSERT_TRUE(at6.ok());
  EXPECT_GT(*at6, 0.0);
  Result<std::vector<Word>> words = golden->SampleWords(6, 3);
  ASSERT_TRUE(words.ok());
  EXPECT_EQ(words->size(), 3u);
}

// ---------------------------------------------------------------------------
// Crash safety (ISSUE 6 satellite): a failed or interrupted save must never
// corrupt or remove a pre-existing checkpoint.
// ---------------------------------------------------------------------------

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return std::string();
  std::string bytes;
  char buf[1 << 14];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, got);
  std::fclose(f);
  return bytes;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

/// RAII arming of the checkpoint.write failpoint's short-write action.
struct WriteLimitGuard {
  explicit WriteLimitGuard(int64_t limit) {
    EXPECT_TRUE(failpoint::Set("checkpoint.write",
                               "short-write(" + std::to_string(limit) + ")")
                    .ok());
  }
  ~WriteLimitGuard() { failpoint::Clear("checkpoint.write"); }
};

TEST(CheckpointCrashSafety, FailedSaveLeavesExistingCheckpointIntact) {
  // A good checkpoint exists; a later save dies mid-write (simulated as a
  // short write via the injection hook — what a crash, kill, or full disk
  // looks like to the writer). The original file must survive byte-for-byte
  // and still load; the temp file must be cleaned up.
  Rng rng(TestSeed(951));
  Nfa nfa = RandomNfa(6, 0.3, 0.3, rng);
  Result<EngineSession> session =
      EngineSession::Create(nfa, 7, SessionTestOptions(TestSeed(952)));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->ExtendTo(3).ok());

  const std::string path = TempPath("crash_safe.ckpt");
  std::remove(path.c_str());
  ASSERT_TRUE(session->Save(path).ok());
  const std::string good_bytes = ReadFileBytes(path);
  ASSERT_FALSE(good_bytes.empty());

  // Advance the session so the failed save would have written new content.
  ASSERT_TRUE(session->ExtendTo(6).ok());
  {
    WriteLimitGuard limit(16);  // die 16 bytes into the temp file
    Status failed = session->Save(path);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kDataLoss)
        << failed.ToString();
  }

  EXPECT_EQ(ReadFileBytes(path), good_bytes);  // old checkpoint untouched
  EXPECT_FALSE(FileExists(path + ".tmp"));     // partial temp cleaned up
  Result<EngineSession> reloaded = EngineSession::Load(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->computed_level(), 3);

  // After the failure the same session saves fine, atomically replacing the
  // old file, and the reloaded state reflects the new computed level.
  ASSERT_TRUE(session->Save(path).ok());
  EXPECT_FALSE(FileExists(path + ".tmp"));
  Result<EngineSession> extended = EngineSession::Load(path);
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(extended->computed_level(), 6);
  std::remove(path.c_str());
}

TEST(CheckpointCrashSafety, UnwritableTempPathFailsWithoutTouchingCheckpoint) {
  // Block the <path>.tmp slot with a directory so the temp file cannot even
  // be opened: the save must fail cleanly and the existing checkpoint must
  // not be modified or removed (the CI session-identity job runs the same
  // scenario through the CLI).
  Rng rng(TestSeed(961));
  Nfa nfa = RandomNfa(5, 0.3, 0.3, rng);
  Result<EngineSession> session =
      EngineSession::Create(nfa, 5, SessionTestOptions(TestSeed(962)));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->ExtendTo(2).ok());

  const std::string path = TempPath("blocked_tmp.ckpt");
  std::remove(path.c_str());
  ASSERT_TRUE(session->Save(path).ok());
  const std::string good_bytes = ReadFileBytes(path);

#ifndef _WIN32
  const std::string tmp = path + ".tmp";
  ASSERT_EQ(::mkdir(tmp.c_str(), 0755), 0);
  Status failed = session->Save(path);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kInvalidArgument) << failed.ToString();
  EXPECT_EQ(ReadFileBytes(path), good_bytes);
  Result<EngineSession> reloaded = EngineSession::Load(path);
  EXPECT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_EQ(::rmdir(tmp.c_str()), 0);
#endif
  std::remove(path.c_str());
}

TEST(CheckpointCrashSafety, StaleTempFromKilledWriterIsReplacedBySave) {
  // A writer killed between fwrite and rename leaves <path>.tmp behind. A
  // later save must simply overwrite it and complete; the stale partial
  // bytes must never end up at the destination.
  Rng rng(TestSeed(971));
  Nfa nfa = RandomNfa(5, 0.3, 0.3, rng);
  Result<EngineSession> session =
      EngineSession::Create(nfa, 5, SessionTestOptions(TestSeed(972)));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->ExtendTo(4).ok());

  const std::string path = TempPath("stale_tmp.ckpt");
  const std::string tmp = path + ".tmp";
  std::remove(path.c_str());
  {
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NFCK garbage from a killed writer", f);
    std::fclose(f);
  }
  ASSERT_TRUE(session->Save(path).ok());
  EXPECT_FALSE(FileExists(tmp));
  Result<EngineSession> loaded = EngineSession::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->computed_level(), 4);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The v2 write path. The fixtures were written by the per-element codec
// that the bulk slab codec replaced, so they pin the two as byte-identical;
// golden_wide_session_v2.ckpt (|Σ| = 300) stores symbols >= 256, whose u16
// high byte is non-zero. Regenerate them only on a deliberate format bump:
//   example_nfa_cli count tests/data/golden.nfa 4 0.3 0.2 12345
//       --horizon 6 --save-state tests/data/golden_session_v2.ckpt
//   example_nfa_cli count tests/data/golden_wide.nfa 4 0.3 0.2 12345
//       --horizon 6 --save-state tests/data/golden_wide_session_v2.ckpt
// ---------------------------------------------------------------------------

struct GoldenV2 {
  const char* nfa_file;
  const char* ckpt_file;
};
constexpr GoldenV2 kGoldenV2[] = {
    {"golden.nfa", "golden_session_v2.ckpt"},
    {"golden_wide.nfa", "golden_wide_session_v2.ckpt"},
};

std::string DataPath(const std::string& name) {
  return std::string(NFACOUNT_TEST_DATA_DIR) + "/" + name;
}

/// The session the regeneration command above builds: horizon 6, counted
/// at length 4, seed 12345, every other knob at its default.
Result<EngineSession> GoldenV2Session(const std::string& nfa_file) {
  Result<Nfa> nfa = LoadNfaFile(DataPath(nfa_file));
  NFA_RETURN_NOT_OK(nfa.status());
  Result<EngineSession> session =
      EngineSession::Create(*nfa, 6, SessionTestOptions(12345));
  NFA_RETURN_NOT_OK(session.status());
  NFA_RETURN_NOT_OK(session->CountAtLength(4).status());
  return session;
}

/// `body` followed by its FNV-1a 64 checksum trailer, as the writer seals a
/// checkpoint: a crafted file can carry a valid checksum.
std::string Sealed(const std::string& body) {
  uint64_t sum = 14695981039346656037ULL;
  for (char c : body) {
    sum = (sum ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  ByteWriter w;
  w.Bytes(body.data(), body.size());
  w.U64(sum);
  return w.buffer();
}

/// Offset of the first differing byte (the shorter length if one string
/// is a prefix of the other), for failure messages that stay readable.
size_t FirstDifference(const std::string& a, const std::string& b) {
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

TEST(CheckpointV2Golden, WriterReproducesFixturesByteForByte) {
  // The fixtures were written with symbol classes on (the default). The
  // process-wide override changes the stored flag and, since the class layer
  // is not bit-preserving, the sample slabs too.
  if (std::getenv("NFACOUNT_SYMBOL_CLASSES") != nullptr) {
    GTEST_SKIP() << "NFACOUNT_SYMBOL_CLASSES overrides the fixtures' "
                    "symbol-class setting";
  }
  for (const GoldenV2& golden : kGoldenV2) {
    SCOPED_TRACE(golden.ckpt_file);
    const std::string want = ReadFileBytes(DataPath(golden.ckpt_file));
    ASSERT_FALSE(want.empty());
    Result<EngineSession> session = GoldenV2Session(golden.nfa_file);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    const std::string fresh = SerializeSessionCheckpoint(*session);
    EXPECT_TRUE(fresh == want) << "sizes " << fresh.size() << " vs "
                               << want.size() << ", first difference at "
                               << FirstDifference(fresh, want);
    // Reader and writer are inverses: the loaded fixture writes back as
    // the same bytes.
    Result<EngineSession> loaded = DeserializeSessionCheckpoint(want);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const std::string rewritten = SerializeSessionCheckpoint(*loaded);
    EXPECT_TRUE(rewritten == want) << "first difference at "
                                   << FirstDifference(rewritten, want);
  }
}

TEST(CheckpointV2Golden, WideFixtureStoresHighByteSymbols) {
  Result<EngineSession> loaded =
      EngineSession::Load(DataPath("golden_wide_session_v2.ckpt"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->nfa().alphabet_size(), 300);
  int high = 0;
  for (int level = 1; level <= loaded->computed_level(); ++level) {
    for (StateId q = 0; q < loaded->nfa().num_states(); ++q) {
      for (const StoredSample& sample : loaded->engine().SamplesFor(q, level)) {
        for (Symbol s : sample.word) high += s >= 256 ? 1 : 0;
      }
    }
  }
  EXPECT_GT(high, 0);
}

TEST(CheckpointV2Golden, LegacyAblationSlotsResumeLikeTheFixture) {
  // The parameter block keeps three reserved slots where older writers
  // stored the union-memo switch, the pointer-walk layout switch and the
  // memo capacity (file offsets 129, 132 and 142..149: 12 preamble bytes,
  // the 8-byte seed, then the block). A checkpoint written with those
  // ablations on (0, 0, 0) must resume exactly like the fixture, which
  // stores the defaults (1, 1, 2^20).
  constexpr size_t kMemoizeAt = 129;
  constexpr size_t kCsrAt = 132;
  constexpr size_t kMemoCapacityAt = 142;
  const std::string fixture = ReadFileBytes(DataPath("golden_session_v2.ckpt"));
  ASSERT_GT(fixture.size(), kMemoCapacityAt + 8);
  ASSERT_EQ(fixture[kMemoizeAt], 1);
  ASSERT_EQ(fixture[kCsrAt], 1);
  ByteReader capacity_field(fixture.data() + kMemoCapacityAt, 8);
  int64_t capacity = 0;
  ASSERT_TRUE(capacity_field.I64(&capacity).ok());
  ASSERT_EQ(capacity, int64_t{1} << 20);

  std::string body = fixture.substr(0, fixture.size() - 8);
  body[kMemoizeAt] = 0;
  body[kCsrAt] = 0;
  body.replace(kMemoCapacityAt, 8, std::string(8, '\0'));
  const std::string legacy = Sealed(body);
  ASSERT_NE(legacy, fixture);

  Result<EngineSession> want = DeserializeSessionCheckpoint(fixture);
  Result<EngineSession> got = DeserializeSessionCheckpoint(legacy);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const int n = want->horizon();
  ASSERT_EQ(got->horizon(), n);
  ASSERT_EQ(got->computed_level(), want->computed_level());
  ASSERT_TRUE(want->ExtendTo(n).ok());
  ASSERT_TRUE(got->ExtendTo(n).ok());
  for (int level = 0; level <= n; ++level) {
    Result<double> a = want->CountAtLength(level);
    Result<double> b = got->CountAtLength(level);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << "level=" << level;
  }
  ExpectTablesIdentical(want->engine(), got->engine(), want->nfa(), n);
  Result<std::vector<Word>> want_draws = want->SampleWords(n, 32);
  Result<std::vector<Word>> got_draws = got->SampleWords(n, 32);
  ASSERT_TRUE(want_draws.ok() && got_draws.ok());
  EXPECT_EQ(*want_draws, *got_draws);
  // The reserved slots are rewritten with the fixed values.
  EXPECT_EQ(SerializeSessionCheckpoint(*got),
            SerializeSessionCheckpoint(*want));
}

TEST(Checkpoint, EmbeddedHeaderBombIsRejectedBeforeAllocation) {
  // A crafted file can carry a valid checksum, so the embedded automaton
  // text is untrusted input: swap in a header declaring 6.5e9 transition
  // rows and re-seal the file.
  std::string bytes = ReadFileBytes(DataPath("golden_session_v2.ckpt"));
  const size_t text_at = bytes.find("nfa 4 2\n");
  ASSERT_NE(text_at, std::string::npos);
  ByteReader length_field(bytes.data() + text_at - 8, 8);
  uint64_t text_size = 0;
  ASSERT_TRUE(length_field.U64(&text_size).ok());
  const std::string bomb = "nfa 100000 65536\ninitial 0\n";
  ByteWriter sealed;
  sealed.Bytes(bytes.data(), text_at - 8);
  sealed.String(bomb);
  const size_t rest = text_at + static_cast<size_t>(text_size);
  sealed.Bytes(bytes.data() + rest, bytes.size() - 8 - rest);

  Result<EngineSession> r =
      DeserializeSessionCheckpoint(Sealed(sealed.buffer()));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("transition rows"), std::string::npos)
      << r.status().ToString();
}

// ---------------------------------------------------------------------------
// Bulk span calls of the byte codec (util/wire.hpp) that carry the slabs.
// ---------------------------------------------------------------------------

TEST(ByteCodec, SpanCallsMatchPerElementCalls) {
  const std::vector<uint16_t> u16 = {0, 1, 0x00ff, 0x0100, 0x1234, 0xffff};
  const std::vector<uint64_t> u64 = {0, 1, 0x0102030405060708ULL, ~0ULL,
                                     1ULL << 63};
  ByteWriter bulk;
  bulk.Reserve(64);
  bulk.U16s(u16.data(), u16.size());
  bulk.U64s(u64.data(), u64.size());
  bulk.U16s(nullptr, 0);
  ByteWriter single;
  for (uint16_t v : u16) single.U16(v);
  for (uint64_t v : u64) single.U64(v);
  ASSERT_EQ(bulk.buffer(), single.buffer());
  // Least-significant byte first on every host.
  EXPECT_EQ(bulk.buffer().substr(8, 2), std::string("\x34\x12", 2));
  EXPECT_EQ(bulk.buffer().substr(12 + 16, 8),
            "\x08\x07\x06\x05\x04\x03\x02\x01");

  const std::string& bytes = bulk.buffer();
  ByteReader spans(bytes.data(), bytes.size());
  std::vector<uint16_t> got16(u16.size());
  std::vector<uint64_t> got64(u64.size());
  ASSERT_TRUE(spans.U16s(got16.data(), got16.size()).ok());
  ASSERT_TRUE(spans.U64s(got64.data(), got64.size()).ok());
  ASSERT_TRUE(spans.U64s(nullptr, 0).ok());
  EXPECT_EQ(spans.remaining(), 0u);
  ByteReader each(bytes.data(), bytes.size());
  for (uint16_t want : got16) {
    uint16_t v = 0;
    ASSERT_TRUE(each.U16(&v).ok());
    EXPECT_EQ(v, want);
  }
  for (uint64_t want : got64) {
    uint64_t v = 0;
    ASSERT_TRUE(each.U64(&v).ok());
    EXPECT_EQ(v, want);
  }
  EXPECT_EQ(got16, u16);
  EXPECT_EQ(got64, u64);
}

TEST(ByteCodec, TruncatedSpanIsDataLossBeforeAnyCopy) {
  ByteWriter w;
  for (uint16_t v = 1; v <= 5; ++v) w.U16(v);
  const std::string& bytes = w.buffer();
  // One byte short of five u16 values: nothing is copied, nothing consumed.
  ByteReader r(bytes.data(), bytes.size() - 1);
  std::vector<uint16_t> out(5, 0xabab);
  Status s = r.U16s(out.data(), out.size());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(out, std::vector<uint16_t>(5, 0xabab));
  EXPECT_EQ(r.remaining(), bytes.size() - 1);
  // A count whose byte size overflows size_t is an overrun, not a wrap.
  std::vector<uint64_t> out64(1, 7);
  s = r.U64s(out64.data(), SIZE_MAX / 4);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(out64[0], 7u);
  // The shorter span that fits still reads, from the unmoved cursor.
  ASSERT_TRUE(r.U16s(out.data(), 4).ok());
  EXPECT_EQ(out, (std::vector<uint16_t>{1, 2, 3, 4, 0xabab}));
}

}  // namespace
}  // namespace nfacount
