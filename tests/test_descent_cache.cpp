// Descent-cache correctness: unit behavior of the sharded DescentCache
// (publish/find round trips through a Reader, entries carrying every class
// row, the shared-budget capacity discipline and racing readers/publishers
// under concurrency, the disabled state), cache_counters() read while a
// session extends and draws, and the identity grid — estimates, per-(q,ℓ)
// tables, and draw streams must be bit-identical with the cache on, off, or
// at any capacity, across num_threads and batch_width (the purity contract
// the cache is built on; see fpras/estimator.hpp DescentCache).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "automata/generators.hpp"
#include "fpras/fpras.hpp"
#include "test_seed.hpp"
#include "test_tables.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace nfacount {
namespace {

using testing_support::ExpectTablesIdentical;
using testing_support::SessionTestOptions;
using testing_support::TestSeed;

Bitset MakeSet(size_t bits, std::initializer_list<int> members) {
  Bitset set(bits);
  for (int q : members) set.Set(static_cast<size_t>(q));
  return set;
}

std::unique_ptr<DescentCache::Entry> BuildEntry(const DescentCache& cache,
                                                int level, const Bitset& set,
                                                std::vector<double> sizes,
                                                uint64_t row_seed) {
  std::unique_ptr<DescentCache::Entry> entry = cache.NewEntry(level, set);
  entry->sizes = std::move(sizes);
  for (size_t i = 0; i < entry->rows.size(); ++i) {
    entry->rows[i] = row_seed * 0x9e3779b97f4a7c15ULL + i;
  }
  return entry;
}

TEST(DescentCacheUnit, EntryRoundTripAndCounters) {
  DescentCache cache;
  cache.Reset(/*capacity=*/8, /*row_words=*/1, /*symbol_rows=*/2);
  ASSERT_TRUE(cache.enabled());
  DescentCache::Reader reader;

  const Bitset set = MakeSet(10, {1, 4, 7});
  EXPECT_EQ(reader.Find(cache, 3, set), nullptr);
  EXPECT_EQ(reader.tally().misses, 1);
  EXPECT_EQ(reader.tally().hits, 0);

  std::unique_ptr<DescentCache::Entry> entry =
      BuildEntry(cache, 3, set, {3.5, 0.25}, 7);
  const std::vector<uint64_t> rows = entry->rows;
  const DescentCache::Entry* published = cache.Publish(entry);
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(entry, nullptr);  // ownership moved into the cache
  EXPECT_EQ(cache.entries(), 1);
  EXPECT_GT(cache.bytes(), 0);
  EXPECT_EQ(published->total, 3.75);

  // First hit comes from the shard, the second from the front table; both
  // return the published entry with its sizes and every class row.
  for (int probe = 1; probe <= 2; ++probe) {
    const DescentCache::Entry* hit = reader.Find(cache, 3, set);
    ASSERT_EQ(hit, published);
    EXPECT_EQ(hit->sizes, (std::vector<double>{3.5, 0.25}));
    EXPECT_EQ(hit->Row(0)[0], rows[0]);
    EXPECT_EQ(hit->Row(1)[0], rows[1]);
    EXPECT_EQ(reader.tally().hits, probe);
  }
  EXPECT_EQ(reader.tally().misses, 1);

  // A second reader keeps its own tally.
  DescentCache::Reader other;
  EXPECT_EQ(other.Find(cache, 3, set), published);
  EXPECT_EQ(other.tally().hits, 1);
  EXPECT_EQ(reader.tally().hits, 2);

  // Same frontier at another level is a distinct key.
  EXPECT_EQ(reader.Find(cache, 4, set), nullptr);
  EXPECT_EQ(reader.tally().misses, 2);
  // Re-publishing an existing key neither duplicates nor spends budget: the
  // first entry stays, bits unchanged, and the loser keeps its copy.
  std::unique_ptr<DescentCache::Entry> again =
      BuildEntry(cache, 3, set, {9.0, 9.0}, 8);
  EXPECT_EQ(cache.Publish(again), published);
  EXPECT_NE(again, nullptr);
  EXPECT_EQ(cache.entries(), 1);
  EXPECT_EQ(published->sizes, (std::vector<double>{3.5, 0.25}));
  EXPECT_EQ(published->Row(1)[0], rows[1]);
}

TEST(DescentCacheUnit, EntryCarriesEveryClassRowEqualToPredSetWordsInto) {
  // Entries are built from the per-class Pred(P, rep_c) sets the union-size
  // estimation expands; every row must equal what the walk's own
  // PredSetWordsInto would produce for that class. A wide alphabet with
  // repeated transition rows covers the class-compressed case too.
  if (std::getenv("NFACOUNT_DESCENT_CACHE") != nullptr) {
    GTEST_SKIP() << "NFACOUNT_DESCENT_CACHE overrides the capacity";
  }
  Rng rng(TestSeed(1541));
  const Nfa nfas[] = {RandomNfa(70, 0.05, 0.3, rng),
                      CorpusTokenNfa(4, 64, 3)};
  for (const Nfa& nfa : nfas) {
    const int n = 5;
    Result<EngineSession> session =
        EngineSession::Create(nfa, n, SessionTestOptions(TestSeed(1542)));
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session->ExtendTo(n).ok());
    ASSERT_TRUE(session->SampleWords(n, 8).ok());
    const UnrolledNfa& unrolled = session->engine().unrolled();
    const SymbolClassIndex& classes = unrolled.symbol_classes();
    const size_t row_words =
        (static_cast<size_t>(nfa.num_states()) + 63) / 64;
    std::vector<uint64_t> expect(row_words);
    int64_t visited = 0;
    session->engine().descent_cache().ForEachEntry(
        [&](const DescentCache::Entry& entry) {
          ++visited;
          ASSERT_EQ(entry.key.size(), row_words);
          ASSERT_EQ(entry.rows.size(),
                    static_cast<size_t>(classes.num_classes()) * row_words);
          for (int c = 0; c < classes.num_classes(); ++c) {
            unrolled.PredSetWordsInto(entry.key.data(),
                                      classes.Representative(c), entry.level,
                                      expect.data(), simd::ScalarKernels());
            EXPECT_TRUE(std::equal(expect.begin(), expect.end(),
                                   entry.Row(c)))
                << "level=" << entry.level << " class=" << c;
          }
        });
    EXPECT_GT(visited, 0);
    EXPECT_EQ(visited, session->diagnostics().descent_entries);
  }
}

TEST(DescentCacheUnit, CapacityZeroDisables) {
  DescentCache cache;
  cache.Reset(/*capacity=*/0, /*row_words=*/1, /*symbol_rows=*/2);
  EXPECT_FALSE(cache.enabled());
  const Bitset set = MakeSet(8, {2});
  std::unique_ptr<DescentCache::Entry> entry =
      BuildEntry(cache, 1, set, {1.0, 1.0}, 1);
  EXPECT_EQ(cache.Publish(entry), nullptr);
  EXPECT_NE(entry, nullptr);  // not admitted: the caller keeps it
  EXPECT_EQ(cache.entries(), 0);
  EXPECT_EQ(cache.bytes(), 0);
  DescentCache::Reader reader;
  EXPECT_EQ(reader.Find(cache, 1, set), nullptr);
  EXPECT_EQ(reader.tally().misses, 1);
}

TEST(DescentCacheUnit, ConcurrentPublishersNeverOvershootCapacity) {
  // The budget bug of a pre-lock capacity check: with the check done
  // before the shard lock, T concurrent publishers could
  // admit up to capacity + T - 1 entries. The CAS-reserve discipline must hold the
  // bound exactly even when every thread hammers distinct keys.
  constexpr int64_t kCapacity = 64;
  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 256;
  DescentCache cache;
  cache.Reset(kCapacity, /*row_words=*/64, /*symbol_rows=*/2);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kKeysPerThread; ++i) {
        Bitset set(4096);
        set.Set(static_cast<size_t>(t * kKeysPerThread + i));
        std::unique_ptr<DescentCache::Entry> entry =
            BuildEntry(cache, 1, set, {1.0, 2.0}, 1);
        cache.Publish(entry);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(cache.entries(), kCapacity);
}

TEST(DescentCacheUnit, RacingFindAndPublishSeeFirstPublishedBits) {
  // Readers and publishers race on overlapping keys: each thread walks the
  // key set in its own order, publishing an entry stamped with its own id
  // on every miss. Whoever publishes a key first wins; every later Find and
  // every losing Publish must return exactly that entry's bits (sizes and
  // rows) — from the shard or from the thread's front table — and the
  // admitted entries never exceed the budget.
  constexpr int64_t kCapacity = 48;
  constexpr int kThreads = 8;
  constexpr int kKeys = 64;
  constexpr int kRounds = 3;
  DescentCache cache;
  cache.Reset(kCapacity, /*row_words=*/2, /*symbol_rows=*/3);
  struct Seen {
    int key;
    double stamp;
    uint64_t last_row_word;
  };
  std::vector<std::vector<Seen>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &seen, t] {
      DescentCache::Reader reader;
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kKeys; ++i) {
          const int key = (i * 7 + t * 13) % kKeys;
          Bitset set(100);
          set.Set(static_cast<size_t>(key));
          const DescentCache::Entry* entry = reader.Find(cache, 2, set);
          if (entry == nullptr) {
            std::unique_ptr<DescentCache::Entry> mine = BuildEntry(
                cache, 2, set, {static_cast<double>(t), 1.0, 2.0},
                static_cast<uint64_t>(t) + 1);
            entry = cache.Publish(mine);
            if (entry != nullptr) reader.Remember(entry);
          }
          if (entry != nullptr) {
            seen[static_cast<size_t>(t)].push_back(
                Seen{key, entry->sizes[0], entry->rows.back()});
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(cache.entries(), kCapacity);

  DescentCache::Reader verify;
  int64_t observations = 0;
  for (const std::vector<Seen>& per_thread : seen) {
    for (const Seen& s : per_thread) {
      Bitset set(100);
      set.Set(static_cast<size_t>(s.key));
      const DescentCache::Entry* final_entry = verify.Find(cache, 2, set);
      ASSERT_NE(final_entry, nullptr) << "key=" << s.key;
      EXPECT_EQ(s.stamp, final_entry->sizes[0]) << "key=" << s.key;
      EXPECT_EQ(s.last_row_word, final_entry->rows.back()) << "key=" << s.key;
      ++observations;
    }
  }
  // Each admitted key is seen by every thread in every round.
  EXPECT_EQ(observations, kCapacity * kThreads * kRounds);
}

// ---------------------------------------------------------------------------
// Identity grid: cache on/off × capacity × num_threads × batch_width
// ---------------------------------------------------------------------------

TEST(DescentCacheIdentity, GridBitIdenticalAcrossCapacityThreadsAndWidth) {
  Rng rng(TestSeed(1501));
  Nfa nfa = RandomNfa(7, 0.3, 0.3, rng);
  const int n = 6;

  // Baseline: cache off, sequential, narrowest batches.
  CountOptions base = SessionTestOptions(TestSeed(1502));
  base.descent_cache_capacity = 0;
  base.num_threads = 1;
  base.batch_width = 1;
  Result<EngineSession> baseline = EngineSession::Create(nfa, n, base);
  ASSERT_TRUE(baseline.ok());
  std::vector<double> base_counts;
  for (int level = 0; level <= n; ++level) {
    Result<double> c = baseline->CountAtLength(level);
    ASSERT_TRUE(c.ok());
    base_counts.push_back(*c);
  }
  Result<std::vector<Word>> base_draws = baseline->SampleWords(n, 12);
  ASSERT_TRUE(base_draws.ok());

  const int64_t capacities[] = {0, 4, int64_t{1} << 20};
  const int thread_counts[] = {1, 4};
  const int widths[] = {1, 32};
  for (int64_t capacity : capacities) {
    for (int threads : thread_counts) {
      for (int width : widths) {
        CountOptions opts = SessionTestOptions(TestSeed(1502));
        opts.descent_cache_capacity = capacity;
        opts.num_threads = threads;
        opts.batch_width = width;
        Result<EngineSession> session = EngineSession::Create(nfa, n, opts);
        ASSERT_TRUE(session.ok())
            << "capacity=" << capacity << " threads=" << threads
            << " width=" << width;
        for (int level = 0; level <= n; ++level) {
          Result<double> c = session->CountAtLength(level);
          ASSERT_TRUE(c.ok());
          EXPECT_EQ(*c, base_counts[static_cast<size_t>(level)])
              << "capacity=" << capacity << " threads=" << threads
              << " width=" << width << " level=" << level;
        }
        ExpectTablesIdentical(session->engine(), baseline->engine(), nfa, n);
        Result<std::vector<Word>> draws = session->SampleWords(n, 12);
        ASSERT_TRUE(draws.ok());
        ASSERT_EQ(draws->size(), base_draws->size());
        for (size_t i = 0; i < draws->size(); ++i) {
          EXPECT_EQ((*draws)[i], (*base_draws)[i])
              << "capacity=" << capacity << " threads=" << threads
              << " width=" << width << " draw=" << i;
        }
      }
    }
  }
}

TEST(DescentCacheIdentity, CacheActuallyHitsOnRepeatedDescents) {
  // Not just "identical": on a run with refills and post-run draws the cache
  // must actually serve repeated (level, frontier) work, or the tentpole is
  // wired to nothing.
  Rng rng(TestSeed(1511));
  Nfa nfa = RandomNfa(6, 0.3, 0.3, rng);
  const int n = 6;
  CountOptions opts = SessionTestOptions(TestSeed(1512));
  Result<EngineSession> session = EngineSession::Create(nfa, n, opts);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->ExtendTo(n).ok());
  Result<std::vector<Word>> draws = session->SampleWords(n, 16);
  ASSERT_TRUE(draws.ok());
  const FprasDiagnostics& diag = session->diagnostics();
  if (std::getenv("NFACOUNT_DESCENT_CACHE") == nullptr) {
    EXPECT_GT(diag.descent_hits, 0);
    EXPECT_GT(diag.descent_entries, 0);
    EXPECT_GT(diag.descent_bytes, 0);
  }
  EXPECT_GE(diag.descent_hits + diag.descent_misses, diag.descent_entries);
}

TEST(DescentCacheIdentity, ResumedSessionMatchesWithDifferentCacheKnob) {
  // The capacity is a runtime knob like threads/width: a session saved with
  // the cache on and resumed with it off (or vice versa) must continue the
  // identical draw stream. Exercised in memory via serialize/deserialize.
  Rng rng(TestSeed(1521));
  Nfa nfa = RandomNfa(6, 0.3, 0.3, rng);
  const int n = 5;
  CountOptions opts = SessionTestOptions(TestSeed(1522));
  Result<EngineSession> a = EngineSession::Create(nfa, n, opts);
  CountOptions off = opts;
  off.descent_cache_capacity = 0;
  Result<EngineSession> b = EngineSession::Create(nfa, n, off);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(a->ExtendTo(n).ok());
  ASSERT_TRUE(b->ExtendTo(n).ok());
  Result<std::vector<Word>> da = a->SampleWords(n, 6);
  Result<std::vector<Word>> db = b->SampleWords(n, 6);
  ASSERT_TRUE(da.ok() && db.ok());
  EXPECT_EQ(*da, *db);
}

TEST(DescentCacheConcurrency, CacheCountersReadableWhileExtendingAndDrawing) {
  // cache_counters() is the serve-mode stats surface: a second thread may
  // read it while one thread extends the session and another draws. Every
  // field only grows, and once quiescent the snapshot equals diagnostics().
  if (std::getenv("NFACOUNT_DESCENT_CACHE") != nullptr) {
    GTEST_SKIP() << "NFACOUNT_DESCENT_CACHE overrides the capacity";
  }
  Rng rng(TestSeed(1551));
  Nfa nfa = RandomNfa(8, 0.3, 0.3, rng);
  const int n = 7;
  CountOptions opts = SessionTestOptions(TestSeed(1552));
  opts.num_threads = 2;
  Result<EngineSession> session = EngineSession::Create(nfa, n, opts);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->ExtendTo(1).ok());

  std::atomic<bool> done{false};
  std::atomic<int> draws_at_horizon{0};
  std::thread drawer([&] {
    while (!done.load()) {
      const int length = session->published_level();
      // Statuses vary with the instance (an empty length is NotFound); the
      // test is about the counters, not the words.
      (void)session->SharedSampleWords(length, 4);
      if (length == n) draws_at_horizon.fetch_add(1);
    }
  });
  int64_t snapshots = 0;
  int64_t decreases = 0;
  std::thread stats([&] {
    FprasEngine::CacheCounters prev;
    while (!done.load()) {
      const FprasEngine::CacheCounters now = session->cache_counters();
      if (now.descent_hits < prev.descent_hits ||
          now.descent_misses < prev.descent_misses ||
          now.descent_entries < prev.descent_entries ||
          now.descent_bytes < prev.descent_bytes) {
        ++decreases;
      }
      prev = now;
      ++snapshots;
    }
  });
  ASSERT_TRUE(session->ExtendTo(n).ok());
  while (draws_at_horizon.load() < 3) std::this_thread::yield();
  done.store(true);
  drawer.join();
  stats.join();
  EXPECT_GT(snapshots, 0);
  EXPECT_EQ(decreases, 0);

  const FprasEngine::CacheCounters last = session->cache_counters();
  const FprasDiagnostics& diag = session->diagnostics();
  EXPECT_EQ(last.descent_hits, diag.descent_hits);
  EXPECT_EQ(last.descent_misses, diag.descent_misses);
  EXPECT_EQ(last.descent_entries, diag.descent_entries);
  EXPECT_EQ(last.descent_bytes, diag.descent_bytes);
  EXPECT_GT(last.descent_hits + last.descent_misses, 0);
}

}  // namespace
}  // namespace nfacount
