// The FPRAS for #NFA (Algorithm 3 of the paper) and its sampling subroutine
// (Algorithm 2), implemented over the unrolled automaton.
//
// Execution outline (matching Fig. 1 / Algorithm 3):
//   level 0:  N(I⁰) = 1, S(I⁰) = [λ,...]; all other states empty;
//   level ℓ:  for each reachable q:
//       sz_b  = AppUnion over {(S(p^{ℓ-1}), N(p^{ℓ-1})) : p ∈ Pred(q,b)}
//       N(qℓ) = Σ_b sz_b          (w.p. 1−η/2n; else perturbed — line 16-19)
//       S(qℓ) = up to ns words from sample(ℓ, {q}, λ, 2/(3e·N(qℓ)), β, ·),
//               padded with a fixed witness word on shortfall (lines 27-30);
//   output:   N(q_F^n), or an AppUnion over accepting states when |F| > 1
//             (the paper's single-final-state assumption is WLOG).
//
// sample() (Algorithm 2) extends a suffix backwards: at level i it estimates
// sz_b = |∪_{p∈P_b} L(p^{i-1})| for each symbol b, draws b proportionally,
// divides the acceptance probability φ by pr_b, and recurses; at level 0 it
// returns the built word with probability φ (γ0·Π pr_b⁻¹ telescopes to the
// uniform γ0 per word — Theorem 2(1)).
//
// Batched sampling plane (docs/ARCHITECTURE.md "Memory layout & SIMD
// dispatch"): instead of one rejection walk at a time, the engine advances
// batch_width candidate walks in lockstep down the levels on a per-worker
// FrontierPlane (fpras/plane.hpp). Walks with identical symbol histories
// share one frontier row ("group"), so each level costs one union-size
// estimation and one predecessor expansion per group — not per walk — and
// the reach profile of each accepted walk is built by a fused forward pass
// over the same plane scratch, never by re-simulating the stored word. Each
// candidate walk draws exclusively from its own attempt-indexed RNG
// substream, which makes every estimate, table, sample, and post-run draw
// bit-identical for every batch width (B = 1 included), exactly as the
// per-cell substreams make them thread-count-invariant.
//
// Concurrency model (docs/ARCHITECTURE.md "Concurrency model"): within level
// ℓ every (q, ℓ) cell depends only on the frozen level ℓ−1 tables, so the
// sweep fans the cells of each level out over a fixed ThreadPool and joins at
// a level barrier (AdvanceLevel). Determinism does not come from execution
// order: every cell draws from its own counter-based RNG substream
// (Rng::ForSubstream(seed, q, ℓ)), and every union-size estimation draws from
// a substream keyed by its *content* (purpose, level, P-set). Estimates,
// samples, and per-(q,ℓ) tables are therefore bit-identical for every
// num_threads value, including 1; only scheduling-dependent counters
// (descent-cache hits/misses, appunion_calls) may differ between thread
// counts.
//
// Resumable pipeline (docs/ARCHITECTURE.md "Engine lifecycle & incremental
// extension"): the per-(q,ℓ) table is organized as one LevelState object per
// level, advanced strictly in level order by AdvanceLevel — a step that reads
// only the frozen LevelState below it. Because every random draw is keyed by
// content or by (q, ℓ) coordinates, the sweep can stop after any level and
// resume later (RunToLevel), in another process (checkpoint restore via
// RestoreComputedState), or with different num_threads / batch_width / SIMD
// knobs, and still produce bit-identical tables, estimates, and post-run
// draws to one uninterrupted Run(). EngineSession (fpras/session.hpp) is the
// user-facing wrapper over this contract.
//
// Serve-mode seam (docs/ARCHITECTURE.md "Serve mode"): the post-run draw
// path owns a dedicated scratch bundle (draw_) distinct from the sweep
// workers, and computed_level_ is an atomic, so ONE extending thread
// (RunToLevel) may run concurrently with draw/read threads as long as the
// readers only touch levels the extender has already finished: frozen
// LevelStates are immutable, the descent cache is internally synchronized
// (published entries are immutable), and every estimate is content-keyed,
// so the interleaving is invisible in all results. Callers
// provide the level-visibility fence (the EngineSession read plane publishes
// levels with release/acquire ordering) and must serialize draws among
// themselves (post_attempt_counter_ is a plain cursor); diagnostics() still
// requires quiescence, cache_counters() does not.

#ifndef NFACOUNT_FPRAS_ESTIMATOR_HPP_
#define NFACOUNT_FPRAS_ESTIMATOR_HPP_

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "automata/nfa.hpp"
#include "automata/unrolled.hpp"
#include "counting/union_mc.hpp"
#include "fpras/params.hpp"
#include "fpras/plane.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace nfacount {

/// Counters accumulated over one engine run (all levels).
struct FprasDiagnostics {
  int64_t appunion_calls = 0;   ///< AppUnion invocations (Alg. 1 entries)
  int64_t appunion_trials = 0;  ///< completed AppUnion trials across calls
  /// Membership probes answered. On the batched hot path each trial counts
  /// its full prefix length i (the probes one mask intersection answers);
  /// the legacy loop counts probes until the first hit, so the batched
  /// number is an upper bound of the legacy one on the same run.
  int64_t membership_checks = 0;
  int64_t starvations = 0;      ///< AppUnion Line-8 events
  /// Always 0: there is no union-size memo (the descent cache is the only
  /// sample-path cache). Kept so existing readers of the diagnostics still
  /// compile.
  int64_t memo_hits = 0;
  int64_t memo_misses = 0;
  /// DescentCache probes: exactly one per (walk group, level) step of a
  /// lockstep batch, answered from the cache (hit: sizes and every class
  /// row) or built fresh (miss). Scheduling-dependent (results never move —
  /// the cache holds content-keyed computations); no probes when the cache
  /// is disabled.
  int64_t descent_hits = 0;
  int64_t descent_misses = 0;
  int64_t descent_entries = 0;  ///< admitted (level, frontier) cache entries
  /// Approximate descent-cache footprint: entry structs, keys, sizes, and
  /// the class rows every entry carries.
  int64_t descent_bytes = 0;
  /// Candidate walks launched (Algorithm 2 attempts), counted exactly per
  /// consumed attempt: a lockstep batch may execute speculative walks past
  /// the attempt that fills S(q^ℓ) (or past the accept that satisfies a
  /// draw request), but those surplus walks are discarded unseen and are
  /// NOT counted. Table-building refills and the session draw path
  /// (SampleAcceptedInto's exact mode) therefore match what a sequential
  /// batch_width = 1 run reports for every batch width, thread count, and
  /// kernel table (asserted by tests/test_batch.cpp); WordSampler's bulk
  /// harvests count every attempt through the final batch's last accept,
  /// which agrees across widths whenever its queue has been drained. Only
  /// walk_batches is inherently batch-shaped.
  int64_t sample_calls = 0;
  int64_t sample_success = 0;
  int64_t fail_phi_gt_1 = 0;    ///< Fail1: φ > 1 at the base (Alg. 2 line 5)
  int64_t fail_bernoulli = 0;   ///< Fail2: returned ⊥ at the base (line 6)
  int64_t fail_dead_branch = 0; ///< all sz_b = 0 mid-walk (perturbation echo)
  int64_t padded_words = 0;     ///< Alg. 3 lines 27-30 (SmallS events)
  int64_t perturbed_counts = 0; ///< Alg. 3 line 19 events
  int64_t states_processed = 0; ///< reachable (q, ℓ) copies visited
  int64_t walk_batches = 0;     ///< lockstep plane sweeps launched
  /// Bytes reserved by the per-worker SampleArenas (snapshot at the
  /// diagnostics() call, summed over workers).
  int64_t arena_bytes_reserved = 0;
  /// Arena capacity-growth events since engine construction: flat after the
  /// first batches warm the slabs (the zero-per-sample-allocation contract).
  int64_t arena_alloc_events = 0;
  double wall_seconds = 0.0;    ///< wall-clock time of the Run() call
};

/// Per-(state, level) FPRAS state: the estimate N(q^ℓ) and sample set S(q^ℓ)
/// in flat struct-of-arrays form (two slabs per cell, no per-sample heap
/// vectors — see SampleBlock in automata/unrolled.hpp).
struct StateLevelData {
  double count_estimate = 0.0; ///< N(q^ℓ)
  SampleBlock samples;         ///< S(q^ℓ), count() == ns once filled
};

/// AppUnion input adapter over one predecessor's (S, N) pair. Samples come
/// out of the cell's flat SampleBlock as SampleRef spans; membership of a
/// stored word σ in L(p^{|σ|}) is a bit probe on its reach-profile span, or
/// a full re-simulation when oracle amortization is ablated.
/// owner()/universe() additionally satisfy the AppUnionBatched concept
/// (prefix-mask coverage over the state-id universe). Engine-internal; lives
/// here only so WorkerScratch can hold reusable vectors of it.
struct PredecessorInput {
  const StateLevelData* data;
  StateId state;
  const Nfa* nfa;
  bool amortized;

  double size_estimate() const { return data->count_estimate; }
  int64_t num_samples() const { return data->samples.count(); }
  SampleRef Sample(int64_t idx) const { return data->samples.At(idx); }
  bool Contains(const SampleRef& sample) const {
    if (amortized) return sample.ProfileTest(state);
    return nfa->Reach(sample.ToWord()).Test(state);
  }
  int owner() const { return static_cast<int>(state); }
  size_t universe() const { return static_cast<size_t>(nfa->num_states()); }
  const uint64_t* profile_slab() const {
    return data->samples.profiles_slab().data();
  }
  size_t profile_stride() const { return data->samples.profile_words(); }
};

/// Everything one level of the unrolled DP contributes: the Inv-1 count
/// estimates and Inv-2 sample multisets of every state copy q^ℓ. A
/// LevelState is written exactly once (by the AdvanceLevel step that computes
/// its level, or by a checkpoint restore) and is immutable afterwards —
/// levels above it only read it. This is the unit of checkpoint
/// serialization (fpras/checkpoint.hpp).
struct LevelState {
  int level = -1;                    ///< ℓ, or -1 when not yet computed
  std::vector<StateLevelData> cells; ///< indexed by state id, size m

  /// True once AdvanceLevel (or a restore) has produced this level.
  bool computed() const { return level >= 0; }
};

/// Hit/miss tally of one shared cache as seen by one thread. Only the owning
/// thread writes it — a relaxed load + store, no read-modify-write — and any
/// thread may read it at any time (the serve-mode stats surface sums the
/// tallies of every scratch bundle). The type fills a cache line of its own,
/// so a probe never writes a line another worker touches. Copying takes a
/// relaxed snapshot (scratch bundles are only copied while quiescent).
struct alignas(64) ProbeTally {
  std::atomic<int64_t> hits{0};
  std::atomic<int64_t> misses{0};

  ProbeTally() = default;
  ProbeTally(const ProbeTally& other) { *this = other; }
  ProbeTally& operator=(const ProbeTally& other) {
    hits.store(other.hits.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    misses.store(other.misses.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  /// Counts one probe. Owner thread only.
  void Count(bool hit) {
    std::atomic<int64_t>& counter = hit ? hits : misses;
    counter.store(counter.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  }
};

/// Sharded, capacity-bounded cache of the per-(level, frontier-set) descent
/// work the lockstep sampling plane repeats across refill batches, cells, and
/// post-run draws: the per-symbol-class union-size vector (what Alg. 2 lines
/// 8-11 recompute for every group that reaches the same frontier) and the
/// expanded predecessor row Pred(P, c) of every symbol class (one row covers
/// every member of the class).
///
/// Purity argument (why this never changes a result): UnionSizes draws from a
/// substream keyed by (purpose, level, P-set content) — never from caller
/// state — so recomputation reproduces the cached vector bit for bit; and the
/// predecessor expansion is a pure function of (level, frontier, class) over
/// the fixed unrolled automaton. Estimates, tables, and draw streams are
/// therefore bit-identical with the cache on, off, or at any capacity; only
/// the per-reader hit/miss tallies are scheduling-dependent.
///
/// Entries are immutable: built whole on a miss (sizes plus every class row),
/// published once under the shard lock against a shared budget (a CAS
/// reservation on entries_ — no overshoot under concurrency), and never
/// mutated or freed until Reset(). A published `const Entry*` therefore stays
/// valid without a lock, which is what lets each thread keep a private
/// Reader front table: a hit takes no lock and writes no shared cache line.
/// Each entry is one heap block holding the entry and its three arrays, so a
/// miss costs one allocation (plus the shard map's node).
/// A capacity of 0 disables the cache.
class DescentCache {
 public:
  /// A fixed-length array living inside an entry's block: indexed and
  /// compared like the std::vector it stands for, and assignable from a
  /// vector of the same length (the contents are copied in place). Not
  /// copyable — it does not own its storage.
  template <typename T>
  class Slice {
   public:
    using value_type = T;
    using iterator = T*;
    using const_iterator = const T*;

    Slice(T* data, size_t size) : data_(data), size_(size) {}
    Slice(const Slice&) = delete;
    Slice& operator=(const Slice&) = delete;
    Slice& operator=(const std::vector<T>& values) {
      assert(values.size() == size_);
      std::copy(values.begin(), values.end(), data_);
      return *this;
    }
    operator std::vector<T>() const { return std::vector<T>(begin(), end()); }

    size_t size() const { return size_; }
    T* data() { return data_; }
    const T* data() const { return data_; }
    T& operator[](size_t i) { return data_[i]; }
    const T& operator[](size_t i) const { return data_[i]; }
    const T& back() const { return data_[size_ - 1]; }
    T* begin() { return data_; }
    T* end() { return data_ + size_; }
    const T* begin() const { return data_; }
    const T* end() const { return data_ + size_; }

    friend bool operator==(const Slice& a, const Slice& b) {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }
    friend bool operator==(const Slice& a, const std::vector<T>& b) {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

   private:
    T* data_;
    size_t size_;
  };

  /// One (level, frontier) entry: the frontier words it is keyed by, the
  /// weighted per-class union sizes and their index-order sum, and every
  /// class's predecessor row (class-major, row_words words each). The three
  /// arrays sit in the entry's own block, right behind it (see NewEntry).
  struct Entry {
    Entry(int lvl, uint64_t key_hash, uint64_t* key_words, size_t row_words,
          double* class_sizes, uint64_t* class_rows, size_t symbol_rows)
        : level(lvl),
          hash(key_hash),
          key(key_words, row_words),
          sizes(class_sizes, symbol_rows),
          rows(class_rows, symbol_rows * row_words) {}

    int level;
    uint64_t hash;          ///< KeyHash(level, frontier)
    double total = 0.0;     ///< Σ sizes, summed in index order
    Slice<uint64_t> key;    ///< frontier words
    Slice<double> sizes;    ///< weight_c · sz_c per class
    Slice<uint64_t> rows;   ///< Pred(frontier, rep_c) per class c

    const uint64_t* Row(int symbol_class) const {
      return rows.data() + static_cast<size_t>(symbol_class) * key.size();
    }
    bool Matches(int lvl, const Bitset& set) const {
      return level == lvl && key == set.words();
    }

    /// Frees the whole block (entry and arrays) NewEntry allocated.
    static void operator delete(void* block) { ::operator delete(block); }
  };

  /// A thread's private view of the cache: a read-only front table of
  /// entries it has already found, keyed by hash, plus its own hit/miss
  /// tally. One Reader per thread (it is not synchronized); reset it
  /// whenever its cache is Reset (the pointers it holds die with the
  /// entries).
  class Reader {
   public:
    /// The published entry for (level, set), or nullptr. Checks the front
    /// table first and the owning shard only on a front miss; counts one hit
    /// or miss on tally().
    const Entry* Find(const DescentCache& cache, int level, const Bitset& set);

    /// Remembers an entry this thread published (or lost a publish race to)
    /// so the next Find for its key stays in the front table.
    void Remember(const Entry* entry);

    const ProbeTally& tally() const { return tally_; }

   private:
    const Entry* FrontFind(uint64_t hash) const;

    /// Open-addressed (linear probing) table of entry pointers, indexed by
    /// the entry hash; grows by doubling at half load, so it only ever
    /// holds what this thread has touched.
    std::vector<const Entry*> slots_;
    size_t used_ = 0;
    ProbeTally tally_;
  };

  /// Clears all shards and fixes the geometry: row_words words per frontier
  /// and predecessor row, symbol_rows rows per entry (one per symbol class —
  /// |Σ| under the trivial partition). Capacity caps the number of entries;
  /// 0 disables the cache entirely.
  void Reset(int64_t capacity, size_t row_words, int symbol_rows);

  bool enabled() const { return capacity_ > 0; }

  /// The key hash an entry for (level, set) carries.
  static uint64_t KeyHash(int level, const Bitset& set) {
    return HashCombine(static_cast<uint64_t>(level), set.Hash());
  }

  /// A blank entry for (level, set) in this cache's geometry, allocated as
  /// one block: key and hash filled, sizes and rows zeroed for the builder
  /// to fill.
  std::unique_ptr<Entry> NewEntry(int level, const Bitset& set) const;

  /// Publishes a fully built entry (computing its total) and returns the
  /// entry now cached for its key: `entry` itself — whose ownership then
  /// moves into the cache — or one a concurrent publisher admitted first
  /// (same bits, by purity). Returns nullptr, leaving `entry` with the
  /// caller, when the budget is spent or a different key holds the same
  /// 64-bit hash.
  const Entry* Publish(std::unique_ptr<Entry>& entry);

  /// Visits every published entry (tests and inspection; takes each shard
  /// lock in turn).
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const auto& kv : shard.map) fn(*kv.second);
    }
  }

  int64_t entries() const { return entries_.load(std::memory_order_relaxed); }
  int64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Keyed by the 64-bit entry hash; the entry's stored key is compared
    /// on every probe, so a hash collision costs a miss, never a wrong hit.
    std::unordered_map<uint64_t, std::unique_ptr<Entry>> map;
  };

  static constexpr int kNumShards = 16;

  const Shard& ShardFor(uint64_t hash) const {
    return shards_[static_cast<size_t>(hash % kNumShards)];
  }
  Shard& ShardFor(uint64_t hash) {
    return shards_[static_cast<size_t>(hash % kNumShards)];
  }

  std::array<Shard, kNumShards> shards_;
  int64_t capacity_ = 0;
  size_t row_words_ = 0;
  int symbol_rows_ = 0;
  std::atomic<int64_t> entries_{0};
  std::atomic<int64_t> bytes_{0};
};

/// The FPRAS over a fixed (NFA, horizon n), organized as a resumable
/// level-state pipeline. The classic one-shot entry point is Run(); the
/// incremental surface is Prepare() + RunToLevel(ℓ), which advances the DP
/// one LevelState at a time and may stop and resume anywhere — every query
/// accessor works for any already-computed level, and RestoreComputedState()
/// installs levels recovered from a binary checkpoint. All three paths
/// produce bit-identical tables, estimates, and draws for the same
/// (seed, params) point.
class FprasEngine {
 public:
  /// The NFA must outlive the engine.
  FprasEngine(const Nfa* nfa, FprasParams params, uint64_t seed);

  /// Executes Algorithm 3 over all levels, fanning each level's reachable
  /// cells out over params.num_threads workers (see the concurrency model in
  /// the file comment). Idempotent (re-runs reset state). Equivalent to
  /// Prepare() followed by RunToLevel(horizon()).
  Status Run();

  /// Validates parameters, allocates the per-worker scratch and the level
  /// table, and installs LevelState 0 (Alg. 3 lines 6-10: L(I⁰) = {λ}).
  /// After success computed_level() == 0 and every query accessor is live
  /// for level 0. Idempotent: calling it again resets the pipeline.
  Status Prepare();

  /// Advances the pipeline level by level until `target` is computed
  /// (no-op when target <= computed_level()). Requires Prepare(); target
  /// must be in [0, horizon()] or Status::OutOfRange is returned. Reaching
  /// the horizon finalizes Estimate(). Splitting the sweep across any
  /// sequence of RunToLevel calls — or across a checkpoint save/load — is
  /// invisible in every estimate, table, and draw.
  Status RunToLevel(int target);

  /// Highest level whose LevelState is computed; -1 before Prepare().
  /// Safe to call from reader threads while another thread runs RunToLevel
  /// (acquire-load; pairs with the release store at the end of each
  /// AdvanceLevel, so a reader that observes level ℓ also observes every
  /// byte of levels_[0..ℓ]).
  int computed_level() const {
    return computed_level_.load(std::memory_order_acquire);
  }

  /// The maximum level this engine can compute (params().n): parameter
  /// derivation fixed β, ns, xns for this horizon at construction.
  int horizon() const { return params_.n; }

  /// Final estimate of |L(A_n)| (AppUnion over accepting states if |F| > 1).
  /// 0.0 until the horizon level has been computed.
  double Estimate() const { return final_estimate_; }

  /// Estimate of |L(A_ℓ)| for any computed ℓ: the DP maintains AccurateN at
  /// every level, so per-length counts come for free (each carries the same
  /// per-level (1±β)^ℓ ⊆ (1±ε) envelope). `level` must be in
  /// [0, computed_level()] — violations abort via NFA_CHECK instead of
  /// reading out of bounds.
  double EstimateAtLength(int level);

  /// N(q^ℓ); 0 for unreachable copies. The level must be computed; q and
  /// level are range-checked (NFA_CHECK).
  double CountEstimateFor(StateId q, int level) const;

  /// S(q^ℓ) materialized as StoredSamples (empty for unreachable copies) —
  /// the invariant-test / inspection view of the flat block. The level must
  /// be computed; q and level are range-checked (NFA_CHECK).
  std::vector<StoredSample> SamplesFor(StateId q, int level) const;

  /// S(q^ℓ) in its native flat form (what the hot path reads). Same
  /// preconditions as SamplesFor.
  const SampleBlock& SampleBlockFor(StateId q, int level) const;

  /// The whole computed LevelState of one level (checkpoint serialization
  /// and structural tests). Same preconditions as SamplesFor.
  const LevelState& LevelStateAt(int level) const;

  /// Installs externally recovered levels 0..computed_level (checkpoint
  /// load): levels[ℓ] must hold exactly m cells whose SampleBlocks carry
  /// word length ℓ and this automaton's profile stride, and `draw_cursor`
  /// restores the post-run attempt counter so resumed draw streams continue
  /// where the saved session stopped. Requires a successful Prepare();
  /// validation failures leave the engine prepared-at-level-0.
  Status RestoreComputedState(int computed_level,
                              std::vector<LevelState> levels,
                              int64_t draw_cursor);

  /// Next post-run sampling attempt id (the "RNG cursor" of the draw
  /// streams): checkpoint state, advanced by SampleWord/SampleAcceptedInto.
  int64_t draw_cursor() const { return post_attempt_counter_; }

  /// Draws one word almost-uniformly from ∪_{q ∈ targets} L(q^level) using
  /// Algorithm 2 against the tables built by Run(); nullopt = rejection
  /// (caller retries; Theorem 2(2) bounds the rejection rate). Consumes one
  /// attempt of the counter-keyed post-run stream.
  std::optional<Word> SampleWord(const Bitset& targets, int level);

  /// Batched post-run draws: launches candidate walks in lockstep batches of
  /// the engine's batch width until at least `min_accepts` walks accept (or
  /// `max_attempts` walks have been tried), appending accepted words to
  /// `out` in attempt order. Returns the number appended. Because each
  /// attempt draws from its own counter-keyed substream, the appended
  /// sequence is bit-identical for every batch width, thread count, and
  /// kernel table. Two consumption modes govern what happens to the tail of
  /// the final batch:
  ///
  /// - bulk (`consume_exact` false, the default): every accepted walk of
  ///   every executed batch is appended (possibly more than `min_accepts`)
  ///   and the draw cursor advances past all executed attempts. Callers
  ///   that queue the surplus and serve it in order (WordSampler) keep a
  ///   width-invariant draw stream while amortizing one union estimate
  ///   over many draws.
  /// - exact (`consume_exact` true): appending stops at the accept that
  ///   satisfies `min_accepts`, and the cursor, the attempt budget, and the
  ///   per-walk diagnostics advance only through that attempt — exactly a
  ///   sequential batch_width = 1 run. Speculative later walks are
  ///   discarded unseen and will be re-derived bit-identically if a later
  ///   call reaches their attempt ids, so the draw stream is invariant
  ///   across batch widths even for arbitrary call/length interleavings
  ///   (the EngineSession contract).
  ///
  /// Same preconditions as SampleWord.
  int64_t SampleAcceptedInto(const Bitset& targets, int level,
                             int64_t max_attempts, int64_t min_accepts,
                             std::vector<Word>* out,
                             bool consume_exact = false);

  /// Convenience: almost-uniform word from L(A_n) (accepting states at n).
  std::optional<Word> SampleAcceptedWord();

  const FprasParams& params() const { return params_; }

  /// Merged snapshot of the per-worker counters and cache tallies;
  /// includes post-Run() sampling activity.
  const FprasDiagnostics& diagnostics() const;

  const UnrolledNfa& unrolled() const { return unrolled_; }

  /// The shared descent cache (entry inspection in tests).
  const DescentCache& descent_cache() const { return descent_; }

  /// Snapshot of the descent-cache counters: the per-scratch hit/miss
  /// tallies summed, plus the cache's entry and byte totals. Unlike
  /// diagnostics(), this reads only atomics and is safe to call from any
  /// thread at any time — it is the serve-mode stats surface.
  /// Each field only grows between Prepare() calls.
  struct CacheCounters {
    int64_t descent_hits = 0;    ///< DescentCache hits, one per walk step
    int64_t descent_misses = 0;  ///< DescentCache misses, one per walk step
    int64_t descent_entries = 0; ///< admitted DescentCache entries
    int64_t descent_bytes = 0;   ///< approximate DescentCache footprint
  };

  /// Thread-safe cache-counter snapshot (see CacheCounters).
  CacheCounters cache_counters() const;

  /// Approximate bytes held live by the computed LevelStates (the flat
  /// sample slabs plus the cell array itself). Reads only levels that are
  /// already published by computed_level(), so it is safe concurrently with
  /// an extending RunToLevel — the number trails by at most the level in
  /// flight. Serve-mode eviction budgets are fed from this.
  int64_t ApproxTableBytes() const;

 private:
  /// Per-worker scratch bundle: everything a cell computation mutates other
  /// than its own levels_[ℓ].cells[q] slot. One instance per ThreadPool worker slot
  /// keeps the hot path allocation-free and race-free under concurrency.
  struct WorkerScratch {
    Bitset pred_scratch;          ///< PredSetInto target (UnionSizes)
    Bitset target_scratch;        ///< singleton {q} for RefillSamples
    AppUnionScratch union_scratch;///< batched-membership + draw-table scratch
    /// AppUnion input adapters, rebuilt per estimation but never reallocated
    /// once warm (capacity persists across UnionSizesInto calls).
    std::vector<PredecessorInput> union_inputs;
    std::vector<const PredecessorInput*> union_ptrs;
    SampleArena arena;            ///< lockstep walk batch slab (plane.hpp)
    FprasDiagnostics diag;        ///< merged into diagnostics() on demand
    /// This bundle's descent-cache front table and hit/miss tally.
    DescentCache::Reader descent;
  };

  /// Which substream family a union-size estimation draws from. The count
  /// path (Alg. 3 line 15) and the sample path (Alg. 2 lines 8-11) use
  /// distinct δ parameters and must not share randomness; only the sample
  /// path is cached (DescentCache).
  enum class UnionPurpose { kCount, kSample };

  /// The per-symbol-class decomposition of ∪_{q∈P} L(q^level) (Alg. 2 lines
  /// 8-11 compressed over the symbol partition): sizes[c] = weight_c · sz_c,
  /// where sz_c is one AppUnion estimate of the class's shared predecessor
  /// slice — every member of a class has the same Pred(P, b), so one PredSet
  /// expansion and one AppUnion cover weight_c symbols and Σ_c sizes[c] is the
  /// full per-symbol total. Runs with parameters (β, delta_param) and writes
  /// sizes[0..C), C the class count. Each class draws from a substream keyed
  /// by (purpose, level, predecessor-set content), so the result is a
  /// deterministic function of the engine seed and the arguments —
  /// independent of caller, thread, and cache state — and classes that share
  /// a predecessor set share the draws (duplicate content costs no fresh
  /// randomness). When `rows` is non-null it also receives every class's
  /// predecessor row Pred(state_set, rep_c) (class-major, ⌈m/64⌉ words
  /// each) — the expansions the estimation performs anyway.
  void UnionSizesInto(int level, const Bitset& state_set, double delta_param,
                      UnionPurpose purpose, WorkerScratch& ws, double* sizes,
                      uint64_t* rows = nullptr);

  /// One descent-cache probe for a walk group at (level, frontier): the
  /// published entry, built and published here on a miss. nullptr when the
  /// built entry could not be admitted (budget spent); its sizes then land
  /// in *unpublished_sizes and the caller expands the drawn classes itself.
  const DescentCache::Entry* DescentEntry(
      int level, const Bitset& frontier, double delta_union,
      WorkerScratch& ws, std::vector<double>* unpublished_sizes);

  /// Algorithm 2 over a lockstep batch: advances `count` candidate walks
  /// (attempt ids first_attempt..first_attempt+count) down the levels on the
  /// worker's FrontierPlane, group-sharing union-size estimations and
  /// predecessor expansions between walks with identical symbol histories,
  /// and applies the base-case accept/reject per walk. Walk j draws only
  /// from Rng::ForSubstream(seed, walk_key, first_attempt + j), which is
  /// what makes results invariant to the batch width. Accepted walk ids land
  /// in ws.arena.accepted in attempt order.
  void RunWalkBatch(int level, const Bitset& state_set, double phi0,
                    uint64_t walk_key, int64_t first_attempt, int count,
                    WorkerScratch& ws);

  /// Fused reach-profile pass: computes the profile of accepted walk `w`
  /// (in ws.arena) forward over the plane scratch — MakeSample never
  /// re-simulates a word on this path — and appends (word, profile) to
  /// `block`.
  void AppendAcceptedWalk(int level, int walk, WorkerScratch& ws,
                          SampleBlock* block);

  /// Folds the outcomes of the first `consumed` walks of the last
  /// RunWalkBatch into ws.diag (sample_calls, sample_success, fail_*).
  /// Callers pass exactly the attempts a sequential batch_width = 1 run
  /// would have executed, which is what makes the per-walk counters
  /// batch-width-exact (see FprasDiagnostics::sample_calls).
  void ConsumeWalkDiagnostics(int consumed, WorkerScratch& ws);

  /// Refills S(q^ℓ) with up to xns lockstep attempts, padding to ns
  /// (Alg. 3 lines 20-30).
  void RefillSamples(StateId q, int level, WorkerScratch& ws);

  /// One (q, ℓ) cell of Algorithm 3 (lines 12-30): count union, perturbation
  /// branch, sample refill. Reads only level ℓ−1 tables; writes only
  /// levels_[ℓ].cells[q] and `ws`.
  void ProcessCell(StateId q, int level, WorkerScratch& ws);

  /// One pipeline step: computes LevelState computed_level_+1 by fanning its
  /// reachable cells over the pool and joining (the level barrier), reading
  /// only the frozen LevelState below, then advances the cursor. Reaching
  /// the horizon finalizes final_estimate_.
  Status AdvanceLevel(ThreadPool& pool);

  double PerturbedCount(int level, Rng& rng);

  /// |∪_{q ∈ targets∩reachable(level)} L(q^level)| estimate: N for a
  /// singleton, AppUnion over the members otherwise (drawn from the
  /// content-keyed final-union substream, so repeated calls agree —
  /// regardless of which scratch bundle `ws` the caller lends).
  double EstimateUnionOfStates(const Bitset& targets, int level,
                               WorkerScratch& ws);

  const Nfa* nfa_;
  FprasParams params_;
  UnrolledNfa unrolled_;
  uint64_t seed_;
  /// Next post-run attempt id: every SampleWord/SampleAcceptedInto attempt
  /// draws from Rng::ForSubstream(seed, draw-tag, counter++), so the draw
  /// sequence depends only on how many attempts ran before — not on batch
  /// width, thread count, or kernel table.
  int64_t post_attempt_counter_ = 0;
  /// Kernel table the sampling plane uses (params.simd_kernels selects
  /// scalar vs the runtime-dispatched table; set by Run()).
  const simd::BitsetKernels* kernels_ = nullptr;
  int batch_width_ = FprasParams::kDefaultBatchWidth;  ///< resolved by Run()
  /// Worker slot scratch; workers_[i] is owned by pool worker slot i during
  /// AdvanceLevel, and workers_[0] serves the sequential query accessors
  /// (EstimateAtLength and friends) between sweeps.
  std::vector<WorkerScratch> workers_;
  /// Dedicated scratch for the post-run draw path (SampleWord /
  /// SampleAcceptedInto): draws never share scratch with the sweep workers,
  /// so serve-mode readers may draw against published levels while one
  /// writer thread runs AdvanceLevel above them (see the "Serve-mode seam"
  /// file comment).
  WorkerScratch draw_;
  /// Lazily-created level-sweep pool, reused across every RunToLevel call of
  /// one prepared run (incremental extensions must not respawn threads per
  /// step). Reset by Prepare(); idle (condition-wait) between sweeps.
  std::unique_ptr<ThreadPool> pool_;
  /// The pipeline: levels_[ℓ] is frozen once computed (ℓ <= computed_level_).
  /// Pre-sized to horizon()+1 by Prepare(), so extension never reallocates —
  /// concurrent readers of frozen levels hold stable pointers.
  std::vector<LevelState> levels_;
  /// Highest computed level; -1 until Prepare() installs level 0. Atomic so
  /// serve-mode readers can poll it against a concurrently extending writer;
  /// AdvanceLevel stores with release ordering after freezing the level.
  std::atomic<int> computed_level_{-1};
  /// Cross-batch descent cache (sizes + every class's predecessor row per
  /// (level, frontier)), shared across workers; each scratch bundle reads it
  /// through its own DescentCache::Reader. Reset by Prepare() from
  /// params_.descent_cache_capacity.
  DescentCache descent_;
  double final_estimate_ = 0.0;
  double run_wall_seconds_ = 0.0;
  mutable FprasDiagnostics diag_;  ///< diagnostics() merge target
  bool prepared_ = false;  ///< Prepare() succeeded (accessor precondition)
};

// ---------------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------------

/// User-facing options for ApproxCount.
struct CountOptions {
  double eps = 0.2;    ///< multiplicative accuracy ε of the estimate
  double delta = 0.1;  ///< failure probability δ
  Schedule schedule = Schedule::kFaster;  ///< sample-budget schedule to run
  /// Practical() by default: the faithful worst-case constants are
  /// infeasible on any hardware (see `Calibration` in params.hpp) — opt in
  /// via Faithful().
  Calibration calibration = Calibration::Practical();
  uint64_t seed = 0x5eedf00dULL;  ///< seed of the whole randomized run
  bool perturb_support = true;  ///< see FprasParams::perturb_support
  bool amortize_oracle = true;  ///< see FprasParams::amortize_oracle
  bool recycle_samples = true;  ///< see FprasParams::recycle_samples
  /// Level-sweep worker threads (1 = sequential, 0 = all hardware threads).
  /// Bit-identical results for every value; see FprasParams::num_threads.
  int num_threads = 1;
  /// Lockstep candidate-walk batch width (0 = built-in default). Bit-
  /// identical results for every value; see FprasParams::batch_width.
  int batch_width = 0;
  /// SIMD kernel table for the sampling plane (false = scalar). Bit-
  /// identical results either way; see FprasParams::simd_kernels.
  bool simd_kernels = true;
  /// Cross-batch descent-cache entry budget (0 disables the cache, -1 = use
  /// the built-in default). Bit-identical results at every value; 0 is the
  /// uncached ablation. See FprasParams::descent_cache_capacity.
  int64_t descent_cache_capacity = -1;
  /// Symbol-class alphabet compression: collapse symbols with identical
  /// transition rows and run the per-symbol hot loops per class. Same (ε, δ)
  /// envelope either way, but the two settings draw from different RNG
  /// substreams (results at a fixed setting stay bit-identical across every
  /// other knob); see FprasParams::symbol_classes.
  bool symbol_classes = true;
};

/// Copies the CountOptions behavior flags and runtime knobs onto params
/// derived by FprasParams::Make (every facade that takes CountOptions).
void ApplyOptionFlags(const CountOptions& options, FprasParams* params);

/// Result of ApproxCount.
struct CountEstimate {
  double estimate = 0.0;        ///< ≈ |L(A_n)| within (1±ε) w.p. ≥ 1−δ
  FprasParams params;           ///< fully derived parameters of the run
  FprasDiagnostics diagnostics; ///< counters accumulated over the run
};

/// The headline API: (ε,δ)-approximation of |L(A_n)| (Theorem 3).
Result<CountEstimate> ApproxCount(const Nfa& nfa, int n,
                                  const CountOptions& options = CountOptions());

/// Estimates |L(A_ℓ)| for every ℓ in 0..n from a single FPRAS run (index ℓ
/// of the result holds the length-ℓ estimate). One engine execution: the
/// level-by-level dynamic program computes all slices on the way to n, so
/// this costs the same as ApproxCount(nfa, n) plus n cheap union estimates.
Result<std::vector<double>> ApproxCountAllLengths(
    const Nfa& nfa, int n, const CountOptions& options = CountOptions());

}  // namespace nfacount

#endif  // NFACOUNT_FPRAS_ESTIMATOR_HPP_
