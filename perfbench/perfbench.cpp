// perfbench — the repository benchmark. One binary, two workloads, each a
// full user flow over the public library surface: parse the automaton text,
// create an EngineSession, sweep to the count length and count, save and
// load a checkpoint, draw words from the resumed session, and serve a query
// mix through an in-process ServeDaemon. The workloads differ in the
// automaton and in how the measuring time is shared between the phases, so
// each one puts a different layer on the critical path (see README.md).
//
//   perfbench --workload <e3-count|corpus-session> --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--git-sha SHA]
//             [--smoke]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs untraced and
// traced passes of the flow, prints the per-layer ledger table, and prints
// the per-layer metrics. The last stdout line is always one JSON object
// {"correct", "attempted", "failed", "metrics"}. Every estimate is checked
// against ExactCountViaDfa, every resumed draw against the uninterrupted
// session, and every serve reply against a single-threaded reference
// session; a failed check counts as a failed operation.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "automata/generators.hpp"
#include "automata/io.hpp"
#include "counting/exact.hpp"
#include "fpras/checkpoint.hpp"
#include "fpras/session.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve_mix.hpp"
#include "util/json.hpp"
#include "util/simd.hpp"
#include "util/wire.hpp"

namespace perfbench {
namespace {

using namespace nfacount;  // NOLINT(build/namespaces)

constexpr char kSession[] = "bench";

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Shares of --seconds spent in each measured phase, and the fixed amounts
/// of work one ledger pass does.
struct Spec {
  std::string name;
  int n = 0;                 ///< count length = session horizon
  double setup_share = 0.0;  ///< the phase shares sum to 1
  double count_share = 0.0;
  double resume_share = 0.0;  ///< Save + Load, then draws
  double serve_share = 0.0;
  int64_t ledger_draws = 0;     ///< words drawn in one ledger pass
  int64_t ledger_requests = 0;  ///< serve requests in one ledger pass
};

constexpr double kEps = 0.3;
constexpr double kDelta = 0.2;
constexpr int kThreads = 4;
constexpr int kServeWorkers = 2;
constexpr int64_t kDrawChunk = 256;   ///< words per SampleWords call
constexpr int64_t kResumeChunks = 16;     ///< chunks drawn per resumed session
constexpr double kSliceSeconds = 0.25;    ///< one repetition of the mix
constexpr int kLedgerLevels = 10;  ///< levels reported one by one

bool MakeSpec(const std::string& workload, bool smoke, Spec* spec) {
  if (workload == "e3-count") {
    *spec = {workload, 10, 0.05, 0.55, 0.15, 0.25, 4096, 20000};
  } else if (workload == "corpus-session") {
    *spec = {workload, 16, 0.15, 0.40, 0.10, 0.35, 65536, 20000};
  } else {
    return false;
  }
  if (smoke) {
    spec->n = kLedgerLevels;
    spec->ledger_draws = 512;
    spec->ledger_requests = 4000;
  }
  return true;
}

/// Seed of the benchmark instances and of their engine runs: the E3
/// family's generator seed, as in the repository's bench drivers.
constexpr uint64_t kInstanceSeed = 2024;

/// The workload's automaton: one fixed instance per workload. --seed drives
/// the serve request stream only. A fresh engine stream per seed would
/// re-roll every estimate, and at δ = 0.2 a correct FPRAS may miss the
/// (1±ε) envelope the runs are checked against (see README.md).
Nfa MakeAutomaton(const std::string& workload, bool smoke) {
  Rng family(kInstanceSeed);
  if (workload == "e3-count") return RandomNfa(smoke ? 12 : 128, 0.3, 0.25, family);
  return smoke ? CorpusTokenNfa(4, 64, 4) : CorpusTokenNfa(10, 1 << 14, 10);
}

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Since(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// CPU time of the whole process (every thread, user and system). Time the
/// hypervisor steals from a virtual CPU is not charged to it.
double CpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t HashWords(const std::vector<Word>& words) {
  uint64_t h = 1469598103934665603ULL;
  for (const Word& w : words) {
    for (Symbol s : w) h = (h ^ s) * 1099511628211ULL;
    h = (h ^ 0xffffu) * 1099511628211ULL;
  }
  return h;
}

/// The number after the last key of `path` in a JSON text (the daemon's
/// Stats reply), each key searched after the previous one; NaN when absent.
double JsonNumber(const std::string& json,
                  const std::vector<std::string>& path) {
  size_t at = 0;
  for (const std::string& key : path) {
    at = json.find("\"" + key + "\":", at);
    if (at == std::string::npos) return NAN;
    at += key.size() + 3;
  }
  return std::strtod(json.c_str() + at, nullptr);
}

/// Operations attempted and failed; a failed check is a failed operation.
struct Checks {
  int64_t attempted = 0;
  int64_t failed = 0;

  bool Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
    return ok;
  }
  void Add(int64_t n_attempted, int64_t n_failed, const std::string& what) {
    attempted += n_attempted;
    failed += n_failed;
    if (n_failed > 0) {
      std::fprintf(stderr, "perfbench: %lld of %lld %s failed\n",
                   static_cast<long long>(n_failed),
                   static_cast<long long>(n_attempted), what.c_str());
    }
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---------------------------------------------------------------------------
// The flow's building blocks
// ---------------------------------------------------------------------------

struct Inputs {
  Spec spec;
  std::string text;   ///< the automaton as handed to the program
  Nfa nfa;            ///< parsed once for the count phase and the reference
  CountOptions options;
  double exact = 0.0; ///< |L(A_n)| from ExactCountViaDfa
  std::string ckpt_path;
  MixSpec mix;
};

bool InEnvelope(const Inputs& in, double estimate) {
  return std::fabs(estimate - in.exact) <= kEps * in.exact;
}

SessionKnobs Knobs(int threads) {
  SessionKnobs knobs;
  knobs.num_threads = threads;
  return knobs;
}

/// Create → ExtendTo(n) → CountAtLength(n); the time is count_s.
struct Counted {
  std::unique_ptr<EngineSession> session;
  double seconds = 0.0;
};

Counted CountFlow(const Inputs& in, int threads, Checks* checks) {
  Counted out;
  CountOptions options = in.options;
  options.num_threads = threads;
  const int64_t t0 = NowNs();
  Result<EngineSession> session =
      EngineSession::Create(in.nfa, in.spec.n, options);
  if (!checks->Op(session.ok(), "Create: " + session.status().ToString())) {
    return out;
  }
  out.session = std::make_unique<EngineSession>(std::move(session).value());
  Status extended = out.session->ExtendTo(in.spec.n);
  Result<double> estimate = out.session->CountAtLength(in.spec.n);
  out.seconds = Since(t0);
  if (checks->Op(extended.ok() && estimate.ok(), "sweep and count")) {
    checks->Op(InEnvelope(in, *estimate),
               "estimate " + std::to_string(*estimate) + " outside (1±ε)·" +
                   std::to_string(in.exact));
  }
  return out;
}

/// Draws `chunks` chunks of kDrawChunk words, recording one hash per chunk.
std::vector<uint64_t> DrawChunks(EngineSession* session, int n, int64_t chunks,
                                 Checks* checks) {
  std::vector<uint64_t> hashes;
  for (int64_t i = 0; i < chunks; ++i) {
    Result<std::vector<Word>> words = session->SampleWords(n, kDrawChunk);
    if (!checks->Op(words.ok(), "SampleWords: " + words.status().ToString())) {
      hashes.push_back(0);
      continue;
    }
    hashes.push_back(HashWords(*words));
  }
  return hashes;
}

/// Draws from resumed sessions must equal the uninterrupted session's, chunk
/// for chunk: every one of `rounds` started at the same draw cursor.
void CheckResumedDraws(EngineSession* uninterrupted, int n,
                       const std::vector<std::vector<uint64_t>>& rounds,
                       Checks* checks) {
  size_t longest = 0;
  for (const auto& round : rounds) longest = std::max(longest, round.size());
  Checks scratch;
  const std::vector<uint64_t> want = DrawChunks(
      uninterrupted, n, static_cast<int64_t>(longest), &scratch);
  for (const auto& round : rounds) {
    int64_t differ = scratch.failed;
    for (size_t i = 0; i < round.size(); ++i) differ += want[i] != round[i];
    checks->Add(static_cast<int64_t>(round.size()), differ,
                "resumed draw chunks identical to the uninterrupted session");
  }
}

/// A registry and the daemon serving it. The daemon borrows the registry,
/// so it is stopped and destroyed first.
struct Server {
  Server() {
    serve::RegistryOptions registry_options;
    registry_options.knobs = Knobs(kThreads);
    registry =
        std::make_unique<serve::SessionRegistry>(std::move(registry_options));
    serve::ServerOptions options;
    options.workers = kServeWorkers;
    daemon = std::make_unique<serve::ServeDaemon>(registry.get(), options);
  }
  ~Server() { daemon.reset(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::unique_ptr<serve::SessionRegistry> registry;
  std::unique_ptr<serve::ServeDaemon> daemon;
};

/// A started daemon, or the failure.
Result<std::unique_ptr<Server>> StartServer() {
  auto server = std::make_unique<Server>();
  NFA_RETURN_NOT_OK(server->daemon->Start());
  return server;
}

/// Daemon start + Register + ExtendTo(n): the daemon serves warm tables.
Result<std::unique_ptr<Server>> StartWarmServer(const Inputs& in) {
  Result<std::unique_ptr<Server>> server = StartServer();
  if (!server.ok()) return server;
  serve::SessionRegistry& registry = *(*server)->registry;
  NFA_RETURN_NOT_OK(registry.Register(kSession, in.text, in.spec.n,
                                      in.options.seed, kEps, kDelta));
  NFA_RETURN_NOT_OK(registry.ExtendTo(kSession, in.spec.n).status());
  return server;
}

/// Loads the checkpoint single-threaded: the serve phase's reference.
std::unique_ptr<EngineSession> LoadReference(const Inputs& in, Checks* checks) {
  const SessionKnobs knobs = Knobs(1);
  Result<EngineSession> loaded = EngineSession::Load(in.ckpt_path, &knobs);
  if (!checks->Op(loaded.ok(), "reference Load")) return nullptr;
  return std::make_unique<EngineSession>(std::move(loaded).value());
}

/// Checks every reply of a finished mix against the reference session.
void CheckMix(const Inputs& in, const MixResult& mix, Checks* checks) {
  checks->Add(mix.attempted, mix.failed, "serve requests");
  std::unique_ptr<EngineSession> reference = LoadReference(in, checks);
  if (!reference) return;
  checks->Add(static_cast<int64_t>(mix.samples.size()),
              VerifySamples(reference.get(), in.mix, mix.samples),
              "sample replies identical to the reference draw stream");
}

// ---------------------------------------------------------------------------
// --trace 0: time-boxed phases, end-to-end metrics
// ---------------------------------------------------------------------------

/// One measured phase of the end-to-end run: `rep` runs one repetition and
/// returns the seconds it measured.
struct Phase {
  Phase(const char* phase_name, double share_of_run, size_t min_repetitions,
        std::function<double()> repetition)
      : name(phase_name),
        share(share_of_run),
        min_reps(min_repetitions),
        rep(std::move(repetition)) {}

  const char* name;
  double share;  ///< of --seconds
  size_t min_reps;
  std::function<double()> rep;
  std::vector<double> times;  ///< measured repetitions, warm-up excluded
  double spent = 0.0;         ///< wall time of the measured repetitions
};

/// Runs one untimed warm-up repetition of every phase, in order (the first
/// sweep after idle runs about twice as long as the ones after it), then
/// interleaves repetitions, always picking the phase furthest behind its
/// share, until `seconds` have passed and every phase has its minimum.
/// Interleaving spreads each phase over the whole run, so a slow spell of
/// the host (CPU steal, a noisy neighbour's memory traffic) touches a few
/// repetitions of every phase rather than all of one.
void RunPhases(const std::vector<Phase*>& phases, double seconds) {
  for (Phase* p : phases) p->rep();
  const int64_t start = NowNs();
  for (;;) {
    const bool timed_out = Since(start) >= seconds;
    Phase* next = nullptr;
    for (Phase* p : phases) {
      if (timed_out && p->times.size() >= p->min_reps) continue;
      if (next == nullptr ||
          p->spent / p->share < next->spent / next->share) {
        next = p;
      }
    }
    if (next == nullptr) return;
    const int64_t t0 = NowNs();
    next->times.push_back(next->rep());
    next->spent += Since(t0);
  }
}

std::vector<Metric> RunEndToEnd(const Inputs& in, double seconds,
                                Checks* checks) {
  const Spec& spec = in.spec;
  // The serving daemon stays up for the whole run.
  Result<std::unique_ptr<Server>> serving = StartWarmServer(in);
  if (!checks->Op(serving.ok(),
                  "daemon setup: " + serving.status().ToString())) {
    return {};
  }
  Server& server = **serving;

  // Set-up repetitions keep what they built until the clock stops, so that
  // teardown is not timed.
  Phase setup("setup", spec.setup_share, 5, [&] {
    const int64_t t0 = NowNs();
    Result<Nfa> parsed = ParseNfaText(in.text);
    Result<EngineSession> created =
        parsed.ok() ? EngineSession::Create(*parsed, spec.n, in.options)
                    : Result<EngineSession>(parsed.status());
    const double s = Since(t0);
    checks->Op(created.ok(), "parse + Create: " + created.status().ToString());
    return s;
  });

  Counted last;
  Phase count("count", spec.count_share, 5, [&] {
    last = CountFlow(in, kThreads, checks);
    return last.seconds;
  });

  // Resume: Save + Load (resume_s), then kResumeChunks chunks drawn from the
  // resumed session. Each repetition starts at the same draw cursor, so its
  // words must equal the uninterrupted session's. The draw rate swings with
  // the host's load by more than any bound allows, so it is reported by the
  // traced run (fpras.draws_per_s) only.
  const SessionKnobs knobs = Knobs(kThreads);
  std::vector<std::vector<uint64_t>> drawn;
  Phase resume("resume", spec.resume_share, 5, [&] {
    if (!last.session) return 0.0;
    const int64_t t0 = NowNs();
    Status saved = last.session->Save(in.ckpt_path);
    Result<EngineSession> loaded =
        saved.ok() ? EngineSession::Load(in.ckpt_path, &knobs)
                   : Result<EngineSession>(saved);
    const double s = Since(t0);
    if (checks->Op(loaded.ok(), "Save + Load: " + loaded.status().ToString())) {
      drawn.push_back(DrawChunks(&*loaded, spec.n, kResumeChunks, checks));
    }
    return s;
  });

  // Serve: slices of the mix against the serving daemon; serve_cpu_us is the
  // process CPU time (client and daemon threads) per answered request. The
  // reference replies come from the checkpoint the resume phase wrote, which
  // runs first.
  std::unique_ptr<MixReference> want;
  std::vector<double> cpu_per_reply;
  std::vector<double> qps;
  std::vector<double> count_p50;
  std::vector<double> count_p99;
  std::vector<SampleReply> samples;
  Phase serve("serve", spec.serve_share, 5, [&] {
    if (!want) {
      std::unique_ptr<EngineSession> reference = LoadReference(in, checks);
      Result<MixReference> built =
          reference ? BuildMixReference(reference.get(), in.mix)
                    : Result<MixReference>(Status::Internal("no reference"));
      if (!checks->Op(built.ok(), "mix reference")) return 0.0;
      want = std::make_unique<MixReference>(std::move(built).value());
    }
    const double cpu0 = CpuSeconds();
    const MixResult mix =
        RunMix(server.daemon->port(), in.mix, *want, kSliceSeconds, 0);
    const double replies = static_cast<double>(std::max<int64_t>(mix.replies, 1));
    cpu_per_reply.push_back((CpuSeconds() - cpu0) * 1e6 / replies);
    qps.push_back(replies / mix.seconds);
    count_p50.push_back(mix.count_p50_us);
    count_p99.push_back(mix.count_p99_us);
    checks->Add(mix.attempted, mix.failed, "serve requests");
    samples.insert(samples.end(), mix.samples.begin(), mix.samples.end());
    return mix.seconds;
  });

  RunPhases({&setup, &count, &resume, &serve}, seconds);
  server.daemon->Stop();
  if (!last.session || !want) return {};
  CheckResumedDraws(last.session.get(), spec.n, drawn, checks);
  std::unique_ptr<EngineSession> reference = LoadReference(in, checks);
  if (reference) {
    checks->Add(static_cast<int64_t>(samples.size()),
                VerifySamples(reference.get(), in.mix, samples),
                "sample replies identical to the reference draw stream");
  }

  for (const Phase* p : {&setup, &count, &resume, &serve}) {
    std::printf("# phase %-6s %4zu repetitions, median %.6f s, fastest %.6f s\n",
                p->name, p->times.size(), Median(p->times),
                *std::min_element(p->times.begin(), p->times.end()));
  }
  std::printf("# serve slices (medians): %.0f qps, count p50 %.1f us, count "
              "p99 %.1f us; %zu sample replies\n",
              Median(qps), Median(count_p50), Median(count_p99),
              samples.size());
  return {
      {"setup_s", Median(setup.times), "s"},
      {"count_s", Median(count.times), "s"},
      {"resume_s", Median(resume.times), "s"},
      {"serve_cpu_us", Median(cpu_per_reply), "us"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
}

// ---------------------------------------------------------------------------
// --trace 1: the ledger
// ---------------------------------------------------------------------------

/// One pass of the whole flow with fixed amounts of work. Traced passes time
/// every call into the library (one ExtendTo per level); untraced passes
/// time only the whole.
struct Pass {
  std::vector<std::pair<std::string, double>> rows;
  double total = 0.0;
  FprasDiagnostics sweep;  ///< the session's counters after the count
  int symbol_classes = 0;
  std::string stats;       ///< the daemon's Stats reply after the mix
  MixResult mix;
  std::unique_ptr<Server> server;  ///< stopped daemon; registry kept
};

Pass RunPass(const Inputs& in, const MixReference& want, bool traced,
             Checks* checks) {
  const Spec& spec = in.spec;
  Pass pass;
  int64_t mark = NowNs();
  const int64_t start = mark;
  auto row = [&](const std::string& name) {
    if (!traced) return;
    const int64_t now = NowNs();
    pass.rows.emplace_back(name, static_cast<double>(now - mark) * 1e-9);
    mark = NowNs();
  };

  Result<Nfa> parsed = ParseNfaText(in.text);
  row("automata.parse");
  if (!checks->Op(parsed.ok(), "parse")) return pass;
  CountOptions options = in.options;
  options.num_threads = kThreads;
  Result<EngineSession> created = EngineSession::Create(*parsed, spec.n, options);
  row("fpras.create");
  if (!checks->Op(created.ok(), "Create")) return pass;
  EngineSession session = std::move(created).value();
  if (traced) {
    for (int level = 1; level <= spec.n; ++level) {
      checks->Op(session.ExtendTo(level).ok(), "ExtendTo");
      row("fpras.level." + std::to_string(level));
    }
  } else {
    checks->Op(session.ExtendTo(spec.n).ok(), "ExtendTo");
  }
  Result<double> estimate = session.CountAtLength(spec.n);
  row("fpras.count");
  Status saved = session.Save(in.ckpt_path);
  row("checkpoint.save");
  const SessionKnobs knobs = Knobs(kThreads);
  Result<EngineSession> loaded = EngineSession::Load(in.ckpt_path, &knobs);
  row("checkpoint.load");
  std::vector<uint64_t> drawn;
  if (loaded.ok()) {
    drawn = DrawChunks(&*loaded, spec.n, spec.ledger_draws / kDrawChunk,
                       checks);
  }
  row("fpras.draws");
  Result<std::unique_ptr<Server>> started = StartServer();
  row("serve.start");
  Status served = started.status();
  if (served.ok()) {
    pass.server = std::move(started).value();
    served = pass.server->registry->Register(kSession, in.text, spec.n,
                                             in.options.seed, kEps, kDelta);
  }
  row("serve.register");
  if (served.ok()) {
    served = pass.server->registry->ExtendTo(kSession, spec.n).status();
  }
  row("serve.extend");
  if (served.ok()) {
    pass.mix = RunMix(pass.server->daemon->port(), in.mix, want, 0,
                      spec.ledger_requests);
  }
  row("serve.mix");
  if (pass.server) {
    pass.stats = pass.server->daemon->StatsJson();
    pass.server->daemon->Stop();
  }
  row("serve.stop");
  pass.total = Since(start);

  checks->Op(estimate.ok() && InEnvelope(in, *estimate), "ledger estimate");
  checks->Op(saved.ok() && loaded.ok(), "ledger Save + Load");
  checks->Op(served.ok(), "ledger daemon setup: " + served.ToString());
  pass.sweep = session.diagnostics();
  CheckResumedDraws(&session, spec.n, {drawn}, checks);
  CheckMix(in, pass.mix, checks);
  pass.symbol_classes =
      session.engine().unrolled().symbol_classes().num_classes();
  return pass;
}

/// Median over passes of each traced row (rows come in the same order on
/// every pass).
std::vector<std::pair<std::string, double>> MedianRows(
    const std::vector<std::vector<std::pair<std::string, double>>>& passes) {
  std::vector<std::pair<std::string, double>> out;
  for (size_t i = 0; i < passes.front().size(); ++i) {
    std::vector<double> v;
    for (const auto& rows : passes) v.push_back(rows[i].second);
    out.emplace_back(passes.front()[i].first, Median(v));
  }
  return out;
}

/// Seconds of the row named `name`, or of every row starting with it when
/// it ends in '.'.
double RowSeconds(const std::vector<std::pair<std::string, double>>& rows,
                  const std::string& name) {
  const bool prefix = name.back() == '.';
  double sum = 0.0;
  for (const auto& [row, s] : rows) {
    if (prefix ? row.compare(0, name.size(), name) == 0 : row == name) {
      sum += s;
    }
  }
  return sum;
}

/// Median time per call of `body`, in ns, over `reps` batches of `calls`.
template <typename Body>
double NsPerCall(int reps, int64_t calls, Body body) {
  std::vector<double> per;
  for (int r = 0; r < reps; ++r) {
    const int64_t t0 = NowNs();
    for (int64_t i = 0; i < calls; ++i) body(i);
    per.push_back(static_cast<double>(NowNs() - t0) /
                  static_cast<double>(calls));
  }
  return Median(per);
}

/// Median latency of single calls of `body`, in µs.
template <typename Body>
double MedianCallUs(int64_t calls, Body body) {
  std::vector<int64_t> ns;
  for (int64_t i = 0; i < calls; ++i) {
    const int64_t t0 = NowNs();
    body(i);
    ns.push_back(NowNs() - t0);
  }
  return QuantileUs(std::move(ns), 0.5);
}

std::vector<Metric> RunLedger(const Inputs& in, double seconds,
                              Checks* checks) {
  const Spec& spec = in.spec;
  // Warm-up, which also yields the checkpoint the reference replies come
  // from (every pass computes the same tables bit for bit).
  Counted warm = CountFlow(in, kThreads, checks);
  if (!warm.session || !checks->Op(warm.session->Save(in.ckpt_path).ok(),
                                   "Save")) {
    return {};
  }
  std::unique_ptr<EngineSession> reference = LoadReference(in, checks);
  if (!reference) return {};
  Result<MixReference> want = BuildMixReference(reference.get(), in.mix);
  if (!checks->Op(want.ok(), "mix reference")) return {};

  std::vector<double> untraced;
  std::vector<double> traced_total;
  std::vector<std::vector<std::pair<std::string, double>>> traced_rows;
  Pass last;
  const int64_t start = NowNs();
  do {
    untraced.push_back(RunPass(in, *want, false, checks).total);
    last = RunPass(in, *want, true, checks);
    traced_total.push_back(last.total);
    traced_rows.push_back(last.rows);
  } while (Since(start) < seconds && traced_rows.size() < 5);
  const auto rows = MedianRows(traced_rows);
  const double wall = Median(untraced);
  double attributed = 0.0;
  for (const auto& r : rows) attributed += r.second;

  std::printf("# ledger %s: median of %zu traced passes; share of the "
              "untraced wall time\n",
              spec.name.c_str(), traced_rows.size());
  for (const auto& [name, s] : rows) {
    std::printf("#   %-22s %12.6f s %6.2f%%\n", name.c_str(), s,
                100.0 * s / wall);
  }
  std::printf("#   %-22s %12.6f s %6.2f%%\n", "unattributed", wall - attributed,
              100.0 * (wall - attributed) / wall);
  std::printf("#   %-22s %12.6f s\n", "total (untraced wall)", wall);
  std::printf("#   %-22s %12.6f s (traced %.6f − untraced %.6f)\n",
              "tracing overhead", Median(traced_total) - wall,
              Median(traced_total), wall);

  // Counts that must repeat exactly come from a 1-thread pass: at 4 threads
  // descent-cache hits and misses race, and AppUnion trials with them.
  Counted one = CountFlow(in, 1, checks);
  if (!one.session) return {};
  DrawChunks(one.session.get(), spec.n, spec.ledger_draws / kDrawChunk,
             checks);
  const FprasDiagnostics& d = one.session->diagnostics();
  const double sweep_4t = RowSeconds(rows, "fpras.level.");
  const double count_4t = RowSeconds(rows, "fpras.create") + sweep_4t +
                          RowSeconds(rows, "fpras.count");

  const std::string bytes = SerializeSessionCheckpoint(*one.session);
  std::vector<double> ser;
  std::vector<double> deser;
  const SessionKnobs knobs = Knobs(kThreads);
  for (int r = 0; r < 3; ++r) {
    int64_t t0 = NowNs();
    const std::string again = SerializeSessionCheckpoint(*one.session);
    ser.push_back(Since(t0));
    t0 = NowNs();
    Result<EngineSession> back = DeserializeSessionCheckpoint(again, &knobs);
    deser.push_back(Since(t0));
    checks->Op(back.ok() && again == bytes, "checkpoint round trip");
  }

  if (!last.server) return {};
  serve::SessionRegistry& registry = *last.server->registry;
  int64_t registry_failures = 0;
  const double registry_count_us = MedianCallUs(2000, [&](int64_t i) {
    const int len = 1 + static_cast<int>(i % spec.n);
    registry_failures += !registry.CountAtLength(kSession, len).ok();
  });
  const double registry_sample_us = MedianCallUs(200, [&](int64_t) {
    registry_failures +=
        !registry.SampleWords(kSession, spec.n, kSampleWords).ok();
  });
  checks->Add(2200, registry_failures, "direct registry calls");
  for (int len = 1; len <= spec.n; ++len) {
    Result<double> c = registry.CountAtLength(kSession, len);
    MixRequest req;
    req.length = len;
    ByteWriter w;
    if (c.ok()) w.F64(*c);
    checks->Op(c.ok() && w.buffer() == want->For(in.mix, req),
               "registry count identical to the reference");
  }

  MixGenerator gen(in.mix, 0);
  std::vector<MixRequest> reqs(10000);
  for (MixRequest& r : reqs) r = gen.Next();
  std::vector<std::string> frames(reqs.size());
  int64_t encode_failures = 0;
  const double encode_ns = NsPerCall(5, 10000, [&](int64_t i) {
    serve::MsgType type = serve::MsgType::kPing;
    const std::string payload =
        EncodeMixRequest(in.mix, reqs[static_cast<size_t>(i)], &type);
    Result<std::string> frame = serve::EncodeFrame(type, payload);
    if (frame.ok()) {
      frames[static_cast<size_t>(i)] = std::move(frame).value();
    } else {
      ++encode_failures;
    }
  });
  checks->Add(5 * 10000, encode_failures, "wire encodes");
  int64_t decode_failures = 0;
  const double decode_ns = NsPerCall(5, 10000, [&](int64_t i) {
    const std::string& frame = frames[static_cast<size_t>(i)];
    serve::MsgType type = serve::MsgType::kPing;
    uint32_t len = 0;
    bool ok = serve::DecodeFrameHeader(frame.data(), frame.size(), &type, &len)
                  .ok();
    const std::string payload = frame.substr(serve::kFrameHeaderBytes, len);
    if (type == serve::MsgType::kCount) {
      ok = ok && serve::DecodeCount(payload).ok();
    } else if (type == serve::MsgType::kCountState) {
      ok = ok && serve::DecodeCountState(payload).ok();
    } else {
      ok = ok && serve::DecodeSample(payload).ok();
    }
    decode_failures += !ok;
  });
  checks->Add(5 * 10000, decode_failures, "wire decodes");

  const std::string& stats = last.stats;
  const MixResult& mix = last.mix;
  const double server_p50 = JsonNumber(stats, {"op_count", "p50_us"});
  const double requests = JsonNumber(stats, {"requests"});
  std::vector<Metric> out = {
      {"automata.parse_s", RowSeconds(rows, "automata.parse"), "s"},
      {"automata.text_bytes", static_cast<double>(in.text.size()), "bytes"},
      {"automata.symbol_classes", static_cast<double>(last.symbol_classes),
       "count"},
      {"fpras.create_s", RowSeconds(rows, "fpras.create"), "s"},
  };
  double tail = 0.0;
  for (int level = 1; level <= spec.n; ++level) {
    const double s = RowSeconds(rows, "fpras.level." + std::to_string(level));
    if (level <= kLedgerLevels) {
      out.push_back({"fpras.level_s." + std::to_string(level), s, "s"});
    } else {
      tail += s;
    }
  }
  out.push_back({"fpras.level_s.tail", tail, "s"});
  const auto ratio = [](int64_t a, int64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  const std::vector<Metric> rest = {
      {"counting.appunion_trials", static_cast<double>(d.appunion_trials),
       "count"},
      {"counting.appunion_calls", static_cast<double>(d.appunion_calls),
       "count"},
      {"counting.trials_per_s",
       static_cast<double>(last.sweep.appunion_trials) / sweep_4t, "1/s"},
      {"counting.membership_checks", static_cast<double>(d.membership_checks),
       "count"},
      {"counting.starvations", static_cast<double>(d.starvations), "count"},
      {"fpras.sample_calls", static_cast<double>(d.sample_calls), "count"},
      {"fpras.accept_ratio", ratio(d.sample_success, d.sample_calls), "ratio"},
      {"fpras.walk_batches", static_cast<double>(d.walk_batches), "count"},
      {"fpras.descent_hit_ratio",
       ratio(d.descent_hits, d.descent_hits + d.descent_misses), "ratio"},
      {"fpras.memo_hits", static_cast<double>(d.memo_hits), "count"},
      {"fpras.memo_misses", static_cast<double>(d.memo_misses), "count"},
      {"util.thread_speedup", one.seconds / count_4t, "x"},
      {"fpras.draws_per_s",
       static_cast<double>(spec.ledger_draws / kDrawChunk * kDrawChunk) /
           RowSeconds(rows, "fpras.draws"),
       "1/s"},
      {"checkpoint.bytes", static_cast<double>(bytes.size()), "bytes"},
      {"checkpoint.serialize_s", Median(ser), "s"},
      {"checkpoint.deserialize_s", Median(deser), "s"},
      {"checkpoint.save_s", RowSeconds(rows, "checkpoint.save"), "s"},
      {"checkpoint.load_s", RowSeconds(rows, "checkpoint.load"), "s"},
      {"serve.registry_count_us", registry_count_us, "us"},
      {"serve.registry_sample_us", registry_sample_us, "us"},
      {"serve.wire_encode_ns", encode_ns, "ns"},
      {"serve.wire_decode_ns", decode_ns, "ns"},
      {"serve.qps", static_cast<double>(mix.replies) / mix.seconds, "1/s"},
      {"serve.count_p50_us", mix.count_p50_us, "us"},
      {"serve.count_p99_us", mix.count_p99_us, "us"},
      {"serve.sample_p99_us", mix.sample_p99_us, "us"},
      {"serve.server_p50_us", server_p50, "us"},
      {"serve.server_p99_us", JsonNumber(stats, {"op_count", "p99_us"}), "us"},
      {"serve.queue_wait_p50_us",
       JsonNumber(stats, {"op_count", "queue_wait", "p50_us"}), "us"},
      {"serve.bytes_per_request",
       (JsonNumber(stats, {"bytes_in"}) + JsonNumber(stats, {"bytes_out"})) /
           requests,
       "bytes"},
      {"serve.transport_us", mix.count_p50_us - server_p50, "us"},
      {"ledger.unattributed_s", wall - attributed, "s"},
      {"ledger.trace_overhead_s", Median(traced_total) - wall, "s"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string work_dir = ".";
  std::string git_sha = "unknown";
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args->seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds;
}

int Main(int argc, char** argv) {
  Args args;
  Inputs in;
  if (!ParseArgs(argc, argv, &args) ||
      !MakeSpec(args.workload, args.smoke, &in.spec)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<e3-count|corpus-session> --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--git-sha SHA] [--smoke]\n");
    return 2;
  }
  const Nfa nfa = MakeAutomaton(args.workload, args.smoke);
  in.text = NfaToText(nfa);
  Result<Nfa> parsed = ParseNfaText(in.text);
  Result<BigUint> exact = ExactCountViaDfa(nfa, in.spec.n);
  if (!parsed.ok() || !exact.ok()) {
    std::fprintf(stderr, "perfbench: cannot prepare inputs: %s\n",
                 (parsed.ok() ? exact.status() : parsed.status())
                     .ToString()
                     .c_str());
    return 1;
  }
  in.nfa = std::move(parsed).value();
  in.exact = exact->ToDouble();
  in.options.eps = kEps;
  in.options.delta = kDelta;
  in.options.calibration = Calibration::Practical();
  in.options.seed = kInstanceSeed;
  in.options.num_threads = kThreads;
  in.ckpt_path = args.work_dir + "/perfbench-" + std::to_string(getpid()) +
                 ".ckpt";
  in.mix.session = kSession;
  in.mix.max_len = in.spec.n;
  in.mix.num_states = in.nfa.num_states();
  in.mix.seed = args.seed;

  JsonObject host;
  host.Set("workload", args.workload)
      .Set("seed", args.seed)
      .Set("seconds", args.seconds)
      .Set("trace", args.trace)
      .Set("smoke", args.smoke)
      .Set("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Set("simd", simd::ActiveKernels().name)
      .Set("build_type", PERFBENCH_BUILD_TYPE)
      .Set("compiler", PERFBENCH_COMPILER)
      .Set("git_sha", args.git_sha);
  std::printf("# fingerprint %s\n", host.Render().c_str());
  std::printf("# inputs: %d states, |Σ| = %d, n = %d, %zu text bytes, "
              "exact |L(A_n)| = %.6g\n",
              in.nfa.num_states(), in.nfa.alphabet_size(), in.spec.n,
              in.text.size(), in.exact);
  std::fflush(stdout);

  Checks checks;
  const std::vector<Metric> metrics =
      args.trace ? RunLedger(in, args.seconds, &checks)
                 : RunEndToEnd(in, args.seconds, &checks);
  std::remove(in.ckpt_path.c_str());
  if (metrics.empty()) {
    std::fprintf(stderr, "perfbench: the %s flow could not complete\n",
                 args.workload.c_str());
    return 1;
  }
  JsonObject values;
  for (const Metric& m : metrics) {
    std::printf("# %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    JsonObject v;
    v.Set("value", m.value).Set("unit", m.unit);
    values.SetRaw(m.name, v.Render());
  }
  JsonObject result;
  result.Set("correct", checks.failed == 0)
      .Set("attempted", checks.attempted)
      .Set("failed", checks.failed)
      .SetRaw("metrics", values.Render());
  std::printf("%s\n", result.Render().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
