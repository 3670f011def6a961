// E12 — parallel level-sweep scaling: end-to-end FPRAS Run() wall time vs
// worker-thread count on the E3/E4 scaling families. Because every (q,ℓ)
// cell draws from its own counter-based RNG substream, all thread counts
// produce bit-identical estimates — the bench asserts that equality on every
// cell, so a scheduling regression that leaks into results shows up here as
// well as in tests/test_parallel.cpp.
//
//   E12a: E3 family (RandomNfa(m, 0.3, 0.25), n = 8), m = 64..128, threads
//         swept over {1, 2, 4, 8}; speedup is T(1)/T(k) per m.
//   E12b: one E4-style deeper instance (m = 64, n = 16) for the long-level
//         shape (fewer, fatter levels stress the per-level barrier less).
//
// Methodology (bench/README.md): Release build, one warm-up run per (m,
// threads) cell, fixed seed. Speedup is hardware-bound: on a single-core
// container every thread count measures ~1.0x — record the host's nproc
// (reported in the JSON config) when reading the numbers.
//
// --json <path> writes the full trajectory (config + per-cell rows) as one
// JSON object, e.g. `bench_e12_parallel_scaling --json BENCH_e12.json`.

#include <cstdint>
#include <thread>
#include <vector>

#include "automata/generators.hpp"
#include "bench_common.hpp"

using namespace nfacount;
using namespace nfacount::bench;

namespace {

/// The E3 family instance (same generator as bench_e3).
Nfa E3Automaton(int m) {
  Rng rng(2024);
  return RandomNfa(m, 0.3, 0.25, rng);
}

constexpr uint64_t kSeed = 31;

struct Cell {
  double seconds = 0.0;
  double estimate = 0.0;
};

Cell RunWithThreads(const Nfa& nfa, int n, int threads) {
  CountOptions o = DefaultOptions(kSeed);
  o.num_threads = threads;
  Cell cell;
  // Warm-up pass (page-in, allocator steady state), then the timed run.
  (void)RunFpras(nfa, n, o);
  TimedRun timed = RunFpras(nfa, n, o);
  cell.seconds = timed.seconds;
  cell.estimate = timed.estimate;
  return cell;
}

void SweepInstance(const char* family, int m, int n,
                   const std::vector<int>& thread_counts, BenchReport* report) {
  Nfa nfa = E3Automaton(m);
  std::vector<Cell> cells;
  cells.reserve(thread_counts.size());
  for (int threads : thread_counts) {
    cells.push_back(RunWithThreads(nfa, n, threads));
  }
  const double base_s = cells[0].seconds;
  bool identical = true;
  for (const Cell& c : cells) identical &= (c.estimate == cells[0].estimate);

  for (size_t i = 0; i < cells.size(); ++i) {
    Row({family, FmtInt(m), FmtInt(n), FmtInt(thread_counts[i]),
         Fmt(cells[i].seconds, "%.3f"), Fmt(base_s / cells[i].seconds, "%.2fx"),
         Fmt(cells[i].estimate), identical ? "yes" : "NO"});
    JsonObject row;
    row.Set("family", family)
        .Set("m", m)
        .Set("n", n)
        .Set("threads", thread_counts[i])
        .Set("wall_s", cells[i].seconds)
        .Set("speedup_vs_1", base_s / cells[i].seconds)
        .Set("estimate", cells[i].estimate)
        .Set("bit_identical", identical);
    report->AddRow("scaling", std::move(row));
  }
  if (!identical) {
    std::fprintf(stderr,
                 "E12: THREAD-COUNT INVARIANCE VIOLATED on %s m=%d n=%d\n",
                 family, m, n);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = JsonPathArg(argc, argv);
  BenchReport report("e12_parallel_scaling");

  const std::vector<int> thread_counts = {1, 2, 4, 8};
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("E12 — parallel level-sweep scaling (hardware threads: %u)\n",
              hw);

  report.config()
      .Set("family", "E3 RandomNfa(m, 0.3, 0.25)")
      .Set("eps", 0.3)
      .Set("delta", 0.2)
      .Set("seed", kSeed)
      .Set("hardware_threads", static_cast<int>(hw))
      .SetRaw("thread_counts", "[1,2,4,8]");

  Section("E12a: Run() wall time vs threads, E3 family n=8");
  Row({"family", "m", "n", "threads", "wall_s", "speedup", "estimate",
       "identical"});
  for (int m : {64, 96, 128}) {
    SweepInstance("E3", m, 8, thread_counts, &report);
  }

  Section("E12b: deeper unroll (E4 shape), m=64 n=16");
  Row({"family", "m", "n", "threads", "wall_s", "speedup", "estimate",
       "identical"});
  SweepInstance("E4", 64, 16, thread_counts, &report);

  const bool json_ok = report.WriteTo(json_path);

  std::printf(
      "\nReading: 'speedup' is T(threads=1)/T(threads=k) for the identical\n"
      "workload — the estimates column must agree bit-for-bit across every\n"
      "row of one (m, n) block ('identical' = yes). Scaling saturates at the\n"
      "host's physical core count; per-level cell counts (≈ m) bound the\n"
      "available parallelism at small m.\n");
  return json_ok ? 0 : 1;
}
