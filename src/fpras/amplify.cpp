#include "fpras/amplify.hpp"

#include <algorithm>
#include <cmath>

namespace nfacount {

namespace {

void AccumulateDiagnostics(FprasDiagnostics* total, const FprasDiagnostics& d) {
  total->appunion_calls += d.appunion_calls;
  total->appunion_trials += d.appunion_trials;
  total->membership_checks += d.membership_checks;
  total->starvations += d.starvations;
  total->sample_calls += d.sample_calls;
  total->sample_success += d.sample_success;
  total->fail_phi_gt_1 += d.fail_phi_gt_1;
  total->fail_bernoulli += d.fail_bernoulli;
  total->fail_dead_branch += d.fail_dead_branch;
  total->padded_words += d.padded_words;
  total->perturbed_counts += d.perturbed_counts;
  total->states_processed += d.states_processed;
  total->wall_seconds += d.wall_seconds;
}

}  // namespace

int MedianRunsForConfidence(double delta) {
  if (!(delta > 0.0 && delta < 1.0)) return 1;
  int k = static_cast<int>(std::ceil(8.0 * std::log(1.0 / delta)));
  if (k < 1) k = 1;
  if (k % 2 == 0) ++k;
  return k;
}

Result<AmplifiedEstimate> ApproxCountMedian(const Nfa& nfa, int n,
                                            const CountOptions& options,
                                            int runs) {
  if (runs < 1) return Status::Invalid("runs must be >= 1");
  AmplifiedEstimate out;
  out.runs.reserve(runs);
  for (int i = 0; i < runs; ++i) {
    CountOptions per_run = options;
    // Independent streams; golden-ratio stride keeps seeds well-separated.
    per_run.seed = options.seed + 0x9e3779b97f4a7c15ULL * (i + 1);
    CountEstimate estimate;
    NFA_ASSIGN_OR_RETURN(estimate, ApproxCount(nfa, n, per_run));
    out.runs.push_back(estimate.estimate);
    AccumulateDiagnostics(&out.total_diag, estimate.diagnostics);
  }
  std::sort(out.runs.begin(), out.runs.end());
  const size_t mid = out.runs.size() / 2;
  out.estimate = (out.runs.size() % 2 == 1)
                     ? out.runs[mid]
                     : 0.5 * (out.runs[mid - 1] + out.runs[mid]);
  if (out.estimate > 0.0) {
    out.spread = (out.runs.back() - out.runs.front()) / out.estimate;
  }
  return out;
}

Result<AdaptiveEstimate> ApproxCountAdaptive(const Nfa& nfa, int n,
                                             const AdaptiveOptions& options) {
  if (!(options.agreement > 0.0)) {
    return Status::Invalid("agreement must be > 0");
  }
  if (options.max_rounds < 2) {
    return Status::Invalid("max_rounds must be >= 2 (need two rounds to agree)");
  }
  AdaptiveEstimate out;
  Calibration cal = options.base.calibration;
  double previous = -1.0;
  for (int round = 0; round < options.max_rounds; ++round) {
    CountOptions per_round = options.base;
    per_round.calibration = cal;
    per_round.seed = options.base.seed + 0x517cc1b727220a95ULL * round;
    CountEstimate estimate;
    NFA_ASSIGN_OR_RETURN(estimate, ApproxCount(nfa, n, per_round));
    out.trajectory.push_back(estimate.estimate);
    out.estimate = estimate.estimate;
    out.final_calibration = cal;
    out.rounds = round + 1;

    if (round > 0) {
      const bool both_zero = previous == 0.0 && estimate.estimate == 0.0;
      const bool close =
          previous > 0.0 &&
          std::abs(estimate.estimate / previous - 1.0) <= options.agreement;
      if (both_zero || close) {
        out.converged = true;
        return out;
      }
    }
    previous = estimate.estimate;
    // Double the budgets (floors double too, so small instances progress).
    cal.ns_scale *= 2.0;
    cal.trial_scale *= 2.0;
    cal.ns_floor *= 2;
    cal.trial_floor *= 2;
  }
  return out;
}

}  // namespace nfacount
