// ACJR-style baseline (Arenas, Croquevielle, Jayaram, Riveros; STOC'19 /
// JACM'21): the comparator the paper improves on.
//
// Substitution note: no public implementation of the ACJR
// FPRAS exists, and its worst-case constants are even further from feasible
// than this paper's. Both algorithms instantiate the template of Fig. 1; the
// complexity gap the paper reports is driven by (a) the per-(state,level)
// sample budget — O(m⁷n⁷/ε⁷) for ACJR vs ~O(n⁴/ε²) here — and (b) the union
// bound regime (2^{mn} events vs mn events). This module therefore runs the
// shared template with the ACJR budget (Schedule::kAcjr), which reproduces
// the quantity the paper actually compares (samples per state and the time
// blow-up it induces). Benchmarks E2-E5 sweep both schedules.

#ifndef NFACOUNT_FPRAS_ACJR_HPP_
#define NFACOUNT_FPRAS_ACJR_HPP_

#include "fpras/estimator.hpp"

namespace nfacount {

/// ApproxCount with the ACJR sample schedule (identical template otherwise).
/// Calibration applies the same way as for the fast schedule, so the two are
/// directly comparable at equal calibration.
Result<CountEstimate> ApproxCountAcjr(const Nfa& nfa, int n,
                                      CountOptions options = CountOptions());

/// Ratio ns_acjr / ns_faster at the given parameters (uncalibrated): the
/// sample-complexity gap reported in the paper's abstract.
double ScheduleSampleRatio(int m, int n, double eps, double delta);

}  // namespace nfacount

#endif  // NFACOUNT_FPRAS_ACJR_HPP_
