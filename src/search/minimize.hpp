// lumen_search: delta-debugging minimizer for hunt winners.
//
// A raw worst-case plan found by the search loop usually carries freight:
// fault events that never fire, a bigger swarm than the failure needs, an
// exotic adversary kind when uniform would do. The minimizer shrinks the
// plan through a fixed sequence of reduction passes — halve/decrement N,
// drop individual crash instants, disable whole fault channels, halve
// rates, canonicalize the adversary kinds — re-evaluating each candidate
// and keeping it only when the badness survives: the outcome class must be
// preserved exactly and the score must not fall below the winner's.
// An acceptance restarts that operator at site 0 against the shrunken
// plan; sweeps repeat until a full sweep accepts nothing (a 1-minimal plan
// w.r.t. the operator set) or the evaluation budget runs out.
//
// The sweep runs in ordered speculative windows. From the current plan
// and cursor, the driver lists the next W candidates the serial sweep
// would try if it accepted none of them (W = the pool's slot count, capped
// by the remaining budget), evaluates them in parallel through the hunt's
// EvaluationMemo, and consumes the results in serial order: the first
// acceptance ends the window, and the candidates after it enter neither
// the trail nor the count (they ran, so they are journaled like any cell
// and stay in the memo). Nothing is seeded, and the trail, the counts and
// the result are exactly the serial sweep's for any pool size: a pure
// function of (spec, winner), as deterministic as the runs underneath.
#pragma once

#include "search/hunt.hpp"

namespace lumen::search {

struct MinimizeOutcome {
  /// The shrunken evaluation (== the input winner when nothing shrank).
  Evaluation evaluation;
  /// Every candidate evaluation, in trial order (appended to the hunt
  /// history so the digest covers the minimization trajectory too).
  std::vector<Evaluation> trail;
  std::size_t evaluations = 0;  ///< Candidates evaluated.
  std::size_t accepted = 0;     ///< Candidates that preserved the badness.
};

/// Shrinks `winner` within spec.minimize_budget evaluations. The control
/// hooks work as in run_hunt (journal / resume / cooperative stop; a
/// stopped minimization returns the best-so-far). nullptr pool ->
/// util::global_pool(). `memo` is the hunt's (see evaluate_plans); with
/// nullptr each window only dedups within itself.
[[nodiscard]] MinimizeOutcome minimize_plan(
    const HuntSpec& spec, const Evaluation& winner, util::ThreadPool* pool,
    const analysis::CampaignControl& control = {},
    EvaluationMemo* memo = nullptr);

}  // namespace lumen::search
