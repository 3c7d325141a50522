#include "search/fitness.hpp"

namespace lumen::search {

int outcome_rank(sim::RunOutcome outcome) noexcept {
  switch (outcome) {
    case sim::RunOutcome::kConverged:
      return 0;
    case sim::RunOutcome::kStalled:
      return 1;
    case sim::RunOutcome::kDeadlineExceeded:
      return 2;
    case sim::RunOutcome::kBudgetExhausted:
      return 3;
    case sim::RunOutcome::kCollision:
      return 4;
  }
  return 0;
}

double fitness_score(FitnessKind kind, const analysis::RunMetrics& m) noexcept {
  switch (kind) {
    case FitnessKind::kEpochs: {
      double score = static_cast<double>(m.epochs);
      if (m.outcome == sim::RunOutcome::kBudgetExhausted ||
          m.outcome == sim::RunOutcome::kDeadlineExceeded) {
        score += 1e6;
      } else if (m.outcome == sim::RunOutcome::kCollision) {
        score += 2e6;
      }
      return score;
    }
    case FitnessKind::kMinSeparation:
      return 1e6 * static_cast<double>(m.position_collisions) -
             m.min_observed_separation;
    case FitnessKind::kOutcome:
      return 1e6 * outcome_rank(m.outcome) + static_cast<double>(m.epochs);
  }
  return 0.0;
}

bool fitness_needs_audit(FitnessKind kind) noexcept {
  return kind == FitnessKind::kMinSeparation || kind == FitnessKind::kOutcome;
}

}  // namespace lumen::search
