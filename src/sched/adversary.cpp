#include "sched/adversary.hpp"

namespace lumen::sched {

// Braced initialization evaluates its elements left to right, so each
// PhaseTiming below draws wait, compute and move in that order.
PhaseTiming sample_timing(AdversaryKind kind, std::size_t robot, util::Prng& rng) {
  switch (kind) {
    case AdversaryKind::kUniform:
      return PhaseTiming{rng.uniform(0.05, 1.0), rng.uniform(0.05, 0.5),
                         rng.uniform(0.5, 2.0)};  // Move takes 0.5-2 time units.
    case AdversaryKind::kBursty: {
      // 10% of cycles stall with an exponential tail, the rest are fast;
      // move durations swing across two orders of magnitude (a mid-move
      // robot can be observed by dozens of peer Looks).
      const double wait =
          rng.bernoulli(0.1) ? 0.5 + rng.exponential(0.2) : rng.uniform(0.01, 0.2);
      const double compute = rng.uniform(0.01, 0.3);
      const double move =
          rng.bernoulli(0.2) ? rng.uniform(3.0, 10.0) : rng.uniform(0.2, 1.0);
      return PhaseTiming{wait, compute, move};
    }
    case AdversaryKind::kStallOne: {
      const double slow = robot == 0 ? 12.0 : 1.0;
      return PhaseTiming{slow * rng.uniform(0.05, 1.0), slow * rng.uniform(0.05, 0.5),
                         slow * rng.uniform(0.5, 2.0)};
    }
    case AdversaryKind::kLockstep:
      // Tiny jitter on identical nominal timings: many robots Look within
      // the same instant and then act on equally stale snapshots.
      return PhaseTiming{0.5 + rng.uniform(0.0, 1e-3), 0.1 + rng.uniform(0.0, 1e-3),
                         1.0};
  }
  return PhaseTiming{};  // Unreachable: every kind returns above.
}

}  // namespace lumen::sched
