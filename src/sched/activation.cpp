#include "sched/activation.hpp"

namespace lumen::sched {

void activate(ActivationKind kind, std::size_t n, std::uint64_t round,
              util::Prng& rng, std::vector<std::size_t>& out) {
  out.clear();
  switch (kind) {
    case ActivationKind::kAll:
      for (std::size_t i = 0; i < n; ++i) out.push_back(i);
      return;
    case ActivationKind::kRandomHalf:
      while (out.empty()) {
        for (std::size_t i = 0; i < n; ++i) {
          if (rng.bernoulli(0.5)) out.push_back(i);
        }
      }
      return;
    case ActivationKind::kSingleton:
      out.push_back(static_cast<std::size_t>(round % n));
      return;
    case ActivationKind::kRandomSingle:
      out.push_back(static_cast<std::size_t>(rng.next_below(n)));
      return;
  }
}

}  // namespace lumen::sched
