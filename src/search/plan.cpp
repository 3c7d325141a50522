#include "search/plan.hpp"

#include "util/strings.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace lumen::search {
namespace {

constexpr auto kAdversaries = util::values_of(sched::kAdversaryNames);

// FSYNC forces kAll inside the engine, so searching it there is wasted
// moves; the SSYNC-meaningful kinds are the searchable set.
constexpr std::array<sched::ActivationKind, 3> kActivations = {
    sched::ActivationKind::kRandomHalf, sched::ActivationKind::kSingleton,
    sched::ActivationKind::kRandomSingle};

constexpr auto kModes = util::values_of(fault::kCorruptionModeNames);

constexpr std::uint64_t kSeedMask = 0x7fffffffffffffffULL;

/// `v` clamped into [0, hi].
double clamp_to(double v, double hi) {
  return std::min(std::max(v, 0.0), hi);
}

void random_crash(fault::CrashPlan& crash, util::Prng& rng) {
  crash.count = 1 + static_cast<std::size_t>(rng.next_below(kMaxCrashCount));
  if (rng.bernoulli(0.5)) {
    crash.schedule = fault::CrashScheduleKind::kRate;
    // Floor at 5% of the range so the channel is always active.
    crash.rate = kMaxCrashRate * (0.05 + 0.95 * rng.next_double());
    crash.times.clear();
  } else {
    crash.schedule = fault::CrashScheduleKind::kTimes;
    crash.rate = 0.0;
    const std::size_t k =
        1 + static_cast<std::size_t>(rng.next_below(kMaxCrashTimes));
    crash.times.clear();
    for (std::size_t i = 0; i < k; ++i) {
      crash.times.push_back(rng.uniform(0.0, kMaxCrashTime));
    }
  }
}

void random_light(fault::LightCorruptionPlan& light, util::Prng& rng) {
  light.probability = kMaxLightProbability * (0.05 + 0.95 * rng.next_double());
  light.mode = kModes[rng.next_below(kModes.size())];
}

void random_noise(fault::SensorNoisePlan& noise, util::Prng& rng) {
  noise.sigma = kMaxNoiseSigma * (0.05 + 0.95 * rng.next_double());
  noise.dropout = rng.uniform(0.0, kMaxNoiseDropout);
}

template <typename T, std::size_t N>
T flip_kind(const std::array<T, N>& all, T current, util::Prng& rng) {
  // Uniform among the OTHER kinds, so a flip always changes something.
  std::array<T, N> others{};
  std::size_t count = 0;
  for (const T k : all) {
    if (k != current) others[count++] = k;
  }
  if (count == 0) return current;
  return others[rng.next_below(count)];
}

}  // namespace

void clamp_plan(AdversaryPlan& plan, const PlanBounds& bounds) {
  plan.n = std::min(std::max(plan.n, bounds.n_min), bounds.n_max);
  plan.seed &= kSeedMask;
  if (plan.scheduler == sim::SchedulerKind::kFsync) {
    plan.activation = sched::ActivationKind::kAll;
  } else if (plan.activation == sched::ActivationKind::kAll) {
    plan.activation = sched::ActivationKind::kRandomHalf;
  }
  auto& crash = plan.fault.crash;
  crash.count = std::min(crash.count, kMaxCrashCount);
  crash.rate = clamp_to(crash.rate, kMaxCrashRate);
  if (crash.times.size() > kMaxCrashTimes) crash.times.resize(kMaxCrashTimes);
  for (double& t : crash.times) t = clamp_to(t, kMaxCrashTime);
  plan.fault.light.probability =
      clamp_to(plan.fault.light.probability, kMaxLightProbability);
  plan.fault.noise.sigma = clamp_to(plan.fault.noise.sigma, kMaxNoiseSigma);
  plan.fault.noise.dropout =
      clamp_to(plan.fault.noise.dropout, kMaxNoiseDropout);
}

AdversaryPlan random_plan(const AdversaryPlan& base, const PlanBounds& bounds,
                          util::Prng& rng) {
  AdversaryPlan plan;
  plan.scheduler = base.scheduler;
  plan.adversary = kAdversaries[rng.next_below(kAdversaries.size())];
  plan.activation = kActivations[rng.next_below(kActivations.size())];
  plan.n = bounds.n_min +
           static_cast<std::size_t>(rng.next_below(static_cast<std::uint64_t>(
               bounds.n_max - std::min(bounds.n_min, bounds.n_max) + 1)));
  plan.seed = rng() & kSeedMask;
  if (rng.bernoulli(0.5)) random_crash(plan.fault.crash, rng);
  if (rng.bernoulli(0.5)) random_light(plan.fault.light, rng);
  if (rng.bernoulli(0.5)) random_noise(plan.fault.noise, rng);
  clamp_plan(plan, bounds);
  return plan;
}

AdversaryPlan mutate(const AdversaryPlan& plan, const PlanBounds& bounds,
                     util::Prng& rng) {
  AdversaryPlan out = plan;
  const std::size_t ops = 1 + static_cast<std::size_t>(rng.next_below(2));
  for (std::size_t op = 0; op < ops; ++op) {
    switch (rng.next_below(8)) {
      case 0:  // Fresh seed: jump to an unrelated configuration.
        out.seed = rng() & kSeedMask;
        break;
      case 1:  // Seed nudge: a nearby stream, often a nearby configuration.
        out.seed = (out.seed ^ (1ULL << rng.next_below(16))) & kSeedMask;
        break;
      case 2: {  // Size step.
        const std::size_t step = 1 + static_cast<std::size_t>(rng.next_below(
                                         std::max<std::uint64_t>(out.n / 4, 1)));
        if (rng.bernoulli(0.5)) {
          out.n += step;
        } else {
          out.n = out.n > step ? out.n - step : bounds.n_min;
        }
        break;
      }
      case 3:
        out.adversary = flip_kind(kAdversaries, out.adversary, rng);
        break;
      case 4:
        out.activation = flip_kind(kActivations, out.activation, rng);
        break;
      case 5: {  // Crash channel.
        auto& crash = out.fault.crash;
        if (!crash.active()) {
          random_crash(crash, rng);
          break;
        }
        switch (rng.next_below(5)) {
          case 0:
            crash.count = rng.bernoulli(0.5) ? crash.count + 1
                                             : (crash.count > 0 ? crash.count - 1
                                                                : 0);
            break;
          case 1:  // Swap schedule kind, re-rolling its parameters.
            if (crash.schedule == fault::CrashScheduleKind::kRate) {
              crash.schedule = fault::CrashScheduleKind::kTimes;
              crash.rate = 0.0;
              crash.times = {rng.uniform(0.0, kMaxCrashTime)};
            } else {
              crash.schedule = fault::CrashScheduleKind::kRate;
              crash.times.clear();
              crash.rate = rng.uniform(0.0, kMaxCrashRate);
            }
            break;
          case 2:
            crash.rate *= rng.uniform(0.5, 2.0);
            break;
          case 3:  // Add / drop an explicit crash instant.
            if (crash.times.empty() || rng.bernoulli(0.5)) {
              crash.times.push_back(rng.uniform(0.0, kMaxCrashTime));
            } else {
              crash.times.erase(crash.times.begin() +
                                static_cast<std::ptrdiff_t>(
                                    rng.next_below(crash.times.size())));
            }
            break;
          default:  // Perturb one instant.
            if (!crash.times.empty()) {
              double& t = crash.times[rng.next_below(crash.times.size())];
              t += rng.uniform(-4.0, 4.0);
            }
            break;
        }
        break;
      }
      case 6: {  // Light channel.
        auto& light = out.fault.light;
        if (!light.active()) {
          random_light(light, rng);
        } else if (rng.bernoulli(0.25)) {
          light.probability = 0.0;
        } else if (rng.bernoulli(0.5)) {
          light.probability *= rng.uniform(0.5, 2.0);
        } else {
          light.mode = flip_kind(kModes, light.mode, rng);
        }
        break;
      }
      default: {  // Noise channel.
        auto& noise = out.fault.noise;
        if (!noise.active()) {
          random_noise(noise, rng);
        } else if (rng.bernoulli(0.25)) {
          noise.sigma = 0.0;
          noise.dropout = 0.0;
        } else if (rng.bernoulli(0.5)) {
          noise.sigma *= rng.uniform(0.5, 2.0);
        } else {
          noise.dropout *= rng.uniform(0.5, 2.0);
        }
        break;
      }
    }
  }
  clamp_plan(out, bounds);
  return out;
}

AdversaryPlan crossover(const AdversaryPlan& a, const AdversaryPlan& b,
                        util::Prng& rng) {
  AdversaryPlan out = a;
  out.adversary = rng.bernoulli(0.5) ? a.adversary : b.adversary;
  out.activation = rng.bernoulli(0.5) ? a.activation : b.activation;
  out.n = rng.bernoulli(0.5) ? a.n : b.n;
  out.seed = rng.bernoulli(0.5) ? a.seed : b.seed;
  out.fault.crash = rng.bernoulli(0.5) ? a.fault.crash : b.fault.crash;
  out.fault.light = rng.bernoulli(0.5) ? a.fault.light : b.fault.light;
  out.fault.noise = rng.bernoulli(0.5) ? a.fault.noise : b.fault.noise;
  return out;
}

template <typename Io, util::FieldsOf<AdversaryPlan> C>
void fields(Io& io, C& plan) {
  io("scheduler", plan.scheduler, sim::scheduler_from_string);
  io("adversary", plan.adversary, sched::adversary_from_string);
  io("activation", plan.activation, sched::activation_from_string);
  io("n", plan.n);
  io("seed", plan.seed);
  io("fault", plan.fault);
}

std::string plan_fingerprint(const AdversaryPlan& plan) {
  return util::json_write(util::write_fields(plan), 0);
}

}  // namespace lumen::search
