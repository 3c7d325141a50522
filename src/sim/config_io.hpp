// lumen_sim: RunConfig's JSON field list.
//
// The declarative experiment layer (analysis::ScenarioSpec) embeds a full
// RunConfig; keeping its field list here, next to the type, means a new
// RunConfig knob cannot silently miss the spec format. One list drives
// both the writer and the reader (util/fields.hpp). Range rules are
// analysis::validate_campaign_spec's.
#pragma once

#include "fault/plan.hpp"
#include "sched/activation.hpp"
#include "sched/adversary.hpp"
#include "sim/run.hpp"
#include "util/fields.hpp"

namespace lumen::sim {

/// Every serialized RunConfig field under stable keys, enums as their
/// to_string names. `pool`, `arena` and `visibility_cache_budget` are
/// process-local or pure performance knobs and are not serialized; nor are
/// the per-run `seed` (a campaign sets it for every cell) and the
/// `record_moves` output (a campaign reduces each run to metrics and does
/// not read the move log). deadline_ms and fault are written
/// only when non-default, so documents predating each feature stay
/// byte-identical.
template <typename Io, util::FieldsOf<RunConfig> C>
void fields(Io& io, C& config) {
  io("scheduler", config.scheduler, scheduler_from_string);
  io("adversary", config.adversary, sched::adversary_from_string);
  io("activation", config.activation, sched::activation_from_string);
  io("max_cycles_per_robot", config.max_cycles_per_robot);
  io("refresh_frames_each_look", config.refresh_frames_each_look);
  io("rigid_moves", config.rigid_moves);
  io.omit_default("deadline_ms", config.deadline_ms);
  io.omit_default("fault", config.fault);
}

}  // namespace lumen::sim
