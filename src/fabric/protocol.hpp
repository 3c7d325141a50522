// lumen_fabric: the worker -> coordinator event stream.
//
// A worker process speaks one compact JSON object per stdout line:
//
//   {"type":"lumen-worker","event":"heartbeat","token":T,"seed":0}
//   {"type":"lumen-worker","event":"cell","token":T,"seed":S}
//
// `heartbeat` is pure liveness, beaten every kHeartbeatMs from a background
// thread, so a worker grinding one long cell still beats. `cell` marks a
// CELL BOUNDARY: the cell's journal record is already durable when it is
// emitted, which is what makes it the chaos harness's SIGKILL point and the
// coordinator's progress signal. Every event carries the fencing token of
// the lease it was emitted under; the coordinator discards events whose
// token does not match the shard's current grant (a resurrected stale
// worker can talk, but it cannot advance anything). The worker's exit code,
// not an event, says that it is done.
#pragma once

#include "util/fields.hpp"
#include "util/strings.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace lumen::fabric {

/// The worker's liveness cadence. Fixed policy: the coordinator's lease TTL
/// should span several beats.
inline constexpr std::uint64_t kHeartbeatMs = 100;

enum class WorkerEventKind { kHeartbeat, kCell };

inline constexpr auto kWorkerEventKindNames = std::to_array<util::Named<WorkerEventKind>>({
    {WorkerEventKind::kHeartbeat, "heartbeat"},
    {WorkerEventKind::kCell, "cell"},
});

[[nodiscard]] constexpr std::string_view to_string(WorkerEventKind k) noexcept {
  return util::name_of(kWorkerEventKindNames, k);
}

[[nodiscard]] constexpr std::optional<WorkerEventKind> worker_event_kind_from_string(
    std::string_view name) noexcept {
  return util::parse_name(kWorkerEventKindNames, name);
}

struct WorkerEvent {
  WorkerEventKind kind = WorkerEventKind::kHeartbeat;
  std::uint64_t token = 0;
  std::uint64_t seed = 0;  ///< The finished cell's seed; 0 for a heartbeat.

  friend bool operator==(const WorkerEvent&, const WorkerEvent&) = default;
};

template <typename Io, util::FieldsOf<WorkerEvent> C>
void fields(Io& io, C& event) {
  io.constant("type", "lumen-worker");
  io.required("event", event.kind, worker_event_kind_from_string);
  io.required("token", event.token);
  io.required("seed", event.seed);
}

/// One compact line, no trailing newline.
[[nodiscard]] std::string worker_event_to_line(const WorkerEvent& event);

/// Parses one line. nullopt for anything malformed — the coordinator treats
/// unparseable worker chatter as noise, never as a crash (error set when
/// non-null).
[[nodiscard]] std::optional<WorkerEvent> worker_event_from_line(
    std::string_view line, std::string* error = nullptr);

}  // namespace lumen::fabric
