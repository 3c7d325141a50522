// lumen_fabric: the worker -> coordinator event stream.
//
// A worker process speaks one compact JSON object per stdout line:
//
//   {"type":"lumen-worker","event":"hello","token":T,"pid":P}
//   {"type":"lumen-worker","event":"heartbeat","token":T,"cells":K}
//   {"type":"lumen-worker","event":"cell","token":T,"seed":S,"cells":K}
//   {"type":"lumen-worker","event":"done","token":T,"cells":K,"errors":E}
//
// `heartbeat` is pure liveness (a background thread, so a worker grinding
// one long cell still beats); `cell` marks a CELL BOUNDARY — the cell's
// journal record is already durable when it is emitted, which is what makes
// it the chaos harness's SIGKILL point and the coordinator's progress
// signal. Every event carries the fencing token of the lease it
// was emitted under; the coordinator discards events whose token does not
// match the shard's current grant (a resurrected stale worker can talk, but
// it cannot advance anything).
#pragma once

#include "util/strings.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace lumen::fabric {

enum class WorkerEventKind { kHello, kHeartbeat, kCell, kDone };

inline constexpr auto kWorkerEventKindNames = std::to_array<util::Named<WorkerEventKind>>({
    {WorkerEventKind::kHello, "hello"},
    {WorkerEventKind::kHeartbeat, "heartbeat"},
    {WorkerEventKind::kCell, "cell"},
    {WorkerEventKind::kDone, "done"},
});

[[nodiscard]] constexpr std::string_view to_string(WorkerEventKind k) noexcept {
  return util::name_of(kWorkerEventKindNames, k);
}

struct WorkerEvent {
  WorkerEventKind kind = WorkerEventKind::kHeartbeat;
  std::uint64_t token = 0;
  std::uint64_t seed = 0;        ///< kCell only: the finished cell's seed.
  std::uint64_t cells = 0;       ///< Cells finished so far under this lease.
  std::uint64_t errors = 0;      ///< kDone only: cells recorded as errors.
  std::int64_t pid = 0;          ///< kHello only.

  friend bool operator==(const WorkerEvent&, const WorkerEvent&) = default;
};

/// One compact line, no trailing newline.
[[nodiscard]] std::string worker_event_to_line(const WorkerEvent& event);

/// Parses one line. nullopt for anything malformed — the coordinator treats
/// unparseable worker chatter as noise, never as a crash (error set when
/// non-null).
[[nodiscard]] std::optional<WorkerEvent> worker_event_from_line(
    std::string_view line, std::string* error = nullptr);

}  // namespace lumen::fabric
