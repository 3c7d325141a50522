// lumen_fabric: the crash-tolerant worker (`lumen-bench work`).
//
// A worker's whole life: read a lease file, merge every prior journal the
// lease names (finished cells are never redone), run the leased shard with
// its own fsync'd journal, and stream heartbeat and cell events to the
// coordinator on stdout; its exit code reports how the lease ended. It is deliberately stateless beyond its journal —
// SIGKILL at any instant loses at most the cell in flight, and the fsync'd
// record-per-cell discipline means whatever it DID finish is durable and
// mergeable. A worker whose coordinator dies notices (EPIPE on the event
// pipe) and drains gracefully rather than running orphaned forever.
#pragma once

#include <atomic>
#include <string>

namespace lumen::fabric {

struct WorkerOptions {
  /// Path of the lease document.
  std::string lease_path;
  /// The driver's signal flag (SIGINT/SIGTERM -> drain). May be null.
  const std::atomic<bool>* stop = nullptr;
};

/// Runs one lease to completion. Exit codes mirror the lumen-bench
/// contract: 0 every leased cell has a durable journal record, 2 the lease
/// or its journal is unusable (malformed, campaign-key mismatch — not
/// retriable), 3 drained after a stop request with cells left undone.
[[nodiscard]] int run_worker(const WorkerOptions& options);

}  // namespace lumen::fabric
