#include "fabric/worker.hpp"

#include "analysis/campaign.hpp"
#include "analysis/journal.hpp"
#include "fabric/lease.hpp"
#include "fabric/protocol.hpp"

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

namespace lumen::fabric {

namespace {

/// Serialized, whole-line writes to the coordinator pipe. A failed write
/// (EPIPE: the coordinator is gone) flips `orphaned` so the campaign drains
/// instead of running headless forever.
class EventStream {
 public:
  explicit EventStream(std::atomic<bool>& orphaned) : orphaned_(orphaned) {}

  void emit(const WorkerEvent& event) {
    const std::string line = worker_event_to_line(event) + "\n";
    std::lock_guard lock(mutex_);
    std::size_t written = 0;
    while (written < line.size()) {
      const ssize_t n = ::write(STDOUT_FILENO, line.data() + written,
                                line.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        orphaned_.store(true, std::memory_order_relaxed);
        return;
      }
      written += static_cast<std::size_t>(n);
    }
  }

 private:
  std::mutex mutex_;
  std::atomic<bool>& orphaned_;
};

}  // namespace

int run_worker(const WorkerOptions& options) {
  // The coordinator's death must surface as EPIPE on our writes, not as a
  // process-killing SIGPIPE mid-journal-append.
  ::signal(SIGPIPE, SIG_IGN);

  LeaseParse parsed;
  if (options.lease_path == "-") {
    std::ostringstream text;
    text << std::cin.rdbuf();
    parsed = lease_from_json(text.str());
  } else {
    parsed = load_lease(options.lease_path);
  }
  if (!parsed.lease) {
    std::cerr << "work: invalid lease: " << parsed.error << "\n";
    return 2;
  }
  const Lease& lease = *parsed.lease;
  // Parsing the lease validated its one-size scenario, so this is a valid
  // campaign.
  const analysis::CampaignSpec spec = lease_campaign(lease);

  // Resume coverage: the canonical journal plus every prior grant of these
  // cells. A prior journal that fails to load (torn by a killed worker is
  // fine — torn final lines drop; truly corrupt is not) only
  // costs resume coverage, never correctness: its cells re-run to the same
  // bytes.
  analysis::JournalSnapshot resume;
  for (const std::string& path : lease.resume_paths) {
    auto loaded = analysis::load_journal(path);
    if (!loaded.snapshot) {
      std::cerr << "work: skipping unloadable resume journal: " << loaded.error
                << "\n";
      continue;
    }
    std::string merge_error;
    merge_snapshots(resume, *loaded.snapshot, &merge_error);
    if (!merge_error.empty()) {
      std::cerr << "work: resume journal " << path << ": " << merge_error
                << "\n";
    }
  }

  // Our own journal is single-campaign by contract: refuse to append to a
  // file declaring someone else's key (the multi-writer guard — a stale
  // lease file pointing at a reused path must fail loudly, not interleave
  // two campaigns' cells).
  {
    auto existing = analysis::load_journal(lease.journal_path);
    if (existing.snapshot) {
      if (const std::string mismatch =
              analysis::journal_key_mismatch(*existing.snapshot, spec);
          !mismatch.empty()) {
        std::cerr << "work: " << mismatch << "\n";
        return 2;
      }
      // A respawn under the SAME token resumes its own partial work too.
      merge_snapshots(resume, *existing.snapshot, nullptr);
    }
  }
  analysis::CampaignJournal journal(lease.journal_path);
  if (!journal.ok()) {
    std::cerr << "work: cannot open shard journal " << lease.journal_path
              << "\n";
    return 2;
  }

  std::atomic<bool> orphaned{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> cells_done{0};
  EventStream events(orphaned);
  events.emit(WorkerEvent{WorkerEventKind::kHello, lease.token, 0, 0, 0,
                          static_cast<std::int64_t>(::getpid())});

  // Liveness beats on a background thread so one long cell does not read
  // as a hang; it also folds the two external stop sources (driver signal,
  // orphaning) into the single flag run_campaign polls.
  std::mutex hb_mutex;
  std::condition_variable hb_cv;
  bool finished = false;
  std::thread heartbeat([&] {
    std::unique_lock lock(hb_mutex);
    while (!finished) {
      if ((options.stop != nullptr &&
           options.stop->load(std::memory_order_relaxed)) ||
          orphaned.load(std::memory_order_relaxed)) {
        stop.store(true, std::memory_order_relaxed);
      }
      events.emit(WorkerEvent{WorkerEventKind::kHeartbeat, lease.token, 0,
                              cells_done.load(std::memory_order_relaxed), 0,
                              0});
      hb_cv.wait_for(lock, std::chrono::milliseconds(lease.heartbeat_ms));
    }
  });

  analysis::CampaignControl control;
  control.journal = &journal;
  control.resume = &resume;
  control.stop = &stop;
  control.on_cell = [&](std::uint64_t seed) {
    const std::uint64_t done =
        cells_done.fetch_add(1, std::memory_order_relaxed) + 1;
    events.emit(
        WorkerEvent{WorkerEventKind::kCell, lease.token, seed, done, 0, 0});
  };
  const analysis::CampaignResult result = analysis::run_campaign(
      spec, nullptr, control);

  {
    std::lock_guard lock(hb_mutex);
    finished = true;
  }
  hb_cv.notify_all();
  heartbeat.join();

  events.emit(WorkerEvent{WorkerEventKind::kDone, lease.token, 0,
                          cells_done.load(std::memory_order_relaxed),
                          result.errors.size(), 0});
  // Done means "every leased cell has a durable record" — metrics or
  // structured error; only stop-skipped cells leave the shard unfinished.
  if (result.cells_skipped == 0) return 0;
  return stop.load(std::memory_order_relaxed) ? 3 : 1;
}

}  // namespace lumen::fabric
