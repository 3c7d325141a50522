// lumen_analysis: the campaign checkpoint journal (DESIGN.md §12).
//
// A CampaignJournal is an append-only JSONL file with one durably-written
// (fsync'd) record per finished campaign cell, so a campaign killed at any
// instant can be resumed without redoing completed work. Because every cell
// is deterministic in (campaign signature, seed), merging journaled metrics
// back into a resumed run_campaign call reproduces the uninterrupted result
// BYTE-IDENTICALLY (campaign_result_to_json is the comparison form; pinned
// by tests/analysis_resilience_test.cpp across shard counts and pool sizes).
//
// File layout (one compact JSON object per line):
//   {"type":"lumen-journal","version":1}            — header, first line
//   {"type":"campaign","key":K,"signature":{...}}   — declares a campaign
//   {"type":"cell","key":K,"seed":S,"metrics":{..}} — a finished cell
//   {"type":"cell","key":K,"seed":S,"error":{...}}  — a failed cell
//
// The campaign KEY is the FNV-1a hash of the campaign's result-affecting
// fields only (see campaign_signature) — sharding, seed ranges and retry
// policy are deliberately excluded so k shards of one campaign share cell
// records and a retry-policy tweak does not orphan a journal. A process
// killed mid-write leaves at most one torn final line; the loader drops it
// (any earlier malformed line is a hard error).
#pragma once

#include "analysis/campaign.hpp"
#include "util/json.hpp"

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>

namespace lumen::analysis {

/// Deterministic JSON form of one cell's metrics (fixed key order, exact
/// integers, doubles via the round-tripping "%.17g" writer).
[[nodiscard]] util::JsonValue run_metrics_to_json(const RunMetrics& m);
[[nodiscard]] std::optional<RunMetrics> run_metrics_from_json(
    const util::JsonValue& v, std::string* error = nullptr);

[[nodiscard]] util::JsonValue campaign_error_to_json(const CampaignError& e);
[[nodiscard]] std::optional<CampaignError> campaign_error_from_json(
    const util::JsonValue& v, std::string* error = nullptr);

/// The campaign's identity for journaling: exactly the spec fields that
/// affect a cell's result (algorithm, family, n, min_separation, audit
/// settings, and the run template's document fields, which exclude the
/// per-run seed). runs / seed_base / shard_* / max_attempts / retry_backoff_ms
/// are excluded on purpose — they select or schedule cells without changing
/// any cell's bytes.
[[nodiscard]] util::JsonValue campaign_signature(const CampaignSpec& spec);

/// 16-hex-digit FNV-1a of the compact signature serialization.
[[nodiscard]] std::string campaign_key(const CampaignSpec& spec);

/// The deterministic serialized outcome of a campaign: spec signature, the
/// metrics rows in seed order, the error records in seed order. Excludes
/// the cells_resumed / cells_skipped bookkeeping, so this is the form in
/// which "interrupted + resumed == uninterrupted" is exact byte equality.
[[nodiscard]] std::string campaign_result_to_json(const CampaignResult& result);

/// Append-only journal writer. Thread-safe (run_campaign appends from pool
/// workers); every append is one write(2) loop + one fsync(2) under one
/// mutex (a new key's declaration rides with its first cell), so a crash
/// loses at most the record being written. Write failures are sticky and
/// reported through ok() — journaling is best-effort and never throws into
/// the campaign (a failing disk should cost the checkpoint, not the run).
class CampaignJournal {
 public:
  /// Opens (creating or appending) the journal at `path`; cuts a torn final
  /// record (one without its newline) and writes the header line when the
  /// file is then empty. Check ok() afterwards.
  explicit CampaignJournal(std::string path);
  ~CampaignJournal();

  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  [[nodiscard]] bool ok() const noexcept { return fd_ >= 0 && !failed_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Durably records one finished / failed cell, declaring the campaign
  /// signature first if this process has not yet declared that key.
  void append_cell(const CampaignSpec& spec, const RunMetrics& m);
  void append_error(const CampaignSpec& spec, const CampaignError& e);

 private:
  /// Writes `record` (a cell of campaign `key`), declaring the campaign
  /// first if this process has not yet declared that key.
  void append_record(const CampaignSpec& spec, const std::string& key,
                     const util::JsonValue& record);
  /// Writes whole lines and fsyncs once.
  void write_locked(const std::string& lines);

  std::string path_;
  int fd_ = -1;
  bool failed_ = false;
  std::mutex mutex_;
  std::set<std::string> declared_;
};

/// One journaled cell: exactly one of metrics / error is set.
struct JournalCell {
  std::optional<RunMetrics> metrics;
  std::optional<CampaignError> error;
};

/// Everything a finished journal load knows, indexed for resume lookups.
struct JournalSnapshot {
  /// key -> compact signature serialization (for stale-journal detection).
  std::map<std::string, std::string> signatures;
  /// key -> seed -> cell. The FIRST record for a (key, seed) wins — cells
  /// are deterministic in (key, seed), so a later duplicate (a journal
  /// appended to across several resumed attempts, or a fenced-off stale
  /// fabric worker finishing a cell someone else already owns) carries the
  /// same bytes; dropping it keeps the merge idempotent and countable.
  std::map<std::string, std::map<std::uint64_t, JournalCell>> cells;

  [[nodiscard]] std::size_t cell_count() const noexcept;
  /// nullptr when the cell is not journaled.
  [[nodiscard]] const JournalCell* find(const std::string& key,
                                        std::uint64_t seed) const noexcept;
};

struct JournalLoad {
  std::optional<JournalSnapshot> snapshot;
  std::string error;  ///< Reason when snapshot is nullopt.
  /// A torn final line (the process died mid-append) is dropped, not an
  /// error; this counts it so drivers can report the lost record.
  std::size_t dropped_partial_lines = 0;
  /// Later records for an already-seen (key, seed) — dropped first-write-
  /// wins. Nonzero is normal for a journal appended to by several resumed
  /// or fenced writers; drivers report the count instead of silently
  /// merging.
  std::size_t duplicate_cells = 0;
};

/// Loads a journal written by CampaignJournal. A missing/garbled header, a
/// malformed NON-final line, a cell referencing an undeclared key, or two
/// declarations of one key with different signatures are errors; a torn
/// final line is tolerated (see JournalLoad::dropped_partial_lines).
[[nodiscard]] JournalLoad load_journal(const std::string& path);

/// Multi-writer guard: a journal written FOR one campaign (a fabric shard
/// journal, a worker checkpoint) must declare exactly that campaign.
/// Returns "" when the snapshot is empty or declares the spec's key;
/// otherwise a field-naming message (journal.key: ...) listing what the
/// journal declares — the caller records it as a kJournalMismatch
/// CampaignError instead of silently merging nothing. NOT for shared
/// multi-campaign journals (an experiment sweeping N keeps every
/// campaign's cells in one file by design).
[[nodiscard]] std::string journal_key_mismatch(const JournalSnapshot& snapshot,
                                               const CampaignSpec& spec);

/// Merges `src` into `dst`, first-write-wins per (key, seed); returns the
/// number of duplicate cells dropped. Two declarations of one key with
/// different signatures are an error (set via *error, merge of that key's
/// cells is skipped) — the same rule load_journal enforces within one file.
std::size_t merge_snapshots(JournalSnapshot& dst, const JournalSnapshot& src,
                            std::string* error = nullptr);

}  // namespace lumen::analysis
