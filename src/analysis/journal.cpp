#include "analysis/journal.hpp"

#include "sim/config_io.hpp"
#include "util/prng.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace lumen::analysis {

namespace {

constexpr std::string_view kJournalType = "lumen-journal";
constexpr std::int64_t kJournalVersion = 1;
constexpr std::string_view kResultType = "lumen-campaign-result";
constexpr std::int64_t kResultVersion = 1;

void set_error(std::string* error, std::string message) {
  if (error != nullptr && error->empty()) *error = std::move(message);
}

util::JsonValue counters_to_json(const fault::FaultCounters& c) {
  util::JsonValue obj = util::JsonValue::object();
  obj.set("crashes", util::JsonValue::integer(static_cast<std::int64_t>(c.crashes)));
  obj.set("corrupted_reads",
          util::JsonValue::integer(static_cast<std::int64_t>(c.corrupted_reads)));
  obj.set("dropped_observations",
          util::JsonValue::integer(
              static_cast<std::int64_t>(c.dropped_observations)));
  obj.set("perturbed_observations",
          util::JsonValue::integer(
              static_cast<std::int64_t>(c.perturbed_observations)));
  return obj;
}

bool counters_from_json(const util::JsonValue& v, fault::FaultCounters& out,
                        std::string* error) {
  if (!v.is_object()) {
    set_error(error, "faults must be an object");
    return false;
  }
  for (const auto& [key, value] : v.members()) {
    if (!value.is_integer() || value.as_int() < 0) {
      set_error(error, "faults." + key + " must be a non-negative integer");
      return false;
    }
    const auto n = static_cast<std::uint64_t>(value.as_int());
    if (key == "crashes") {
      out.crashes = n;
    } else if (key == "corrupted_reads") {
      out.corrupted_reads = n;
    } else if (key == "dropped_observations") {
      out.dropped_observations = n;
    } else if (key == "perturbed_observations") {
      out.perturbed_observations = n;
    } else {
      set_error(error, "faults: unknown key \"" + key + "\"");
      return false;
    }
  }
  return true;
}

/// Cuts a record torn by a kill mid-append (the bytes after the last newline)
/// off the journal open at `fd`; `size` is the file size in, the kept size out.
bool drop_torn_tail(int fd, off_t& size) {
  off_t keep = size;
  for (char c = 0; keep > 0; --keep) {
    if (::pread(fd, &c, 1, keep - 1) != 1) return false;
    if (c == '\n') break;
  }
  if (keep == size) return true;
  size = keep;
  return ::ftruncate(fd, keep) == 0;
}

}  // namespace

util::JsonValue run_metrics_to_json(const RunMetrics& m) {
  util::JsonValue obj = util::JsonValue::object();
  obj.set("seed", util::JsonValue::integer(static_cast<std::int64_t>(m.seed)));
  obj.set("converged", util::JsonValue::boolean(m.converged));
  obj.set("epochs", util::JsonValue::integer(static_cast<std::int64_t>(m.epochs)));
  obj.set("cycles", util::JsonValue::integer(static_cast<std::int64_t>(m.cycles)));
  obj.set("moves", util::JsonValue::integer(static_cast<std::int64_t>(m.moves)));
  obj.set("distance", util::JsonValue::number(m.distance));
  obj.set("colors", util::JsonValue::integer(static_cast<std::int64_t>(m.colors)));
  obj.set("visibility_ok", util::JsonValue::boolean(m.visibility_ok));
  obj.set("collision_free", util::JsonValue::boolean(m.collision_free));
  obj.set("min_observed_separation",
          util::JsonValue::number(m.min_observed_separation));
  obj.set("path_crossings",
          util::JsonValue::integer(static_cast<std::int64_t>(m.path_crossings)));
  obj.set("position_collisions",
          util::JsonValue::integer(
              static_cast<std::int64_t>(m.position_collisions)));
  obj.set("outcome",
          util::JsonValue::string(std::string(sim::to_string(m.outcome))));
  obj.set("faults", counters_to_json(m.faults));
  obj.set("collision_channel",
          util::JsonValue::string(
              std::string(fault::to_string(m.collision_channel))));
  obj.set("cache_replays",
          util::JsonValue::integer(static_cast<std::int64_t>(m.cache_replays)));
  obj.set("cache_repairs",
          util::JsonValue::integer(static_cast<std::int64_t>(m.cache_repairs)));
  obj.set("cache_rebuilds",
          util::JsonValue::integer(static_cast<std::int64_t>(m.cache_rebuilds)));
  return obj;
}

std::optional<RunMetrics> run_metrics_from_json(const util::JsonValue& v,
                                                std::string* error) {
  if (!v.is_object()) {
    set_error(error, "metrics must be an object");
    return std::nullopt;
  }
  RunMetrics m;
  bool ok = true;
  const auto want_count = [&](std::string_view key, std::size_t& out,
                              const util::JsonValue& value) {
    if (!value.is_integer() || value.as_int() < 0) {
      set_error(error,
                "metrics." + std::string(key) + " must be a non-negative integer");
      ok = false;
      return;
    }
    out = static_cast<std::size_t>(value.as_int());
  };
  const auto want_count64 = [&](std::string_view key, std::uint64_t& out,
                                const util::JsonValue& value) {
    if (!value.is_integer() || value.as_int() < 0) {
      set_error(error,
                "metrics." + std::string(key) + " must be a non-negative integer");
      ok = false;
      return;
    }
    out = static_cast<std::uint64_t>(value.as_int());
  };
  const auto want_bool = [&](std::string_view key, bool& out,
                             const util::JsonValue& value) {
    if (!value.is_bool()) {
      set_error(error, "metrics." + std::string(key) + " must be a boolean");
      ok = false;
      return;
    }
    out = value.as_bool();
  };
  for (const auto& [key, value] : v.members()) {
    if (key == "seed") {
      if (!value.is_integer() || value.as_int() < 0) {
        set_error(error, "metrics.seed must be a non-negative integer");
        ok = false;
      } else {
        m.seed = static_cast<std::uint64_t>(value.as_int());
      }
    } else if (key == "converged") {
      want_bool(key, m.converged, value);
    } else if (key == "epochs") {
      want_count(key, m.epochs, value);
    } else if (key == "cycles") {
      want_count(key, m.cycles, value);
    } else if (key == "moves") {
      want_count(key, m.moves, value);
    } else if (key == "distance") {
      if (!value.is_number()) {
        set_error(error, "metrics.distance must be a number");
        ok = false;
      } else {
        m.distance = value.as_double();
      }
    } else if (key == "colors") {
      want_count(key, m.colors, value);
    } else if (key == "visibility_ok") {
      want_bool(key, m.visibility_ok, value);
    } else if (key == "collision_free") {
      want_bool(key, m.collision_free, value);
    } else if (key == "min_observed_separation") {
      // null is +inf: an audited run with no robot pair (N = 1).
      if (value.kind() == util::JsonValue::Kind::kNull) {
        m.min_observed_separation = std::numeric_limits<double>::infinity();
      } else if (!value.is_number()) {
        set_error(error, "metrics.min_observed_separation must be a number");
        ok = false;
      } else {
        m.min_observed_separation = value.as_double();
      }
    } else if (key == "path_crossings") {
      want_count(key, m.path_crossings, value);
    } else if (key == "position_collisions") {
      want_count(key, m.position_collisions, value);
    } else if (key == "outcome") {
      const auto outcome = value.is_string()
                               ? sim::outcome_from_string(value.as_string())
                               : std::nullopt;
      if (!outcome) {
        set_error(error, "metrics.outcome: unknown outcome");
        ok = false;
      } else {
        m.outcome = *outcome;
      }
    } else if (key == "faults") {
      std::string fault_error;
      if (!counters_from_json(value, m.faults, &fault_error)) {
        set_error(error, "metrics." + fault_error);
        ok = false;
      }
    } else if (key == "collision_channel") {
      const auto channel = value.is_string()
                               ? fault::channel_from_string(value.as_string())
                               : std::nullopt;
      if (!channel) {
        set_error(error, "metrics.collision_channel: unknown channel");
        ok = false;
      } else {
        m.collision_channel = *channel;
      }
    } else if (key == "cache_replays") {
      want_count64(key, m.cache_replays, value);
    } else if (key == "cache_repairs") {
      want_count64(key, m.cache_repairs, value);
    } else if (key == "cache_rebuilds") {
      want_count64(key, m.cache_rebuilds, value);
    } else {
      set_error(error, "metrics: unknown key \"" + key + "\"");
      ok = false;
    }
  }
  if (!ok) return std::nullopt;
  return m;
}

util::JsonValue campaign_error_to_json(const CampaignError& e) {
  util::JsonValue obj = util::JsonValue::object();
  obj.set("kind", util::JsonValue::string(std::string(to_string(e.kind))));
  obj.set("seed", util::JsonValue::integer(static_cast<std::int64_t>(e.seed)));
  obj.set("attempts",
          util::JsonValue::integer(static_cast<std::int64_t>(e.attempts)));
  obj.set("detail", util::JsonValue::string(e.detail));
  return obj;
}

std::optional<CampaignError> campaign_error_from_json(const util::JsonValue& v,
                                                      std::string* error) {
  if (!v.is_object()) {
    set_error(error, "error record must be an object");
    return std::nullopt;
  }
  CampaignError e;
  bool ok = true;
  for (const auto& [key, value] : v.members()) {
    if (key == "kind") {
      const auto kind = value.is_string()
                            ? campaign_error_kind_from_string(value.as_string())
                            : std::nullopt;
      if (!kind) {
        set_error(error, "error.kind: unknown kind");
        ok = false;
      } else {
        e.kind = *kind;
      }
    } else if (key == "seed") {
      if (!value.is_integer() || value.as_int() < 0) {
        set_error(error, "error.seed must be a non-negative integer");
        ok = false;
      } else {
        e.seed = static_cast<std::uint64_t>(value.as_int());
      }
    } else if (key == "attempts") {
      if (!value.is_integer() || value.as_int() < 0) {
        set_error(error, "error.attempts must be a non-negative integer");
        ok = false;
      } else {
        e.attempts = static_cast<std::size_t>(value.as_int());
      }
    } else if (key == "detail") {
      if (!value.is_string()) {
        set_error(error, "error.detail must be a string");
        ok = false;
      } else {
        e.detail = value.as_string();
      }
    } else {
      set_error(error, "error record: unknown key \"" + key + "\"");
      ok = false;
    }
  }
  if (!ok) return std::nullopt;
  return e;
}

util::JsonValue campaign_signature(const CampaignSpec& spec) {
  util::JsonValue obj = util::JsonValue::object();
  obj.set("algorithm", util::JsonValue::string(spec.algorithm));
  obj.set("family",
          util::JsonValue::string(std::string(gen::to_string(spec.family))));
  obj.set("n", util::JsonValue::integer(static_cast<std::int64_t>(spec.n)));
  obj.set("min_separation", util::JsonValue::number(spec.min_separation));
  obj.set("audit_collisions", util::JsonValue::boolean(spec.audit_collisions));
  obj.set("collision_tolerance",
          util::JsonValue::number(spec.collision_tolerance));
  obj.set("abort_on_collision", util::JsonValue::boolean(spec.abort_on_collision));
  // The per-run seed is the cell coordinate, not campaign identity.
  sim::RunConfig run = spec.run;
  run.seed = 0;
  obj.set("run", sim::run_config_to_json(run));
  return obj;
}

std::string campaign_key(const CampaignSpec& spec) {
  const std::uint64_t hash =
      util::fnv1a(util::json_write(campaign_signature(spec), 0));
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

std::string campaign_result_to_json(const CampaignResult& result) {
  util::JsonValue obj = util::JsonValue::object();
  obj.set("type", util::JsonValue::string(std::string(kResultType)));
  obj.set("version", util::JsonValue::integer(kResultVersion));
  obj.set("key", util::JsonValue::string(campaign_key(result.spec)));
  obj.set("signature", campaign_signature(result.spec));
  util::JsonValue runs = util::JsonValue::array();
  for (const auto& m : result.runs) runs.push_back(run_metrics_to_json(m));
  obj.set("runs", std::move(runs));
  util::JsonValue errors = util::JsonValue::array();
  for (const auto& e : result.errors) errors.push_back(campaign_error_to_json(e));
  obj.set("errors", std::move(errors));
  return util::json_write(obj) + "\n";
}

CampaignJournal::CampaignJournal(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) return;
  off_t size = ::lseek(fd_, 0, SEEK_END);
  failed_ = size < 0 || !drop_torn_tail(fd_, size);
  if (size == 0) {
    util::JsonValue header = util::JsonValue::object();
    header.set("type", util::JsonValue::string(std::string(kJournalType)));
    header.set("version", util::JsonValue::integer(kJournalVersion));
    std::lock_guard lock(mutex_);
    write_line_locked(header);
  }
}

CampaignJournal::~CampaignJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void CampaignJournal::write_line_locked(const util::JsonValue& record) {
  if (fd_ < 0 || failed_) return;
  const std::string line = util::json_write(record, 0) + "\n";
  std::size_t written = 0;
  while (written < line.size()) {
    const ssize_t n =
        ::write(fd_, line.data() + written, line.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      failed_ = true;
      return;
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0) failed_ = true;
}

void CampaignJournal::declare_locked(const CampaignSpec& spec,
                                     const std::string& key) {
  if (!declared_.insert(key).second) return;
  util::JsonValue record = util::JsonValue::object();
  record.set("type", util::JsonValue::string("campaign"));
  record.set("key", util::JsonValue::string(key));
  record.set("signature", campaign_signature(spec));
  write_line_locked(record);
}

void CampaignJournal::append_cell(const CampaignSpec& spec, const RunMetrics& m) {
  const std::string key = campaign_key(spec);
  util::JsonValue record = util::JsonValue::object();
  record.set("type", util::JsonValue::string("cell"));
  record.set("key", util::JsonValue::string(key));
  record.set("seed", util::JsonValue::integer(static_cast<std::int64_t>(m.seed)));
  record.set("metrics", run_metrics_to_json(m));
  std::lock_guard lock(mutex_);
  declare_locked(spec, key);
  write_line_locked(record);
}

void CampaignJournal::append_error(const CampaignSpec& spec,
                                   const CampaignError& e) {
  const std::string key = campaign_key(spec);
  util::JsonValue record = util::JsonValue::object();
  record.set("type", util::JsonValue::string("cell"));
  record.set("key", util::JsonValue::string(key));
  record.set("seed", util::JsonValue::integer(static_cast<std::int64_t>(e.seed)));
  record.set("error", campaign_error_to_json(e));
  std::lock_guard lock(mutex_);
  declare_locked(spec, key);
  write_line_locked(record);
}

std::size_t JournalSnapshot::cell_count() const noexcept {
  std::size_t count = 0;
  for (const auto& [key, seeds] : cells) count += seeds.size();
  return count;
}

const JournalCell* JournalSnapshot::find(const std::string& key,
                                         std::uint64_t seed) const noexcept {
  const auto campaign = cells.find(key);
  if (campaign == cells.end()) return nullptr;
  const auto cell = campaign->second.find(seed);
  return cell == campaign->second.end() ? nullptr : &cell->second;
}

JournalLoad load_journal(const std::string& path) {
  JournalLoad out;
  std::ifstream f(path);
  if (!f) {
    out.error = "cannot open " + path;
    return out;
  }
  JournalSnapshot snapshot;
  std::string line;
  std::size_t line_no = 0;
  bool saw_header = false;
  while (std::getline(f, line)) {
    ++line_no;
    // A process killed mid-append leaves a torn final line; peek ahead so
    // "is this the last line" is known before we decide how to fail.
    const bool is_last = f.peek() == std::ifstream::traits_type::eof();
    const auto fail = [&](const std::string& why) {
      out.error = path + ":" + std::to_string(line_no) + ": " + why;
      return out;
    };
    if (line.empty()) {
      if (is_last) break;
      return fail("empty line");
    }
    std::string parse_error;
    const auto record = util::json_parse(line, &parse_error);
    if (!record || !record->is_object()) {
      if (is_last) {
        ++out.dropped_partial_lines;
        break;
      }
      return fail("malformed record: " +
                  (parse_error.empty() ? "not an object" : parse_error));
    }
    const auto* type = record->find("type");
    if (type == nullptr || !type->is_string()) return fail("record has no type");
    if (line_no == 1) {
      if (type->as_string() != kJournalType) {
        return fail("not a lumen-journal file");
      }
      const auto* version = record->find("version");
      if (version == nullptr || !version->is_integer() ||
          version->as_int() != kJournalVersion) {
        return fail("unsupported journal version");
      }
      saw_header = true;
      continue;
    }
    const auto* key = record->find("key");
    if (key == nullptr || !key->is_string()) return fail("record has no key");
    if (type->as_string() == "campaign") {
      const auto* signature = record->find("signature");
      if (signature == nullptr || !signature->is_object()) {
        return fail("campaign record has no signature");
      }
      const std::string compact = util::json_write(*signature, 0);
      const auto [it, inserted] =
          snapshot.signatures.emplace(key->as_string(), compact);
      if (!inserted && it->second != compact) {
        return fail("campaign key \"" + key->as_string() +
                    "\" declared twice with different signatures");
      }
    } else if (type->as_string() == "cell") {
      if (!snapshot.signatures.count(key->as_string())) {
        return fail("cell references undeclared campaign key \"" +
                    key->as_string() + "\"");
      }
      const auto* seed = record->find("seed");
      if (seed == nullptr || !seed->is_integer() || seed->as_int() < 0) {
        return fail("cell has no valid seed");
      }
      JournalCell cell;
      std::string cell_error;
      if (const auto* metrics = record->find("metrics")) {
        cell.metrics = run_metrics_from_json(*metrics, &cell_error);
        if (!cell.metrics) return fail(cell_error);
      } else if (const auto* error = record->find("error")) {
        cell.error = campaign_error_from_json(*error, &cell_error);
        if (!cell.error) return fail(cell_error);
      } else {
        return fail("cell has neither metrics nor error");
      }
      // First-write-wins: a duplicate (key, seed) is the same deterministic
      // cell recorded twice (resumed appends, fenced stale workers); drop
      // it, count it.
      const auto [it, inserted] =
          snapshot.cells[key->as_string()].try_emplace(
              static_cast<std::uint64_t>(seed->as_int()), std::move(cell));
      if (!inserted) ++out.duplicate_cells;
    } else {
      return fail("unknown record type \"" + type->as_string() + "\"");
    }
  }
  // An empty file or a lone torn first line (journal created, killed before
  // the header landed) is a valid empty snapshot; any other headerless
  // content is not ours.
  if (!saw_header && line_no > 0 && out.dropped_partial_lines == 0) {
    out.error = path + ": missing journal header";
    return out;
  }
  out.snapshot = std::move(snapshot);
  return out;
}

std::string journal_key_mismatch(const JournalSnapshot& snapshot,
                                 const CampaignSpec& spec) {
  if (snapshot.signatures.empty()) return "";
  const std::string key = campaign_key(spec);
  if (snapshot.signatures.count(key)) return "";
  std::string declared;
  for (const auto& [k, sig] : snapshot.signatures) {
    if (!declared.empty()) declared += ", ";
    declared += k;
  }
  return "journal.key: campaign key mismatch: spec is " + key +
         " but the journal declares " + declared +
         " — refusing to merge a journal written for a different campaign";
}

std::size_t merge_snapshots(JournalSnapshot& dst, const JournalSnapshot& src,
                            std::string* error) {
  std::size_t duplicates = 0;
  for (const auto& [key, signature] : src.signatures) {
    const auto [it, inserted] = dst.signatures.emplace(key, signature);
    if (!inserted && it->second != signature) {
      set_error(error, "campaign key \"" + key +
                           "\" declared with different signatures");
      continue;
    }
    const auto cells = src.cells.find(key);
    if (cells == src.cells.end()) continue;
    auto& into = dst.cells[key];
    for (const auto& [seed, cell] : cells->second) {
      if (!into.try_emplace(seed, cell).second) ++duplicates;
    }
  }
  return duplicates;
}

}  // namespace lumen::analysis
