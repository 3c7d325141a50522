#include "analysis/journal.hpp"

#include "sim/config_io.hpp"
#include "util/prng.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace lumen::analysis {

namespace {

constexpr std::string_view kJournalType = "lumen-journal";
constexpr std::int64_t kJournalVersion = 1;
constexpr std::string_view kResultType = "lumen-campaign-result";
constexpr std::int64_t kResultVersion = 1;

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

template <typename Io, util::FieldsOf<RunMetrics> C>
void fields(Io& io, C& m) {
  io("seed", m.seed);
  io("converged", m.converged);
  io("epochs", m.epochs);
  io("cycles", m.cycles);
  io("moves", m.moves);
  io("distance", m.distance);
  io("colors", m.colors);
  io("visibility_ok", m.visibility_ok);
  io("collision_free", m.collision_free);
  // null is +inf: an audited run with no robot pair (N = 1).
  io("min_observed_separation", m.min_observed_separation,
     util::null_is_infinity);
  io("path_crossings", m.path_crossings);
  io("position_collisions", m.position_collisions);
  io("outcome", m.outcome, sim::outcome_from_string);
  io("faults", m.faults);
  io("collision_channel", m.collision_channel, fault::channel_from_string);
  io("cache_replays", m.cache_replays);
  io("cache_repairs", m.cache_repairs);
  io("cache_rebuilds", m.cache_rebuilds);
}

template <typename Io, util::FieldsOf<CampaignError> C>
void fields(Io& io, C& e) {
  io("kind", e.kind, campaign_error_kind_from_string);
  io("seed", e.seed);
  io("attempts", e.attempts);
  io("detail", e.detail);
}

namespace {

/// Reads `v` as a `Doc` named `path`; nullopt and *error on a problem.
template <typename Doc>
std::optional<Doc> read_record(const util::JsonValue& v,
                               const std::string& path, std::string* error) {
  Doc doc;
  std::string problem = util::read_fields(v, doc, path);
  if (problem.empty()) return doc;
  if (error != nullptr) *error = std::move(problem);
  return std::nullopt;
}

}  // namespace

util::JsonValue run_metrics_to_json(const RunMetrics& m) {
  return util::write_fields(m);
}

std::optional<RunMetrics> run_metrics_from_json(const util::JsonValue& v,
                                                std::string* error) {
  return read_record<RunMetrics>(v, "metrics", error);
}

util::JsonValue campaign_error_to_json(const CampaignError& e) {
  return util::write_fields(e);
}

std::optional<CampaignError> campaign_error_from_json(const util::JsonValue& v,
                                                      std::string* error) {
  return read_record<CampaignError>(v, "error", error);
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
  obj.set("run", util::write_fields(spec.run));
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
    write_locked(util::json_write(header, 0) + "\n");
  }
}

CampaignJournal::~CampaignJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void CampaignJournal::write_locked(const std::string& lines) {
  if (fd_ < 0 || failed_) return;
  std::size_t written = 0;
  while (written < lines.size()) {
    const ssize_t n =
        ::write(fd_, lines.data() + written, lines.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      failed_ = true;
      return;
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0) failed_ = true;
}

void CampaignJournal::append_record(const CampaignSpec& spec,
                                    const std::string& key,
                                    const util::JsonValue& record) {
  const std::string line = util::json_write(record, 0) + "\n";
  std::lock_guard lock(mutex_);
  if (!declared_.insert(key).second) {
    write_locked(line);
    return;
  }
  // A new campaign's declaration and its first cell share one write loop
  // and one fsync; a kill mid-write still tears only the last line.
  util::JsonValue declaration = util::JsonValue::object();
  declaration.set("type", util::JsonValue::string("campaign"));
  declaration.set("key", util::JsonValue::string(key));
  declaration.set("signature", campaign_signature(spec));
  write_locked(util::json_write(declaration, 0) + "\n" + line);
}

void CampaignJournal::append_cell(const CampaignSpec& spec, const RunMetrics& m) {
  const std::string key = campaign_key(spec);
  util::JsonValue record = util::JsonValue::object();
  record.set("type", util::JsonValue::string("cell"));
  record.set("key", util::JsonValue::string(key));
  record.set("seed", util::JsonValue::integer(static_cast<std::int64_t>(m.seed)));
  record.set("metrics", run_metrics_to_json(m));
  append_record(spec, key, record);
}

void CampaignJournal::append_error(const CampaignSpec& spec,
                                   const CampaignError& e) {
  const std::string key = campaign_key(spec);
  util::JsonValue record = util::JsonValue::object();
  record.set("type", util::JsonValue::string("cell"));
  record.set("key", util::JsonValue::string(key));
  record.set("seed", util::JsonValue::integer(static_cast<std::int64_t>(e.seed)));
  record.set("error", campaign_error_to_json(e));
  append_record(spec, key, record);
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
      if (error != nullptr && error->empty()) {
        *error = "campaign key \"" + key +
                 "\" declared with different signatures";
      }
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
