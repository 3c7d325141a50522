#include "fabric/lease.hpp"

#include "analysis/journal.hpp"

#include <fstream>
#include <sstream>

namespace lumen::fabric {

template <typename Io, util::FieldsOf<Lease> C>
void fields(Io& io, C& lease) {
  io.constant("type", "lumen-lease");
  io.constant("version", 1);
  io("campaign_key", lease.campaign_key);
  io("token", lease.token);
  io("journal_path", lease.journal_path);
  io("resume_paths", lease.resume_paths);
  io("heartbeat_ms", lease.heartbeat_ms);
  io.required("scenario", lease.scenario);
}

analysis::CampaignSpec lease_campaign(const Lease& lease) {
  return lease.scenario.campaign(lease.scenario.ns.empty()
                                     ? 1
                                     : lease.scenario.ns[0]);
}

std::string lease_to_json(const Lease& lease) {
  return util::json_write(util::write_fields(lease)) + "\n";
}

LeaseParse lease_from_json(std::string_view text) {
  LeaseParse out;
  Lease lease;
  out.error = util::read_document(text, lease);
  if (!out.error.empty()) return out;
  if (std::string problem = analysis::validate_scenario(lease.scenario);
      !problem.empty()) {
    out.error = "scenario." + problem;
    return out;
  }
  if (lease.scenario.ns.size() != 1) {
    out.error = "scenario.ns must contain exactly one sweep size";
    return out;
  }
  if (lease.heartbeat_ms < 1) {
    out.error = "heartbeat_ms must be >= 1";
    return out;
  }
  if (lease.journal_path.empty()) {
    out.error = "journal_path must be non-empty";
    return out;
  }
  // The key doubles as a checksum: a lease pointing at the wrong scenario
  // (stale file, manual edit) must not silently run the wrong cells under
  // the right journal name.
  const std::string expected = analysis::campaign_key(lease_campaign(lease));
  if (lease.campaign_key != expected) {
    out.error = "campaign_key: lease declares " + lease.campaign_key +
                " but the embedded scenario hashes to " + expected;
    return out;
  }
  out.lease = std::move(lease);
  return out;
}

bool save_lease(const Lease& lease, const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << lease_to_json(lease);
  return static_cast<bool>(f.flush());
}

LeaseParse load_lease(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    LeaseParse out;
    out.error = "cannot open " + path;
    return out;
  }
  std::ostringstream text;
  text << f.rdbuf();
  return lease_from_json(text.str());
}

}  // namespace lumen::fabric
