#include "fabric/protocol.hpp"

namespace lumen::fabric {

std::string worker_event_to_line(const WorkerEvent& event) {
  return util::json_write(util::write_fields(event), 0);
}

std::optional<WorkerEvent> worker_event_from_line(std::string_view line,
                                                  std::string* error) {
  WorkerEvent event;
  std::string problem = util::read_document(line, event);
  if (problem.empty()) return event;
  if (error != nullptr && error->empty()) *error = std::move(problem);
  return std::nullopt;
}

}  // namespace lumen::fabric
