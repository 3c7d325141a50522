#include "fabric/protocol.hpp"

#include "util/json.hpp"

namespace lumen::fabric {

namespace {
constexpr std::string_view kEventType = "lumen-worker";
}

std::string worker_event_to_line(const WorkerEvent& event) {
  util::JsonValue obj = util::JsonValue::object();
  obj.set("type", util::JsonValue::string(std::string(kEventType)));
  obj.set("event",
          util::JsonValue::string(std::string(to_string(event.kind))));
  obj.set("token",
          util::JsonValue::integer(static_cast<std::int64_t>(event.token)));
  switch (event.kind) {
    case WorkerEventKind::kHello:
      obj.set("pid", util::JsonValue::integer(event.pid));
      break;
    case WorkerEventKind::kCell:
      obj.set("seed",
              util::JsonValue::integer(static_cast<std::int64_t>(event.seed)));
      [[fallthrough]];
    case WorkerEventKind::kHeartbeat:
      obj.set("cells",
              util::JsonValue::integer(static_cast<std::int64_t>(event.cells)));
      break;
    case WorkerEventKind::kDone:
      obj.set("cells",
              util::JsonValue::integer(static_cast<std::int64_t>(event.cells)));
      obj.set("errors", util::JsonValue::integer(
                            static_cast<std::int64_t>(event.errors)));
      break;
  }
  return util::json_write(obj, 0);
}

std::optional<WorkerEvent> worker_event_from_line(std::string_view line,
                                                  std::string* error) {
  const auto fail = [error](std::string why) -> std::optional<WorkerEvent> {
    if (error != nullptr && error->empty()) *error = std::move(why);
    return std::nullopt;
  };
  std::string parse_error;
  const auto doc = util::json_parse(line, &parse_error);
  if (!doc || !doc->is_object()) {
    return fail(parse_error.empty() ? "not a JSON object" : parse_error);
  }
  const auto* type = doc->find("type");
  if (type == nullptr || !type->is_string() ||
      type->as_string() != kEventType) {
    return fail("not a lumen-worker event");
  }
  const auto* event = doc->find("event");
  if (event == nullptr || !event->is_string()) {
    return fail("event must be a string");
  }
  WorkerEvent out;
  const auto kind = util::parse_name(kWorkerEventKindNames, event->as_string());
  if (!kind) return fail("unknown event \"" + event->as_string() + "\"");
  out.kind = *kind;
  const auto want_u64 = [&](std::string_view key, std::uint64_t& into,
                            bool required) {
    const auto* v = doc->find(key);
    if (v == nullptr) return !required;
    if (!v->is_integer() || v->as_int() < 0) return false;
    into = static_cast<std::uint64_t>(v->as_int());
    return true;
  };
  if (!want_u64("token", out.token, true)) return fail("token missing/invalid");
  if (!want_u64("cells", out.cells, out.kind == WorkerEventKind::kHeartbeat ||
                                        out.kind == WorkerEventKind::kCell ||
                                        out.kind == WorkerEventKind::kDone)) {
    return fail("cells missing/invalid");
  }
  if (!want_u64("seed", out.seed, out.kind == WorkerEventKind::kCell)) {
    return fail("seed missing/invalid");
  }
  if (!want_u64("errors", out.errors, false)) return fail("errors invalid");
  if (out.kind == WorkerEventKind::kHello) {
    const auto* pid = doc->find("pid");
    if (pid == nullptr || !pid->is_integer()) return fail("pid missing/invalid");
    out.pid = pid->as_int();
  }
  return out;
}

}  // namespace lumen::fabric
