// lumen_util: minimal JSON value tree.
//
// The experiment subsystem needs one serialization format for scenario
// specs and machine-readable results. This is a deliberately small,
// dependency-free JSON: a value tree with insertion-ordered objects, a
// recursive-descent parser, and a deterministic writer (fixed key order is
// the caller's, numbers via shortest-round-trip "%.17g", integers kept
// exact). Determinism is what makes the ScenarioSpec byte-identical
// round-trip guarantee testable.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lumen::util {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  static JsonValue null();
  static JsonValue boolean(bool b);
  static JsonValue number(double v);
  static JsonValue integer(std::int64_t v);
  static JsonValue string(std::string s);
  static JsonValue array();
  static JsonValue object();

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  /// True for numbers written without fraction/exponent that fit int64.
  [[nodiscard]] bool is_integer() const noexcept {
    return kind_ == Kind::kNumber && integral_;
  }
  [[nodiscard]] bool is_string() const noexcept { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::kObject; }

  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  [[nodiscard]] double as_double() const noexcept { return number_; }
  [[nodiscard]] std::int64_t as_int() const noexcept { return int_; }
  [[nodiscard]] const std::string& as_string() const noexcept { return string_; }
  [[nodiscard]] const std::vector<JsonValue>& items() const noexcept {
    return items_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members()
      const noexcept {
    return members_;
  }

  /// Array append.
  JsonValue& push_back(JsonValue v);
  /// Object append (insertion order preserved). Does not check for a
  /// duplicate key: the writers' field lists name each key once, and
  /// json_parse rejects a document that repeats one.
  JsonValue& set(std::string key, JsonValue v);

  /// Object lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  bool integral_ = false;
  double number_ = 0.0;
  std::int64_t int_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses a complete JSON document (trailing garbage is an error; so is an
/// object that repeats a key). On failure returns nullopt and, when `error`
/// is non-null, a message with a byte offset. Containers nested deeper than
/// 128 levels are rejected (a maliciously nested document must not overflow
/// the parser stack).
[[nodiscard]] std::optional<JsonValue> json_parse(std::string_view text,
                                                  std::string* error = nullptr);

/// Serializes deterministically. indent > 0 pretty-prints with that many
/// spaces per level; indent == 0 emits the compact one-line form. A
/// non-finite number has no JSON literal and is written as null, as
/// JSON.stringify does; readers that allow it map null back themselves.
[[nodiscard]] std::string json_write(const JsonValue& v, int indent = 2);

/// Escapes a string for embedding inside JSON quotes (no surrounding quotes).
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace lumen::util
