// lumen_util: one field list per JSON document.
//
// A document type declares its fields once, in output order, as a function
// template next to the type:
//
//   template <typename Io, util::FieldsOf<RunConfig> C>
//   void fields(Io& io, C& config) {
//     io("scheduler", config.scheduler, scheduler_from_string);  // an enum
//     io("seed", config.seed);
//     io.omit_default("deadline_ms", config.deadline_ms);
//     io("fault", config.fault);  // a nested document with its own list
//   }
//
// write_fields(doc) runs the list with a FieldWriter (C is const) and
// read_fields(json, doc) runs the same list with a FieldReader, so a key is
// spelled once and the writer and the reader cannot drift apart.
//
// Field kinds: bool; unsigned integers (written exact; read as non-negative
// integers, the sign check guarding the cast); double (non-finite written as
// null); std::string; std::vector of any field kind; enums, passed with
// their *_from_string (written with their ADL to_string); and nested
// documents, i.e. any other type with its own `fields`.
//
// Reading: a missing key keeps its default (a missing constant is fine,
// too); an unknown key, a wrong type, a negative integer, an unknown enum
// name, a constant with another value and a missing `required` field are
// errors naming the key's dotted path ("run.fault.crash.count"). Range
// rules are not the reader's: each document's validator owns them.
#pragma once

#include "util/json.hpp"

#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace lumen::util {

/// `C` is the document type `Doc`, const when written, mutable when read.
template <typename C, typename Doc>
concept FieldsOf = std::same_as<std::remove_const_t<C>, Doc>;

/// Third argument of a double field whose null reads back as +infinity.
struct NullIsInfinity {};
inline constexpr NullIsInfinity null_is_infinity{};

template <typename Doc>
[[nodiscard]] JsonValue write_fields(const Doc& doc);

/// Reads `json` into `doc` through its field list. `path` names the object
/// in messages ("run.fault"); "" for a document root. Returns the first
/// problem, or "" when there is none.
template <typename Doc>
[[nodiscard]] std::string read_fields(const JsonValue& json, Doc& doc,
                                      const std::string& path = "");

namespace detail {
template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;
}  // namespace detail

class FieldWriter {
 public:
  template <typename T>
  void operator()(std::string_view key, const T& value) {
    object_.set(std::string(key), encode(value));
  }
  template <typename E>
  void operator()(std::string_view key, const E& value,
                  std::optional<E> (*)(std::string_view)) {
    object_.set(std::string(key),
                JsonValue::string(std::string(to_string(value))));
  }
  void operator()(std::string_view key, double value, NullIsInfinity) {
    (*this)(key, value);
  }
  /// Written only when the value differs from T{}.
  template <typename T>
  void omit_default(std::string_view key, const T& value) {
    if (!(value == T{})) (*this)(key, value);
  }
  template <typename T>
  void required(std::string_view key, const T& value) {
    (*this)(key, value);
  }
  void constant(std::string_view key, std::string_view text) {
    object_.set(std::string(key), JsonValue::string(std::string(text)));
  }
  void constant(std::string_view key, std::int64_t number) {
    object_.set(std::string(key), JsonValue::integer(number));
  }

  [[nodiscard]] JsonValue take() { return std::move(object_); }

 private:
  template <typename T>
  static JsonValue encode(const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      return JsonValue::boolean(value);
    } else if constexpr (std::is_unsigned_v<T>) {
      return JsonValue::integer(static_cast<std::int64_t>(value));
    } else if constexpr (std::is_floating_point_v<T>) {
      return JsonValue::number(value);
    } else if constexpr (std::is_same_v<T, std::string>) {
      return JsonValue::string(value);
    } else if constexpr (detail::kIsVector<T>) {
      JsonValue array = JsonValue::array();
      for (const auto& item : value) array.push_back(encode(item));
      return array;
    } else {
      return write_fields(value);
    }
  }

  JsonValue object_ = JsonValue::object();
};

class FieldReader {
 public:
  /// Reads the members of `object`, which names itself `path` in messages;
  /// the first problem lands in `error`.
  FieldReader(const JsonValue& object, const std::string& path,
              std::string& error)
      : object_(object),
        prefix_(path.empty() ? path : path + "."),
        error_(error),
        claimed_(object.members().size(), false) {}

  template <typename T>
  void operator()(std::string_view key, T& value) {
    if (const JsonValue* json = claim(key)) decode(*json, value, path(key));
  }
  template <typename E>
  void operator()(std::string_view key, E& value,
                  std::optional<E> (*from_string)(std::string_view)) {
    const JsonValue* json = claim(key);
    if (json == nullptr) return;
    if (!json->is_string()) return fail(path(key) + " must be a string");
    if (const auto parsed = from_string(json->as_string())) {
      value = *parsed;
    } else {
      fail(path(key) + ": unknown name \"" + json->as_string() + "\"");
    }
  }
  void operator()(std::string_view key, double& value, NullIsInfinity) {
    const JsonValue* json = claim(key);
    if (json == nullptr) return;
    if (json->kind() == JsonValue::Kind::kNull) {
      value = std::numeric_limits<double>::infinity();
    } else {
      decode(*json, value, path(key));
    }
  }
  template <typename T>
  void omit_default(std::string_view key, T& value) {
    (*this)(key, value);
  }
  template <typename T>
  void required(std::string_view key, T& value) {
    if (object_.find(key) == nullptr) return fail("missing " + path(key));
    (*this)(key, value);
  }
  void constant(std::string_view key, std::string_view text) {
    const JsonValue* json = claim(key);
    if (json != nullptr && (!json->is_string() || json->as_string() != text)) {
      fail(path(key) + " must be \"" + std::string(text) + "\"");
    }
  }
  void constant(std::string_view key, std::int64_t number) {
    const JsonValue* json = claim(key);
    if (json != nullptr && (!json->is_integer() || json->as_int() != number)) {
      fail(path(key) + " must be " + std::to_string(number));
    }
  }

  /// Fails on the first member no field claimed.
  void finish() {
    for (std::size_t i = 0; i < claimed_.size(); ++i) {
      if (!claimed_[i]) {
        return fail("unknown key \"" + path(object_.members()[i].first) + "\"");
      }
    }
  }

 private:
  std::string path(std::string_view key) const {
    return prefix_ + std::string(key);
  }

  void fail(std::string message) {
    if (error_.empty()) error_ = std::move(message);
  }

  const JsonValue* claim(std::string_view key) {
    const auto& members = object_.members();
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (members[i].first == key) {
        claimed_[i] = true;
        return &members[i].second;
      }
    }
    return nullptr;
  }

  template <typename T>
  void decode(const JsonValue& json, T& value, const std::string& at) {
    if constexpr (std::is_same_v<T, bool>) {
      if (!json.is_bool()) return fail(at + " must be a boolean");
      value = json.as_bool();
    } else if constexpr (std::is_unsigned_v<T>) {
      if (!json.is_integer() || json.as_int() < 0) {
        return fail(at + " must be a non-negative integer");
      }
      value = static_cast<T>(json.as_int());
    } else if constexpr (std::is_floating_point_v<T>) {
      if (!json.is_number()) return fail(at + " must be a number");
      value = json.as_double();
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (!json.is_string()) return fail(at + " must be a string");
      value = json.as_string();
    } else if constexpr (detail::kIsVector<T>) {
      if (!json.is_array()) return fail(at + " must be an array");
      value.assign(json.items().size(), {});
      for (std::size_t i = 0; i < value.size(); ++i) {
        decode(json.items()[i], value[i], at + "[" + std::to_string(i) + "]");
      }
    } else if (std::string problem = read_fields(json, value, at);
               !problem.empty()) {
      fail(std::move(problem));
    }
  }

  const JsonValue& object_;
  std::string prefix_;
  std::string& error_;
  std::vector<bool> claimed_;
};

template <typename Doc>
JsonValue write_fields(const Doc& doc) {
  FieldWriter writer;
  fields(writer, doc);
  return writer.take();
}

template <typename Doc>
std::string read_fields(const JsonValue& json, Doc& doc,
                        const std::string& path) {
  if (!json.is_object()) {
    return (path.empty() ? "document" : path) + " must be a JSON object";
  }
  std::string error;
  FieldReader reader(json, path, error);
  fields(reader, doc);
  reader.finish();
  return error;
}

/// Parses `text` and reads it into `doc`; returns the first problem.
template <typename Doc>
[[nodiscard]] std::string read_document(std::string_view text, Doc& doc) {
  std::string error;
  const auto json = json_parse(text, &error);
  if (!json) return "invalid JSON: " + error;
  return read_fields(*json, doc);
}

}  // namespace lumen::util
