#include "util/json.hpp"

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace lumen::util {

JsonValue JsonValue::null() { return JsonValue{}; }

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  // Keep integral doubles exact in output (campaign sizes, counts).
  if (std::isfinite(d) && d == std::floor(d) && std::abs(d) < 9.0e15) {
    v.integral_ = true;
    v.int_ = static_cast<std::int64_t>(d);
  }
  return v;
}

JsonValue JsonValue::integer(std::int64_t i) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.integral_ = true;
  v.int_ = i;
  v.number_ = static_cast<double>(i);
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

JsonValue& JsonValue::push_back(JsonValue v) {
  items_.push_back(std::move(v));
  return *this;
}

JsonValue& JsonValue::set(std::string key, JsonValue v) {
  members_.emplace_back(std::move(key), std::move(v));
  return *this;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string number_text(const JsonValue& v) {
  if (!std::isfinite(v.as_double())) return "null";
  char buf[64];
  if (v.is_integer()) {
    std::snprintf(buf, sizeof buf, "%" PRId64, v.as_int());
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v.as_double());
  }
  return buf;
}

void write_value(std::ostringstream& os, const JsonValue& v, int indent,
                 int depth) {
  const auto newline_pad = [&](int d) {
    if (indent > 0) {
      os << '\n';
      for (int i = 0; i < d * indent; ++i) os << ' ';
    }
  };
  switch (v.kind()) {
    case JsonValue::Kind::kNull: os << "null"; break;
    case JsonValue::Kind::kBool: os << (v.as_bool() ? "true" : "false"); break;
    case JsonValue::Kind::kNumber: os << number_text(v); break;
    case JsonValue::Kind::kString:
      os << '"' << json_escape(v.as_string()) << '"';
      break;
    case JsonValue::Kind::kArray: {
      if (v.items().empty()) {
        os << "[]";
        break;
      }
      // Arrays of scalars stay on one line (readable ns-lists); arrays of
      // containers get one element per line.
      bool scalar = true;
      for (const auto& item : v.items()) {
        scalar = scalar && !item.is_array() && !item.is_object();
      }
      os << '[';
      bool first = true;
      for (const auto& item : v.items()) {
        if (!first) os << (scalar && indent > 0 ? ", " : ",");
        if (!scalar) newline_pad(depth + 1);
        write_value(os, item, indent, depth + 1);
        first = false;
      }
      if (!scalar) newline_pad(depth);
      os << ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      if (v.members().empty()) {
        os << "{}";
        break;
      }
      os << '{';
      bool first = true;
      for (const auto& [key, value] : v.members()) {
        if (!first) os << ',';
        newline_pad(depth + 1);
        os << '"' << json_escape(key) << "\":";
        if (indent > 0) os << ' ';
        write_value(os, value, indent, depth + 1);
        first = false;
      }
      newline_pad(depth);
      os << '}';
      break;
    }
  }
}

class Parser {
 public:
  // Containers nested deeper than this fail with a clear error instead of
  // overflowing the recursive-descent stack (a hostile --spec file is the
  // threat model; real scenario documents nest 3-4 levels).
  static constexpr int kMaxDepth = 128;

  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run(std::string* error) {
    auto v = parse_value();
    if (v) {
      skip_ws();
      if (pos_ != text_.size()) {
        fail("trailing characters after document");
        v.reset();
      }
    }
    if (!v && error != nullptr) *error = error_;
    return v;
  }

 private:
  void fail(std::string_view msg) {
    if (error_.empty()) {
      error_ = std::string(msg) + " at byte " + std::to_string(pos_);
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<JsonValue> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ >= kMaxDepth) {
        fail("nesting deeper than 128 levels");
        return std::nullopt;
      }
      ++depth_;
      auto v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') {
      auto s = parse_string();
      if (!s) return std::nullopt;
      return JsonValue::string(std::move(*s));
    }
    if (literal("true")) return JsonValue::boolean(true);
    if (literal("false")) return JsonValue::boolean(false);
    if (literal("null")) return JsonValue::null();
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("unexpected character");
    return std::nullopt;
  }

  std::optional<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    const std::string lexeme(text_.substr(start, pos_ - start));
    if (lexeme.empty() || lexeme == "-") {
      fail("malformed number");
      return std::nullopt;
    }
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long i = std::strtoll(lexeme.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        return JsonValue::integer(i);
      }
      // Out-of-range integer: fall through to double.
    }
    char* end = nullptr;
    const double d = std::strtod(lexeme.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      fail("malformed number");
      return std::nullopt;
    }
    // An overflowing literal (1e999) parses to infinity, which the
    // deterministic writer cannot represent — rejecting it here keeps the
    // byte-exact round-trip guarantee total over accepted documents.
    if (!std::isfinite(d)) {
      fail("number out of range");
      return std::nullopt;
    }
    return JsonValue::number(d);
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) {
      fail("expected string");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("truncated \\u escape");
              return std::nullopt;
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else {
                fail("bad \\u escape");
                return std::nullopt;
              }
            }
            // Specs and results are ASCII; encode BMP code points as UTF-8.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            fail("bad escape");
            return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<JsonValue> parse_array() {
    if (!consume('[')) {
      fail("expected array");
      return std::nullopt;
    }
    JsonValue out = JsonValue::array();
    skip_ws();
    if (consume(']')) return out;
    while (true) {
      auto v = parse_value();
      if (!v) return std::nullopt;
      out.push_back(std::move(*v));
      if (consume(',')) continue;
      if (consume(']')) return out;
      fail("expected ',' or ']'");
      return std::nullopt;
    }
  }

  std::optional<JsonValue> parse_object() {
    if (!consume('{')) {
      fail("expected object");
      return std::nullopt;
    }
    JsonValue out = JsonValue::object();
    skip_ws();
    if (consume('}')) return out;
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key) return std::nullopt;
      if (out.find(*key) != nullptr) {
        fail("duplicate key \"" + json_escape(*key) + "\"");
        return std::nullopt;
      }
      if (!consume(':')) {
        fail("expected ':'");
        return std::nullopt;
      }
      auto v = parse_value();
      if (!v) return std::nullopt;
      out.set(std::move(*key), std::move(*v));
      if (consume(',')) continue;
      if (consume('}')) return out;
      fail("expected ',' or '}'");
      return std::nullopt;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> json_parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

std::string json_write(const JsonValue& v, int indent) {
  std::ostringstream os;
  write_value(os, v, indent, 0);
  return os.str();
}

}  // namespace lumen::util
