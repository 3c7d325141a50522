// util::json — parser/writer round trips and malformed-input rejection —
// and util/fields.hpp, the field lists that drive both a document's writer
// and its reader.
#include "util/fields.hpp"
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lumen::util {
namespace {

TEST(Json, ScalarConstruction) {
  EXPECT_EQ(JsonValue::null().kind(), JsonValue::Kind::kNull);
  EXPECT_TRUE(JsonValue::boolean(true).as_bool());
  EXPECT_DOUBLE_EQ(JsonValue::number(2.5).as_double(), 2.5);
  EXPECT_EQ(JsonValue::integer(42).as_int(), 42);
  EXPECT_TRUE(JsonValue::integer(42).is_integer());
  EXPECT_EQ(JsonValue::string("hi").as_string(), "hi");
}

TEST(Json, IntegralDoubleKeepsExactForm) {
  // number(3.0) must print "3", not "3.0000...", for deterministic specs.
  EXPECT_EQ(json_write(JsonValue::number(3.0), 0), "3");
  EXPECT_EQ(json_write(JsonValue::number(0.5), 0), "0.5");
}

TEST(Json, ObjectInsertionOrderPreserved) {
  JsonValue obj = JsonValue::object();
  obj.set("zeta", JsonValue::integer(1));
  obj.set("alpha", JsonValue::integer(2));
  EXPECT_EQ(json_write(obj, 0), "{\"zeta\":1,\"alpha\":2}");
  ASSERT_NE(obj.find("alpha"), nullptr);
  EXPECT_EQ(obj.find("alpha")->as_int(), 2);
  EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(Json, ParseBasicDocument) {
  const auto v = json_parse(
      R"({"name":"e1","ok":true,"n":64,"x":-1.5,"ns":[8,16],"nested":{"a":null}})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("name")->as_string(), "e1");
  EXPECT_TRUE(v->find("ok")->as_bool());
  EXPECT_EQ(v->find("n")->as_int(), 64);
  EXPECT_DOUBLE_EQ(v->find("x")->as_double(), -1.5);
  ASSERT_EQ(v->find("ns")->items().size(), 2u);
  EXPECT_EQ(v->find("ns")->items()[1].as_int(), 16);
  EXPECT_EQ(v->find("nested")->find("a")->kind(), JsonValue::Kind::kNull);
}

TEST(Json, ParseWhitespaceTolerant) {
  const auto v = json_parse("  { \"a\" : [ 1 , 2 ] }\n");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("a")->items().size(), 2u);
}

TEST(Json, RoundTripIsByteIdentical) {
  JsonValue obj = JsonValue::object();
  obj.set("algorithm", JsonValue::string("async-log"));
  obj.set("runs", JsonValue::integer(20));
  obj.set("min_separation", JsonValue::number(1e-3));
  JsonValue ns = JsonValue::array();
  ns.push_back(JsonValue::integer(8));
  ns.push_back(JsonValue::integer(16));
  obj.set("ns", std::move(ns));

  const std::string once = json_write(obj);
  const auto parsed = json_parse(once);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(json_write(*parsed), once);
}

TEST(Json, StringEscapes) {
  JsonValue v = JsonValue::string("a\"b\\c\nd\te");
  const std::string text = json_write(v, 0);
  const auto parsed = json_parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), "a\"b\\c\nd\te");
  const auto unicode = json_parse("\"\\u0041\\u00e9\"");
  ASSERT_TRUE(unicode.has_value());
  EXPECT_EQ(unicode->as_string(), "A\xc3\xa9");
}

TEST(Json, MalformedInputsRejectedWithError) {
  const char* bad[] = {
      "",          "{",         "{\"a\":}",  "[1,]",       "{\"a\":1,}",
      "tru",       "\"open",    "{\"a\" 1}", "[1 2]",      "01x",
      "{\"a\":1} trailing",     "nul",       "-",          "{\"a\":--1}",
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(json_parse(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(Json, DeeplyNestedInputRejectedNotOverflowed) {
  // A hostile or corrupted document must fail with a parse error, not a
  // stack overflow in the recursive-descent parser.
  std::string deep(200, '[');
  deep += std::string(200, ']');
  std::string error;
  EXPECT_FALSE(json_parse(deep, &error).has_value());
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;

  // Mixed object/array nesting hits the same guard.
  std::string mixed;
  for (int i = 0; i < 100; ++i) mixed += "{\"a\":[";
  std::string mixed_error;
  EXPECT_FALSE(json_parse(mixed, &mixed_error).has_value());
  EXPECT_NE(mixed_error.find("nesting"), std::string::npos) << mixed_error;
}

TEST(Json, ModeratelyNestedInputStillParses) {
  std::string doc(100, '[');
  doc += std::string(100, ']');
  const auto v = json_parse(doc);
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->is_array());
}

TEST(Json, LargeIntegerPreserved) {
  const auto v = json_parse("1234567890123456789");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_integer());
  EXPECT_EQ(v->as_int(), 1234567890123456789LL);
  EXPECT_EQ(json_write(*v, 0), "1234567890123456789");
}

TEST(Json, PrettyPrintShape) {
  JsonValue obj = JsonValue::object();
  obj.set("a", JsonValue::integer(1));
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue::integer(1));
  arr.push_back(JsonValue::integer(2));
  obj.set("ns", std::move(arr));
  EXPECT_EQ(json_write(obj, 2), "{\n  \"a\": 1,\n  \"ns\": [1, 2]\n}");
}

TEST(Json, DuplicateObjectKeysAreRejected) {
  std::string error;
  EXPECT_FALSE(json_parse(R"({"runs": 0, "runs": 2})", &error).has_value());
  EXPECT_NE(error.find("duplicate key \"runs\""), std::string::npos) << error;
  EXPECT_NE(error.find("at byte 18"), std::string::npos) << error;
  // Nested objects are checked too; equal keys in sibling objects are fine.
  EXPECT_FALSE(json_parse(R"({"a": {"b": 1, "b": 1}})").has_value());
  EXPECT_TRUE(json_parse(R"({"a": {"b": 1}, "c": {"b": 1}})").has_value());
}

// ---------------------------------------------------------------------------
// Field lists.

enum class Shade { kLight, kDark };

std::string_view to_string(Shade s) noexcept {
  return s == Shade::kLight ? "light" : "dark";
}

std::optional<Shade> shade_from_string(std::string_view name) noexcept {
  if (name == "light") return Shade::kLight;
  if (name == "dark") return Shade::kDark;
  return std::nullopt;
}

struct Inner {
  std::uint64_t count = 0;
  std::vector<double> xs;
};

struct Doc {
  std::string name = "x";
  Shade shade = Shade::kLight;
  std::size_t size = 3;
  double gap = 0.5;
  Inner inner;
  std::uint64_t timeout_ms = 0;
};

template <typename Io, FieldsOf<Inner> C>
void fields(Io& io, C& inner) {
  io("count", inner.count);
  io("xs", inner.xs);
}

template <typename Io, FieldsOf<Doc> C>
void fields(Io& io, C& doc) {
  io.constant("type", "doc");
  io.constant("version", 2);
  io("name", doc.name);
  io("shade", doc.shade, shade_from_string);
  io("size", doc.size);
  io("gap", doc.gap, null_is_infinity);
  io("inner", doc.inner);
  io.omit_default("timeout_ms", doc.timeout_ms);
}

TEST(FieldList, WritesKeysInListOrderAndOmitsDefaults) {
  Doc doc;
  EXPECT_EQ(json_write(write_fields(doc), 0),
            R"({"type":"doc","version":2,"name":"x","shade":"light","size":3,)"
            R"("gap":0.5,"inner":{"count":0,"xs":[]}})");
  doc.shade = Shade::kDark;
  doc.inner.xs = {1.0, 0.25};
  doc.timeout_ms = 40;
  doc.gap = std::numeric_limits<double>::infinity();
  EXPECT_EQ(json_write(write_fields(doc), 0),
            R"({"type":"doc","version":2,"name":"x","shade":"dark","size":3,)"
            R"("gap":null,"inner":{"count":0,"xs":[1,0.25]},"timeout_ms":40})");
}

TEST(FieldList, ReadingKeepsDefaultsAndRoundTrips) {
  Doc doc;
  ASSERT_EQ(read_document(R"({"type": "doc", "version": 2, "size": 7})", doc),
            "");
  EXPECT_EQ(doc.size, 7u);
  EXPECT_EQ(doc.name, "x");
  EXPECT_EQ(doc.shade, Shade::kLight);
  EXPECT_EQ(doc.gap, 0.5);
  EXPECT_EQ(doc.timeout_ms, 0u);

  Doc custom;
  custom.name = "y";
  custom.shade = Shade::kDark;
  custom.inner.count = 9;
  custom.inner.xs = {2.5};
  custom.timeout_ms = 3;
  custom.gap = std::numeric_limits<double>::infinity();
  const std::string text = json_write(write_fields(custom));
  Doc back;
  ASSERT_EQ(read_document(text, back), "");
  EXPECT_EQ(back.inner.count, 9u);
  EXPECT_TRUE(std::isinf(back.gap));
  EXPECT_EQ(json_write(write_fields(back)), text);
}

TEST(FieldList, ErrorsNameTheDottedPath) {
  const auto error_of = [](std::string_view members) {
    Doc doc;
    return read_document(
        R"({"type": "doc", "version": 2)" + std::string(members) + "}", doc);
  };
  EXPECT_EQ(error_of(R"(, "inner": {"count": -1})"),
            "inner.count must be a non-negative integer");
  EXPECT_EQ(error_of(R"(, "inner": {"bogus": 1})"),
            "unknown key \"inner.bogus\"");
  EXPECT_EQ(error_of(R"(, "inner": {"xs": [1, "a"]})"),
            "inner.xs[1] must be a number");
  EXPECT_EQ(error_of(R"(, "inner": [])"), "inner must be a JSON object");
  EXPECT_EQ(error_of(R"(, "shade": "green")"),
            "shade: unknown name \"green\"");
  EXPECT_EQ(error_of(R"(, "shade": 1)"), "shade must be a string");
  EXPECT_EQ(error_of(R"(, "size": 1.5)"),
            "size must be a non-negative integer");
  EXPECT_EQ(error_of(R"(, "name": false)"), "name must be a string");
  EXPECT_EQ(error_of(R"(, "gap": "wide")"), "gap must be a number");

  Doc doc;
  EXPECT_EQ(read_document(R"({"type": "other"})", doc),
            "type must be \"doc\"");
  EXPECT_EQ(read_document(R"({"type": "doc", "version": 1})", doc),
            "version must be 2");
  EXPECT_EQ(read_document("[]", doc), "document must be a JSON object");
  // A nested document read on its own names itself by its path.
  Inner inner;
  const auto json = json_parse(R"({"count": true})");
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ(read_fields(*json, inner, "doc.inner"),
            "doc.inner.count must be a non-negative integer");
}

}  // namespace
}  // namespace lumen::util
