// util::json — parser/writer round trips and malformed-input rejection.
#include "util/json.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace lumen::util
