#include "json/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace gptc::json {
namespace {

TEST(JsonValue, TypesAndAccessors) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(42).is_int());
  EXPECT_TRUE(Json(3.5).is_double());
  EXPECT_TRUE(Json("hi").is_string());
  EXPECT_TRUE(Json::array().is_array());
  EXPECT_TRUE(Json::object().is_object());
  EXPECT_TRUE(Json(42).is_number());
  EXPECT_TRUE(Json(3.5).is_number());
  EXPECT_EQ(Json(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(Json(42).as_double(), 42.0);
  EXPECT_EQ(Json(4.0).as_int(), 4);  // integral double converts
  EXPECT_EQ(Json("hi").as_string(), "hi");
}

TEST(JsonValue, TypeMismatchThrows) {
  EXPECT_THROW(Json("x").as_int(), JsonError);
  EXPECT_THROW(Json(1).as_string(), JsonError);
  EXPECT_THROW(Json(1.5).as_int(), JsonError);  // non-integral double
  EXPECT_THROW(Json("x").as_array(), JsonError);
  EXPECT_THROW(Json(1).as_object(), JsonError);
  EXPECT_THROW(Json(1).as_bool(), JsonError);
}

TEST(JsonValue, ObjectAccess) {
  Json j;
  j["a"] = 1;  // null auto-converts to object
  j["b"]["c"] = "deep";
  EXPECT_EQ(j.at("a").as_int(), 1);
  EXPECT_EQ(j.at("b").at("c").as_string(), "deep");
  EXPECT_TRUE(j.contains("a"));
  EXPECT_FALSE(j.contains("zz"));
  EXPECT_THROW(j.at("zz"), JsonError);
  EXPECT_EQ(j.get_or("zz", Json(7)).as_int(), 7);
  EXPECT_EQ(j.get_or("a", Json(7)).as_int(), 1);
  EXPECT_EQ(j.size(), 2u);
}

TEST(JsonValue, ArrayAccess) {
  Json j;
  j.push_back(1);  // null auto-converts to array
  j.push_back("two");
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j.at(std::size_t{1}).as_string(), "two");
  EXPECT_THROW(j.at(std::size_t{5}), JsonError);
}

TEST(JsonValue, NumericCrossTypeEquality) {
  EXPECT_TRUE(Json(1) == Json(1.0));
  EXPECT_FALSE(Json(1) == Json(1.5));
  EXPECT_TRUE(Json(2) == Json(2));
  EXPECT_FALSE(Json(1) == Json("1"));
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_EQ(Json::parse("-17").as_int(), -17);
  EXPECT_TRUE(Json::parse("-17").is_int());
  EXPECT_DOUBLE_EQ(Json::parse("2.5e3").as_double(), 2500.0);
  EXPECT_TRUE(Json::parse("2.5e3").is_double());
  EXPECT_EQ(Json::parse("\"abc\"").as_string(), "abc");
}

TEST(JsonParse, NestedStructure) {
  const Json j = Json::parse(R"({
    "name": "pdgeqrf",
    "tasks": [{"m": 10000, "n": 10000}],
    "ok": true,
    "ratio": 0.25
  })");
  EXPECT_EQ(j.at("name").as_string(), "pdgeqrf");
  EXPECT_EQ(j.at("tasks").at(std::size_t{0}).at("m").as_int(), 10000);
  EXPECT_TRUE(j.at("ok").as_bool());
  EXPECT_DOUBLE_EQ(j.at("ratio").as_double(), 0.25);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\nb\t\"q\"\\")").as_string(), "a\nb\t\"q\"\\");
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
  // Surrogate pair: U+1F600 (emoji) -> 4-byte UTF-8.
  EXPECT_EQ(Json::parse(R"("😀")").as_string(), "\xF0\x9F\x98\x80");
  // 2- and 3-byte UTF-8.
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xC3\xA9");
  EXPECT_EQ(Json::parse(R"("€")").as_string(), "\xE2\x82\xAC");
}

TEST(JsonParse, Errors) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("{'a':1}"), JsonError);
  EXPECT_THROW(Json::parse("01x"), JsonError);
  EXPECT_THROW(Json::parse("1 2"), JsonError);       // trailing junk
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("troo"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW(Json::parse("\"\\uD800x\""), JsonError);  // unpaired surrogate
  EXPECT_THROW(Json::parse("1."), JsonError);
  EXPECT_THROW(Json::parse("1e"), JsonError);
}

TEST(JsonParse, ErrorMessagesCarryPosition) {
  try {
    Json::parse("{\n  \"a\": troo\n}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(JsonDump, CompactRoundTrip) {
  const std::string text =
      R"({"a":[1,2.5,"x",null,true],"b":{"c":-3},"empty_arr":[],"empty_obj":{}})";
  const Json j = Json::parse(text);
  EXPECT_EQ(Json::parse(j.dump()), j);
  EXPECT_EQ(j.dump(), text);  // keys already sorted in input
}

TEST(JsonDump, PrettyPrintRoundTrip) {
  const Json j = Json::parse(R"({"a": [1, {"b": 2}], "c": "d"})");
  const std::string pretty = j.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(pretty), j);
}

TEST(JsonDump, DoublesStayDoubles) {
  const Json j = Json::parse("[1.0, 2, 0.5]");
  const Json round = Json::parse(j.dump());
  EXPECT_TRUE(round.at(std::size_t{0}).is_double());
  EXPECT_TRUE(round.at(std::size_t{1}).is_int());
  EXPECT_TRUE(round.at(std::size_t{2}).is_double());
}

TEST(JsonDump, ControlCharactersEscaped) {
  Json j(std::string("a\x01" "b"));
  EXPECT_EQ(j.dump(), "\"a\\u0001b\"");
  EXPECT_EQ(Json::parse(j.dump()), j);
}

TEST(JsonDump, NonFiniteBecomesNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(JsonParse, LargeIntegersPreserved) {
  EXPECT_EQ(Json::parse("9007199254740993").as_int(), 9007199254740993LL);
  // Beyond int64: falls back to double instead of failing.
  EXPECT_TRUE(Json::parse("99999999999999999999999").is_double());
}

TEST(JsonParse, DeeplyNested) {
  std::string text;
  for (int i = 0; i < 100; ++i) text += "[";
  text += "1";
  for (int i = 0; i < 100; ++i) text += "]";
  Json j = Json::parse(text);
  for (int i = 0; i < 100; ++i) j = j.at(std::size_t{0});
  EXPECT_EQ(j.as_int(), 1);
}

TEST(JsonDump, CompactBytesPinned) {
  // The exact compact bytes of a fixed document: escapes (quote, backslash,
  // newline, a raw control byte), UTF-8 passed through untouched, an
  // escaped key, the int64 extremes, and the double forms that need a
  // suffix to stay doubles (-0.0, 3.0) or switch to exponent form (1e21).
  Json j = Json::object();
  j["s"] = std::string("q\"b\\n\nc\x01" "d\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80");
  j["k\"ey"] = "";
  j["min"] = std::numeric_limits<std::int64_t>::min();
  j["max"] = std::numeric_limits<std::int64_t>::max();
  j["d"] = Json::array({Json(-0.0), Json(1e21), Json(3.0), Json(0.1),
                        Json(-2.5e-300), Json(0)});
  j["nest"] = Json::array(
      {Json::array({Json::array({Json(1), Json::array()}), Json::object()}),
       Json::array({Json(nullptr), Json(true), Json(false)})});
  const std::string expected =
      R"({"d":[-0.0,1e+21,3.0,0.1,-2.5e-300,0],)"
      R"("k\"ey":"","max":9223372036854775807,"min":-9223372036854775808,)"
      R"("nest":[[[1,[]],{}],[null,true,false]],)"
      "\"s\":\"q\\\"b\\\\n\\nc\\u0001d\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80\"}";
  EXPECT_EQ(j.dump(), expected);
  EXPECT_EQ(Json::parse(expected).dump(), expected);
}

TEST(JsonDump, DumpToAppendsCompactBytes) {
  const Json j = Json::parse(R"({"b":[1,2.5,"x\n"],"a":{"c":null}})");
  std::string out = "prefix:";
  j.dump_to(out);
  j.dump_to(out);
  EXPECT_EQ(out, "prefix:" + j.dump() + j.dump());
}

TEST(JsonParse, DuplicateKeysLastWins) {
  EXPECT_EQ(Json::parse(R"({"a":1,"a":2})").dump(), R"({"a":2})");
  const Json j = Json::parse(R"({"b":1,"a":1,"b":3,"c":{"x":1,"x":[]}})");
  EXPECT_EQ(j.size(), 3u);
  EXPECT_EQ(j.dump(), R"({"a":1,"b":3,"c":{"x":[]}})");
  // A duplicate of the most recent key (the in-order fast case) too.
  EXPECT_EQ(Json::parse(R"({"a":1,"b":2,"b":5})").dump(), R"({"a":1,"b":5})");
}

TEST(JsonParse, OutOfOrderKeysSort) {
  EXPECT_EQ(Json::parse(R"({"c":1,"a":2,"b":3})").dump(),
            R"({"a":2,"b":3,"c":1})");
  // Ascending runs broken by one key out of order, then ascending again.
  EXPECT_EQ(Json::parse(R"({"a":1,"d":4,"b":2,"e":5,"c":3})").dump(),
            R"({"a":1,"b":2,"c":3,"d":4,"e":5})");
  // Byte order, not length order: "ab" < "b", "B" < "a".
  EXPECT_EQ(Json::parse(R"({"b":1,"ab":2,"a":3,"B":4})").dump(),
            R"({"B":4,"a":3,"ab":2,"b":1})");
}

TEST(JsonParse, EscapesAtRunBoundaries) {
  EXPECT_EQ(Json::parse(R"("\"abc")").as_string(), "\"abc");      // first
  EXPECT_EQ(Json::parse(R"("abc\n")").as_string(), "abc\n");      // last
  EXPECT_EQ(Json::parse(R"("\n")").as_string(), "\n");            // only
  EXPECT_EQ(Json::parse(R"("a\\\"\/\b\f\n\r\tz")").as_string(),  // consecutive
            "a\\\"/\b\f\n\r\tz");
  EXPECT_EQ(Json::parse(R"("x\ud83d\uDE00y")").as_string(),  // surrogate pair
            "x\xF0\x9F\x98\x80y");
  EXPECT_EQ(Json::parse(R"("\ud83d\uDE00")").as_string(), "\xF0\x9F\x98\x80");
  EXPECT_EQ(Json::parse(R"("\u00e9\u20AC")").as_string(), "\xC3\xA9\xE2\x82\xAC");
  EXPECT_EQ(Json::parse(R"("")").as_string(), "");
  EXPECT_EQ(Json::parse(R"({"k\"":"v\\"})").at("k\"").as_string(), "v\\");
  // A raw control byte is still rejected mid-run and at either end.
  EXPECT_THROW(Json::parse("\"ab\x01" "cd\""), JsonError);
  EXPECT_THROW(Json::parse("\"\x1f\""), JsonError);
  EXPECT_THROW(Json::parse("\"abc\\"), JsonError);  // escape cut off
}

TEST(JsonDump, EveryByteRoundTrips) {
  // Every byte 0x01..0xff at the start, middle and end of a run.
  for (int c = 1; c < 256; ++c) {
    const char ch = static_cast<char>(c);
    for (const std::string& s :
         {std::string(1, ch), std::string("ab") + ch, ch + std::string("ab"),
          std::string("a") + ch + ch + "b"}) {
      const Json j(s);
      EXPECT_EQ(Json::parse(j.dump()).as_string(), s) << c;
    }
  }
}

TEST(JsonObject, MissingKeyBetweenExistingKeys) {
  const Json j = Json::parse(R"({"a":1,"c":3})");
  const auto& obj = j.as_object();
  EXPECT_EQ(obj.find(std::string_view("b")), obj.end());
  EXPECT_EQ(obj.count(std::string_view("b")), 0u);
  EXPECT_FALSE(j.contains("b"));
  EXPECT_THROW(j.at("b"), JsonError);
  EXPECT_EQ(j.get_or("b", Json(7)).as_int(), 7);
  // Below the first and above the last key too.
  EXPECT_EQ(obj.find(std::string_view("A")), obj.end());
  EXPECT_EQ(obj.find(std::string_view("d")), obj.end());
  ASSERT_NE(obj.find(std::string_view("c")), obj.end());
  EXPECT_EQ(obj.find(std::string_view("c"))->second.as_int(), 3);
}

TEST(JsonObject, MiddleInsertionKeepsKeysSorted) {
  Json j = Json::object();
  j["d"] = 4;
  j["b"] = 2;
  j["c"] = 3;  // between two existing keys
  j["a"] = 1;  // before every key
  j["e"] = 5;  // after every key
  j["c"] = 30;  // an existing key is overwritten in place
  EXPECT_EQ(j.size(), 5u);
  EXPECT_EQ(j.dump(), R"({"a":1,"b":2,"c":30,"d":4,"e":5})");
  std::string keys;
  for (const auto& [k, v] : j.as_object()) keys += k;
  EXPECT_EQ(keys, "abcde");
}

TEST(JsonObject, InitializerListDuplicateKeepsFirst) {
  const Json j = Json::object({{"a", 1}, {"b", 5}, {"a", 2}});
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j.at("a").as_int(), 1);
  EXPECT_EQ(j.dump(), R"({"a":1,"b":5})");
  EXPECT_EQ(Json::object({{"b", 1}, {"a", 2}}).dump(), R"({"a":2,"b":1})");
}

TEST(JsonObject, SelfAliasingAssignment) {
  Json doc = Json::parse(
      R"({"child":{"leaf":{"x":[1,2]},"y":"s"},"other":{"z":1}})");
  doc = doc.at("child");  // the source lives inside the destination
  EXPECT_EQ(doc.dump(), R"({"leaf":{"x":[1,2]},"y":"s"})");
  doc = std::move(doc["leaf"]);
  EXPECT_EQ(doc.dump(), R"({"x":[1,2]})");
  doc = doc.at("x").at(std::size_t{1});
  EXPECT_EQ(doc.as_int(), 2);
}

TEST(JsonObject, CopyOfParsedDocumentDumpsSameBytes) {
  const std::string text =
      R"({"_id":17,"machine":{"cores":32,"name":"cori"},)"
      R"("output":{"runtime":1.25},"params":{"mb":4,"nb":8,"p":2},)"
      R"("task":{"m":1000,"n":500},"user":"alice"})";
  const Json parsed = Json::parse(text);
  const Json copy(parsed);
  EXPECT_EQ(copy.dump(), text);
  Json assigned = Json::object({{"stale", 1}});
  assigned = parsed;
  EXPECT_EQ(assigned.dump(), text);
  EXPECT_EQ(copy, parsed);
}

TEST(JsonParse, WhitespaceTolerance) {
  const Json j = Json::parse("  \t\r\n { \"a\" : [ 1 , 2 ] } \n ");
  EXPECT_EQ(j.at("a").size(), 2u);
}

}  // namespace
}  // namespace gptc::json
