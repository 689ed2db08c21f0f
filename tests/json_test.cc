#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "laar/appgen/app_generator.h"
#include "laar/ftsearch/ft_search.h"
#include "laar/json/json.h"
#include "laar/model/rates.h"
#include "laar/obs/metrics_registry.h"

namespace laar::json {
namespace {

TEST(JsonValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value::Bool(true).is_bool());
  EXPECT_TRUE(Value::Number(1.5).is_number());
  EXPECT_TRUE(Value::String("x").is_string());
  EXPECT_TRUE(Value::MakeArray().is_array());
  EXPECT_TRUE(Value::MakeObject().is_object());

  EXPECT_EQ(*Value::Bool(true).AsBool(), true);
  EXPECT_DOUBLE_EQ(*Value::Number(2.25).AsDouble(), 2.25);
  EXPECT_EQ(*Value::Int(42).AsInt(), 42);
  EXPECT_EQ(*Value::String("hey").AsString(), "hey");
}

TEST(JsonValueTest, TypeMismatchErrors) {
  EXPECT_FALSE(Value::Number(1).AsBool().ok());
  EXPECT_FALSE(Value::String("1").AsDouble().ok());
  EXPECT_FALSE(Value::Bool(true).AsString().ok());
  EXPECT_FALSE(Value::Number(1.5).AsInt().ok());  // not an exact integer
}

TEST(JsonValueTest, ObjectSetGet) {
  Value obj = Value::MakeObject();
  obj.Set("k", Value::Int(3));
  ASSERT_TRUE(obj.Has("k"));
  EXPECT_EQ(*(*obj.Get("k"))->AsInt(), 3);
  EXPECT_FALSE(obj.Get("missing").ok());
  EXPECT_EQ(obj.GetOr("missing", Value::Int(9)).number_value(), 9.0);
}

TEST(JsonValueTest, ArrayAppend) {
  Value arr = Value::MakeArray();
  arr.Append(Value::Int(1));
  arr.Append(Value::String("two"));
  ASSERT_EQ(arr.array().size(), 2u);
  EXPECT_EQ(arr.array()[1].string_value(), "two");
}

TEST(JsonDumpTest, CompactAndPretty) {
  Value obj = Value::MakeObject();
  obj.Set("b", Value::Bool(false));
  obj.Set("a", Value::Int(1));
  // Keys dump in std::map order, whatever the insertion order.
  EXPECT_EQ(obj.Dump(), "{\"a\":1,\"b\":false}");
  const std::string pretty = obj.Dump(2);
  EXPECT_NE(pretty.find("\n  \"a\": 1"), std::string::npos);
}

TEST(JsonDumpTest, EscapesSpecialCharacters) {
  EXPECT_EQ(Value::String("a\"b\\c\nd").Dump(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(JsonDumpTest, NumbersIntegersStayIntegral) {
  EXPECT_EQ(Value::Int(1000000).Dump(), "1000000");
  EXPECT_EQ(Value::Number(0.5).Dump(), "0.5");
  EXPECT_EQ(Value::Number(-3.0).Dump(), "-3");
}

TEST(JsonParseTest, ParsesScalars) {
  EXPECT_TRUE((*Parse("null")).is_null());
  EXPECT_EQ((*Parse("true")).bool_value(), true);
  EXPECT_EQ((*Parse("false")).bool_value(), false);
  EXPECT_DOUBLE_EQ((*Parse("-1.5e2")).number_value(), -150.0);
  EXPECT_EQ((*Parse("\"hi\"")).string_value(), "hi");
}

TEST(JsonParseTest, ParsesNested) {
  Result<Value> doc = Parse(R"({"a": [1, 2, {"b": "c"}], "d": {}})");
  ASSERT_TRUE(doc.ok());
  const Value& a = *(*doc->Get("a"));
  ASSERT_TRUE(a.is_array());
  ASSERT_EQ(a.array().size(), 3u);
  EXPECT_EQ(a.array()[2].GetOr("b", Value::Null()).string_value(), "c");
}

TEST(JsonParseTest, WhitespaceTolerant) {
  EXPECT_TRUE(Parse("  {\n\t\"a\" : 1 ,\r\n \"b\": [ ] }  ").ok());
}

TEST(JsonParseTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(Parse("{} x").ok());
  EXPECT_FALSE(Parse("1 2").ok());
}

TEST(JsonParseTest, RejectsMalformed) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("{").ok());
  EXPECT_FALSE(Parse("[1,]").ok());
  EXPECT_FALSE(Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Parse("{a: 1}").ok());
  EXPECT_FALSE(Parse("\"unterminated").ok());
  EXPECT_FALSE(Parse("tru").ok());
  EXPECT_FALSE(Parse("00x").ok());
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ((*Parse(R"("a\"\\\n\tA")")).string_value(), "a\"\\\n\tA");
  EXPECT_FALSE(Parse(R"("\u00G1")").ok());
  EXPECT_FALSE(Parse(R"("\q")").ok());
}

TEST(JsonParseTest, UnicodeEscapeUtf8) {
  // U+00E9 (é) -> two UTF-8 bytes; U+20AC (€) -> three.
  EXPECT_EQ((*Parse("\"\\u00e9\"")).string_value(), "\xC3\xA9");
  EXPECT_EQ((*Parse("\"\\u20AC\"")).string_value(), "\xE2\x82\xAC");
}

TEST(JsonParseTest, DeepNestingBounded) {
  std::string deep;
  for (int i = 0; i < 500; ++i) deep += "[";
  EXPECT_FALSE(Parse(deep).ok());
}

TEST(JsonRoundTripTest, DumpThenParse) {
  Value obj = Value::MakeObject();
  obj.Set("name", Value::String("app"));
  obj.Set("pi", Value::Number(3.141592653589793));
  Value arr = Value::MakeArray();
  for (int i = 0; i < 5; ++i) arr.Append(Value::Int(i * i));
  obj.Set("squares", std::move(arr));
  Result<Value> round = Parse(obj.Dump(2));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->Dump(), obj.Dump());
}

TEST(JsonFileTest, WriteAndReadBack) {
  const std::string path = testing::TempDir() + "/laar_json_test.json";
  Value obj = Value::MakeObject();
  obj.Set("k", Value::Int(7));
  ASSERT_TRUE(WriteFile(obj, path).ok());
  Result<Value> loaded = ParseFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Dump(), obj.Dump());
  std::remove(path.c_str());
}

TEST(JsonFileTest, MissingFileIsIoError) {
  Result<Value> r = ParseFile("/nonexistent/laar/path.json");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

// ---- the compact value layout ---------------------------------------------

static_assert(sizeof(Value) <= 16, "a JSON value is a type tag and an 8-byte payload");

TEST(JsonLayoutTest, DumpOrderIsStdMapOrderForAnyInsertionOrder) {
  std::mt19937_64 rng(7);
  std::vector<std::string> keys = {"", "a", "A", "ab", "a\x01", "a b", "\xc3\xa9", "\x7f", "z"};
  for (int i = 0; i < 300; ++i) {
    std::string key;
    for (size_t n = rng() % 6; n > 0; --n) key.push_back(static_cast<char>(32 + rng() % 224));
    keys.push_back(key);
  }
  std::shuffle(keys.begin(), keys.end(), rng);
  Value obj = Value::MakeObject();
  std::map<std::string, int> reference;
  for (size_t i = 0; i < keys.size(); ++i) {
    obj.Set(keys[i], Value::Int(static_cast<int64_t>(i)));
    reference[keys[i]] = static_cast<int>(i);  // a repeated key: the last wins
  }
  Value expected_order = Value::MakeArray();
  Value dumped_order = Value::MakeArray();
  for (const auto& [key, value] : reference) expected_order.Append(Value::String(key));
  for (const auto& [key, value] : obj.object()) {
    dumped_order.Append(Value::String(key));
    EXPECT_EQ(value.number_value(), reference[key]);
  }
  EXPECT_EQ(dumped_order.Dump(), expected_order.Dump());
  // A parsed document with the members in insertion order dumps the same.
  std::string text = "{";
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) text += ",";
    text += Value::String(keys[i]).Dump() + ":" + std::to_string(i);
  }
  text += "}";
  Result<Value> parsed = Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Dump(), obj.Dump());
}

TEST(JsonLayoutTest, DuplicateKeysLastOneWins) {
  EXPECT_EQ(Parse(R"({"a":1,"a":2})")->Dump(), R"({"a":2})");
  EXPECT_EQ(Parse(R"({"b":1,"a":1,"b":[3],"a":{"x":2},"b":true})")->Dump(),
            R"({"a":{"x":2},"b":true})");
  Value obj = Value::MakeObject();
  obj.Set("k", Value::Int(1));
  obj.Set("k", Value::String("two"));
  EXPECT_EQ(obj.Dump(), R"({"k":"two"})");
}

TEST(JsonLayoutTest, WrongTypeAccessorsReturnEmptyValues) {
  const Value number = Value::Number(2.5);
  const Value string = Value::String("s");
  EXPECT_TRUE(number.array().empty());
  EXPECT_TRUE(number.object().empty());
  EXPECT_EQ(number.string_value(), "");
  EXPECT_FALSE(number.bool_value());
  EXPECT_EQ(string.number_value(), 0.0);
  EXPECT_TRUE(Value::MakeArray().object().empty());
  EXPECT_TRUE(Value::MakeObject().array().empty());
  EXPECT_TRUE(Value::Null().array().empty());
  EXPECT_EQ(number.Find("k"), nullptr);
  EXPECT_FALSE(number.Has("k"));
  EXPECT_EQ(number.GetOr("k", string).string_value(), "s");
  EXPECT_FALSE(number.Get("k").ok());
  // The mutable view of a mismatched value is empty too and leaves it as it was.
  Value mutable_number = Value::Number(1.0);
  EXPECT_EQ(mutable_number.array().size(), 0u);
  EXPECT_FALSE(mutable_number.Erase("k"));
  EXPECT_EQ(mutable_number.Dump(), "1");
}

TEST(JsonLayoutTest, CopyIsDeepAndMoveLeavesNull) {
  Value doc = *Parse(R"({"a":[1,[2,"x"]],"b":{"c":"d"}})");
  Value copy = doc;
  copy.Find("a")->array()[1].array()[0] = Value::Int(9);
  copy.Find("b")->Set("c", Value::Int(0));
  EXPECT_EQ(doc.Dump(), R"({"a":[1,[2,"x"]],"b":{"c":"d"}})");
  EXPECT_EQ(copy.Dump(), R"({"a":[1,[9,"x"]],"b":{"c":0}})");
  Value moved = std::move(copy);
  EXPECT_TRUE(copy.is_null());  // NOLINT(bugprone-use-after-move)
  // Assigning a value its own child, by copy and by move.
  moved = moved.Find("a")->array()[1];
  EXPECT_EQ(moved.Dump(), R"([9,"x"])");
  moved = std::move(moved.array()[1]);
  EXPECT_EQ(moved.Dump(), R"("x")");
  const Value& self = moved;
  moved = self;
  EXPECT_EQ(moved.Dump(), R"("x")");
  Value grown = Value::MakeArray();
  for (int i = 0; i < 100; ++i) grown.Append(Value::String(std::string(20, 'a' + i % 26)));
  ASSERT_EQ(grown.array().size(), 100u);
  EXPECT_EQ(grown.array()[99].string_value(), std::string(20, 'a' + 99 % 26));
  EXPECT_TRUE(doc.Erase("b"));
  EXPECT_FALSE(doc.Erase("b"));
  EXPECT_EQ(doc.Dump(), R"({"a":[1,[2,"x"]]})");
}

TEST(JsonLayoutTest, ManyKeysInDescendingOrderParse) {
  // One sort per object, not one sorted insert per key: the test timeout is
  // the bound.
  constexpr int kKeys = 100000;
  std::string text = "{";
  for (int i = kKeys - 1; i >= 0; --i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06d", i);
    text += "\"";
    text += key;
    text += "\":";
    text += std::to_string(i);
    text += i > 0 ? "," : "}";
  }
  Result<Value> parsed = Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->object().size(), static_cast<size_t>(kKeys));
  EXPECT_EQ(parsed->object().front().first, "k000000");
  EXPECT_EQ(parsed->object().back().first, "k099999");
  EXPECT_EQ(parsed->GetOr("k054321", Value()).number_value(), 54321.0);
}

TEST(JsonLayoutTest, DepthTwoHundredParsesAndTwoHundredOneDoesNot) {
  // Depth counts the containers around the innermost value.
  const auto nested = [](int depth, bool objects) {
    std::string text;
    for (int i = 0; i < depth; ++i) text += objects ? "{\"k\":" : "[";
    text += "1";
    for (int i = 0; i < depth; ++i) text += objects ? "}" : "]";
    return text;
  };
  for (bool objects : {false, true}) {
    EXPECT_TRUE(Parse(nested(200, objects)).ok()) << objects;
    EXPECT_FALSE(Parse(nested(201, objects)).ok()) << objects;
  }
}

uint64_t Bits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST(JsonNumberTest, DumpAndReparseBitForBit) {
  // Dumps recorded before the compact layout; each re-parses to the same
  // bits, except that -0 dumps as 0.
  const struct {
    double value;
    const char* dump;
  } kCases[] = {
      {0.0, "0"},
      {-0.0, "0"},
      {-1.0, "-1"},
      {9007199254740991.0, "9007199254740991"},
      {9007199254740992.0, "9007199254740992"},
      {-9007199254740991.0, "-9007199254740991"},
      {1e16, "10000000000000000"},
      {1e300, "1.0000000000000001e+300"},
      {0.1, "0.10000000000000001"},
      {1.0 / 3.0, "0.33333333333333331"},
      {3.141592653589793, "3.1415926535897931"},
      {4.9406564584124654e-324, "4.9406564584124654e-324"},
      {-4.9406564584124654e-324, "-4.9406564584124654e-324"},
      {2.2250738585072009e-308, "2.2250738585072009e-308"},
      {1.7976931348623157e308, "1.7976931348623157e+308"},
      {123456.789, "123456.789"},
      {1e-7, "9.9999999999999995e-08"},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(Value::Number(c.value).Dump(), c.dump);
    Result<Value> parsed = Parse(c.dump);
    ASSERT_TRUE(parsed.ok()) << c.dump;
    EXPECT_EQ(Bits(parsed->number_value()), Bits(c.value == 0.0 ? 0.0 : c.value)) << c.dump;
  }
  // Random bit patterns: the parse equals strtod's, and the dump round-trips.
  std::mt19937_64 rng(11);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t bits = rng();
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof(d));
    if (!std::isfinite(d)) continue;
    const std::string dumped = Value::Number(d).Dump();
    Result<Value> parsed = Parse(dumped);
    ASSERT_TRUE(parsed.ok()) << dumped;
    EXPECT_EQ(Bits(parsed->number_value()), Bits(std::strtod(dumped.c_str(), nullptr)));
    if (d != 0.0) {
      EXPECT_EQ(Bits(parsed->number_value()), bits) << dumped;
    }
  }
  // Integer tokens, short and long, parse as strtod reads them.
  for (const char* text : {"-0", "007", "123456789012345", "1234567890123456",
                           "-99999999999999999999", "+1", ".5", "1.", "0.1e1"}) {
    Result<Value> parsed = Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(Bits(parsed->number_value()), Bits(std::strtod(text, nullptr))) << text;
  }
}

TEST(JsonNumberTest, OverflowIsRejectedUnderflowIsNot) {
  for (const char* text : {"1e400", "-1e400", "[1e400,-1e400]", R"({"selectivity": 1e309})"}) {
    Result<Value> parsed = Parse(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().ToString().find("at offset"), std::string::npos);
  }
  EXPECT_NE(Parse("[1, 1e400]").status().ToString().find("offset 4"), std::string::npos);
  for (const char* text : {"1e-400", "-1e-400", "2.4703282292062328e-324", "4.9e-324"}) {
    Result<Value> parsed = Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(Bits(parsed->number_value()), Bits(std::strtod(text, nullptr))) << text;
  }
}

// ---- byte identity of real artifacts ---------------------------------------

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

Value RegistryDocument() {
  obs::MetricsRegistry registry;
  registry.GetCounter("tuples_processed", {{"variant", "L.7"}, {"scenario", "crash"}})
      ->Increment(919128);
  registry.GetCounter("tuples_processed", {{"variant", "SR"}})->Increment(3.5);
  registry.GetGauge("ic", {{"ic", "0.7"}, {"seed", "1"}})->Set(0.82372913411234567);
  registry.GetGauge("cost_per_second")->Set(1.0 / 3.0);
  registry.GetGauge("tiny")->Set(4.9406564584124654e-324);
  registry.GetGauge("negative_zero")->Set(-0.0);
  obs::HistogramMetric* latency =
      registry.GetHistogram("latency_s", {{"pe", "17"}}, 0.0, 0.25, 8);
  for (int i = 0; i < 40; ++i) latency->Observe(0.001 * i * i);
  obs::TimeSeries* series = registry.GetTimeSeries("throughput", {{"host", "3"}}, 16);
  for (int i = 0; i < 20; ++i) series->Append(0.5 * i, 1e6 / (i + 1));
  return registry.ToJson();
}

void ExpectDumps(const Value& doc, uint64_t compact_hash, uint64_t pretty_hash) {
  const std::string compact = doc.Dump();
  const std::string pretty = doc.Dump(2);
  EXPECT_EQ(Fnv1a(compact), compact_hash) << compact.size() << " bytes";
  EXPECT_EQ(Fnv1a(pretty), pretty_hash) << pretty.size() << " bytes";
  Result<Value> reparsed = Parse(pretty);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(Fnv1a(reparsed->Dump()), compact_hash);
}

TEST(JsonGoldenTest, WebScaleStrategyAndRegistryDumpsAreByteIdentical) {
  // Hashes recorded with the std::map-based value model, which this layout
  // replaced: the web-scale seed-1 app, its node-budgeted strategy (as the
  // web benchmarks solve it) and a metrics registry document.
  auto app = appgen::GenerateApplication(appgen::WebScaleProfile(), 1);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  const model::ApplicationGraph& graph = app->descriptor.graph;
  const model::InputSpace& space = app->descriptor.input_space;
  auto rates = model::ExpectedRates::Compute(graph, space);
  ASSERT_TRUE(rates.ok());
  ftsearch::FtSearchOptions options;
  options.ic_requirement = 0.7;
  options.time_limit_seconds = 0.0;
  options.node_limit = 200000;
  options.num_threads = 1;
  auto result =
      ftsearch::RunFtSearch(graph, space, *rates, app->placement, app->cluster, options);
  ASSERT_TRUE(result.ok() && result->strategy.has_value());
  ExpectDumps(result->strategy->ToJson(), 0x966aa6e66712ebceULL, 0x39ba26becf443a7aULL);
  ExpectDumps(app->descriptor.ToJson(), 0xf31de75cd28a757aULL, 0x1e26aad592032908ULL);
  ExpectDumps(RegistryDocument(), 0x1a63f83354b782caULL, 0x07f37e802d732402ULL);
}

}  // namespace
}  // namespace laar::json
