// Seeded mutation test of the JSON input path: byte flips, truncations and
// token splices of a descriptor and a strategy document, each fed through
// json::Parse and both readers. Every mutant must load or be rejected with
// a Status; a crash, a sanitizer report or a hang fails the test. The loop is
// deterministic (fixed seed) and small enough for an ASan+UBSan build.

#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "laar/appgen/app_generator.h"
#include "laar/json/json.h"
#include "laar/model/descriptor.h"
#include "laar/strategy/activation_strategy.h"

namespace laar {
namespace {

using model::ApplicationDescriptor;
using strategy::ActivationStrategy;

constexpr int kMutantsPerDocument = 3000;

/// Tokens spliced into documents: non-finite and overflowing numbers (the
/// class a byte-level probe rarely produces), plus structural fragments.
constexpr std::string_view kSplices[] = {
    "nan", "1e400", "-1e400", "99999999999", "-1", "1e-400", "0.5", "\"x\"",
    "[]",  "{}",    "null",   "true",        "[[[[", "}",     ",",   "\"\\u12",
};

bool IsNonFinite(std::string_view token) {
  return token == "nan" || token == "1e400" || token == "-1e400";
}

/// Start and length of every run of digits outside strings in `text` (the
/// documents here have no escaped quotes).
std::vector<std::pair<size_t, size_t>> NumberRuns(const std::string& text) {
  std::vector<std::pair<size_t, size_t>> runs;
  bool in_string = false;
  for (size_t i = 0; i < text.size();) {
    if (text[i] == '"') in_string = !in_string;
    if (in_string || text[i] < '0' || text[i] > '9') {
      ++i;
      continue;
    }
    const size_t start = i;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') ++i;
    runs.emplace_back(start, i - start);
  }
  return runs;
}

struct Tally {
  int loaded = 0;
  int rejected = 0;
};

/// Feeds one mutant through the parser and both readers. A document that
/// loads must survive a write/read round trip unchanged.
void Feed(const std::string& text, Tally* tally) {
  Result<json::Value> doc = json::Parse(text);
  if (!doc.ok()) {
    ++tally->rejected;
    return;
  }
  Result<ActivationStrategy> strategy = ActivationStrategy::FromJson(*doc);
  if (strategy.ok()) {
    ++tally->loaded;
    Result<json::Value> again = json::Parse(strategy->ToJson().Dump());
    ASSERT_TRUE(again.ok());
    Result<ActivationStrategy> reloaded = ActivationStrategy::FromJson(*again);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    EXPECT_TRUE(*reloaded == *strategy);
  }
  Result<ApplicationDescriptor> descriptor = ApplicationDescriptor::FromJson(*doc);
  if (descriptor.ok()) {
    ++tally->loaded;
    const std::string dumped = descriptor->ToJson().Dump();
    Result<json::Value> again = json::Parse(dumped);
    ASSERT_TRUE(again.ok());
    Result<ApplicationDescriptor> reloaded = ApplicationDescriptor::FromJson(*again);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    EXPECT_EQ(reloaded->ToJson().Dump(), dumped);
  }
  if (!strategy.ok() && !descriptor.ok()) ++tally->rejected;
}

Tally Mutate(const std::string& original, uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  const std::vector<std::pair<size_t, size_t>> numbers = NumberRuns(original);
  Tally tally;
  for (int i = 0; i < kMutantsPerDocument; ++i) {
    std::string text = original;
    switch (pick(4)) {
      case 0:  // flip one byte to any value
        text[pick(text.size())] = static_cast<char>(rng());
        break;
      case 1:  // truncate
        text.resize(pick(text.size()));
        break;
      case 2: {  // splice a token over a number
        const auto [start, length] = numbers[pick(numbers.size())];
        const std::string_view token = kSplices[pick(std::size(kSplices))];
        text.replace(start, length, token);
        if (IsNonFinite(token)) {
          EXPECT_FALSE(json::Parse(text).ok()) << token << " accepted at " << start;
        }
        break;
      }
      default:  // splice a token anywhere
        text.insert(pick(text.size() + 1), kSplices[pick(std::size(kSplices))]);
        break;
    }
    Feed(text, &tally);
    if (testing::Test::HasFatalFailure()) break;
  }
  return tally;
}

std::string DescriptorText() {
  for (uint64_t seed = 1;; ++seed) {
    auto app = appgen::GenerateApplication(appgen::GeneratorOptions(), seed);
    if (app.ok()) return app->descriptor.ToJson().Dump();
  }
}

std::string StrategyText() {
  ActivationStrategy s(12, 2, 4);
  for (model::ComponentId pe = 0; pe < 12; pe += 3) {
    s.SetActive(pe, pe % 2, static_cast<model::ConfigId>(pe % 4), false);
  }
  return s.ToJson().Dump();
}

TEST(InputMutationTest, DescriptorMutantsLoadOrFailWithStatus) {
  const Tally tally = Mutate(DescriptorText(), 1);
  // Both outcomes occur, so the loop exercises the readers, not just the
  // parser's first error.
  EXPECT_GT(tally.loaded, 0);
  EXPECT_GT(tally.rejected, 0);
}

TEST(InputMutationTest, StrategyMutantsLoadOrFailWithStatus) {
  const Tally tally = Mutate(StrategyText(), 2);
  EXPECT_GT(tally.loaded, 0);
  EXPECT_GT(tally.rejected, 0);
}

}  // namespace
}  // namespace laar
