// Solver golden: FT-Search's complete observable behaviour on a fixed corpus
// — outcome, node and solution counts, every pruning rule's count and pruned
// height, the best cost to the last bit and a hash of the strategy JSON —
// must not change when the search is made faster. Prune counts pin the
// decision taken at every node, so this is stronger than comparing optima.
//
// Every search uses the default options except that a node budget replaces
// the wall-clock limit, which makes the outcome a pure function of the
// inputs.
//
// Rerun with LAAR_PRINT_HASHES=1 in the environment to print the observed
// values when intentionally changing search semantics.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "laar/appgen/app_generator.h"
#include "laar/ftsearch/ft_search.h"
#include "laar/json/json.h"
#include "laar/model/rates.h"

namespace laar::ftsearch {
namespace {

/// FNV-1a, 64-bit (see determinism_test.cc).
uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr uint64_t kNodeLimit = 100000;

struct SolverGolden {
  uint64_t seed;
  double ic;
  const char* outcome;
  uint64_t nodes;
  uint64_t solutions;
  uint64_t cpu_count, cpu_height;
  uint64_t compl_count, compl_height;
  uint64_t cost_count, cost_height;
  uint64_t dom_count, dom_height;
  double best_cost;
  uint64_t strategy_hash;  ///< Fnv1a of the strategy JSON; 0 without one
};

/// The application of corpus seed `seed`: 3..8 hosts and 2..6 PEs per host
/// before replication, swept like the §4.5 study corpus
/// (bench/search_corpus.h).
Result<appgen::GeneratedApplication> CorpusApp(uint64_t seed) {
  appgen::GeneratorOptions generator;
  generator.num_hosts = 3 + static_cast<int>(seed % 6);
  generator.num_pes = generator.num_hosts * (2 + static_cast<int>(seed % 5)) / 2;
  return appgen::GenerateApplication(generator, seed);
}

SolverGolden Solve(const appgen::GeneratedApplication& app,
                   const model::ExpectedRates& rates, uint64_t seed, double ic) {
  FtSearchOptions options;
  options.ic_requirement = ic;
  options.time_limit_seconds = 0.0;
  options.node_limit = kNodeLimit;
  Result<FtSearchResult> result =
      RunFtSearch(app.descriptor.graph, app.descriptor.input_space, rates, app.placement,
                  app.cluster, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  const FtSearchStats& s = result->stats;
  return SolverGolden{
      seed,
      ic,
      SearchOutcomeName(result->outcome),
      s.nodes_explored,
      s.solutions_found,
      s.cpu.count,
      s.cpu.total_height,
      s.compl_.count,
      s.compl_.total_height,
      s.cost.count,
      s.cost.total_height,
      s.dom.count,
      s.dom.total_height,
      result->best_cost,
      result->strategy.has_value() ? Fnv1a(result->strategy->ToJson().Dump()) : 0};
}

// Captured before the incremental tight IC bound landed (LAAR_PRINT_HASHES=1).
const SolverGolden kGolden[] = {
    {1, 0.2, "BST", 5028, 16, 275, 2036, 7880, 18000, 1853, 2669, 4, 40, 0x1.46fd5d8367b9bp+31, 0x6cf81b9b385ed569ULL},
    {1, 0.35, "BST", 1269, 9, 275, 2036, 1866, 5546, 370, 550, 4, 40, 0x1.4d4f804c4f53p+31, 0x14ca27ca1a820f30ULL},
    {1, 0.5, "BST", 929, 5, 275, 2036, 1448, 5168, 120, 140, 4, 40, 0x1.628fd4e9ee3f8p+31, 0x9193bf794174e731ULL},
    {2, 0.2, "SOL", 25411, 19, 209, 2629, 31892, 104198, 17092, 54621, 810, 5082, 0x1.d74b807b4097fp+30, 0x42fad402b61dca9fULL},
    {2, 0.35, "SOL", 25118, 73, 787, 9821, 40045, 148109, 8946, 25190, 222, 2429, 0x1.fdc0a3640f8bfp+30, 0x0dce699a0d197bfaULL},
    {2, 0.5, "BST", 1601, 6, 1065, 13793, 1926, 14382, 162, 385, 26, 352, 0x1.1b1430f6e8ea9p+31, 0x7865a94dc30ae613ULL},
    {3, 0.2, "SOL", 25621, 18, 522, 9196, 28812, 64352, 19446, 47871, 1176, 4556, 0x1.7dd1dc7e6946bp+31, 0xbf3082e5874f98d1ULL},
    {3, 0.35, "SOL", 25164, 9, 571, 10016, 36209, 87601, 12922, 22355, 232, 1296, 0x1.a04ca8efc179p+31, 0x6363b748e72c0aa7ULL},
    {3, 0.5, "SOL", 25278, 9, 6268, 108080, 40230, 228030, 2963, 4120, 284, 4419, 0x1.bd5bf17366ea7p+31, 0x2d1d875e062bbd1bULL},
    {4, 0.2, "SOL", 25306, 15, 1322, 33253, 31888, 160204, 16218, 73166, 4768, 17670, 0x1.e773a31a81be2p+31, 0x9c13dce2c1961e25ULL},
    {4, 0.35, "SOL", 25129, 11, 1322, 33253, 38844, 210486, 9613, 40626, 2539, 11538, 0x1.f070edfacc80bp+31, 0x61f96bc7ce0f2252ULL},
    {4, 0.5, "SOL", 25654, 12, 8050, 194230, 39088, 279732, 1573, 1776, 1908, 42378, 0x1.1547403f0cbd5p+32, 0xa979f64dab5d0478ULL},
    {5, 0.2, "BST", 1029, 3, 155, 1637, 1568, 4128, 240, 255, 50, 300, 0x1.31b608d38bab6p+31, 0x5b7f0a185921c085ULL},
    {5, 0.35, "NUL", 50, 0, 75, 837, 16, 184, 0, 0, 10, 100, 0x0p+0, 0x0000000000000000ULL},
    {5, 0.5, "NUL", 26, 0, 35, 413, 12, 144, 0, 0, 2, 24, 0x0p+0, 0x0000000000000000ULL},
    {6, 0.2, "BST", 79, 2, 41, 217, 100, 270, 15, 29, 0, 0, 0x1.d82e13fc9c16ep+29, 0x2961a43065a3ac65ULL},
    {6, 0.35, "NUL", 22, 0, 33, 177, 12, 66, 0, 0, 0, 0, 0x0p+0, 0x0000000000000000ULL},
    {6, 0.5, "NUL", 11, 0, 14, 78, 9, 58, 0, 0, 0, 0, 0x0p+0, 0x0000000000000000ULL},
    {7, 0.2, "SOL", 26198, 21, 291, 2739, 30090, 54334, 17238, 36250, 1855, 5619, 0x1.d8ff9007ed0fbp+30, 0xf44ef9fe6ee0b597ULL},
    {7, 0.35, "SOL", 25211, 46, 490, 4602, 37214, 95044, 11886, 28130, 399, 1941, 0x1.ebb4ca6b49fcp+30, 0xe178c2b1c0845c90ULL},
    {7, 0.5, "BST", 11713, 10, 677, 6327, 18524, 59802, 3975, 8969, 60, 626, 0x1.14afd026eb03ap+31, 0x2bccc770fe7fb7b0ULL},
    {8, 0.2, "SOL", 25167, 24, 36, 522, 38582, 111588, 11069, 28289, 570, 2902, 0x1.16cc09532df29p+31, 0xd68d210d0c834eefULL},
    {8, 0.35, "SOL", 25084, 71, 104, 1490, 42450, 174742, 7291, 20758, 99, 767, 0x1.147261e505e46p+31, 0x0236d163b07773b9ULL},
    {8, 0.5, "SOL", 25092, 46, 2796, 40342, 42594, 223705, 4445, 11506, 112, 1458, 0x1.26557a03959d3p+31, 0xe46ebbded053aa92ULL},
    {9, 0.2, "SOL", 25258, 21, 421, 9533, 36060, 139246, 13036, 43814, 763, 2631, 0x1.7cc50a6aca0ap+31, 0x382eabd0adb52081ULL},
    {9, 0.35, "SOL", 25054, 4, 508, 11372, 43238, 197652, 6170, 14908, 127, 1381, 0x1.9eea32e13582p+31, 0xa69b79570cfa8bdaULL},
    {9, 0.5, "SOL", 25240, 2, 40138, 884606, 9326, 176966, 70, 91, 2176, 47612, 0x1.b775f9eefa6cp+31, 0x1c93267509c63629ULL},
    {10, 0.2, "NUL", 44, 0, 67, 639, 8, 72, 0, 0, 10, 110, 0x0p+0, 0x0000000000000000ULL},
    {10, 0.35, "NUL", 16, 0, 23, 239, 8, 88, 0, 0, 2, 26, 0x0p+0, 0x0000000000000000ULL},
    {10, 0.5, "NUL", 10, 0, 9, 105, 10, 112, 0, 0, 2, 26, 0x0p+0, 0x0000000000000000ULL},
    {11, 0.2, "SOL", 25893, 17, 268, 4751, 30844, 73464, 17123, 39526, 217, 1208, 0x1.687e58a2c9489p+31, 0x47a584a4359f5ab5ULL},
    {11, 0.35, "SOL", 25153, 7, 393, 6587, 38910, 128310, 10413, 20765, 127, 1110, 0x1.82c7d58ebf4ep+31, 0x29c17ef4bb7cadafULL},
    {11, 0.5, "BST", 1136, 1, 1207, 19982, 892, 10532, 15, 15, 54, 874, 0x1.c5e6ed01ef625p+31, 0xb2cf7434264f4807ULL},
    {12, 0.2, "BST", 5995, 17, 138, 1040, 8702, 19714, 3096, 5641, 7, 63, 0x1.bba4952d6ceecp+30, 0x98306e5a64519fd3ULL},
    {12, 0.35, "BST", 1867, 7, 138, 1040, 2906, 8532, 666, 1069, 7, 63, 0x1.e2acc558b73cap+30, 0x1f7d24b558f2000cULL},
    {12, 0.5, "BST", 971, 2, 138, 1040, 1648, 6060, 147, 211, 7, 63, 0x1.01067d8528f03p+31, 0x7b0aba56e756d3fdULL},
};

TEST(FtSearchGoldenTest, SearchesMatchGoldens) {
  const bool print = std::getenv("LAAR_PRINT_HASHES") != nullptr;
  const double kIcLevels[] = {0.2, 0.35, 0.5};
  size_t index = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Result<appgen::GeneratedApplication> app = CorpusApp(seed);
    ASSERT_TRUE(app.ok()) << "seed " << seed << ": " << app.status().ToString();
    auto rates =
        model::ExpectedRates::Compute(app->descriptor.graph, app->descriptor.input_space);
    ASSERT_TRUE(rates.ok());
    for (double ic : kIcLevels) {
      const SolverGolden got = Solve(*app, *rates, seed, ic);
      if (print) {
        std::printf(
            "    {%llu, %g, \"%s\", %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, "
            "%llu, %a, 0x%016llxULL},\n",
            static_cast<unsigned long long>(seed), ic, got.outcome,
            static_cast<unsigned long long>(got.nodes),
            static_cast<unsigned long long>(got.solutions),
            static_cast<unsigned long long>(got.cpu_count),
            static_cast<unsigned long long>(got.cpu_height),
            static_cast<unsigned long long>(got.compl_count),
            static_cast<unsigned long long>(got.compl_height),
            static_cast<unsigned long long>(got.cost_count),
            static_cast<unsigned long long>(got.cost_height),
            static_cast<unsigned long long>(got.dom_count),
            static_cast<unsigned long long>(got.dom_height), got.best_cost,
            static_cast<unsigned long long>(got.strategy_hash));
        continue;
      }
      ASSERT_LT(index, std::size(kGolden));
      const SolverGolden& want = kGolden[index++];
      ASSERT_EQ(want.seed, seed);
      ASSERT_EQ(want.ic, ic);
      const std::string where = "seed " + std::to_string(seed) + " ic " + std::to_string(ic);
      EXPECT_STREQ(got.outcome, want.outcome) << where;
      EXPECT_EQ(got.nodes, want.nodes) << where;
      EXPECT_EQ(got.solutions, want.solutions) << where;
      EXPECT_EQ(got.cpu_count, want.cpu_count) << where;
      EXPECT_EQ(got.cpu_height, want.cpu_height) << where;
      EXPECT_EQ(got.compl_count, want.compl_count) << where;
      EXPECT_EQ(got.compl_height, want.compl_height) << where;
      EXPECT_EQ(got.cost_count, want.cost_count) << where;
      EXPECT_EQ(got.cost_height, want.cost_height) << where;
      EXPECT_EQ(got.dom_count, want.dom_count) << where;
      EXPECT_EQ(got.dom_height, want.dom_height) << where;
      EXPECT_EQ(got.best_cost, want.best_cost) << where;
      EXPECT_EQ(got.strategy_hash, want.strategy_hash) << where;
    }
  }
  if (!print) {
    EXPECT_EQ(index, std::size(kGolden));
  }
}

}  // namespace
}  // namespace laar::ftsearch
