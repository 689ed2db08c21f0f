// Brute-force oracle for FT-Search: on applications small enough to
// enumerate every activation strategy (at most 10 ternary variables, i.e.
// 3^10 = 59,049 assignments), the constraint system of §4.4 is checked
// independently of the solver — Eq. 11 host loads strictly below capacity,
// Eq. 10 IC through metrics::IcCalculator under the pessimistic model —
// and FT-Search must return exactly the brute-force optimum, or NUL exactly
// when no strategy is feasible, under every pruning ablation and in
// parallel.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "laar/appgen/app_generator.h"
#include "laar/ftsearch/ft_search.h"
#include "laar/metrics/cost.h"
#include "laar/metrics/failure_model.h"
#include "laar/metrics/ic.h"
#include "laar/model/rates.h"

namespace laar::ftsearch {
namespace {

constexpr int kMaxVariables = 10;

/// What the oracle knows about one complete assignment.
struct Evaluated {
  bool cpu_ok = false;
  double ic = 0.0;
  double cost = 0.0;
};

/// The active-replica pair of one (PE, configuration) variable: both, only
/// replica 0, or only replica 1 (Eq. 12 excludes none).
constexpr bool kActive[3][2] = {{true, true}, {true, false}, {false, true}};

/// Enumerates every assignment of `app` and evaluates it without FT-Search.
std::vector<Evaluated> EnumerateAll(const appgen::GeneratedApplication& app,
                                    const model::ExpectedRates& rates) {
  const model::ApplicationGraph& graph = app.descriptor.graph;
  const model::InputSpace& space = app.descriptor.input_space;
  const std::vector<model::ComponentId> pes = graph.Pes();
  const int num_configs = space.num_configs();
  const int num_vars = static_cast<int>(pes.size()) * num_configs;
  int total = 1;
  for (int i = 0; i < num_vars; ++i) total *= 3;

  const metrics::IcCalculator calculator(graph, space, rates);
  const metrics::PessimisticFailureModel pessimistic;
  std::vector<Evaluated> out;
  out.reserve(static_cast<size_t>(total));
  for (int code = 0; code < total; ++code) {
    strategy::ActivationStrategy strategy(graph.num_components(), 2, num_configs);
    int rest = code;
    for (int v = 0; v < num_vars; ++v) {
      const int value = rest % 3;
      rest /= 3;
      const model::ComponentId pe = pes[static_cast<size_t>(v) % pes.size()];
      const model::ConfigId config = v / static_cast<int>(pes.size());
      strategy.SetActive(pe, 0, config, kActive[value][0]);
      strategy.SetActive(pe, 1, config, kActive[value][1]);
    }
    Evaluated e;
    e.cpu_ok = true;
    for (model::ConfigId c = 0; c < num_configs && e.cpu_ok; ++c) {
      const std::vector<double> loads =
          metrics::HostLoads(graph, rates, app.placement, strategy, app.cluster, c);
      for (size_t h = 0; h < loads.size(); ++h) {
        if (!(loads[h] < app.cluster.hosts()[h].capacity_cycles_per_sec)) e.cpu_ok = false;
      }
    }
    e.ic = calculator.InternalCompleteness(strategy, pessimistic);
    e.cost = metrics::CostPerSecond(graph, space, rates, app.placement, strategy);
    out.push_back(e);
  }
  return out;
}

/// Minimum cost over the assignments feasible at `ic`; +inf when none is.
double OracleOptimum(const std::vector<Evaluated>& all, double ic) {
  double best = std::numeric_limits<double>::infinity();
  for (const Evaluated& e : all) {
    if (e.cpu_ok && e.ic >= ic - 1e-12) best = std::min(best, e.cost);
  }
  return best;
}

/// The solver configurations that must all agree with the oracle.
std::vector<std::pair<std::string, FtSearchOptions>> SolverVariants() {
  std::vector<std::pair<std::string, FtSearchOptions>> variants;
  variants.emplace_back("default", FtSearchOptions{});
  FtSearchOptions options;
  options.tight_ic_bound = false;
  variants.emplace_back("loose-ic-bound", options);
  options = {};
  options.enable_cpu_pruning = false;
  variants.emplace_back("no-cpu", options);
  options = {};
  options.enable_ic_pruning = false;
  variants.emplace_back("no-compl", options);
  options = {};
  options.enable_cost_pruning = false;
  variants.emplace_back("no-cost", options);
  options = {};
  options.enable_dom_propagation = false;
  variants.emplace_back("no-dom", options);
  options = {};
  options.num_threads = 4;
  variants.emplace_back("threads-4", options);
  return variants;
}

TEST(FtSearchOracleTest, MatchesBruteForceOnTinyApps) {
  int apps = 0;
  int optimal_cases = 0;
  int infeasible_cases = 0;
  for (uint64_t seed = 1; apps < 12 && seed < 200; ++seed) {
    appgen::GeneratorOptions generator;
    generator.num_pes = 3 + static_cast<int>(seed % 3);
    generator.num_hosts = 2 + static_cast<int>(seed / 3 % 2);
    Result<appgen::GeneratedApplication> app = appgen::GenerateApplication(generator, seed);
    if (!app.ok()) continue;
    const int num_vars = static_cast<int>(app->descriptor.graph.Pes().size()) *
                         app->descriptor.input_space.num_configs();
    if (num_vars > kMaxVariables) continue;
    auto rates =
        model::ExpectedRates::Compute(app->descriptor.graph, app->descriptor.input_space);
    ASSERT_TRUE(rates.ok());
    ++apps;

    const std::vector<Evaluated> all = EnumerateAll(*app, *rates);
    const metrics::IcCalculator calculator(app->descriptor.graph,
                                           app->descriptor.input_space, *rates);
    for (double ic : {0.3, 0.5, 0.7, 0.9}) {
      const double optimum = OracleOptimum(all, ic);
      const bool feasible = std::isfinite(optimum);
      (feasible ? optimal_cases : infeasible_cases) += 1;
      for (auto [name, options] : SolverVariants()) {
        options.ic_requirement = ic;
        Result<FtSearchResult> result =
            RunFtSearch(app->descriptor.graph, app->descriptor.input_space, *rates,
                        app->placement, app->cluster, options);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        const std::string where =
            "seed " + std::to_string(seed) + " ic " + std::to_string(ic) + " " + name;
        if (!feasible) {
          EXPECT_EQ(result->outcome, SearchOutcome::kInfeasible) << where;
          continue;
        }
        ASSERT_EQ(result->outcome, SearchOutcome::kOptimal) << where;
        EXPECT_NEAR(result->best_cost, optimum, 1e-9 * optimum) << where;
        // The returned strategy itself passes the oracle's checks.
        ASSERT_TRUE(result->strategy.has_value()) << where;
        EXPECT_GE(calculator.InternalCompleteness(*result->strategy,
                                                  metrics::PessimisticFailureModel{}),
                  ic - 1e-12)
            << where;
        EXPECT_NEAR(metrics::CostPerSecond(app->descriptor.graph,
                                           app->descriptor.input_space, *rates,
                                           app->placement, *result->strategy),
                    optimum, 1e-9 * optimum)
            << where;
      }
    }
  }
  EXPECT_EQ(apps, 12);
  // Both verdicts occur, so neither half of the check is vacuous.
  EXPECT_GT(optimal_cases, 0);
  EXPECT_GT(infeasible_cases, 0);
}

}  // namespace
}  // namespace laar::ftsearch
