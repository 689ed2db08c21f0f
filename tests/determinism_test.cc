// End-to-end determinism regression: the full observable output of a
// simulated run — metrics-registry JSON, Chrome trace JSON, telemetry CSV,
// and health report — must stay byte-identical for a fixed seed across
// engine rewrites. The golden hashes below were captured from the
// pre-overhaul event engine (PR 4 tree, std::function + binary
// priority_queue); the overhauled engine (typed pooled events, indexed
// 4-ary heap, batched delivery) must reproduce them bit for bit.
//
// Rerun with LAAR_PRINT_HASHES=1 in the environment to print the observed
// hashes when intentionally changing simulation semantics.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "laar/appgen/app_generator.h"
#include "laar/dsps/sim_metrics.h"
#include "laar/dsps/stream_simulation.h"
#include "laar/ftsearch/ft_search.h"
#include "laar/json/json.h"
#include "laar/model/rates.h"
#include "laar/obs/chrome_trace.h"
#include "laar/obs/health.h"
#include "laar/obs/latency_tracer.h"
#include "laar/obs/metrics_registry.h"
#include "laar/obs/timeseries.h"
#include "laar/obs/trace_recorder.h"
#include "laar/placement/placement_algorithms.h"
#include "laar/runtime/experiment.h"
#include "laar/strategy/baselines.h"

namespace laar {
namespace {

/// FNV-1a, 64-bit: stable across platforms and standard libraries (unlike
/// std::hash), which is what makes the goldens portable.
uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct RunHashes {
  uint64_t metrics = 0;
  uint64_t trace = 0;
  uint64_t timeseries = 0;
  uint64_t health = 0;
  uint64_t worst_case_metrics = 0;
};

/// One full pipeline at a corpus seed: generate the application, solve a
/// deterministic (node-limited) FT-Search strategy, replay the alternating
/// experiment trace with every observer attached, and hash all exports.
RunHashes RunSeed(uint64_t seed) {
  appgen::GeneratorOptions generator;
  generator.num_pes = 12;
  generator.num_hosts = 6;
  auto app = appgen::GenerateApplication(generator, seed);
  EXPECT_TRUE(app.ok()) << app.status().ToString();

  auto rates = model::ExpectedRates::Compute(app->descriptor.graph,
                                             app->descriptor.input_space);
  EXPECT_TRUE(rates.ok());
  ftsearch::FtSearchOptions search;
  search.ic_requirement = 0.6;
  search.time_limit_seconds = 0.0;  // node budget only: machine-independent
  search.node_limit = 200000;
  auto solved =
      ftsearch::RunFtSearch(app->descriptor.graph, app->descriptor.input_space, *rates,
                            app->placement, app->cluster, search);
  EXPECT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_TRUE(solved->strategy.has_value());
  const strategy::ActivationStrategy& strategy = *solved->strategy;

  auto trace = runtime::MakeExperimentTrace(app->descriptor.input_space, 60.0,
                                            1.0 / 3.0, 3);
  EXPECT_TRUE(trace.ok());

  RunHashes hashes;
  {
    obs::TraceRecorder recorder;
    obs::LatencyTracer::Options tracer_options;
    tracer_options.sample_rate = 0.05;
    obs::LatencyTracer tracer(tracer_options);
    obs::MetricsRegistry registry;
    dsps::RuntimeOptions options;
    options.trace_recorder = &recorder;
    options.latency_tracer = &tracer;
    options.telemetry = &registry;
    dsps::StreamSimulation simulation(app->descriptor, app->cluster, app->placement,
                                      strategy, *trace, options);
    simulation.Run().CheckOK();
    dsps::PublishTo(&registry, simulation.metrics());
    obs::PublishBreakdown(&registry, tracer.Breakdown());
    hashes.metrics = Fnv1a(registry.ToJson().Dump());
    hashes.trace = Fnv1a(obs::ToChromeTraceJson(recorder, &tracer).Dump());
    hashes.timeseries = Fnv1a(obs::TimeSeriesCsv(registry));
    std::vector<obs::AlertRule> rules;
    rules.push_back(obs::ParseAlertRule("drops: ts_drop_rate > 0 warn").value());
    rules.push_back(
        obs::ParseAlertRule("saturation: ts_host_cpu_util > 0.99 for 5 warn").value());
    hashes.health = Fnv1a(obs::EvaluateHealth(registry, rules).ToJson().Dump());
  }
  {
    // The §5.3 pessimistic variant: all but the chosen worst-case survivor
    // of every PE crashed up front (exercises failover + primary election).
    obs::MetricsRegistry registry;
    dsps::RuntimeOptions options;
    options.telemetry = &registry;
    dsps::StreamSimulation simulation(app->descriptor, app->cluster, app->placement,
                                      strategy, *trace, options);
    const auto survivors = runtime::ChooseWorstCaseSurvivors(
        app->descriptor.graph, app->descriptor.input_space, strategy);
    for (model::ComponentId pe : app->descriptor.graph.Pes()) {
      for (int r = 0; r < strategy.replication_factor(); ++r) {
        if (r != survivors[static_cast<size_t>(pe)]) {
          simulation.InjectPermanentReplicaFailure(pe, r).CheckOK();
        }
      }
    }
    simulation.Run().CheckOK();
    dsps::PublishTo(&registry, simulation.metrics());
    hashes.worst_case_metrics = Fnv1a(registry.ToJson().Dump());
  }
  return hashes;
}

struct GoldenEntry {
  uint64_t seed;
  RunHashes expected;
};

// Captured from the pre-overhaul engine (see file comment); seeds match the
// solvable corpus instances used in EXPERIMENTS.md.
const GoldenEntry kGolden[] = {
    {6,
     {0xd2b2741519254bc1ULL, 0x3577da48a9d0a58dULL, 0xc21bba5c70f0880cULL, 0x1c5fd651c85d1b92ULL,
      0xbcd3d0658e54e89dULL}},
    {8,
     {0xa218b3177a294e1fULL, 0x88643c688f8eba02ULL, 0xd5f841f6f2b542f5ULL, 0x0302a3281c39dabcULL,
      0x23d889b345757411ULL}},
    {11,
     {0xba3f77dbf59d7c98ULL, 0x42ce60272010c51bULL, 0x840e43cfd2e27dacULL, 0xfd352f1651d16b41ULL,
      0x7168107c34037a28ULL}},
};

TEST(DeterminismTest, ObservableOutputsMatchPreOverhaulGoldens) {
  const bool print = std::getenv("LAAR_PRINT_HASHES") != nullptr;
  for (const GoldenEntry& golden : kGolden) {
    const RunHashes got = RunSeed(golden.seed);
    if (print) {
      std::printf("    {%llu,\n"
                  "     {0x%016llxULL, 0x%016llxULL, 0x%016llxULL, 0x%016llxULL,\n"
                  "      0x%016llxULL}},\n",
                  static_cast<unsigned long long>(golden.seed),
                  static_cast<unsigned long long>(got.metrics),
                  static_cast<unsigned long long>(got.trace),
                  static_cast<unsigned long long>(got.timeseries),
                  static_cast<unsigned long long>(got.health),
                  static_cast<unsigned long long>(got.worst_case_metrics));
      continue;
    }
    EXPECT_EQ(got.metrics, golden.expected.metrics) << "seed " << golden.seed;
    EXPECT_EQ(got.trace, golden.expected.trace) << "seed " << golden.seed;
    EXPECT_EQ(got.timeseries, golden.expected.timeseries) << "seed " << golden.seed;
    EXPECT_EQ(got.health, golden.expected.health) << "seed " << golden.seed;
    EXPECT_EQ(got.worst_case_metrics, golden.expected.worst_case_metrics)
        << "seed " << golden.seed;
  }
}

/// One windowed-engine run (conservative windows, DESIGN.md §10) under
/// static replication with host crashes, every observer attached, at the
/// given shard count. The goldens were captured from the single-shard
/// configuration, which spawns no worker thread; multi-shard runs are held
/// to the same bytes, so a scheduling-order leak anywhere in the sharded
/// engine fails this test rather than silently skewing results.
RunHashes RunWindowedSeed(uint64_t seed, int shards) {
  appgen::GeneratorOptions generator;
  generator.num_pes = 12;
  generator.num_hosts = 6;
  generator.hosts_per_rack = 2;
  generator.racks_per_zone = 3;
  generator.domain_aware_placement = true;
  auto app = appgen::GenerateApplication(generator, seed);
  EXPECT_TRUE(app.ok()) << app.status().ToString();
  strategy::ActivationStrategy sr = strategy::MakeStaticReplication(
      app->descriptor.graph, app->descriptor.input_space, 2);
  auto trace = runtime::MakeExperimentTrace(app->descriptor.input_space, 40.0,
                                            1.0 / 3.0, 2);
  EXPECT_TRUE(trace.ok());

  RunHashes hashes;
  {
    obs::TraceRecorder recorder;
    obs::MetricsRegistry registry;
    dsps::RuntimeOptions options;
    options.trace_recorder = &recorder;
    options.telemetry = &registry;
    options.link_latency_seconds = 0.05;
    options.shards = shards;
    dsps::StreamSimulation simulation(app->descriptor, app->cluster, app->placement,
                                      sr, *trace, options);
    EXPECT_TRUE(simulation.ScheduleHostCrash(1, 15.0, 8.0).ok());
    EXPECT_TRUE(simulation.ScheduleHostCrash(4, 40.0, 5.0).ok());
    simulation.Run().CheckOK();
    dsps::PublishTo(&registry, simulation.metrics());
    hashes.metrics = Fnv1a(registry.ToJson().Dump());
    hashes.trace = Fnv1a(obs::ToChromeTraceJson(recorder, nullptr).Dump());
    hashes.timeseries = Fnv1a(obs::TimeSeriesCsv(registry));
    std::vector<obs::AlertRule> rules;
    rules.push_back(obs::ParseAlertRule("drops: ts_drop_rate > 0 warn").value());
    rules.push_back(
        obs::ParseAlertRule("saturation: ts_host_cpu_util > 0.99 for 5 warn").value());
    hashes.health = Fnv1a(obs::EvaluateHealth(registry, rules).ToJson().Dump());
  }
  {
    // Pessimistic worst case on the windowed engine: permanent replica
    // failures interact with the crash schedule and failover timers.
    obs::MetricsRegistry registry;
    dsps::RuntimeOptions options;
    options.telemetry = &registry;
    options.link_latency_seconds = 0.05;
    options.shards = shards;
    dsps::StreamSimulation simulation(app->descriptor, app->cluster, app->placement,
                                      sr, *trace, options);
    const auto survivors = runtime::ChooseWorstCaseSurvivors(
        app->descriptor.graph, app->descriptor.input_space, sr);
    for (model::ComponentId pe : app->descriptor.graph.Pes()) {
      for (int r = 0; r < sr.replication_factor(); ++r) {
        if (r != survivors[static_cast<size_t>(pe)]) {
          simulation.InjectPermanentReplicaFailure(pe, r).CheckOK();
        }
      }
    }
    simulation.Run().CheckOK();
    dsps::PublishTo(&registry, simulation.metrics());
    hashes.worst_case_metrics = Fnv1a(registry.ToJson().Dump());
  }
  return hashes;
}

// Captured from the single-shard windowed engine (LAAR_PRINT_HASHES=1).
const GoldenEntry kWindowedGolden[] = {
    {6,
     {0x26e358776fac7e9dULL, 0x4c82928d8885e4dfULL, 0xb1d09f7a86fe30c3ULL, 0x14cd5df718e4d9c3ULL,
      0x41d6e3b89a2cf7afULL}},
    {11,
     {0xc91cc6bcfc275f28ULL, 0xffa4d6ec0e3195a4ULL, 0xe39f8562c5d6dc75ULL, 0xd88c4b89f4600b3aULL,
      0xc8b704b4a2506001ULL}},
};

/// The sharded engine's headline guarantee: `--shards=1/2/4` produce
/// byte-identical artifacts, and those bytes match the committed goldens —
/// so both cross-shard divergence and cross-version drift are caught.
TEST(DeterminismTest, WindowedOutputsMatchGoldensAtEveryShardCount) {
  const bool print = std::getenv("LAAR_PRINT_HASHES") != nullptr;
  for (const GoldenEntry& golden : kWindowedGolden) {
    for (int shards : {1, 2, 4}) {
      const RunHashes got = RunWindowedSeed(golden.seed, shards);
      if (print) {
        if (shards == 1) {
          std::printf("    {%llu, {0x%016llxULL, 0x%016llxULL, 0x%016llxULL, "
                      "0x%016llxULL, 0x%016llxULL}},\n",
                      static_cast<unsigned long long>(golden.seed),
                      static_cast<unsigned long long>(got.metrics),
                      static_cast<unsigned long long>(got.trace),
                      static_cast<unsigned long long>(got.timeseries),
                      static_cast<unsigned long long>(got.health),
                      static_cast<unsigned long long>(got.worst_case_metrics));
        }
        continue;
      }
      EXPECT_EQ(got.metrics, golden.expected.metrics)
          << "seed " << golden.seed << " shards " << shards;
      EXPECT_EQ(got.trace, golden.expected.trace)
          << "seed " << golden.seed << " shards " << shards;
      EXPECT_EQ(got.timeseries, golden.expected.timeseries)
          << "seed " << golden.seed << " shards " << shards;
      EXPECT_EQ(got.health, golden.expected.health)
          << "seed " << golden.seed << " shards " << shards;
      EXPECT_EQ(got.worst_case_metrics, golden.expected.worst_case_metrics)
          << "seed " << golden.seed << " shards " << shards;
    }
  }
}

/// An overloaded synchronous-engine run under static replication: the
/// all-peak input keeps hosts saturated, short queues fill to their bounds
/// (tail-drop, or load shedding when `shed` is set), and a mid-run host
/// crash clears the backlogs of every replica on it. Per-replica CPU series,
/// telemetry and every trace category are recorded, so queue order, the
/// drop and shed decisions and the processor-sharing integration all reach
/// the hashes.
RunHashes RunOverloadedInline(uint64_t seed, bool shed) {
  appgen::GeneratorOptions generator;
  generator.num_pes = 12;
  generator.num_hosts = 6;
  auto app = appgen::GenerateApplication(generator, seed);
  EXPECT_TRUE(app.ok()) << app.status().ToString();
  strategy::ActivationStrategy sr = strategy::MakeStaticReplication(
      app->descriptor.graph, app->descriptor.input_space, 2);
  dsps::InputTrace trace;
  EXPECT_TRUE(trace.Append(30.0, app->descriptor.input_space.PeakConfig()).ok());

  RunHashes hashes;
  obs::TraceRecorder recorder;
  obs::MetricsRegistry registry;
  dsps::RuntimeOptions options;
  options.trace_recorder = &recorder;
  options.telemetry = &registry;
  options.record_replica_series = true;
  options.queue_seconds = 0.5;
  options.enable_load_shedding = shed;
  dsps::StreamSimulation simulation(app->descriptor, app->cluster, app->placement, sr,
                                    trace, options);
  EXPECT_TRUE(simulation.ScheduleHostCrash(2, 12.0, 6.0).ok());
  simulation.Run().CheckOK();
  const dsps::SimulationMetrics& metrics = simulation.metrics();
  // The run must exercise what the golden is for: queues deeper than a
  // queue ring's initial 8 slots, full queues, and a crash that loses work.
  EXPECT_GT(metrics.max_queue_depth, 8u);
  EXPECT_GT(shed ? metrics.shed_tuples : metrics.dropped_tuples, 0u);
  EXPECT_GT(metrics.crash_lost_tuples, 0u);
  dsps::PublishTo(&registry, metrics);
  hashes.metrics = Fnv1a(registry.ToJson().Dump());
  hashes.trace = Fnv1a(obs::ToChromeTraceJson(recorder, nullptr).Dump());
  hashes.timeseries = Fnv1a(obs::TimeSeriesCsv(registry));
  return hashes;
}

// Captured from the engine with fixed-capacity queue rings and the
// replica-side processor-sharing state (LAAR_PRINT_HASHES=1); the growable
// rings and the host-local busy set must reproduce them.
const GoldenEntry kOverloadedGolden[] = {  // tail-drop, then load shedding
    {6, {0x6fd2069ed409dfe5ULL, 0x5c3b951fd871cce8ULL, 0xc743dcf04e4d4263ULL, 0x0ULL, 0x0ULL}},
    {6, {0x97810b4c6f9158f6ULL, 0x2b3632817655f7d3ULL, 0x9a6c4ff76070c69aULL, 0x0ULL, 0x0ULL}},
};

TEST(DeterminismTest, OverloadedInlineRunsMatchGoldens) {
  const bool print = std::getenv("LAAR_PRINT_HASHES") != nullptr;
  for (size_t i = 0; i < std::size(kOverloadedGolden); ++i) {
    const GoldenEntry& golden = kOverloadedGolden[i];
    const bool shed = i == 1;
    const RunHashes got = RunOverloadedInline(golden.seed, shed);
    if (print) {
      std::printf("    {%llu, {0x%016llxULL, 0x%016llxULL, 0x%016llxULL, 0x0ULL, 0x0ULL}},\n",
                  static_cast<unsigned long long>(golden.seed),
                  static_cast<unsigned long long>(got.metrics),
                  static_cast<unsigned long long>(got.trace),
                  static_cast<unsigned long long>(got.timeseries));
      continue;
    }
    EXPECT_EQ(got.metrics, golden.expected.metrics) << "shed " << shed;
    EXPECT_EQ(got.trace, golden.expected.trace) << "shed " << shed;
    EXPECT_EQ(got.timeseries, golden.expected.timeseries) << "shed " << shed;
  }
}

/// Same-binary determinism: two runs at one seed hash identically. This
/// holds independently of the goldens, so it keeps guarding runs whose
/// semantics were changed intentionally (goldens re-captured).
TEST(DeterminismTest, RepeatedRunsAreBitIdentical) {
  const RunHashes a = RunSeed(6);
  const RunHashes b = RunSeed(6);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.timeseries, b.timeseries);
  EXPECT_EQ(a.health, b.health);
  EXPECT_EQ(a.worst_case_metrics, b.worst_case_metrics);
}

}  // namespace
}  // namespace laar
