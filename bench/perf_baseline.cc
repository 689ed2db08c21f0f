// Perf-baseline writer and regression guard for the event engine.
//
// Runs a fixed set of stages through the DES hot path and records, per
// stage, events executed, wall-clock seconds, and events/sec, plus the
// process peak RSS — the committed baseline (`BENCH_10.json`) documents the
// engine-overhaul speedup and anchors the CI regression guard.
//
// Usage:
//   perf_baseline --bench-out=BENCH_10.json [--repeat=N]
//   perf_baseline --check=BENCH_10.json [--tolerance=0.30]
//   perf_baseline --skip-scaling [--scaling-link=0.005]
//
// `--check` compares each stage's events/sec against the baseline file and
// exits non-zero when any stage is slower by more than `--tolerance`
// (fractional; default 0.30). The guard is deliberately coarse: it catches
// order-of-magnitude regressions, not scheduler noise.
//
// `--skip-scaling` drops the sharded-scaling stages (the web-scale profile
// takes most of the run's wall clock); `--scaling-link` sets their
// conservative-window width in seconds. The scaling stages run with an
// engine profiler attached, so each one also records its shard count,
// worker threads, sync-overhead fraction, and imbalance ratio in
// `--bench-out`. All timings are monotonic Stopwatch measurements.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "laar/appgen/app_generator.h"
#include "laar/common/stopwatch.h"
#include "laar/dsps/stream_simulation.h"
#include "laar/json/json.h"
#include "laar/obs/engine_profiler.h"
#include "laar/obs/latency_tracer.h"
#include "laar/obs/metrics_registry.h"
#include "laar/obs/trace_recorder.h"
#include "laar/sim/simulator.h"
#include "laar/strategy/baselines.h"

namespace laar::bench {
namespace {

struct StageResult {
  std::string name;
  uint64_t events = 0;
  double wall_seconds = 0.0;  // monotonic (Stopwatch), never wall-calendar
  int shards = 1;  ///< event-engine shards the stage ran with
  int jobs = 1;    ///< worker threads driving them (== shards today)

  /// Engine-profile summary, present only for stages run with a profiler
  /// attached (the sharded-scaling stages).
  bool profiled = false;
  double sync_overhead_fraction = 0.0;
  double imbalance_ratio = 0.0;
  double critical_path_seconds = 0.0;

  double EventsPerSec() const {
    return wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds : 0.0;
  }
};

appgen::GeneratedApplication MakeApp(int num_pes, int num_hosts, uint64_t seed) {
  appgen::GeneratorOptions options;
  options.num_pes = num_pes;
  options.num_hosts = num_hosts;
  for (;; ++seed) {
    auto app = appgen::GenerateApplication(options, seed);
    if (app.ok()) return std::move(*app);
  }
}

/// Raw engine churn: self-rescheduling chains mixed with cancels and
/// reschedules — the pooled-slot / indexed-heap fast path with no
/// simulation logic on top.
StageResult RunEngineChurn(int repeat) {
  StageResult result;
  result.name = "engine_churn";
  Stopwatch watch;
  for (int rep = 0; rep < repeat * 4; ++rep) {
    sim::Simulator simulator;
    int remaining = 200000;
    std::function<void()> tick = [&] {
      if (--remaining > 0) simulator.ScheduleAfter(0.001, tick);
    };
    simulator.ScheduleAfter(0.001, tick);
    // A side population the chain repeatedly cancels and reschedules.
    std::vector<sim::EventId> side;
    for (int i = 0; i < 256; ++i) {
      side.push_back(simulator.ScheduleAfter(1000.0, [] {}));
    }
    for (int i = 0; i < 50000; ++i) {
      const size_t pick = static_cast<size_t>(i) % side.size();
      if (i % 2 == 0) {
        simulator.Reschedule(side[pick], 1000.0 + i);
      } else {
        simulator.Cancel(side[pick]);
        side[pick] = simulator.ScheduleAfter(1000.0, [] {});
      }
    }
    for (sim::EventId id : side) simulator.Cancel(id);
    simulator.Run();
    result.events += simulator.events_processed() + 50000;
  }
  result.wall_seconds = watch.ElapsedSeconds();
  return result;
}

/// One full StreamSimulation run; returns logical engine events executed.
uint64_t RunSimulationOnce(const appgen::GeneratedApplication& app,
                           const strategy::ActivationStrategy& strategy,
                           const dsps::InputTrace& trace, bool traced) {
  obs::TraceRecorder recorder;
  obs::LatencyTracer::Options tracer_options;
  tracer_options.sample_rate = 0.05;
  obs::LatencyTracer tracer(tracer_options);
  obs::MetricsRegistry telemetry;
  dsps::RuntimeOptions options;
  if (traced) {
    options.trace_recorder = &recorder;
    options.latency_tracer = &tracer;
    options.telemetry = &telemetry;
  }
  dsps::StreamSimulation simulation(app.descriptor, app.cluster, app.placement,
                                    strategy, trace, options);
  simulation.Run().CheckOK();
  return simulation.metrics().engine_events;
}

/// End-to-end DES runs of the benchmark application (12 PEs / 6 hosts,
/// alternating peak/off-peak input), untraced and fully traced.
StageResult RunEndToEnd(const char* name, bool traced, int repeat) {
  StageResult result;
  result.name = name;
  const auto app = MakeApp(12, 6, 1);
  const auto strategy = strategy::MakeStaticReplication(
      app.descriptor.graph, app.descriptor.input_space, 2);
  const auto trace = *dsps::InputTrace::Alternating(
      0, 20.0, app.descriptor.input_space.PeakConfig(), 10.0, 1);
  Stopwatch watch;
  for (int rep = 0; rep < repeat * 8; ++rep) {
    result.events += RunSimulationOnce(app, strategy, trace, traced);
  }
  result.wall_seconds = watch.ElapsedSeconds();
  return result;
}

/// A small corpus sweep: distinct generated applications back to back, the
/// shape of the Fig. 9–12 experiment harness workload.
StageResult RunMiniCorpus(int repeat) {
  StageResult result;
  result.name = "sim_corpus";
  std::vector<appgen::GeneratedApplication> apps;
  std::vector<strategy::ActivationStrategy> strategies;
  for (uint64_t seed : {2, 5, 6, 8, 11}) {
    apps.push_back(MakeApp(12, 6, seed));
    strategies.push_back(strategy::MakeStaticReplication(
        apps.back().descriptor.graph, apps.back().descriptor.input_space, 2));
  }
  Stopwatch watch;
  for (int rep = 0; rep < repeat * 2; ++rep) {
    for (size_t i = 0; i < apps.size(); ++i) {
      const auto trace = *dsps::InputTrace::Alternating(
          0, 20.0, apps[i].descriptor.input_space.PeakConfig(), 10.0, 1);
      result.events += RunSimulationOnce(apps[i], strategies[i], trace, false);
    }
  }
  result.wall_seconds = watch.ElapsedSeconds();
  return result;
}

/// Crash-path churn: the benchmark application under repeated correlated
/// rack outages — exercises host crash epochs, failover re-election, and
/// resync scheduling on top of the DES hot path. Measured but absent from
/// older baseline files (`--check` only inspects baseline-listed stages).
StageResult RunDomainOutage(int repeat) {
  StageResult result;
  result.name = "domain_outage_sim";
  appgen::GeneratorOptions options;
  options.num_pes = 12;
  options.num_hosts = 6;
  options.hosts_per_rack = 2;
  auto make_app = [&options](uint64_t seed) {
    for (;; ++seed) {
      auto app = appgen::GenerateApplication(options, seed);
      if (app.ok()) return std::move(*app);
    }
  };
  const auto app = make_app(1);
  const auto strategy = strategy::MakeStaticReplication(
      app.descriptor.graph, app.descriptor.input_space, 2);
  const auto trace = *dsps::InputTrace::Alternating(
      0, 20.0, app.descriptor.input_space.PeakConfig(), 10.0, 2);
  const model::FailureTopology& topology = app.cluster.topology();
  Stopwatch watch;
  for (int rep = 0; rep < repeat * 8; ++rep) {
    dsps::RuntimeOptions runtime;
    dsps::StreamSimulation simulation(app.descriptor, app.cluster, app.placement,
                                      strategy, trace, runtime);
    // Two overlapping rack outages per High period, rotating racks by rep.
    const int racks = topology.NumDomains(model::DomainLevel::kRack);
    for (int burst = 0; burst < 2; ++burst) {
      const auto rack = static_cast<model::DomainId>((rep + burst) % racks);
      const double at = 20.0 + burst * 2.0 + 30.0 * burst;
      for (model::HostId host :
           topology.HostsInDomain(model::DomainLevel::kRack, rack)) {
        simulation.ScheduleHostCrash(host, at, 8.0).CheckOK();
        simulation.ScheduleHostCrash(host, at + 3.0, 8.0).CheckOK();
      }
    }
    simulation.Run().CheckOK();
    result.events += simulation.metrics().engine_events;
  }
  result.wall_seconds = watch.ElapsedSeconds();
  return result;
}

/// Sharded-engine scaling on the web-scale profile: one generated
/// application (2048 PEs / 256 hosts, appgen::WebScaleProfile), windowed
/// with a 5 ms conservative window, run at 1/2/4/8 shards. The four runs
/// are byte-identical by contract (determinism_test), so `events` is equal
/// across them and the events/sec ratios are pure wall-clock scaling.
/// Single pass per shard count — the run is large enough to be
/// self-averaging, and `--repeat` would quadruple an already-long stage.
std::vector<StageResult> RunShardedScaling(double link_latency) {
  appgen::GeneratorOptions options = appgen::WebScaleProfile();
  auto make_app = [&options](uint64_t seed) {
    for (;; ++seed) {
      auto app = appgen::GenerateApplication(options, seed);
      if (app.ok()) return std::move(*app);
    }
  };
  const auto app = make_app(1);
  const auto strategy = strategy::MakeStaticReplication(
      app.descriptor.graph, app.descriptor.input_space, 2);
  const auto trace = *dsps::InputTrace::Step(
      0, app.descriptor.input_space.PeakConfig(), 3.0, 4.0);
  std::vector<StageResult> results;
  for (int shards : {1, 2, 4, 8}) {
    StageResult result;
    result.name = "sharded_pairwise_s" + std::to_string(shards);
    result.shards = shards;
    result.jobs = shards;
    obs::EngineProfiler profiler;
    dsps::RuntimeOptions runtime;
    runtime.record_latency = false;  // millions of sink samples otherwise
    runtime.link_latency_seconds = link_latency;
    runtime.shards = shards;
    runtime.profiler = &profiler;
    Stopwatch watch;
    dsps::StreamSimulation simulation(app.descriptor, app.cluster,
                                      app.placement, strategy, trace, runtime);
    simulation.Run().CheckOK();
    result.wall_seconds = watch.ElapsedSeconds();
    result.events = simulation.metrics().engine_events;
    const obs::EngineProfile& profile = profiler.profile();
    profile.ReconcileEvents().CheckOK();
    result.profiled = true;
    result.sync_overhead_fraction = profile.SyncOverheadFraction();
    result.imbalance_ratio = profile.ImbalanceRatio();
    result.critical_path_seconds = profile.critical_path_seconds;
    std::printf(
        "  %s profile: sync overhead %.1f%%, imbalance %.2f, critical path "
        "%.3fs of %.3fs loop, runner workers %d\n",
        result.name.c_str(), result.sync_overhead_fraction * 100.0,
        result.imbalance_ratio, result.critical_path_seconds,
        profile.loop_wall_seconds, profile.runner_workers);
    results.push_back(std::move(result));
  }
  for (const StageResult& result : results) {
    if (result.events != results[0].events) {
      std::fprintf(stderr,
                   "FATAL: %s executed %llu events, expected %llu — the "
                   "windowed engine is supposed to be byte-identical across "
                   "shard counts\n",
                   result.name.c_str(),
                   static_cast<unsigned long long>(result.events),
                   static_cast<unsigned long long>(results[0].events));
      std::exit(1);
    }
  }
  std::printf("sharded_pairwise: speedup s2=%.2fx s4=%.2fx s8=%.2fx\n",
              results[0].wall_seconds / results[1].wall_seconds,
              results[0].wall_seconds / results[2].wall_seconds,
              results[0].wall_seconds / results[3].wall_seconds);
  return results;
}

long PeakRssKb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // kilobytes on Linux
}

json::Value ToJson(const std::vector<StageResult>& stages) {
  json::Value doc = json::Value::MakeObject();
  doc.Set("schema", json::Value::String("laar-perf-baseline-v1"));
  json::Value stage_array = json::Value::MakeArray();
  for (const StageResult& stage : stages) {
    json::Value entry = json::Value::MakeObject();
    entry.Set("name", json::Value::String(stage.name));
    entry.Set("events", json::Value::Int(static_cast<int64_t>(stage.events)));
    entry.Set("wall_seconds", json::Value::Number(stage.wall_seconds));
    entry.Set("events_per_sec", json::Value::Number(stage.EventsPerSec()));
    entry.Set("shards", json::Value::Int(stage.shards));
    entry.Set("jobs", json::Value::Int(stage.jobs));
    // `--check` only reads name + events_per_sec, so extra fields are safe
    // against old baseline files.
    if (stage.profiled) {
      entry.Set("sync_overhead_fraction",
                json::Value::Number(stage.sync_overhead_fraction));
      entry.Set("imbalance_ratio", json::Value::Number(stage.imbalance_ratio));
      entry.Set("critical_path_seconds",
                json::Value::Number(stage.critical_path_seconds));
    }
    stage_array.Append(std::move(entry));
  }
  doc.Set("stages", std::move(stage_array));
  doc.Set("peak_rss_kb", json::Value::Int(PeakRssKb()));
  return doc;
}

/// Returns the number of stages regressed beyond `tolerance` vs `baseline`.
int CheckAgainstBaseline(const std::vector<StageResult>& stages,
                         const json::Value& baseline, double tolerance) {
  int regressions = 0;
  const json::Value* stage_array = *baseline.Get("stages");
  for (const json::Value& entry : stage_array->array()) {
    const std::string name = *entry.Get("name").value()->AsString();
    const double base_rate = *entry.Get("events_per_sec").value()->AsDouble();
    const StageResult* current = nullptr;
    for (const StageResult& stage : stages) {
      if (stage.name == name) current = &stage;
    }
    if (current == nullptr) {
      std::printf("MISSING  %-16s (in baseline, not measured)\n", name.c_str());
      ++regressions;
      continue;
    }
    const double rate = current->EventsPerSec();
    const double floor = base_rate * (1.0 - tolerance);
    const bool regressed = rate < floor;
    std::printf("%-8s %-16s %12.0f ev/s vs baseline %12.0f (floor %12.0f)\n",
                regressed ? "REGRESS" : "OK", name.c_str(), rate, base_rate, floor);
    if (regressed) ++regressions;
  }
  return regressions;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int repeat = flags.GetInt("repeat", 4);
  const double tolerance = flags.GetDouble("tolerance", 0.30);

  std::vector<StageResult> stages;
  stages.push_back(RunEngineChurn(repeat));
  stages.push_back(RunEndToEnd("end_to_end_sim", /*traced=*/false, repeat));
  stages.push_back(RunEndToEnd("traced_sim", /*traced=*/true, repeat));
  stages.push_back(RunMiniCorpus(repeat));
  stages.push_back(RunDomainOutage(repeat));
  if (!flags.Has("skip-scaling")) {
    for (StageResult& stage :
         RunShardedScaling(flags.GetDouble("scaling-link", 0.005))) {
      stages.push_back(std::move(stage));
    }
  }

  for (const StageResult& stage : stages) {
    std::printf("%-16s events=%-12llu wall=%7.3fs  %12.0f events/sec\n",
                stage.name.c_str(),
                static_cast<unsigned long long>(stage.events),
                stage.wall_seconds, stage.EventsPerSec());
  }
  std::printf("peak_rss_kb=%ld\n", PeakRssKb());

  const std::string out_path = flags.GetString("bench-out", "");
  if (!out_path.empty()) {
    json::WriteFile(ToJson(stages), out_path).CheckOK();
    std::printf("wrote %s\n", out_path.c_str());
  }

  const std::string check_path = flags.GetString("check", "");
  if (!check_path.empty()) {
    auto baseline = json::ParseFile(check_path);
    if (!baseline.ok()) {
      std::fprintf(stderr, "cannot read baseline %s: %s\n", check_path.c_str(),
                   baseline.status().ToString().c_str());
      return 2;
    }
    const int regressions = CheckAgainstBaseline(stages, *baseline, tolerance);
    if (regressions > 0) {
      std::fprintf(stderr, "%d stage(s) regressed beyond %.0f%%\n", regressions,
                   tolerance * 100.0);
      return 1;
    }
    std::printf("all stages within %.0f%% of baseline\n", tolerance * 100.0);
  }
  return 0;
}

}  // namespace
}  // namespace laar::bench

int main(int argc, char** argv) { return laar::bench::Main(argc, argv); }
