// laar_bench — end-to-end and per-layer benchmark of the LAAR pipeline.
//
// Usage (normally through perfbench/run.py, which builds this binary first):
//   laar_bench --workload=paper_corpus|web_inline|web_sharded --seed=N
//              --seconds=S --trace=0|1 --out=DIR --pins=FILE [--shards=N]
//
// web_sharded runs on min(4, nproc - 1) executors, leaving a core for the
// rest of the machine, and by default on twice as many shards, so the
// runner can move shards off an executor whose core is slowed down
// (README.md has the measurements).
//
// One process generates the workload's inputs from --seed (set-up), then runs
// closed-loop batch passes for about --seconds. Each pass takes the pipeline
// from descriptor load to written artifacts:
//
//   pass -> load | solve -> {rates, ftsearch, baselines, validate}
//               | simulate -> scenario | write -> {publish, encode}
//
// --trace=0 records only the pass and its four stages and prints the
// end-to-end metrics. --trace=1 alternates traced and untraced passes: the
// traced ones record every span above plus per-stage peak RSS, keep the
// spans in memory and write them to DIR at exit; the per-layer metrics are
// derived from them.
//
// Correctness checks run after each pass, outside its timed region: loss and
// event reconciliation, an independent IC re-evaluation of every LAAR
// strategy, and a digest of the deterministic artifacts that must agree
// across passes and, for the pinned seed, with --pins. A failed check counts
// as a failed operation and makes the process exit 1. The last stdout line is
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "laar/appgen/app_generator.h"
#include "laar/common/flags.h"
#include "laar/common/stats.h"
#include "laar/common/strings.h"
#include "laar/configindex/config_index.h"
#include "laar/ftsearch/ft_search.h"
#include "laar/json/json.h"
#include "laar/metrics/cost.h"
#include "laar/metrics/failure_model.h"
#include "laar/metrics/ic.h"
#include "laar/obs/engine_profiler.h"
#include "laar/obs/metrics_registry.h"
#include "laar/obs/run_info.h"
#include "laar/runtime/experiment.h"
#include "laar/strategy/baselines.h"

namespace laar::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// ---- workload sizes (README.md gives the reasons) --------------------------
// paper_corpus is the corpus of the Fig. 9-12 harness (bench/experiment_corpus.h
// HarnessFromFlags with --crash, base seed 10000) with the same per-application
// settings, cut to its first usable applications and a quarter of the trace.
constexpr uint64_t kCorpusBaseSeed = 10000;
constexpr int kCorpusApps = 4;             // usable applications per pass
constexpr int kCorpusMaxSkipsFactor = 20;  // as runtime::CorpusOptions
constexpr uint64_t kCorpusNodeLimit = 2000000;
constexpr double kCorpusTraceSeconds = 30.0;
constexpr int kCorpusTraceCycles = 3;
constexpr double kCorpusIcRequirements[] = {0.7, 0.6, 0.5};  // strictest first
// The web-scale app of `laar_generate --profile=web-scale --seed=1`
// (2048 PEs, 256 hosts).
constexpr uint64_t kWebAppSeed = 1;
constexpr double kWebIcRequirement = 0.7;
constexpr uint64_t kWebNodeLimit = 200000;
constexpr double kWebTraceSeconds = 2.0;
constexpr double kWebLinkLatencySeconds = 0.005;

// Set-up repeats at least this often and for at least this long.
constexpr int kSetupRepeats = 3;
constexpr double kSetupMinSeconds = 1.0;
constexpr double kIcTolerance = 1e-9;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- spans ----------------------------------------------------------------

struct Span {
  const char* name;
  const char* detail;  ///< scenario kind; "" when none
  double start;        ///< seconds since the tracer's origin
  double end;
  int parent;  ///< index into Tracer::spans, -1 for a root
  int pass;    ///< -1 outside passes (set-up)
};

/// Records spans around the benchmark's calls into each layer. Coarse spans
/// (set-up, the pass and its four stages) are always recorded, since the
/// end-to-end metrics come from them; fine spans only while `detailed`.
class Tracer {
 public:
  int Open(const char* name, bool coarse, const char* detail = "") {
    if (!coarse && !detailed) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans.push_back({name, detail, Now(), 0.0, parent, pass});
    stack_.push_back(static_cast<int>(spans.size()) - 1);
    return stack_.back();
  }
  void Close(int id) {
    if (id < 0) return;
    spans[static_cast<size_t>(id)].end = Now();
    stack_.pop_back();
  }
  double Now() const { return SecondsSince(origin_); }

  std::vector<Span> spans;
  int pass = -1;
  bool detailed = false;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer* tracer, const char* name, bool coarse, const char* detail = "")
      : tracer_(tracer), id_(tracer->Open(name, coarse, detail)) {}
  ~Scope() { tracer_->Close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Per-name total durations over the spans of one pass, keyed "name" or,
/// for spans with a detail, "name.detail"; and the sum of every span's self
/// time (its duration minus the part its children cover), which must equal
/// the pass span.
struct PassSpans {
  std::map<std::string, double> total;
  double pass_seconds = 0.0;
  double self_sum = 0.0;
};

PassSpans SummarizePass(const std::vector<Span>& spans, int pass) {
  PassSpans out;
  std::map<int, double> child_cover;
  for (const Span& span : spans) {
    if (span.pass == pass && span.parent >= 0) {
      child_cover[span.parent] += span.end - span.start;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.pass != pass) continue;
    const double duration = span.end - span.start;
    std::string key = span.name;
    if (*span.detail != '\0') key += std::string(".") + span.detail;
    out.total[key] += duration;
    out.self_sum += duration - child_cover[static_cast<int>(i)];
    if (span.parent < 0) out.pass_seconds += duration;
  }
  return out;
}

// ---- process memory -------------------------------------------------------

/// Peak resident set (VmHWM) in MB; 0 when /proc is unavailable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

/// Resets VmHWM to the current RSS, so the next PeakRssMb is a stage peak.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double ProcessPeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---- small helpers --------------------------------------------------------

/// 0 for no values.
double Median(const std::vector<double>& values) {
  SampleStats stats;
  stats.AddAll(values);
  return stats.Percentile(50.0);
}

std::string Fnv1aHex(const std::string& text) {
  uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return StrFormat("%016llx", static_cast<unsigned long long>(hash));
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// ---- workload inputs ------------------------------------------------------

/// One generated application as a pass receives it: the descriptor as the
/// JSON text laar_generate writes, plus the cluster and placement it was
/// calibrated for, and its experiment trace.
struct AppInput {
  uint64_t seed = 0;
  std::string descriptor_json;
  model::Cluster cluster;
  model::ReplicaPlacement placement{0, 2};
  dsps::InputTrace trace;
};

struct Inputs {
  std::vector<AppInput> apps;
  int seeds_tried = 0;
  /// web_sharded only: the strategy solved in set-up, as laar_solve writes
  /// it, with its search result.
  std::string strategy_json;
  double strategy_cost = 0.0;
  double strategy_ic = 0.0;
};

// ---- one pass -------------------------------------------------------------

/// An application after `load`: the descriptor parsed back from its JSON.
struct LoadedApp {
  const AppInput* input = nullptr;
  appgen::GeneratedApplication app;
  std::optional<model::ExpectedRates> rates;
};

struct SearchRecord {
  const LoadedApp* app;
  double ic_requirement;
  ftsearch::FtSearchResult result;
};

/// A LAAR strategy and the IC its solver promised, for the independent
/// re-evaluation.
struct IcClaim {
  const LoadedApp* app;
  const strategy::ActivationStrategy* strategy;
  double requirement;
  double promised_ic;
};

struct SimRecord {
  const LoadedApp* app;
  std::string variant;
  const char* scenario;
  dsps::SimulationMetrics metrics;
  std::optional<obs::EngineProfile> profile;
};

struct PassOutput {
  // Pointers in the records below point into `apps` and `variants`.
  std::vector<std::unique_ptr<LoadedApp>> apps;
  std::vector<std::unique_ptr<runtime::NamedVariant>> variants;
  std::vector<SearchRecord> searches;
  std::vector<IcClaim> claims;
  std::vector<SimRecord> sims;
  int seeds_tried = 0;
  int apps_used = 0;
  int attempted = 0;  ///< searches + simulations started
  int failed = 0;     ///< of which returned an error Status
  std::vector<std::string> errors;
  uint64_t load_bytes = 0;
  uint64_t write_bytes = 0;
  std::string artifacts;  ///< the deterministic artifacts written, for the digest
  double rss_solve_mb = 0.0, rss_sim_mb = 0.0, rss_write_mb = 0.0;

  void Fail(const Status& status) {
    ++failed;
    errors.push_back(status.ToString());
  }
};

class Workload {
 public:
  Workload(std::string name, uint64_t seed, int shards, int executors,
           std::filesystem::path out_dir, Tracer* tracer)
      : name_(std::move(name)),
        seed_(seed),
        shards_(shards),
        executors_(executors),
        out_dir_(std::move(out_dir)),
        tracer_(tracer) {}

  bool web() const { return name_ != "paper_corpus"; }
  bool sharded() const { return name_ == "web_sharded"; }

  Result<Inputs> Setup() const;
  PassOutput RunPass(const Inputs& inputs, bool measure_rss) const;

 private:
  Status AddApp(appgen::GeneratedApplication&& app, uint64_t seed, Inputs* inputs) const;
  LoadedApp* Load(const AppInput& input, PassOutput* out) const;
  bool ComputeRates(LoadedApp* app, PassOutput* out) const;
  std::optional<ftsearch::FtSearchResult> Search(LoadedApp* app, double ic,
                                                 uint64_t node_limit,
                                                 PassOutput* out) const;
  std::vector<runtime::NamedVariant*> SolveCorpusApp(LoadedApp* app,
                                                     PassOutput* out) const;
  void Simulate(const LoadedApp& app, const runtime::NamedVariant& variant,
                runtime::FailureScenario scenario, PassOutput* out) const;
  void Write(PassOutput* out) const;

  std::string name_;
  uint64_t seed_;
  int shards_;
  int executors_;
  std::filesystem::path out_dir_;
  Tracer* tracer_;
};

Status Workload::AddApp(appgen::GeneratedApplication&& app, uint64_t seed,
                        Inputs* inputs) const {
  AppInput input;
  input.seed = seed;
  input.descriptor_json = app.descriptor.ToJson().Dump();
  input.cluster = std::move(app.cluster);
  input.placement = std::move(app.placement);
  {
    Scope span(tracer_, "trace", false);
    LAAR_ASSIGN_OR_RETURN(
        input.trace,
        runtime::MakeExperimentTrace(app.descriptor.input_space,
                                     web() ? kWebTraceSeconds : kCorpusTraceSeconds,
                                     1.0 / 3.0, web() ? 1 : kCorpusTraceCycles));
  }
  inputs->apps.push_back(std::move(input));
  return Status::OK();
}

Result<Inputs> Workload::Setup() const {
  Scope setup(tracer_, "setup", true);
  Inputs inputs;
  if (!web()) {
    appgen::GeneratorOptions generator;
    generator.num_pes = 24;
    generator.num_hosts = 12;
    generator.high_overload_max = 1.15;  // as bench::HarnessFromFlags
    // The harness probes seeds base+1, base+2, ... and gives up after
    // apps × max_skips_factor seeds; the pool holds every seed it may probe.
    for (uint64_t i = 1; i <= kCorpusApps * kCorpusMaxSkipsFactor; ++i) {
      const uint64_t app_seed = kCorpusBaseSeed + i;
      ++inputs.seeds_tried;
      std::optional<Result<appgen::GeneratedApplication>> app;
      {
        Scope span(tracer_, "appgen", false);
        app.emplace(appgen::GenerateApplication(generator, app_seed));
      }
      if (app->ok()) LAAR_RETURN_IF_ERROR(AddApp(std::move(**app), app_seed, &inputs));
    }
    return inputs;
  }
  for (uint64_t seed = kWebAppSeed;; ++seed) {
    ++inputs.seeds_tried;
    std::optional<Result<appgen::GeneratedApplication>> generated;
    {
      Scope span(tracer_, "appgen", false);
      generated.emplace(appgen::GenerateApplication(appgen::WebScaleProfile(), seed));
    }
    if (!generated->ok()) {
      if (inputs.seeds_tried == 100) return generated->status();
      continue;
    }
    appgen::GeneratedApplication& app = **generated;
    if (sharded()) {
      // The laar_solve half of the handoff: solve once, keep the JSON.
      Scope span(tracer_, "setup_solve", false);
      const model::ApplicationGraph& graph = app.descriptor.graph;
      const model::InputSpace& space = app.descriptor.input_space;
      LAAR_ASSIGN_OR_RETURN(model::ExpectedRates rates,
                            model::ExpectedRates::Compute(graph, space));
      ftsearch::FtSearchOptions search;
      search.ic_requirement = kWebIcRequirement;
      search.time_limit_seconds = 0.0;
      search.node_limit = kWebNodeLimit;
      search.num_threads = 1;
      LAAR_ASSIGN_OR_RETURN(ftsearch::FtSearchResult result,
                            ftsearch::RunFtSearch(graph, space, rates, app.placement,
                                                  app.cluster, search));
      if (!result.strategy.has_value()) {
        return Status::FailedPrecondition("set-up FT-Search found no strategy");
      }
      inputs.strategy_json = result.strategy->ToJson().Dump();
      inputs.strategy_cost = result.best_cost;
      inputs.strategy_ic = result.best_ic;
    }
    LAAR_RETURN_IF_ERROR(AddApp(std::move(app), seed, &inputs));
    return inputs;
  }
}

LoadedApp* Workload::Load(const AppInput& input, PassOutput* out) const {
  Scope load(tracer_, "load", true);
  out->load_bytes += input.descriptor_json.size();
  auto doc = json::Parse(input.descriptor_json);
  auto descriptor = doc.ok() ? model::ApplicationDescriptor::FromJson(*doc)
                             : Result<model::ApplicationDescriptor>(doc.status());
  if (!descriptor.ok()) {
    ++out->attempted;
    out->Fail(descriptor.status());
    return nullptr;
  }
  auto loaded = std::make_unique<LoadedApp>();
  loaded->input = &input;
  loaded->app.descriptor = std::move(*descriptor);
  loaded->app.cluster = input.cluster;
  loaded->app.placement = input.placement;
  out->apps.push_back(std::move(loaded));
  return out->apps.back().get();
}

bool Workload::ComputeRates(LoadedApp* app, PassOutput* out) const {
  Scope span(tracer_, "rates", false);
  auto rates = model::ExpectedRates::Compute(app->app.descriptor.graph,
                                             app->app.descriptor.input_space);
  if (!rates.ok()) {
    ++out->attempted;
    out->Fail(rates.status());
    return false;
  }
  app->rates = std::move(*rates);
  return true;
}

/// One sequential, node-budgeted search with no wall-clock limit, so its
/// outcome is a pure function of the inputs.
std::optional<ftsearch::FtSearchResult> Workload::Search(LoadedApp* app, double ic,
                                                         uint64_t node_limit,
                                                         PassOutput* out) const {
  ftsearch::FtSearchOptions options;
  options.ic_requirement = ic;
  options.time_limit_seconds = 0.0;
  options.node_limit = node_limit;
  options.num_threads = 1;
  ++out->attempted;
  Scope span(tracer_, "ftsearch", false);
  auto result = ftsearch::RunFtSearch(app->app.descriptor.graph,
                                      app->app.descriptor.input_space, *app->rates,
                                      app->app.placement, app->app.cluster, options);
  if (!result.ok()) {
    out->Fail(result.status());
    return std::nullopt;
  }
  out->searches.push_back({app, ic, *result});
  return std::move(*result);
}

/// runtime::BuildVariants, step by step: FT-Search from the strictest IC
/// requirement down, then the NR/SR/GRD baselines. Returns the variants in
/// the paper's order, or nothing when the seed is unusable.
std::vector<runtime::NamedVariant*> Workload::SolveCorpusApp(LoadedApp* app,
                                                             PassOutput* out) const {
  Scope solve(tracer_, "solve", true);
  if (!ComputeRates(app, out)) return {};
  std::vector<std::unique_ptr<runtime::NamedVariant>> laar;
  for (double ic : kCorpusIcRequirements) {
    auto result = Search(app, ic, kCorpusNodeLimit, out);
    if (!result.has_value() || !result->strategy.has_value()) return {};
    auto variant = std::make_unique<runtime::NamedVariant>();
    variant->name = StrFormat("L%g", ic).erase(1, 1);  // "L.7"
    variant->strategy = *result->strategy;
    variant->ic_requirement = ic;
    variant->search = std::move(*result);
    laar.insert(laar.begin(), std::move(variant));
  }
  Scope baselines(tracer_, "baselines", false);
  const model::ApplicationGraph& graph = app->app.descriptor.graph;
  const model::InputSpace& space = app->app.descriptor.input_space;
  std::vector<runtime::NamedVariant*> order;
  const auto add = [&](std::unique_ptr<runtime::NamedVariant> variant) {
    order.push_back(variant.get());
    out->variants.push_back(std::move(variant));
  };
  const auto baseline = [](const char* name, strategy::ActivationStrategy strategy) {
    auto variant = std::make_unique<runtime::NamedVariant>();
    variant->name = name;
    variant->strategy = std::move(strategy);
    return variant;
  };
  add(baseline("NR", strategy::MakeNonReplicated(graph, space, laar.front()->strategy,
                                                 space.PeakConfig())));
  add(baseline("SR", strategy::MakeStaticReplication(
                         graph, space, app->app.placement.replication_factor())));
  add(baseline("GRD", strategy::MakeGreedy(graph, space, *app->rates, app->app.placement,
                                           app->app.cluster)));
  for (auto& variant : laar) {
    out->claims.push_back({app, &variant->strategy, variant->ic_requirement,
                           variant->search->best_ic});
    add(std::move(variant));
  }
  return order;
}

void Workload::Simulate(const LoadedApp& app, const runtime::NamedVariant& variant,
                        runtime::FailureScenario scenario, PassOutput* out) const {
  const char* kind = scenario == runtime::FailureScenario::kNone        ? "best"
                     : scenario == runtime::FailureScenario::kWorstCase ? "worst"
                                                                        : "crash";
  Scope span(tracer_, "scenario", false, kind);
  ++out->attempted;
  dsps::RuntimeOptions runtime;
  std::optional<obs::EngineProfiler> profiler;
  if (web()) runtime.record_latency = false;  // millions of sink samples otherwise
  if (sharded()) {
    runtime.link_latency_seconds = kWebLinkLatencySeconds;
    runtime.shards = shards_;
    runtime.runner_workers = std::min(shards_, executors_);
    runtime.window_mode = dsps::RuntimeOptions::WindowMode::kPairwise;
    profiler.emplace();
    runtime.profiler = &*profiler;
  }
  runtime::ScenarioOptions options;
  options.scenario = scenario;
  // RunAppExperiment's crash draw for seed 1; other seeds crash other hosts
  // at other times.
  options.seed = app.input->seed ^ 0x9E3779B97F4A7C15ULL ^
                 ((seed_ - 1) * 0xD1B54A32D192ED03ULL);
  auto metrics =
      runtime::RunScenario(app.app, variant.strategy, app.input->trace, runtime, options);
  if (!metrics.ok()) {
    out->Fail(metrics.status());
    return;
  }
  out->sims.push_back({&app, variant.name, kind, std::move(*metrics),
                       profiler.has_value() ? std::optional(profiler->profile())
                                            : std::nullopt});
}

/// Publishes the pass into a metrics registry and writes the two
/// deterministic artifacts: the registry JSON and the LAAR strategies.
void Workload::Write(PassOutput* out) const {
  Scope write(tracer_, "write", true);
  json::Value registry_doc;
  {
    Scope publish(tracer_, "publish", false);
    obs::MetricsRegistry registry;
    for (const SearchRecord& search : out->searches) {
      ftsearch::PublishTo(&registry, search.result.stats,
                          {{"seed", std::to_string(search.app->input->seed)},
                           {"ic", StrFormat("%g", search.ic_requirement)}});
    }
    for (const SimRecord& sim : out->sims) {
      dsps::PublishTo(&registry, sim.metrics,
                      {{"seed", std::to_string(sim.app->input->seed)},
                       {"variant", sim.variant},
                       {"scenario", sim.scenario}});
    }
    registry_doc = registry.ToJson();
  }
  std::string registry_text, strategy_text;
  {
    Scope encode(tracer_, "encode", false);
    registry_text = registry_doc.Dump(2);
    if (sharded()) {
      strategy_text = out->claims.front().strategy->ToJson().Dump();
    } else {
      json::Value strategies = json::Value::MakeObject();
      for (const IcClaim& claim : out->claims) {
        strategies.Set(StrFormat("%llu/L%g",
                                 static_cast<unsigned long long>(claim.app->input->seed),
                                 claim.requirement),
                       claim.strategy->ToJson());
      }
      strategy_text = strategies.Dump();
    }
  }
  for (const auto& [file, text] : {std::pair{"metrics.json", &registry_text},
                                   std::pair{"strategies.json", &strategy_text}}) {
    std::ofstream stream(out_dir_ / file, std::ios::binary | std::ios::trunc);
    stream << *text;
    if (!stream) out->errors.push_back(StrFormat("cannot write %s", file));
    out->write_bytes += text->size();
  }
  out->artifacts = registry_text + "\n" + strategy_text;
}

PassOutput Workload::RunPass(const Inputs& inputs, bool measure_rss) const {
  PassOutput out;
  Scope pass(tracer_, "pass", true);
  const auto stage_peak = [&](double* peak) {
    if (measure_rss) *peak = std::max(*peak, PeakRssMb());
  };
  const auto stage_reset = [&] {
    if (measure_rss) ResetPeakRss();
  };

  if (!web()) {
    for (const AppInput& input : inputs.apps) {
      if (out.apps_used == kCorpusApps) break;
      ++out.seeds_tried;
      LoadedApp* app = Load(input, &out);
      if (app == nullptr) continue;
      stage_reset();
      const std::vector<runtime::NamedVariant*> variants = SolveCorpusApp(app, &out);
      stage_peak(&out.rss_solve_mb);
      if (variants.empty()) continue;  // unusable seed, as the harness skips
      ++out.apps_used;
      stage_reset();
      {
        Scope simulate(tracer_, "simulate", true);
        for (const runtime::NamedVariant* variant : variants) {
          for (auto scenario : {runtime::FailureScenario::kNone,
                                runtime::FailureScenario::kWorstCase,
                                runtime::FailureScenario::kHostCrash}) {
            Simulate(*app, *variant, scenario, &out);
          }
        }
      }
      stage_peak(&out.rss_sim_mb);
    }
    if (out.apps_used < kCorpusApps) {
      out.Fail(Status::FailedPrecondition(
          StrFormat("corpus pool exhausted: %d usable of %d seeds", out.apps_used,
                    out.seeds_tried)));
    }
  } else {
    const AppInput& input = inputs.apps.front();
    ++out.seeds_tried;
    LoadedApp* app = Load(input, &out);
    if (app == nullptr) return out;
    auto variant = std::make_unique<runtime::NamedVariant>();
    variant->name = "L.7";
    variant->ic_requirement = kWebIcRequirement;
    double promised_ic = inputs.strategy_ic;
    if (sharded()) {
      // The laar_simulate half of the handoff: the strategy file laar_solve
      // wrote.
      Scope load(tracer_, "load", true);
      out.load_bytes += inputs.strategy_json.size();
      auto doc = json::Parse(inputs.strategy_json);
      auto strategy = doc.ok() ? strategy::ActivationStrategy::FromJson(*doc)
                               : Result<strategy::ActivationStrategy>(doc.status());
      if (!strategy.ok()) {
        ++out.attempted;
        out.Fail(strategy.status());
        return out;
      }
      variant->strategy = std::move(*strategy);
    }
    stage_reset();
    {
      Scope solve(tracer_, "solve", true);
      if (!ComputeRates(app, &out)) return out;
      if (sharded()) {
        // Validate and price the handed-off strategy against the deployment
        // (Eq. 10-13), as a deployer does before running a strategy file.
        Scope validate(tracer_, "validate", false);
        const model::ApplicationGraph& graph = app->app.descriptor.graph;
        const model::InputSpace& space = app->app.descriptor.input_space;
        if (Status valid = metrics::CheckStrategyConstraints(
                graph, space, *app->rates, app->app.placement, variant->strategy,
                app->app.cluster, kWebIcRequirement);
            !valid.ok()) {
          out.errors.push_back(valid.ToString());
        }
        const double cost = metrics::CostPerSecond(graph, space, *app->rates,
                                                   app->app.placement, variant->strategy);
        if (std::fabs(cost - inputs.strategy_cost) > 1e-9 * inputs.strategy_cost) {
          out.errors.push_back("handed-off strategy does not cost what FT-Search found");
        }
      } else {
        auto result = Search(app, kWebIcRequirement, kWebNodeLimit, &out);
        if (!result.has_value()) return out;
        if (!result->strategy.has_value()) {
          out.Fail(Status::FailedPrecondition("web-scale FT-Search found no strategy"));
          return out;
        }
        variant->strategy = *result->strategy;
        promised_ic = result->best_ic;
      }
    }
    stage_peak(&out.rss_solve_mb);
    out.claims.push_back({app, &variant->strategy, kWebIcRequirement, promised_ic});
    stage_reset();
    {
      Scope simulate(tracer_, "simulate", true);
      Simulate(*app, *variant, runtime::FailureScenario::kHostCrash, &out);
    }
    stage_peak(&out.rss_sim_mb);
    out.apps_used = 1;
    out.variants.push_back(std::move(variant));
  }
  stage_reset();
  Write(&out);
  stage_peak(&out.rss_write_mb);
  return out;
}

// ---- checks and per-layer measurements outside the timed region -------------

/// Static-replication cost of an application: the denominator of the cost
/// ratio.
double StaticCost(const LoadedApp& app) {
  const model::ApplicationGraph& graph = app.app.descriptor.graph;
  const model::InputSpace& space = app.app.descriptor.input_space;
  return metrics::CostPerSecond(
      graph, space, *app.rates, app.app.placement,
      strategy::MakeStaticReplication(graph, space, app.app.placement.replication_factor()));
}

/// Re-evaluates every promised IC with metrics::IcCalculator. Returns the
/// number of claims that fail; `seconds` receives the time spent.
int CheckIcClaims(const PassOutput& out, double* seconds, std::vector<std::string>* errors) {
  const Clock::time_point start = Clock::now();
  int failures = 0;
  const metrics::PessimisticFailureModel pessimistic;
  for (const IcClaim& claim : out.claims) {
    const metrics::IcCalculator calculator(claim.app->app.descriptor.graph,
                                           claim.app->app.descriptor.input_space,
                                           *claim.app->rates);
    const double ic = calculator.InternalCompleteness(*claim.strategy, pessimistic);
    if (ic < claim.requirement - kIcTolerance ||
        std::fabs(ic - claim.promised_ic) > kIcTolerance) {
      ++failures;
      errors->push_back(StrFormat("seed %llu: IC %.12g vs requirement %.2f, promised %.12g",
                                  static_cast<unsigned long long>(claim.app->input->seed),
                                  ic, claim.requirement, claim.promised_ic));
    }
  }
  *seconds = SecondsSince(start);
  return failures;
}

/// The Rate Monitor's queries of every simulation in the pass, one per
/// monitor period: the active configuration's source rates, less the
/// monitor's one-tuple tolerance.
struct MonitorReplay {
  double build_seconds = 0.0;
  double lookups = 0.0;
  double lookup_ns = 0.0;
  int failures = 0;
};

MonitorReplay ReplayMonitorQueries(const PassOutput& out) {
  MonitorReplay replay;
  const dsps::RuntimeOptions defaults;
  std::map<const LoadedApp*, std::vector<std::vector<double>>> queries;
  for (const SimRecord& sim : out.sims) {
    const model::InputSpace& space = sim.app->app.descriptor.input_space;
    const dsps::InputTrace& trace = sim.app->input->trace;
    auto& list = queries[sim.app];
    const double period = defaults.monitor_period_seconds;
    for (double t = period; t <= trace.TotalDuration() + 1e-9; t += period) {
      const model::ConfigId config = trace.ConfigAt(t - 0.5 * period);
      std::vector<double> rates(space.num_sources());
      for (size_t s = 0; s < rates.size(); ++s) {
        rates[s] = std::max(
            0.0, space.RateOf(s, config) - defaults.monitor_tolerance_tuples / period);
      }
      list.push_back(std::move(rates));
    }
  }
  double lookup_seconds = 0.0;
  uint64_t replayed = 0;
  for (const auto& [app, list] : queries) {
    const model::InputSpace& space = app->app.descriptor.input_space;
    Clock::time_point start = Clock::now();
    auto index = configindex::ConfigIndex::Build(space);
    replay.build_seconds += SecondsSince(start);
    if (!index.ok()) {
      ++replay.failures;
      continue;
    }
    replay.lookups += static_cast<double>(list.size());
    // Replay the list until the timing rises well above clock resolution.
    start = Clock::now();
    do {
      for (const std::vector<double>& query : list) {
        auto config = index->Lookup(query);
        ++replayed;
        bool dominates = config.ok();
        for (size_t s = 0; dominates && s < query.size(); ++s) {
          dominates = space.RateOf(s, *config) >= query[s] ||
                      *config == space.PeakConfig();
        }
        if (!dominates) ++replay.failures;
      }
    } while (SecondsSince(start) < 1e-3);
    lookup_seconds += SecondsSince(start);
  }
  replay.lookup_ns = replayed == 0 ? 0.0 : lookup_seconds * 1e9 / static_cast<double>(replayed);
  return replay;
}

// ---- metrics --------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kPerLayer[] = {
    {"appgen.generate_s", "s"},
    {"appgen.seeds_tried", "count"},
    {"appgen.apps_used", "count"},
    {"json.load_s", "s"},
    {"json.load_bytes", "bytes"},
    {"json.write_s", "s"},
    {"json.write_bytes", "bytes"},
    {"model.rates_s", "s"},
    {"strategy.baselines_s", "s"},
    {"ftsearch.searches", "count"},
    {"ftsearch.nodes", "count"},
    {"ftsearch.node_budget", "count"},
    {"ftsearch.nodes_per_s", "1/s"},
    {"ftsearch.first_s", "s"},
    {"ftsearch.best_s", "s"},
    {"ftsearch.prunes.cpu", "count"},
    {"ftsearch.prunes.compl", "count"},
    {"ftsearch.prunes.cost", "count"},
    {"ftsearch.prunes.dom", "count"},
    {"ftsearch.outcome.opt", "count"},
    {"ftsearch.outcome.sol", "count"},
    {"ftsearch.outcome.nul", "count"},
    {"ftsearch.outcome.tmo", "count"},
    {"ftsearch.useful_ratio", "ratio"},
    {"metrics.ic_checks", "count"},
    {"metrics.ic_check_s", "s"},
    {"configindex.build_s", "s"},
    {"configindex.lookups", "count"},
    {"configindex.lookup_ns", "ns"},
    {"dsps.runs", "count"},
    {"dsps.run_s.best", "s"},
    {"dsps.run_s.worst", "s"},
    {"dsps.run_s.crash", "s"},
    {"dsps.events", "count"},
    {"dsps.ns_per_event", "ns"},
    {"dsps.sink_tuples", "count"},
    {"dsps.lost_tuples", "count"},
    {"dsps.activation_switches", "count"},
    {"sim.engine_events", "count"},
    {"sim.control_events", "count"},
    {"sim.heap_events", "count"},
    {"sim.inline_events", "count"},
    {"exec.workers", "count"},
    {"exec.dispatch_rounds", "count"},
    {"exec.sync_overhead", "ratio"},
    {"exec.stall_s", "s"},
    {"exec.critical_path_s", "s"},
    {"exec.imbalance", "ratio"},
    {"obs.publish_s", "s"},
    {"obs.trace_overhead", "ratio"},
    {"rss.setup_mb", "MB"},
    {"rss.solve_mb", "MB"},
    {"rss.sim_mb", "MB"},
    {"rss.write_mb", "MB"},
};

using Samples = std::map<std::string, std::vector<double>>;

/// The per-layer values of one traced pass.
void AddLayerSamples(const PassOutput& out, const PassSpans& spans, double ic_check_s,
                     const MonitorReplay& replay, uint64_t node_budget, Samples* samples) {
  const auto add = [&](const char* name, double value) { (*samples)[name].push_back(value); };
  const auto span_total = [&](const char* key) {
    auto it = spans.total.find(key);
    return it == spans.total.end() ? 0.0 : it->second;
  };
  add("appgen.apps_used", out.apps_used);
  add("json.load_s", span_total("load"));
  add("json.load_bytes", static_cast<double>(out.load_bytes));
  add("json.write_s", span_total("encode"));
  add("json.write_bytes", static_cast<double>(out.write_bytes));
  add("model.rates_s", span_total("rates"));
  add("strategy.baselines_s", span_total("baselines"));

  double nodes = 0, cpu = 0, compl_ = 0, cost = 0, dom = 0, useful = 0;
  double outcomes[4] = {0, 0, 0, 0};
  std::vector<double> first, best;
  for (const SearchRecord& search : out.searches) {
    const ftsearch::FtSearchResult& r = search.result;
    nodes += static_cast<double>(r.stats.nodes_explored);
    cpu += static_cast<double>(r.stats.cpu.count);
    compl_ += static_cast<double>(r.stats.compl_.count);
    cost += static_cast<double>(r.stats.cost.count);
    dom += static_cast<double>(r.stats.dom.count);
    outcomes[static_cast<int>(r.outcome)] += 1;
    if (r.strategy.has_value()) {
      useful += 1;
      best.push_back(r.best_solution_seconds);
    }
    // The greedy seed is not a "first solution" (Fig. 5 semantics).
    if (r.stats.solutions_found > 0) first.push_back(r.first_solution_seconds);
  }
  const double searches = static_cast<double>(out.searches.size());
  const double search_s = span_total("ftsearch");
  add("ftsearch.searches", searches);
  add("ftsearch.nodes", nodes);
  add("ftsearch.node_budget", searches > 0 ? static_cast<double>(node_budget) : 0.0);
  add("ftsearch.nodes_per_s", search_s > 0 ? nodes / search_s : 0.0);
  add("ftsearch.first_s", Median(first));
  add("ftsearch.best_s", Median(best));
  add("ftsearch.prunes.cpu", cpu);
  add("ftsearch.prunes.compl", compl_);
  add("ftsearch.prunes.cost", cost);
  add("ftsearch.prunes.dom", dom);
  add("ftsearch.outcome.opt", outcomes[static_cast<int>(ftsearch::SearchOutcome::kOptimal)]);
  add("ftsearch.outcome.sol", outcomes[static_cast<int>(ftsearch::SearchOutcome::kFeasible)]);
  add("ftsearch.outcome.nul", outcomes[static_cast<int>(ftsearch::SearchOutcome::kInfeasible)]);
  add("ftsearch.outcome.tmo", outcomes[static_cast<int>(ftsearch::SearchOutcome::kTimeout)]);
  add("ftsearch.useful_ratio", searches > 0 ? useful / searches : 0.0);

  add("metrics.ic_checks", static_cast<double>(out.claims.size()));
  add("metrics.ic_check_s", ic_check_s);
  add("configindex.build_s", replay.build_seconds);
  add("configindex.lookups", replay.lookups);
  add("configindex.lookup_ns", replay.lookup_ns);

  double events = 0, sink = 0, lost = 0, switches = 0;
  double control = 0, heap = 0, inline_events = 0;
  double workers = 0, rounds = 0, stall = 0, critical = 0;
  std::vector<double> sync, imbalance;
  for (const SimRecord& sim : out.sims) {
    events += static_cast<double>(sim.metrics.engine_events);
    sink += static_cast<double>(sim.metrics.sink_tuples);
    lost += static_cast<double>(sim.metrics.LostTuples());
    switches += static_cast<double>(sim.metrics.activation_switches);
    if (!sim.profile.has_value()) continue;
    const obs::EngineProfile& profile = *sim.profile;
    control += static_cast<double>(profile.control_events);
    for (uint64_t e : profile.shard_events) heap += static_cast<double>(e);
    for (uint64_t e : profile.shard_inline_events) inline_events += static_cast<double>(e);
    workers = std::max(workers, static_cast<double>(profile.runner_workers));
    rounds += static_cast<double>(profile.dispatch_rounds);
    for (double s : profile.shard_stall_seconds) stall += s;
    critical += profile.critical_path_seconds;
    sync.push_back(profile.SyncOverheadFraction());
    imbalance.push_back(profile.ImbalanceRatio());
  }
  const double run_s = span_total("scenario.best") + span_total("scenario.worst") +
                       span_total("scenario.crash");
  add("dsps.runs", static_cast<double>(out.sims.size()));
  add("dsps.run_s.best", span_total("scenario.best"));
  add("dsps.run_s.worst", span_total("scenario.worst"));
  add("dsps.run_s.crash", span_total("scenario.crash"));
  add("dsps.events", events);
  add("dsps.ns_per_event", events > 0 ? run_s * 1e9 / events : 0.0);
  add("dsps.sink_tuples", sink);
  add("dsps.lost_tuples", lost);
  add("dsps.activation_switches", switches);
  add("sim.engine_events", events);
  add("sim.control_events", control);
  add("sim.heap_events", heap);
  add("sim.inline_events", inline_events);
  add("exec.workers", workers);
  add("exec.dispatch_rounds", rounds);
  add("exec.sync_overhead", Median(sync));
  add("exec.stall_s", stall);
  add("exec.critical_path_s", critical);
  add("exec.imbalance", Median(imbalance));
  add("obs.publish_s", span_total("publish"));
  add("rss.solve_mb", out.rss_solve_mb);
  add("rss.sim_mb", out.rss_sim_mb);
  add("rss.write_mb", out.rss_write_mb);
}

/// Why a per-layer metric reads 0 on a workload, when it does by design.
const char* AbsentReason(const std::string& workload, const std::string& metric) {
  const bool corpus = workload == "paper_corpus";
  if (metric == "ftsearch.first_s" && workload == "web_inline") {
    return "no solution beyond the greedy seed";
  }
  if (metric.rfind("exec.", 0) == 0 || metric.rfind("sim.", 0) == 0) {
    return workload == "web_sharded" ? nullptr
                                     : "inline engine: no ShardRunner, no EngineProfile";
  }
  if (metric == "strategy.baselines_s" && !corpus) return "no NR/SR/GRD baselines";
  if ((metric == "dsps.run_s.best" || metric == "dsps.run_s.worst") && !corpus) {
    return "host-crash scenario only";
  }
  if (metric.rfind("ftsearch.", 0) == 0 && workload == "web_sharded") {
    return "FT-Search runs in set-up only";
  }
  return nullptr;
}

// ---- main -----------------------------------------------------------------

/// The artifact digest pinned for `workload` at `seed` in the pins file
/// ({"seed": N, "digests": {workload: hex}}), or "" when none is.
std::string PinnedDigest(const std::string& pins_path, const std::string& workload,
                         uint64_t seed) {
  auto pins = json::ParseFile(pins_path);
  if (!pins.ok()) return "";
  const json::Value& pinned_seed = pins->GetOr("seed", json::Value::Int(0));
  if (!pinned_seed.is_number() || pinned_seed.number_value() != static_cast<double>(seed)) {
    return "";
  }
  const json::Value& digest =
      pins->GetOr("digests", json::Value::MakeObject()).GetOr(workload, json::Value());
  return digest.is_string() ? digest.string_value() : "";
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string workload_name = flags.GetString("workload", "");
  if (workload_name != "paper_corpus" && workload_name != "web_inline" &&
      workload_name != "web_sharded") {
    std::fprintf(stderr,
                 "usage: laar_bench --workload=paper_corpus|web_inline|web_sharded "
                 "--seed=N --seconds=S --trace=0|1 --out=DIR --pins=FILE [--shards=N]\n");
    return 2;
  }
  const uint64_t seed = flags.GetUint64("seed", 1);
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool traced_run = flags.GetInt("trace", 0) != 0;
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int executors = std::clamp(nproc - 1, 1, 4);
  const int shards = std::max(1, flags.GetInt("shards", 2 * executors));
  const std::filesystem::path out_dir =
      std::filesystem::path(flags.GetString("out", ".bench_build/out")) / workload_name;
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);

  // Machine fingerprint.
  const obs::RunInfo run_info = obs::RunInfo::Capture("laar_bench", seed, argc, argv);
  json::Value fingerprint = json::Value::MakeObject();
  fingerprint.Set("nproc", json::Value::Int(nproc));
  fingerprint.Set("cpu", json::Value::String(CpuModel()));
  fingerprint.Set("compiler", json::Value::String(run_info.compiler));
  fingerprint.Set("build_type", json::Value::String(LAAR_BENCH_BUILD_TYPE));
  fingerprint.Set("version", json::Value::String(run_info.version));
  std::printf("fingerprint: %s\n", fingerprint.Dump().c_str());
#ifndef __OPTIMIZE__
  std::printf("WARNING: unoptimized build; timings are not representative\n");
#endif
  std::printf("workload: %s seed=%llu seconds=%g trace=%d", workload_name.c_str(),
              static_cast<unsigned long long>(seed), seconds, traced_run ? 1 : 0);
  if (workload_name == "web_sharded") {
    std::printf(" shards=%d executors=%d", shards, std::min(shards, executors));
  }
  std::printf("\n");

  Tracer tracer;
  Workload workload(workload_name, seed, shards, executors, out_dir, &tracer);
  int attempted = 0, failed = 0;
  std::vector<std::string> errors;
  const auto print_result = [&](bool correct, const json::Value& metrics) {
    json::Value result = json::Value::MakeObject();
    result.Set("correct", json::Value::Bool(correct));
    result.Set("attempted", json::Value::Int(std::max(attempted, 1)));
    result.Set("failed", json::Value::Int(failed));
    result.Set("metrics", metrics);
    std::printf("%s\n", result.Dump().c_str());
    return correct ? 0 : 1;
  };

  // Set-up: generate the inputs several times and keep the last.
  tracer.detailed = traced_run;
  std::vector<double> setup_seconds;
  std::optional<Inputs> inputs;
  double rss_setup_mb = 0.0;
  double appgen_seconds = 0.0;
  const Clock::time_point setup_start = Clock::now();
  for (int i = 0; i < kSetupRepeats || SecondsSince(setup_start) < kSetupMinSeconds; ++i) {
    inputs.reset();
    if (traced_run) ResetPeakRss();
    const size_t first_span = tracer.spans.size();
    const Clock::time_point start = Clock::now();
    auto generated = workload.Setup();
    setup_seconds.push_back(SecondsSince(start));
    if (!generated.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", generated.status().ToString().c_str());
      ++failed;
      return print_result(false, json::Value::MakeObject());
    }
    inputs.emplace(std::move(*generated));
    rss_setup_mb = PeakRssMb();
    appgen_seconds = 0.0;
    for (size_t s = first_span; s < tracer.spans.size(); ++s) {
      const Span& span = tracer.spans[s];
      if (std::string(span.name) == "appgen") appgen_seconds += span.end - span.start;
    }
  }

  // Closed-loop passes until the next one would end after --seconds. A
  // traced run alternates traced and untraced passes, starting traced.
  const std::string pinned =
      PinnedDigest(flags.GetString("pins", "perfbench/pins.json"), workload_name, seed);
  std::string digest;
  std::vector<double> all_pass_s, pass_s, solve_s, sim_s, traced_pass_s, cost_ratio;
  Samples layer;
  int self_time_mismatches = 0;
  const int min_passes = traced_run ? 4 : 3;
  const Clock::time_point loop_start = Clock::now();
  for (int pass = 0;; ++pass) {
    if (static_cast<int>(all_pass_s.size()) >= min_passes &&
        SecondsSince(loop_start) + Median(all_pass_s) > seconds) {
      break;
    }
    const bool traced = traced_run && pass % 2 == 0;
    tracer.pass = pass;
    tracer.detailed = traced;
    PassOutput out = workload.RunPass(*inputs, traced);
    tracer.pass = -1;
    const PassSpans spans = SummarizePass(tracer.spans, pass);

    // Checks, outside the pass's timed region.
    int check_failures = static_cast<int>(out.errors.size()) - out.failed;
    for (const SimRecord& sim : out.sims) {
      if (Status s = sim.metrics.ReconcileLosses(); !s.ok()) {
        ++check_failures;
        out.errors.push_back(s.ToString());
      }
      if (sim.profile.has_value()) {
        if (Status s = sim.profile->ReconcileEvents(); !s.ok()) {
          ++check_failures;
          out.errors.push_back(s.ToString());
        }
      }
    }
    double ic_check_s = 0.0;
    check_failures += CheckIcClaims(out, &ic_check_s, &out.errors);
    if (workload.sharded() && !out.artifacts.ends_with("\n" + inputs->strategy_json)) {
      ++check_failures;
      out.errors.push_back("the written strategy differs from the one handed off");
    }
    const std::string pass_digest = Fnv1aHex(out.artifacts);
    if (digest.empty()) digest = pass_digest;
    if (pass_digest != digest) {
      ++check_failures;
      out.errors.push_back("artifact digest " + pass_digest + " differs from the first pass's " +
                           digest);
    }
    if (traced && std::fabs(spans.self_sum - spans.pass_seconds) > 1e-6) {
      ++self_time_mismatches;
      ++check_failures;
      out.errors.push_back(StrFormat("pass %d: self times sum to %.9f s, pass span %.9f s",
                                     pass, spans.self_sum, spans.pass_seconds));
    }
    std::vector<double> ratios;
    for (const SearchRecord& search : out.searches) {
      if (search.result.strategy.has_value()) {
        ratios.push_back(search.result.best_cost / StaticCost(*search.app));
      }
    }
    if (workload.sharded() && !out.apps.empty() && out.apps.front()->rates.has_value()) {
      ratios.push_back(inputs->strategy_cost / StaticCost(*out.apps.front()));
    }
    if (!ratios.empty()) {
      double sum = 0.0;
      for (double r : ratios) sum += r;
      cost_ratio.push_back(sum / static_cast<double>(ratios.size()));
    }
    if (traced) {
      const MonitorReplay replay = ReplayMonitorQueries(out);
      check_failures += replay.failures;
      if (replay.failures > 0) out.errors.push_back("config-index lookup did not dominate");
      AddLayerSamples(out, spans, ic_check_s, replay,
                      workload.web() ? kWebNodeLimit : kCorpusNodeLimit, &layer);
    }

    attempted += out.attempted;
    failed += std::min(out.attempted, out.failed + check_failures);
    for (const std::string& error : out.errors) {
      if (errors.size() < 20) errors.push_back(StrFormat("pass %d: %s", pass, error.c_str()));
    }
    all_pass_s.push_back(spans.pass_seconds);
    if (traced) {
      traced_pass_s.push_back(spans.pass_seconds);
    } else {
      pass_s.push_back(spans.pass_seconds);
      solve_s.push_back(spans.total.count("solve") ? spans.total.at("solve") : 0.0);
      sim_s.push_back(spans.total.count("simulate") ? spans.total.at("simulate") : 0.0);
    }
  }

  // Results.
  const bool pin_ok = pinned.empty() || pinned == digest;
  if (!pin_ok) {
    ++failed;
    errors.push_back("artifact digest " + digest + " differs from the pinned " + pinned);
  }
  std::printf("digest: %s (%s)\n", digest.c_str(),
              pinned.empty() ? StrFormat("no pin for seed %llu",
                                         static_cast<unsigned long long>(seed)).c_str()
              : pin_ok       ? "matches the pin"
                             : "DIFFERS from the pin");
  for (const std::string& error : errors) std::printf("check failed: %s\n", error.c_str());
  const bool correct = failed == 0;
  json::Value metrics = json::Value::MakeObject();
  const auto emit = [&](const char* name, double value, const char* unit,
                        const std::string& note) {
    std::printf("  %-26s %16.9g %-6s %s\n", name, value, unit, note.c_str());
    json::Value entry = json::Value::MakeObject();
    entry.Set("value", json::Value::Number(value));
    entry.Set("unit", json::Value::String(unit));
    metrics.Set(name, std::move(entry));
  };
  // "median of n (min .. max)" for a timing.
  const auto spread = [](const std::vector<double>& values, const char* what) {
    if (values.empty()) return std::string("no samples");
    return StrFormat("median of %zu %s (min %.4g, max %.4g)", values.size(), what,
                     *std::min_element(values.begin(), values.end()),
                     *std::max_element(values.begin(), values.end()));
  };
  const double error_rate = static_cast<double>(failed) / std::max(attempted, 1);
  if (!traced_run) {
    std::printf("end-to-end (tracing off):\n");
    emit("setup_s", Median(setup_seconds), "s", spread(setup_seconds, "set-ups"));
    emit("pass_s", Median(pass_s), "s", spread(pass_s, "passes"));
    emit("solve_s", Median(solve_s), "s", spread(solve_s, "passes"));
    emit("sim_s", Median(sim_s), "s", spread(sim_s, "passes"));
    emit("peak_rss_mb", ProcessPeakRssMb(), "MB", "process peak");
    emit("cost_ratio", Median(cost_ratio), "ratio",
         "FT-Search best cost / static replication cost, mean over searches");
    std::printf("  %-26s %16.9g %-6s %d failed / %d attempted (not in the JSON line)\n",
                "error_rate", error_rate, "ratio", failed, attempted);
  } else {
    layer["appgen.generate_s"] = {appgen_seconds};
    layer["appgen.seeds_tried"] = {static_cast<double>(inputs->seeds_tried)};
    layer["rss.setup_mb"] = {rss_setup_mb};
    layer["obs.trace_overhead"] = {Median(traced_pass_s) / Median(pass_s) - 1.0};
    std::printf("per-layer (%zu traced passes, %zu untraced, medians):\n",
                traced_pass_s.size(), pass_s.size());
    for (const MetricSpec& spec : kPerLayer) {
      const std::vector<double>& values = layer[spec.name];
      const double value = Median(values);
      const char* absent = value == 0.0 ? AbsentReason(workload_name, spec.name) : nullptr;
      emit(spec.name, value, spec.unit,
           absent != nullptr ? StrFormat("(absent: %s)", absent) : "");
    }
    std::printf("span closure: %s\n",
                self_time_mismatches == 0 ? "self times add up to each pass span"
                                          : "MISMATCH");
    // The spans, written once at exit.
    json::Value doc = json::Value::MakeObject();
    doc.Set("fingerprint", fingerprint);
    doc.Set("workload", json::Value::String(workload_name));
    doc.Set("seed", json::Value::Int(static_cast<int64_t>(seed)));
    json::Value list = json::Value::MakeArray();
    for (const Span& span : tracer.spans) {
      json::Value entry = json::Value::MakeObject();
      entry.Set("name", json::Value::String(span.name));
      if (*span.detail != '\0') entry.Set("detail", json::Value::String(span.detail));
      entry.Set("start", json::Value::Number(span.start));
      entry.Set("end", json::Value::Number(span.end));
      entry.Set("parent", json::Value::Int(span.parent));
      entry.Set("pass", json::Value::Int(span.pass));
      list.Append(std::move(entry));
    }
    doc.Set("spans", std::move(list));
    const std::string path = (out_dir / "spans.json").string();
    if (Status s = json::WriteFile(doc, path); !s.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(), s.ToString().c_str());
    } else {
      std::printf("spans: %zu written to %s\n", tracer.spans.size(), path.c_str());
    }
  }
  return print_result(correct, metrics);
}

}  // namespace
}  // namespace laar::perfbench

int main(int argc, char** argv) { return laar::perfbench::Main(argc, argv); }
