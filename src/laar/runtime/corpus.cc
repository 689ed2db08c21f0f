#include "laar/runtime/corpus.h"

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "laar/common/stopwatch.h"
#include "laar/exec/parallel.h"

namespace laar::runtime {

namespace {

/// Drops trace files of seeds that did not make it into the corpus.
/// Skipped seeds write partial traces, and the parallel fan-out probes
/// seeds speculatively beyond the last kept one — without this sweep the
/// trace directory's contents would depend on --jobs. Only files matching
/// the harness's own "seed<digits>_*.json" naming are considered.
void PruneUnusedSeedTraces(const std::string& trace_dir,
                           const std::set<uint64_t>& kept_seeds) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(trace_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seed", 0) != 0) continue;
    size_t pos = 4;
    uint64_t seed = 0;
    bool has_digits = false;
    while (pos < name.size() && std::isdigit(static_cast<unsigned char>(name[pos]))) {
      seed = seed * 10 + static_cast<uint64_t>(name[pos] - '0');
      has_digits = true;
      ++pos;
    }
    if (!has_digits || pos >= name.size() || name[pos] != '_') continue;
    if (kept_seeds.count(seed) == 0) std::filesystem::remove(entry.path(), ec);
  }
}

}  // namespace

CorpusResult RunCorpus(const HarnessOptions& harness, const CorpusOptions& corpus) {
  CorpusResult result;
  Stopwatch watch;
  const int jobs = ResolveJobs(corpus.jobs);
  const int max_skips = corpus.num_apps * corpus.max_skips_factor;

  HarnessOptions options = harness;
  std::optional<ThreadPool> pool;
  if (jobs > 1) {
    pool.emplace(static_cast<size_t>(jobs));
    // The pool is spent on the application fan-out; a parallel FT-Search
    // inside a corpus worker would oversubscribe, so it drops to one
    // thread.
    options.variants.ftsearch_threads = 1;
    options.variants.ftsearch_pool = nullptr;
  } else if (options.variants.ftsearch_threads > 1 &&
             options.variants.ftsearch_node_limit == 0 &&
             options.variants.ftsearch_pool == nullptr) {
    // Serial corpus: the parallelism budget goes to FT-Search root
    // splitting, on one shared pool across all searches (node-budgeted
    // searches run sequentially and need none).
    pool.emplace(static_cast<size_t>(options.variants.ftsearch_threads));
    options.variants.ftsearch_pool = &*pool;
  }

  std::vector<SeedProbe<AppExperimentRecord>> kept =
      CollectUsableSeeds<AppExperimentRecord>(
          corpus.num_apps, corpus.seed_base, jobs, max_skips,
          [&options](uint64_t seed) -> std::optional<AppExperimentRecord> {
            Result<AppExperimentRecord> record = RunAppExperiment(options, seed);
            if (!record.ok()) return std::nullopt;
            return std::move(*record);
          },
          [&corpus](size_t index, const SeedProbe<AppExperimentRecord>& probe) {
            if (!corpus.verbose) return;
            std::fprintf(stderr, "  [corpus] app %zu/%d (seed %llu)\n", index + 1,
                         corpus.num_apps,
                         static_cast<unsigned long long>(probe.seed));
          },
          jobs > 1 ? &*pool : nullptr, &result.skipped);

  result.records.reserve(kept.size());
  std::set<uint64_t> kept_seeds;
  for (SeedProbe<AppExperimentRecord>& probe : kept) {
    kept_seeds.insert(probe.seed);
    result.stage_totals.MergeFrom(probe.value.stages);
    result.records.push_back(std::move(probe.value));
  }
  // Same jobs-invariance sweep for the registry: speculative seeds'
  // metrics (labelled by seed) retire with them. Each surviving label set
  // had a single writer, so what remains is identical for any jobs value.
  if (!options.trace_dir.empty()) {
    PruneUnusedSeedTraces(options.trace_dir, kept_seeds);
  }
  if (options.metrics != nullptr) {
    std::set<std::string> kept_labels;
    for (uint64_t seed : kept_seeds) kept_labels.insert(std::to_string(seed));
    options.metrics->PruneByLabel("seed", [&kept_labels](const std::string& value) {
      return kept_labels.count(value) != 0;
    });
  }
  result.wall_seconds = watch.ElapsedSeconds();
  if (corpus.verbose) {
    const StageTimes& s = result.stage_totals;
    std::fprintf(stderr,
                 "  [corpus] %zu apps, %d skipped seeds, %.1fs wall (jobs=%d); "
                 "stage totals: generate=%.2fs solve=%.2fs "
                 "simulate=%.2fs (best=%.2fs worst=%.2fs crash=%.2fs)\n",
                 result.records.size(), result.skipped, result.wall_seconds, jobs,
                 s.generate_seconds, s.solve_seconds, s.SimulateSeconds(),
                 s.simulate_best_seconds, s.simulate_worst_seconds,
                 s.simulate_crash_seconds);
  }
  return result;
}

std::vector<AppExperimentRecord> RunExperimentCorpus(const HarnessOptions& harness,
                                                     const CorpusOptions& corpus) {
  return RunCorpus(harness, corpus).records;
}

}  // namespace laar::runtime
