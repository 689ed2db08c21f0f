#ifndef LAAR_RUNTIME_CORPUS_H_
#define LAAR_RUNTIME_CORPUS_H_

#include <cstdint>
#include <vector>

#include "laar/runtime/experiment.h"

namespace laar::runtime {

/// Options of the §5.3 corpus runner: how many usable applications to
/// collect and how to fan the work out.
struct CorpusOptions {
  /// Corpus size (the paper's cluster evaluation uses 100 applications).
  int num_apps = 12;
  /// Seeds `seed_base + 1`, `seed_base + 2`, ... are probed in order.
  uint64_t seed_base = 10000;
  /// Worker threads for the application-level fan-out: 1 = serial,
  /// 0 = hardware concurrency. Any value produces identical records — with
  /// `jobs > 1` seeds are probed speculatively in batches and the first
  /// `num_apps` usable ones are kept in seed order, discarding surplus.
  int jobs = 1;
  /// Print per-application progress to stderr.
  bool verbose = true;
  /// Give up after `num_apps * max_skips_factor` unusable seeds (instances
  /// where FT-Search proves some L.x infeasible are skipped, like the
  /// paper's corpus keeps only solvable ones).
  int max_skips_factor = 20;
};

/// Everything a corpus run produces beyond the records themselves.
struct CorpusResult {
  std::vector<AppExperimentRecord> records;
  /// Unusable seeds encountered before the corpus filled (surplus
  /// speculative probes are not counted).
  int skipped = 0;
  /// Per-stage wall-clock totals over the accepted applications. Under
  /// `jobs > 1` stages overlap, so the total can exceed `wall_seconds`.
  StageTimes stage_totals;
  /// End-to-end wall-clock of the corpus run.
  double wall_seconds = 0.0;
};

/// Runs the §5.3 harness over a corpus of generated applications. The
/// records are deterministic in (`harness`, `corpus.num_apps`,
/// `corpus.seed_base`) and independent of `corpus.jobs`.
///
/// Thread budget: with `jobs > 1` the runner owns one `laar::ThreadPool`
/// and fans out whole applications; FT-Search inside each worker is forced
/// to a single thread so the two levels never oversubscribe. With
/// `jobs == 1` the applications run serially and
/// `harness.variants.ftsearch_threads` may parallelize each search
/// instead — unless `harness.variants.ftsearch_node_limit` is set: a
/// node-budgeted FT-Search always runs sequentially (see
/// `ftsearch::FtSearchOptions::node_limit`), so no search pool is made.
CorpusResult RunCorpus(const HarnessOptions& harness, const CorpusOptions& corpus);

/// Convenience wrapper returning only the records.
std::vector<AppExperimentRecord> RunExperimentCorpus(const HarnessOptions& harness,
                                                     const CorpusOptions& corpus);

}  // namespace laar::runtime

#endif  // LAAR_RUNTIME_CORPUS_H_
