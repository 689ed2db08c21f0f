#include "laar/ftsearch/ft_search.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

#include "laar/common/stopwatch.h"
#include "laar/common/strings.h"
#include "laar/exec/thread_pool.h"

namespace laar::ftsearch {

namespace {

// Domain values of one (PE, configuration) search variable under k = 2:
// both replicas active, or exactly one of them. Eq. 12 excludes the
// zero-active value, which restricts the space to 3^(|P|·|C|) (§4.5).
constexpr int kBoth = 0;
constexpr int kOnly0 = 1;
constexpr int kOnly1 = 2;
constexpr uint8_t kMaskOf[3] = {1, 2, 4};
constexpr uint8_t kMaskAll = 7;

constexpr double kEpsilon = 1e-9;

/// One incoming edge of a PE, pre-resolved for the inner loop.
struct PredEdge {
  model::ComponentId from;
  double selectivity;
};

/// One search variable: the activation state of PE `pe` in configuration
/// `config`.
struct Variable {
  model::ConfigId config = 0;
  model::ComponentId pe = 0;
  double demand = 0.0;       // cycles/sec of one active replica (Eq. 11 term)
  double cost_weight = 0.0;  // P(c) * demand: cost per active replica (Eq. 13 term)
  double prob = 0.0;         // P_C(config)
  double arrival_ff = 0.0;   // failure-free arrival rate (FIC upper bound term)
  model::HostId host0 = model::kInvalidHost;
  model::HostId host1 = model::kInvalidHost;
};

/// Immutable description of one FT-Search instance.
struct Problem {
  const model::ApplicationGraph* graph = nullptr;
  const model::InputSpace* space = nullptr;
  const model::ExpectedRates* rates = nullptr;
  const model::ReplicaPlacement* placement = nullptr;
  FtSearchOptions options;

  std::vector<Variable> vars;
  /// var_at[config * num_components + pe] -> variable position, or -1.
  std::vector<int> var_at;
  /// suffix_ub[d] = optimistic FIC (per second) achievable by variables
  /// d..end, assuming every undecided PE keeps both replicas active and
  /// receives its full failure-free inflow (Δ̂ <= Δ).
  std::vector<double> suffix_ub;
  /// block_end[d]: index one past the last variable of the configuration
  /// block containing variable d (blocks are |P| variables long).
  std::vector<int> block_end;
  /// Incoming PE/source edges of each component, pre-resolved.
  std::vector<std::vector<PredEdge>> preds;
  /// Successor PE ids of each component (for DOM propagation).
  std::vector<std::vector<model::ComponentId>> pe_succs;
  /// downstream_weight[pe] = G(pe) = Σ_{pe→s, s a PE} (1 + δ(pe→s)·G(s)):
  /// how much the tight COMPL remainder of a block moves per unit of Δ̂(pe)
  /// while every descendant of `pe` in that block is undecided.
  std::vector<double> downstream_weight;
  std::vector<double> capacity;  // per host

  double bic_per_sec = 0.0;
  double fic_requirement = 0.0;  // ic_requirement * bic_per_sec
  /// Rounding margin of the incremental tight COMPL bound (see Bind).
  double ic_bound_margin = 0.0;
  double base_cost_lb = 0.0;     // one active replica everywhere (Eq. 12 minimum)
  size_t num_components = 0;
  int num_vars = 0;

  int VarIndex(model::ConfigId config, model::ComponentId pe) const {
    return var_at[static_cast<size_t>(config) * num_components + static_cast<size_t>(pe)];
  }
};

/// State shared between parallel workers.
struct SharedState {
  std::mutex mu;
  bool found_any = false;
  double best_cost = std::numeric_limits<double>::infinity();
  double best_fic = 0.0;
  std::vector<int8_t> best_assignment;
  double best_seconds = 0.0;
  bool first_recorded = false;
  double first_cost = 0.0;
  double first_seconds = 0.0;

  /// Lock-free mirror of best_cost for the COST pruning hot path.
  std::atomic<double> best_cost_relaxed{std::numeric_limits<double>::infinity()};

  std::atomic<bool> stop{false};
  std::atomic<bool> timed_out{false};
  std::atomic<uint64_t> nodes_total{0};

  /// Global mirrors of the per-worker statistics, fed by amortized flushes;
  /// progress reporting only (the exact totals come from MergeFrom).
  std::atomic<uint64_t> solutions_total{0};
  std::atomic<uint64_t> cpu_prunes{0};
  std::atomic<uint64_t> compl_prunes{0};
  std::atomic<uint64_t> cost_prunes{0};
  std::atomic<uint64_t> dom_prunes{0};
  /// Node count at which the next progress callback fires; a CAS elects the
  /// single worker that reports each threshold.
  std::atomic<uint64_t> next_progress{0};

  Stopwatch watch;
  Deadline deadline;
  uint64_t node_limit = 0;
};

/// Builds a progress snapshot from the shared counters (incumbent under the
/// lock, everything else relaxed).
FtSearchProgress SnapshotProgress(const Problem& problem, SharedState* shared,
                                  uint64_t nodes) {
  FtSearchProgress progress;
  progress.elapsed_seconds = shared->watch.ElapsedSeconds();
  progress.nodes_explored = nodes;
  progress.solutions_found = shared->solutions_total.load(std::memory_order_relaxed);
  progress.cpu_prunes = shared->cpu_prunes.load(std::memory_order_relaxed);
  progress.compl_prunes = shared->compl_prunes.load(std::memory_order_relaxed);
  progress.cost_prunes = shared->cost_prunes.load(std::memory_order_relaxed);
  progress.dom_prunes = shared->dom_prunes.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(shared->mu);
    if (shared->found_any) {
      progress.has_incumbent = true;
      progress.incumbent_cost = shared->best_cost;
      progress.incumbent_ic =
          problem.bic_per_sec <= 0.0 ? 1.0 : shared->best_fic / problem.bic_per_sec;
    }
  }
  return progress;
}

/// Per-worker search state: current partial assignment plus every
/// incrementally maintained quantity the pruning rules need.
class SearchContext {
 public:
  SearchContext(const Problem& problem, SharedState* shared, bool record_first = true)
      : problem_(problem),
        shared_(shared),
        record_first_(record_first),
        scratch_(problem.num_components, 0.0),
        assignment_(static_cast<size_t>(problem.num_vars), -1),
        mask_(static_cast<size_t>(problem.num_vars), kMaskAll),
        bound_fic_(static_cast<size_t>(problem.num_vars), 0.0),
        remainder_(static_cast<size_t>(problem.num_vars), 0.0),
        zero_(static_cast<size_t>(problem.space->num_configs()) * problem.num_components, 0),
        delta_hat_(static_cast<size_t>(problem.space->num_configs()) *
                       problem.num_components,
                   0.0),
        loads_(static_cast<size_t>(problem.space->num_configs()) * problem.capacity.size(),
               0.0),
        cost_lb_(problem.base_cost_lb) {
    // Sources seed the Δ̂ recursion (Eq. 7 first case) and the certain-zero
    // flags driving DOM propagation.
    const model::ConfigId num_configs = problem.space->num_configs();
    for (model::ConfigId c = 0; c < num_configs; ++c) {
      for (model::ComponentId id : problem.graph->Sources()) {
        const double rate = problem.rates->Rate(id, c);
        DeltaHat(c, id) = rate;
        Zero(c, id) = rate <= 0.0 ? 1 : 0;
      }
      for (model::ComponentId id : problem.graph->Pes()) {
        Zero(c, id) = 0;
      }
    }
  }

  FtSearchStats& stats() { return stats_; }

  /// Records the current assignment as a solution if every variable is
  /// bound; used to install the greedy seed without going through the
  /// search loop (and its stop checks).
  void RecordIfComplete() {
    for (int8_t value : assignment_) {
      if (value < 0) return;
    }
    RecordSolution();
  }

  /// Binds the first `prefix.size()` variables without recursing; returns
  /// false if some binding is pruned. Used to fast-forward parallel tasks.
  bool BindPrefix(const std::vector<int>& prefix, bool count_stats) {
    count_stats_ = count_stats;
    for (size_t d = 0; d < prefix.size(); ++d) {
      if ((mask_[d] & kMaskOf[prefix[d]]) == 0) {
        count_stats_ = true;
        return false;
      }
      if (!Bind(static_cast<int>(d), prefix[d])) {
        count_stats_ = true;
        return false;
      }
    }
    count_stats_ = true;
    return true;
  }

  /// Depth-first exploration from `depth`; all variables before `depth`
  /// must already be bound.
  void Dfs(int depth) {
    if (ShouldStop()) return;
    ++stats_.nodes_explored;
    if (depth == problem_.num_vars) {
      RecordSolution();
      return;
    }
    for (int value : ValueOrder()) {
      if ((mask_[static_cast<size_t>(depth)] & kMaskOf[value]) == 0) continue;
      if (Bind(depth, value)) {
        Dfs(depth + 1);
        Unbind(depth, value);
      }
      if (ShouldStop()) return;
    }
  }

  /// Enumerates the feasible prefixes of length `split_depth` (binding and
  /// unbinding through this context so pruning statistics are counted
  /// exactly once) and appends them to `out`.
  void CollectPrefixes(int depth, int split_depth, std::vector<int>* current,
                       std::vector<std::vector<int>>* out) {
    if (ShouldStop()) return;
    if (depth == split_depth) {
      out->push_back(*current);
      return;
    }
    ++stats_.nodes_explored;
    for (int value : ValueOrder()) {
      if ((mask_[static_cast<size_t>(depth)] & kMaskOf[value]) == 0) continue;
      if (Bind(depth, value)) {
        current->push_back(value);
        CollectPrefixes(depth + 1, split_depth, current, out);
        current->pop_back();
        Unbind(depth, value);
      }
      if (ShouldStop()) return;
    }
  }

 private:
  struct TrailEntry {
    enum Kind : uint8_t { kMaskChange, kZeroChange };
    Kind kind;
    uint32_t index;
    uint8_t old_value;
  };

  double& DeltaHat(model::ConfigId c, model::ComponentId id) {
    return delta_hat_[static_cast<size_t>(c) * problem_.num_components +
                      static_cast<size_t>(id)];
  }
  uint8_t& Zero(model::ConfigId c, model::ComponentId id) {
    return zero_[static_cast<size_t>(c) * problem_.num_components + static_cast<size_t>(id)];
  }
  double& Load(model::ConfigId c, model::HostId host) {
    return loads_[static_cast<size_t>(c) * problem_.capacity.size() +
                  static_cast<size_t>(host)];
  }

  const std::array<int, 3>& ValueOrder() const {
    static constexpr std::array<int, 3> kBothFirst = {kBoth, kOnly0, kOnly1};
    static constexpr std::array<int, 3> kSingleFirst = {kOnly0, kOnly1, kBoth};
    return problem_.options.try_both_first ? kBothFirst : kSingleFirst;
  }

  bool ShouldStop() {
    if (shared_->stop.load(std::memory_order_relaxed)) return true;
    // Deadline checks are amortized; the node limit (the deterministic
    // budget) must be exact, so it forces a per-node check.
    const uint64_t stride = shared_->node_limit != 0 ? 1 : 512;
    if (++stop_check_counter_ % stride == 0) {
      shared_->nodes_total.fetch_add(stride, std::memory_order_relaxed);
      const bool over_nodes =
          shared_->node_limit != 0 &&
          shared_->nodes_total.load(std::memory_order_relaxed) >= shared_->node_limit;
      if (shared_->deadline.Expired() || over_nodes) {
        shared_->timed_out.store(true);
        shared_->stop.store(true);
        return true;
      }
      if (problem_.options.progress) {
        FlushSharedCounters();
        MaybeEmitProgress();
      }
    }
    return false;
  }

  /// Pushes the local counter deltas since the last flush into the shared
  /// atomics (amortized by the ShouldStop stride; progress reporting only).
  void FlushSharedCounters() {
    auto push = [](std::atomic<uint64_t>* target, uint64_t current, uint64_t* last) {
      if (current != *last) {
        target->fetch_add(current - *last, std::memory_order_relaxed);
        *last = current;
      }
    };
    push(&shared_->solutions_total, stats_.solutions_found, &flushed_.solutions_found);
    push(&shared_->cpu_prunes, stats_.cpu.count, &flushed_.cpu.count);
    push(&shared_->compl_prunes, stats_.compl_.count, &flushed_.compl_.count);
    push(&shared_->cost_prunes, stats_.cost.count, &flushed_.cost.count);
    push(&shared_->dom_prunes, stats_.dom.count, &flushed_.dom.count);
  }

  /// Fires the progress callback if the global node count crossed the next
  /// threshold; the CAS guarantees one invocation per threshold.
  void MaybeEmitProgress() {
    const uint64_t interval =
        std::max<uint64_t>(1, problem_.options.progress_interval_nodes);
    const uint64_t nodes = shared_->nodes_total.load(std::memory_order_relaxed);
    uint64_t expected = shared_->next_progress.load(std::memory_order_relaxed);
    while (nodes >= expected) {
      if (shared_->next_progress.compare_exchange_weak(expected, nodes + interval,
                                                       std::memory_order_relaxed)) {
        problem_.options.progress(SnapshotProgress(problem_, shared_, nodes));
        break;
      }
    }
  }

  /// Attempts to bind variable `depth` to `value`, applying the CPU, COST,
  /// COMPL, and DOM rules. Returns false (fully undone) when pruned.
  bool Bind(int depth, int value) {
    const Variable& var = problem_.vars[static_cast<size_t>(depth)];
    const FtSearchOptions& options = problem_.options;

    // --- Pruning on CPU constraint (strict < capacity, Eq. 11). ---
    const bool use0 = value != kOnly1;
    const bool use1 = value != kOnly0;
    if (options.enable_cpu_pruning) {
      const bool overload0 =
          use0 && Load(var.config, var.host0) + var.demand >=
                      problem_.capacity[static_cast<size_t>(var.host0)] - kEpsilon;
      const bool overload1 =
          use1 && Load(var.config, var.host1) + var.demand >=
                      problem_.capacity[static_cast<size_t>(var.host1)] - kEpsilon;
      if (overload0 || overload1) {
        NotePrune(&stats_.cpu, depth);
        return false;
      }
    }

    // --- Apply the binding. ---
    if (use0) Load(var.config, var.host0) += var.demand;
    if (use1) Load(var.config, var.host1) += var.demand;
    const double phi = value == kBoth ? 1.0 : 0.0;
    double inflow_delta = 0.0;
    double inflow_fic = 0.0;
    for (const PredEdge& pe_edge : problem_.preds[static_cast<size_t>(var.pe)]) {
      const double upstream = DeltaHat(var.config, pe_edge.from);
      inflow_delta += pe_edge.selectivity * upstream;
      inflow_fic += upstream;
    }
    DeltaHat(var.config, var.pe) = phi * inflow_delta;
    const double fic_contribution = var.prob * phi * inflow_fic;
    bound_fic_[static_cast<size_t>(depth)] = fic_contribution;
    fic_partial_ += fic_contribution;
    if (value == kBoth) cost_lb_ += var.cost_weight;
    assignment_[static_cast<size_t>(depth)] = static_cast<int8_t>(value);
    trail_frames_.push_back(trail_.size());

    // --- Pruning on cost lower bound. ---
    if (options.enable_cost_pruning) {
      const double best = shared_->best_cost_relaxed.load(std::memory_order_relaxed);
      if (cost_lb_ >= best - kEpsilon) {
        NotePrune(&stats_.cost, depth);
        Unbind(depth, value);
        return false;
      }
    }

    // --- Pruning on IC upper bound. ---
    if (options.enable_ic_pruning) {
      double fic_ub;
      if (options.tight_ic_bound) {
        // Exact optimistic bound: undecided PEs of this configuration get
        // φ = 1 but inherit the decided upstream Δ̂; later configurations
        // contribute their failure-free maximum (== the φ ≡ 1 optimum).
        // The block's undecided remainder is linear in the decided Δ̂, so
        // past a block's first variable it follows from the previous depth
        // in O(1): binding `var` removes its own inflow and scales its
        // downstream share G by φ. That estimate only decides when it clears
        // the threshold by more than its accumulated rounding error could
        // be; near the threshold the exact walk decides, as it always did.
        const int block_end = problem_.block_end[static_cast<size_t>(depth)];
        const double tail = problem_.suffix_ub[static_cast<size_t>(block_end)];
        double& remainder = remainder_[static_cast<size_t>(depth)];
        bool exact = true;
        if (depth > 0 && problem_.block_end[static_cast<size_t>(depth) - 1] == block_end) {
          remainder = remainder_[static_cast<size_t>(depth) - 1] - inflow_fic -
                      (1.0 - phi) * inflow_delta *
                          problem_.downstream_weight[static_cast<size_t>(var.pe)];
          fic_ub = fic_partial_ + var.prob * remainder + tail;
          exact = fic_ub < problem_.fic_requirement - kEpsilon + problem_.ic_bound_margin;
        }
        if (exact) {
          remainder = TightRemainder(depth, block_end);
          fic_ub = fic_partial_ + var.prob * remainder + tail;
        }
      } else {
        fic_ub = fic_partial_ + problem_.suffix_ub[static_cast<size_t>(depth) + 1];
      }
      if (fic_ub < problem_.fic_requirement - kEpsilon) {
        NotePrune(&stats_.compl_, depth);
        Unbind(depth, value);
        return false;
      }
    }

    // --- Forward domain propagation. ---
    if (options.enable_dom_propagation && value != kBoth) {
      PropagateZero(var.config, var.pe, depth);
    }
    return true;
  }

  void Unbind(int depth, int value) {
    const Variable& var = problem_.vars[static_cast<size_t>(depth)];
    const size_t frame = trail_frames_.back();
    trail_frames_.pop_back();
    while (trail_.size() > frame) {
      const TrailEntry& entry = trail_.back();
      if (entry.kind == TrailEntry::kMaskChange) {
        mask_[entry.index] = entry.old_value;
      } else {
        zero_[entry.index] = entry.old_value;
      }
      trail_.pop_back();
    }
    if (value != kOnly1) Load(var.config, var.host0) -= var.demand;
    if (value != kOnly0) Load(var.config, var.host1) -= var.demand;
    DeltaHat(var.config, var.pe) = 0.0;
    fic_partial_ -= bound_fic_[static_cast<size_t>(depth)];
    bound_fic_[static_cast<size_t>(depth)] = 0.0;
    if (value == kBoth) cost_lb_ -= var.cost_weight;
    assignment_[static_cast<size_t>(depth)] = -1;
  }

  /// Marks component (`config`, `id`)'s output as certainly zero and
  /// removes the both-active value from the domains of successors whose
  /// entire inflow became certainly zero ("no replication forwarding",
  /// §4.5 DOM). `bound_depth` is where the triggering binding happened; the
  /// pruned-branch height of a DOM removal is measured from the removed
  /// variable's own tree level.
  void PropagateZero(model::ConfigId config, model::ComponentId id, int bound_depth) {
    uint8_t& flag = Zero(config, id);
    if (flag != 0) return;
    trail_.push_back(TrailEntry{TrailEntry::kZeroChange,
                                static_cast<uint32_t>(
                                    static_cast<size_t>(config) * problem_.num_components +
                                    static_cast<size_t>(id)),
                                flag});
    flag = 1;
    for (model::ComponentId succ : problem_.pe_succs[static_cast<size_t>(id)]) {
      if (Zero(config, succ) != 0) continue;
      bool all_zero = true;
      for (const PredEdge& pe_edge : problem_.preds[static_cast<size_t>(succ)]) {
        if (Zero(config, pe_edge.from) == 0) {
          all_zero = false;
          break;
        }
      }
      if (!all_zero) continue;
      const int succ_var = problem_.VarIndex(config, succ);
      if (succ_var > bound_depth) {
        uint8_t& succ_mask = mask_[static_cast<size_t>(succ_var)];
        if ((succ_mask & kMaskOf[kBoth]) != 0) {
          trail_.push_back(TrailEntry{TrailEntry::kMaskChange,
                                      static_cast<uint32_t>(succ_var), succ_mask});
          succ_mask = static_cast<uint8_t>(succ_mask & ~kMaskOf[kBoth]);
          if (count_stats_) {
            ++stats_.dom.count;
            stats_.dom.total_height +=
                static_cast<uint64_t>(problem_.num_vars - succ_var);
          }
        }
      }
      PropagateZero(config, succ, bound_depth);
    }
  }

  /// Optimistic FIC (not yet weighted by P_C) achievable by the undecided
  /// variables (bound_depth, block_end) of the current configuration.
  double TightRemainder(int bound_depth, int block_end) {
    double rest = 0.0;
    for (int d = bound_depth + 1; d < block_end; ++d) {
      const Variable& var = problem_.vars[static_cast<size_t>(d)];
      double inflow_fic = 0.0;
      double inflow_delta = 0.0;
      for (const PredEdge& pe_edge : problem_.preds[static_cast<size_t>(var.pe)]) {
        // A predecessor is a source (Δ̂ fixed), a decided PE (Δ̂ exact), or
        // an undecided PE of this block — whose optimistic value was just
        // written to scratch (topological order guarantees it).
        const int pred_var = problem_.VarIndex(var.config, pe_edge.from);
        const double value = (pred_var >= 0 && assignment_[static_cast<size_t>(pred_var)] < 0)
                                 ? scratch_[static_cast<size_t>(pe_edge.from)]
                                 : DeltaHat(var.config, pe_edge.from);
        inflow_delta += pe_edge.selectivity * value;
        inflow_fic += value;
      }
      scratch_[static_cast<size_t>(var.pe)] = inflow_delta;  // φ = 1
      rest += inflow_fic;
    }
    return rest;
  }

  void NotePrune(PruningStats* pruning, int depth) {
    if (!count_stats_) return;
    ++pruning->count;
    pruning->total_height += static_cast<uint64_t>(problem_.num_vars - depth);
  }

  void RecordSolution() {
    // When a pruning rule is disabled (ablation), the constraint it fronts
    // still holds — it just gets checked here at the leaf instead of early.
    if (!problem_.options.enable_ic_pruning &&
        fic_partial_ < problem_.fic_requirement - kEpsilon) {
      return;
    }
    if (!problem_.options.enable_cpu_pruning) {
      const size_t num_hosts = problem_.capacity.size();
      for (size_t i = 0; i < loads_.size(); ++i) {
        if (loads_[i] >= problem_.capacity[i % num_hosts] - kEpsilon) return;
      }
    }
    ++stats_.solutions_found;
    const double cost = cost_lb_;  // exact: every variable is bound
    const double elapsed = shared_->watch.ElapsedSeconds();
    std::lock_guard<std::mutex> lock(shared_->mu);
    if (record_first_ && !shared_->first_recorded) {
      shared_->first_recorded = true;
      shared_->first_cost = cost;
      shared_->first_seconds = elapsed;
    }
    if (!shared_->found_any || cost < shared_->best_cost - kEpsilon) {
      shared_->found_any = true;
      shared_->best_cost = cost;
      shared_->best_fic = fic_partial_;
      shared_->best_assignment.assign(assignment_.begin(), assignment_.end());
      shared_->best_seconds = elapsed;
      shared_->best_cost_relaxed.store(cost, std::memory_order_relaxed);
    }
  }

  const Problem& problem_;
  SharedState* shared_;
  bool record_first_;
  /// Scratch Δ̃ values for the tight IC bound; indexed by component, only
  /// entries written during the current bound computation are read.
  std::vector<double> scratch_;
  FtSearchStats stats_;
  std::vector<int8_t> assignment_;
  std::vector<uint8_t> mask_;
  std::vector<double> bound_fic_;
  /// remainder_[d]: the raw TightRemainder after binding variable d (exact
  /// or incrementally estimated); read only at depth d + 1 of one block.
  std::vector<double> remainder_;
  std::vector<uint8_t> zero_;
  std::vector<double> delta_hat_;
  std::vector<double> loads_;
  std::vector<TrailEntry> trail_;
  std::vector<size_t> trail_frames_;
  double cost_lb_;
  double fic_partial_ = 0.0;
  uint64_t stop_check_counter_ = 0;
  bool count_stats_ = true;
  /// Local counter values already pushed to the shared progress atomics.
  FtSearchStats flushed_;
};

Result<Problem> BuildProblem(const model::ApplicationGraph& graph,
                             const model::InputSpace& space,
                             const model::ExpectedRates& rates,
                             const model::ReplicaPlacement& placement,
                             const model::Cluster& cluster,
                             const FtSearchOptions& options) {
  if (!graph.validated()) {
    return Status::FailedPrecondition("graph must be validated before FT-Search");
  }
  if (placement.replication_factor() != 2) {
    return Status::Unimplemented(
        StrFormat("FT-Search supports twofold replication only (k = 2), got k = %d",
                  placement.replication_factor()));
  }
  LAAR_RETURN_IF_ERROR(placement.Validate(cluster));
  if (options.ic_requirement < 0.0 || options.ic_requirement > 1.0) {
    return Status::InvalidArgument(
        StrFormat("IC requirement %g outside [0, 1]", options.ic_requirement));
  }
  for (model::ComponentId pe : graph.Pes()) {
    if (!placement.IsAssigned(pe)) {
      return Status::FailedPrecondition(StrFormat("PE %d is not placed", pe));
    }
  }

  Problem problem;
  problem.graph = &graph;
  problem.space = &space;
  problem.rates = &rates;
  problem.placement = &placement;
  problem.options = options;
  problem.num_components = graph.num_components();

  problem.capacity.reserve(cluster.num_hosts());
  for (const model::Host& host : cluster.hosts()) {
    problem.capacity.push_back(host.capacity_cycles_per_sec);
  }

  problem.preds.resize(graph.num_components());
  problem.pe_succs.resize(graph.num_components());
  for (const model::Component& component : graph.components()) {
    for (size_t edge_index : graph.IncomingEdges(component.id)) {
      const model::Edge& e = graph.edges()[edge_index];
      problem.preds[static_cast<size_t>(component.id)].push_back(
          PredEdge{e.from, e.selectivity});
    }
    for (size_t edge_index : graph.OutgoingEdges(component.id)) {
      const model::Edge& e = graph.edges()[edge_index];
      if (graph.IsPe(e.to)) {
        problem.pe_succs[static_cast<size_t>(component.id)].push_back(e.to);
      }
    }
  }

  // Variable order: configurations sorted most-CPU-hungry first (§4.5
  // heuristic), PEs in topological order within each configuration (the
  // partial-IC computation requires it).
  std::vector<model::ConfigId> config_order;
  for (model::ConfigId c = 0; c < space.num_configs(); ++c) config_order.push_back(c);
  if (options.hungriest_config_first) {
    std::vector<double> demand_of_config(static_cast<size_t>(space.num_configs()), 0.0);
    for (model::ConfigId c = 0; c < space.num_configs(); ++c) {
      for (model::ComponentId pe : graph.Pes()) {
        demand_of_config[static_cast<size_t>(c)] += rates.CpuDemand(graph, pe, c);
      }
    }
    std::stable_sort(config_order.begin(), config_order.end(),
                     [&demand_of_config](model::ConfigId a, model::ConfigId b) {
                       return demand_of_config[static_cast<size_t>(a)] >
                              demand_of_config[static_cast<size_t>(b)];
                     });
  }

  const std::vector<model::ComponentId> pes_topo = graph.PesInTopologicalOrder();
  problem.downstream_weight.assign(problem.num_components, 0.0);
  for (auto it = pes_topo.rbegin(); it != pes_topo.rend(); ++it) {
    double weight = 0.0;
    for (size_t edge_index : graph.OutgoingEdges(*it)) {
      const model::Edge& e = graph.edges()[edge_index];
      if (graph.IsPe(e.to)) {
        weight += 1.0 + e.selectivity * problem.downstream_weight[static_cast<size_t>(e.to)];
      }
    }
    problem.downstream_weight[static_cast<size_t>(*it)] = weight;
  }
  problem.var_at.assign(static_cast<size_t>(space.num_configs()) * problem.num_components,
                        -1);
  // Sized once: doubling growth would touch about twice the final array,
  // which at web scale (524,288 variables) is tens of megabytes of fresh
  // pages per search.
  problem.vars.reserve(static_cast<size_t>(space.num_configs()) * pes_topo.size());
  for (model::ConfigId c : config_order) {
    const double prob = space.Probability(c);  // a mixed-radix decode; once per config
    for (model::ComponentId pe : pes_topo) {
      Variable var;
      var.config = c;
      var.pe = pe;
      var.demand = rates.CpuDemand(graph, pe, c);
      var.prob = prob;
      var.cost_weight = var.prob * var.demand;
      var.arrival_ff = rates.ArrivalRate(graph, pe, c);
      var.host0 = placement.HostOf(pe, 0);
      var.host1 = placement.HostOf(pe, 1);
      problem.var_at[static_cast<size_t>(c) * problem.num_components +
                     static_cast<size_t>(pe)] = static_cast<int>(problem.vars.size());
      problem.vars.push_back(var);
      problem.base_cost_lb += var.cost_weight;
    }
  }
  problem.num_vars = static_cast<int>(problem.vars.size());

  const int pes_per_block = static_cast<int>(pes_topo.size());
  problem.block_end.resize(static_cast<size_t>(problem.num_vars));
  for (int d = 0; d < problem.num_vars; ++d) {
    problem.block_end[static_cast<size_t>(d)] = (d / pes_per_block + 1) * pes_per_block;
  }

  problem.suffix_ub.assign(static_cast<size_t>(problem.num_vars) + 1, 0.0);
  for (int d = problem.num_vars - 1; d >= 0; --d) {
    const Variable& var = problem.vars[static_cast<size_t>(d)];
    problem.suffix_ub[static_cast<size_t>(d)] =
        problem.suffix_ub[static_cast<size_t>(d) + 1] + var.prob * var.arrival_ff;
  }
  problem.bic_per_sec = problem.suffix_ub[0];
  problem.fic_requirement = options.ic_requirement * problem.bic_per_sec;
  // The incremental remainder drifts from the exact walk by rounding alone:
  // at most a few ulps of the block's BIC per bound variable, i.e. below
  // ~1e-12 of BIC even for blocks of thousands of PEs. A margin six orders
  // above that keeps every prune decision identical to the exact bound.
  problem.ic_bound_margin = 1e-6 * std::max(1.0, problem.bic_per_sec);
  return problem;
}

/// A quick feasible-by-construction starting point: everything replicated,
/// then — per configuration, from the sinks upward — one replica of a PE is
/// deactivated (the one on the currently most-loaded of its two hosts)
/// until no host is overloaded. Deactivating downstream-first sacrifices
/// the least internal completeness, since an upstream deactivation zeroes
/// its whole pessimistic-model subtree.
std::vector<int> GreedySeedAssignment(const Problem& problem) {
  std::vector<int> values(static_cast<size_t>(problem.num_vars), kBoth);
  const size_t num_hosts = problem.capacity.size();
  for (int start = 0; start < problem.num_vars;) {
    const int end = problem.block_end[static_cast<size_t>(start)];
    std::vector<double> load(num_hosts, 0.0);
    for (int d = start; d < end; ++d) {
      const Variable& var = problem.vars[static_cast<size_t>(d)];
      load[static_cast<size_t>(var.host0)] += var.demand;
      load[static_cast<size_t>(var.host1)] += var.demand;
    }
    auto overloaded = [&] {
      for (size_t h = 0; h < num_hosts; ++h) {
        if (load[h] >= problem.capacity[h] - kEpsilon) return true;
      }
      return false;
    };
    for (int d = end - 1; d >= start && overloaded(); --d) {
      const Variable& var = problem.vars[static_cast<size_t>(d)];
      if (load[static_cast<size_t>(var.host0)] >= load[static_cast<size_t>(var.host1)]) {
        values[static_cast<size_t>(d)] = kOnly1;
        load[static_cast<size_t>(var.host0)] -= var.demand;
      } else {
        values[static_cast<size_t>(d)] = kOnly0;
        load[static_cast<size_t>(var.host1)] -= var.demand;
      }
    }
    start = end;
  }
  return values;
}

strategy::ActivationStrategy AssignmentToStrategy(const Problem& problem,
                                                  const std::vector<int8_t>& assignment) {
  strategy::ActivationStrategy out(problem.num_components, 2,
                                   problem.space->num_configs());
  for (int d = 0; d < problem.num_vars; ++d) {
    const Variable& var = problem.vars[static_cast<size_t>(d)];
    const int value = assignment[static_cast<size_t>(d)];
    out.SetActive(var.pe, 0, var.config, value != kOnly1);
    out.SetActive(var.pe, 1, var.config, value != kOnly0);
  }
  return out;
}

}  // namespace

const char* SearchOutcomeName(SearchOutcome outcome) {
  switch (outcome) {
    case SearchOutcome::kOptimal:
      return "BST";
    case SearchOutcome::kFeasible:
      return "SOL";
    case SearchOutcome::kInfeasible:
      return "NUL";
    case SearchOutcome::kTimeout:
      return "TMO";
  }
  return "?";
}

void FtSearchStats::MergeFrom(const FtSearchStats& other) {
  nodes_explored += other.nodes_explored;
  solutions_found += other.solutions_found;
  cpu.count += other.cpu.count;
  cpu.total_height += other.cpu.total_height;
  compl_.count += other.compl_.count;
  compl_.total_height += other.compl_.total_height;
  cost.count += other.cost.count;
  cost.total_height += other.cost.total_height;
  dom.count += other.dom.count;
  dom.total_height += other.dom.total_height;
}

std::string FtSearchProgress::ToString() const {
  std::string line = StrFormat(
      "t=%.1fs nodes=%llu sol=%llu", elapsed_seconds,
      static_cast<unsigned long long>(nodes_explored),
      static_cast<unsigned long long>(solutions_found));
  if (has_incumbent) {
    line += StrFormat(" best=%.6g ic=%.4f", incumbent_cost, incumbent_ic);
  }
  line += StrFormat(" prunes[cpu=%llu compl=%llu cost=%llu dom=%llu]",
                    static_cast<unsigned long long>(cpu_prunes),
                    static_cast<unsigned long long>(compl_prunes),
                    static_cast<unsigned long long>(cost_prunes),
                    static_cast<unsigned long long>(dom_prunes));
  return line;
}

void PublishTo(obs::MetricsRegistry* registry, const FtSearchStats& stats,
               const obs::MetricsRegistry::Labels& labels) {
  if (registry == nullptr) return;
  auto count = [&](const char* name, uint64_t value,
                   const obs::MetricsRegistry::Labels& with) {
    if (obs::Counter* c = registry->GetCounter(name, with)) {
      c->Increment(static_cast<double>(value));
    }
  };
  count("ftsearch_nodes_explored", stats.nodes_explored, labels);
  count("ftsearch_solutions_found", stats.solutions_found, labels);
  const std::pair<const char*, const PruningStats*> rules[] = {
      {"cpu", &stats.cpu}, {"compl", &stats.compl_},
      {"cost", &stats.cost}, {"dom", &stats.dom}};
  for (const auto& [rule, pruning] : rules) {
    obs::MetricsRegistry::Labels with = labels;
    with.emplace_back("rule", rule);
    count("ftsearch_prunes", pruning->count, with);
    count("ftsearch_pruned_height", pruning->total_height, with);
  }
}

std::string FtSearchResult::ToString() const {
  return StrFormat(
      "%s cost=%.6g ic=%.4f first_cost=%.6g first_t=%.3fs best_t=%.3fs total_t=%.3fs "
      "nodes=%llu sol=%llu prunes[cpu=%llu compl=%llu cost=%llu dom=%llu]",
      SearchOutcomeName(outcome), best_cost, best_ic, first_solution_cost,
      first_solution_seconds, best_solution_seconds, total_seconds,
      static_cast<unsigned long long>(stats.nodes_explored),
      static_cast<unsigned long long>(stats.solutions_found),
      static_cast<unsigned long long>(stats.cpu.count),
      static_cast<unsigned long long>(stats.compl_.count),
      static_cast<unsigned long long>(stats.cost.count),
      static_cast<unsigned long long>(stats.dom.count));
}

Result<FtSearchResult> RunFtSearch(const model::ApplicationGraph& graph,
                                   const model::InputSpace& space,
                                   const model::ExpectedRates& rates,
                                   const model::ReplicaPlacement& placement,
                                   const model::Cluster& cluster,
                                   const FtSearchOptions& options) {
  LAAR_ASSIGN_OR_RETURN(Problem problem,
                        BuildProblem(graph, space, rates, placement, cluster, options));

  SharedState shared;
  shared.node_limit = options.node_limit;
  shared.deadline = options.time_limit_seconds > 0.0
                        ? Deadline::After(options.time_limit_seconds)
                        : Deadline::Infinite();
  shared.next_progress.store(std::max<uint64_t>(1, options.progress_interval_nodes));

  FtSearchStats merged_stats;
  if (options.seed_greedy && problem.num_vars > 0) {
    // The seed binds through a throwaway context so every constraint is
    // verified; a successful full bind records it as the incumbent (but
    // not as the "first solution" — Fig. 5 measures the search proper).
    SearchContext seeder(problem, &shared, /*record_first=*/false);
    const std::vector<int> seed = GreedySeedAssignment(problem);
    if (seeder.BindPrefix(seed, /*count_stats=*/false)) {
      seeder.RecordIfComplete();
    }
    merged_stats.MergeFrom(seeder.stats());
  }
  // A node budget is shared by all workers, so which subtrees fit inside
  // it would depend on thread scheduling: node-limited searches always run
  // sequentially, which keeps them a pure function of their inputs.
  if (options.num_threads <= 1 || options.node_limit != 0 || problem.num_vars == 0) {
    SearchContext context(problem, &shared);
    context.Dfs(0);
    merged_stats.MergeFrom(context.stats());
  } else {
    const int split_depth = std::clamp(options.split_depth, 1, problem.num_vars);
    SearchContext root(problem, &shared);
    std::vector<std::vector<int>> prefixes;
    std::vector<int> current;
    root.CollectPrefixes(0, split_depth, &current, &prefixes);
    merged_stats.MergeFrom(root.stats());

    // Run on the caller's shared pool when provided (waiting only on our
    // own task group), otherwise on a private pool.
    std::optional<ThreadPool> owned_pool;
    ThreadPool* pool = options.pool;
    if (pool == nullptr) {
      owned_pool.emplace(static_cast<size_t>(options.num_threads));
      pool = &*owned_pool;
    }
    ThreadPool::TaskGroup group(pool);
    std::mutex stats_mu;
    for (const std::vector<int>& prefix : prefixes) {
      group.Submit([&problem, &shared, &stats_mu, &merged_stats, prefix] {
        SearchContext context(problem, &shared);
        // The prefix was feasible when enumerated; re-binding it must not
        // re-count pruning statistics (a later best-cost update may even
        // prune it now, which is then also not re-counted).
        if (context.BindPrefix(prefix, /*count_stats=*/false)) {
          context.Dfs(static_cast<int>(prefix.size()));
        }
        std::lock_guard<std::mutex> lock(stats_mu);
        merged_stats.MergeFrom(context.stats());
      });
    }
    group.Wait();
  }

  // Final snapshot with the exact merged totals (the amortized flushes can
  // lag by up to one stride per worker).
  if (options.progress) {
    FtSearchProgress final_progress = SnapshotProgress(problem, &shared, 0);
    final_progress.nodes_explored = merged_stats.nodes_explored;
    final_progress.solutions_found = merged_stats.solutions_found;
    final_progress.cpu_prunes = merged_stats.cpu.count;
    final_progress.compl_prunes = merged_stats.compl_.count;
    final_progress.cost_prunes = merged_stats.cost.count;
    final_progress.dom_prunes = merged_stats.dom.count;
    options.progress(final_progress);
  }

  FtSearchResult result;
  result.stats = merged_stats;
  result.total_seconds = shared.watch.ElapsedSeconds();
  const bool timed_out = shared.timed_out.load();
  if (shared.found_any) {
    result.outcome = timed_out ? SearchOutcome::kFeasible : SearchOutcome::kOptimal;
    result.strategy = AssignmentToStrategy(problem, shared.best_assignment);
    result.best_cost = shared.best_cost;
    result.best_ic =
        problem.bic_per_sec <= 0.0 ? 1.0 : shared.best_fic / problem.bic_per_sec;
    result.first_solution_cost = shared.first_cost;
    result.first_solution_seconds = shared.first_seconds;
    result.best_solution_seconds = shared.best_seconds;
  } else {
    result.outcome = timed_out ? SearchOutcome::kTimeout : SearchOutcome::kInfeasible;
  }
  return result;
}

}  // namespace laar::ftsearch
