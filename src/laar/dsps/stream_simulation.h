#ifndef LAAR_DSPS_STREAM_SIMULATION_H_
#define LAAR_DSPS_STREAM_SIMULATION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "laar/common/result.h"
#include "laar/configindex/config_index.h"
#include "laar/dsps/runtime_options.h"
#include "laar/dsps/sim_metrics.h"
#include "laar/dsps/trace.h"
#include "laar/model/cluster.h"
#include "laar/model/descriptor.h"
#include "laar/model/placement.h"
#include "laar/model/rates.h"
#include "laar/obs/trace_event.h"
#include "laar/sim/simulator.h"
#include "laar/strategy/activation_strategy.h"

namespace laar::dsps {

/// A discrete-event simulation of a replicated stream-processing deployment
/// running one application under a replica activation strategy — the
/// stand-in for the paper's IBM InfoSphere Streams cluster (§5).
///
/// Faithfully modelled mechanics:
///  - hosts as shared CPU-cycle budgets (Eq. 11's aggregate-K view):
///    capacity is processor-shared equally among replicas that are busy;
///  - operators process tuples at their per-edge CPU cost, apply
///    selectivity with the integer-accumulator semantics of §5.2 fn. 3, and
///    buffer per-port in bounded queues (tail-drop on overflow);
///  - active replication with proxy semantics (§5.1): every replica of a PE
///    receives the primary outputs of its predecessors, but only the acting
///    primary forwards downstream;
///  - the LAAR middleware: a Rate Monitor sampling source rates, an
///    HAController mapping measurements to a dominating configuration via
///    the R-tree index and issuing activation commands (§4.6);
///  - failure injection: permanent replica crashes (the pessimistic
///    worst-case evaluation) and transient host crashes with recovery.
///
/// Time, placement, strategy, and trace fully determine a run: the engine
/// contains no randomness.
///
/// Two delivery engines share these mechanics (selected by
/// `RuntimeOptions::link_latency_seconds`, see DESIGN.md §10):
///  - the historical synchronous engine (latency 0): one event heap, tuples
///    cross hosts within the event that emitted them;
///  - the conservative-window engine (latency L > 0): hosts are partitioned
///    over `shards` event engines that advance in windows of width L, each
///    up to its per-shard-pair lookahead horizon (DESIGN.md §12); every
///    cross-host tuple travels through a double-buffered network and
///    arrives at the first window barrier at least L after emission.
///    For a fixed L, every shard count produces byte-identical
///    metrics/trace/timeseries outputs — shards only buy wall-clock speed.
class StreamSimulation {
 public:
  /// All referenced objects must outlive the simulation.
  StreamSimulation(const model::ApplicationDescriptor& app, const model::Cluster& cluster,
                   const model::ReplicaPlacement& placement,
                   const strategy::ActivationStrategy& strategy, const InputTrace& trace,
                   const RuntimeOptions& options);

  /// Guards against binding a temporary strategy (the simulation keeps a
  /// reference; a temporary would dangle before Run()).
  StreamSimulation(const model::ApplicationDescriptor&, const model::Cluster&,
                   const model::ReplicaPlacement&, strategy::ActivationStrategy&&,
                   const InputTrace&, const RuntimeOptions&) = delete;

  /// Out-of-line: member unique_ptrs point to types private to the .cc.
  ~StreamSimulation();

  StreamSimulation(const StreamSimulation&) = delete;
  StreamSimulation& operator=(const StreamSimulation&) = delete;

  /// Marks a replica dead for the entire run (pessimistic worst case §5.3).
  /// Call before `Run`.
  Status InjectPermanentReplicaFailure(model::ComponentId pe, int replica);

  /// Crashes every replica on `host` during [at, at + duration); recovered
  /// replicas re-join as secondaries after state resync. Call before `Run`.
  Status ScheduleHostCrash(model::HostId host, sim::SimTime at, sim::SimTime duration);

  /// Runs the whole trace. Single-shot: a second call fails.
  Status Run();

  const SimulationMetrics& metrics() const { return metrics_; }

 private:
  struct Port;
  struct Replica;
  struct PeState;
  struct HostState;
  struct SourceState;
  struct TelemetryState;
  struct NetMessage;
  struct SinkMessage;
  struct Shard;

  // --- wiring ---
  Status Build();

  // --- host processor sharing ---
  void AdvanceHost(HostState* host);
  void RescheduleHost(HostState* host);
  void HostCompletionEvent(HostState* host);
  /// Joins `replica` to its host's busy set with `cycles` of work.
  void AddBusy(Replica* replica, double cycles);
  void RemoveBusy(Replica* replica);

  // --- operator mechanics ---
  /// `span` is the latency-tracer span the tuple belongs to (0 = untraced).
  void DeliverToReplica(Replica* replica, int port_index, sim::SimTime birth,
                        uint32_t span);
  void TryStartProcessing(Replica* replica);
  void FinishTuple(Replica* replica);
  void EmitFrom(Replica* replica, int count, sim::SimTime birth, uint32_t span);

  // --- replication control ---
  void ElectPrimary(PeState* pe);
  void ApplyActivation(Replica* replica, bool active);
  void ApplyConfig(model::ConfigId config);

  // --- middleware ---
  void MonitorTick();

  // --- telemetry ---
  /// Periodic read-only snapshot into the telemetry registry; never mutates
  /// simulation state, so enabling it cannot perturb the run.
  void TelemetryTick();

  // --- sources & failures ---
  void SourceEmit(SourceState* source);
  void CrashHost(model::HostId host, sim::SimTime duration);
  void RecoverHost(model::HostId host, uint64_t crash_epoch);

  // --- windowed / sharded engine (DESIGN.md §10, §12) ---
  /// The coordinator loop: plans per-shard advancement rounds (each shard
  /// sprints to its per-pair lookahead horizon), dispatches them on the
  /// ShardRunner, and interleaves control actions and barrier closures on
  /// the coordinator thread.
  void RunWindowedLoop();
  /// Windowed-mode source driver: emits every tuple of the current phase
  /// inline (emissions touch only per-source and per-shard state, so they
  /// commute with the rest of the phase), then parks one scheduled event at
  /// the first emission beyond the phase.
  void WindowedSourceEmit(SourceState* source);
  /// Worker-side: advances shard `s` through its planned slice — for each
  /// window up to the shard's target, drain messages due at its opening
  /// barrier, run the window's events, and seal its outbox.
  void RunShardSlice(int s);
  /// Delivers the shard's messages due at `barrier` in canonical
  /// (dst_host, src_host, src_seq) order; runs at the start of the window
  /// opening at that barrier (after the barrier's control actions).
  void DrainDue(Shard* shard, uint64_t barrier);
  /// Seals the window that just crossed: the shard's outbox segments are
  /// handed to the coordinator for distribution (own-shard segments land
  /// directly in the local due buckets) and the trace/profiling window marks
  /// are recorded. Worker-side, shard-local.
  void SealWindow(Shard* shard);
  /// Coordinator-side barrier closure: replays sink arrivals due at barrier
  /// `index`, flushes the profiler window ending there, and merges the
  /// shard trace batches of that window into the global recorder in
  /// (time, host) order — the partition-invariant total order.
  void CloseBarrier(uint64_t index, sim::SimTime stop);
  /// Merges every shard's not-yet-merged trace events (end of run).
  void MergeRemainingTraces();
  /// Link-latency factor (in windows) between two distinct hosts: 1 within
  /// a rack, `rack_latency_factor` across racks in a zone,
  /// `zone_latency_factor` across zones.
  uint32_t HostPairFactor(model::HostId src, model::HostId dst) const;
  /// The event engine a host's tuple-plane events run on: the host's shard
  /// in windowed mode, the single engine otherwise.
  sim::Simulator& SimOfHost(model::HostId host);
  /// The accumulator shard of a host (shards_[0] in synchronous mode).
  Shard& AccOfHost(model::HostId host);
  /// Tuple-plane trace emission: direct to the recorder in synchronous
  /// mode, buffered per shard (merged at barriers) in windowed mode. Call
  /// sites check `Tracing` first, exactly like direct recorder calls.
  void TupleInstant(Shard& acc, obs::EventName name, double time, int32_t pe,
                    int32_t replica, int32_t host, int32_t port = -1,
                    double value = 0.0);
  void TupleSpan(Shard& acc, obs::EventName name, double begin, double duration,
                 int32_t pe, int32_t replica, int32_t host, int32_t port);

  // --- bookkeeping ---
  size_t BucketOf(sim::SimTime t) const;

  /// True when a recorder is attached and wants `category` — the guard every
  /// emission site checks before building an event.
  bool Tracing(obs::Category category) const;

  /// True when a latency tracer is attached with a non-zero sample rate —
  /// the guard every per-tuple hop site checks.
  bool LatencyTracing() const;

  const model::ApplicationDescriptor& app_;
  const model::Cluster& cluster_;
  const model::ReplicaPlacement& placement_;
  const strategy::ActivationStrategy& strategy_;
  const InputTrace& trace_;
  RuntimeOptions options_;

  sim::Simulator simulator_;
  model::ExpectedRates rates_;
  configindex::ConfigIndex config_index_;
  SimulationMetrics metrics_;

  std::vector<std::unique_ptr<PeState>> pes_;      // [component], null unless PE
  std::vector<std::unique_ptr<HostState>> hosts_;  // [host]
  std::vector<std::unique_ptr<SourceState>> sources_;

  /// Sharded-engine state. Synchronous mode keeps exactly one Shard whose
  /// engine stays empty: loss accumulators route through it unconditionally,
  /// so the hot paths carry no mode branches.
  bool windowed_ = false;
  int num_shards_ = 1;
  bool profiling_ = false;  ///< options_.profiler != nullptr, cached at Build
  /// All latency factors are 1: message dues are `emit_window + 2` without a
  /// per-pair table lookup (the historical uniform topology).
  bool uniform_latency_ = true;
  std::vector<int> shard_of_host_;                // [host] -> shard index
  std::vector<std::unique_ptr<Shard>> shards_;    // [shard]
  /// [src * num_hosts + dst] -> latency factor in windows; only built when a
  /// factor differs from 1 (uniform runs never touch it).
  std::vector<uint32_t> host_pair_factor_;
  /// [src_shard][dst_shard] -> minimum latency factor over the placed
  /// application edges crossing that shard pair (0 = no such edge). Source
  /// injection counts as a factor-1 inbound edge on the source's shard.
  std::vector<std::vector<uint32_t>> lookahead_;
  std::vector<SinkMessage> sink_scratch_;         // barrier working sets,
  std::vector<SinkMessage> sink_ordered_;         //   reused across barriers
  std::vector<uint32_t> sink_counts_;
  std::vector<obs::TraceEvent> trace_scratch_;
  std::vector<double> monitor_rates_;             // MonitorTick working set

  std::unique_ptr<TelemetryState> telemetry_;  // null unless options_.telemetry
  model::ConfigId applied_config_ = 0;
  bool ran_ = false;
  bool built_ = false;
};

}  // namespace laar::dsps

#endif  // LAAR_DSPS_STREAM_SIMULATION_H_
