#include "laar/dsps/sim_metrics.h"

#include <algorithm>
#include <cmath>

#include "laar/common/strings.h"

namespace laar::dsps {

double SimulationMetrics::TotalCpuCycles() const {
  double total = 0.0;
  for (const auto& per_pe : replicas) {
    for (const ReplicaMetrics& r : per_pe) total += r.cpu_cycles;
  }
  return total;
}

uint64_t SimulationMetrics::TotalProcessed() const {
  uint64_t total = 0;
  for (uint64_t count : pe_processed) total += count;
  return total;
}

uint64_t SimulationMetrics::LostTuples() const {
  return dropped_tuples + crash_lost_tuples + resync_lost_tuples +
         orphaned_tuples;
}

Status SimulationMetrics::ReconcileLosses() const {
  auto check = [](const char* what, uint64_t ledger, uint64_t scalar) -> Status {
    if (ledger == scalar) return Status::OK();
    return Status::Internal(StrFormat(
        "loss ledger does not reconcile: %s ledger=%llu scalar=%llu", what,
        static_cast<unsigned long long>(ledger),
        static_cast<unsigned long long>(scalar)));
  };
  using obs::LossCause;
  if (shed_tuples > dropped_tuples) {
    return Status::Internal("shed_tuples exceeds dropped_tuples");
  }
  LAAR_RETURN_IF_ERROR(check("queue_overflow",
                             losses.TotalOf(LossCause::kQueueOverflow),
                             dropped_tuples - shed_tuples));
  LAAR_RETURN_IF_ERROR(
      check("load_shed", losses.TotalOf(LossCause::kLoadShed), shed_tuples));
  LAAR_RETURN_IF_ERROR(check("crash_loss", losses.TotalOf(LossCause::kCrashLoss),
                             crash_lost_tuples));
  LAAR_RETURN_IF_ERROR(check("resync_gap", losses.TotalOf(LossCause::kResyncGap),
                             resync_lost_tuples));
  LAAR_RETURN_IF_ERROR(check("orphaned_output",
                             losses.TotalOf(LossCause::kOrphanedOutput),
                             orphaned_tuples));
  return check("total", losses.Total(), LostTuples());
}

double SimulationMetrics::MeanRate(const std::vector<double>& series, double bucket_seconds,
                                   sim::SimTime from, sim::SimTime to) {
  if (series.empty() || bucket_seconds <= 0.0 || to <= from) return 0.0;
  // Clamp the window to the recorded range, then weight the boundary
  // buckets by their overlap fraction. Counting them at full width mixes
  // out-of-window tuples into the rate whenever the window is not
  // bucket-aligned (e.g. Low-period tuples into a High-segment rate).
  const double lo = std::max(0.0, from);
  const double hi = std::min(to, static_cast<double>(series.size()) * bucket_seconds);
  if (hi <= lo) return 0.0;
  const auto first = static_cast<size_t>(std::floor(lo / bucket_seconds));
  const auto last = std::min(series.size(),
                             static_cast<size_t>(std::ceil(hi / bucket_seconds)));
  if (first >= last) return 0.0;
  double total = 0.0;
  for (size_t i = first; i < last; ++i) {
    const double bucket_lo = static_cast<double>(i) * bucket_seconds;
    const double bucket_hi = bucket_lo + bucket_seconds;
    const double overlap = std::min(hi, bucket_hi) - std::max(lo, bucket_lo);
    total += series[i] * (overlap / bucket_seconds);
  }
  return total / (hi - lo);
}

void PublishTo(obs::MetricsRegistry* registry, const SimulationMetrics& metrics,
               const obs::MetricsRegistry::Labels& labels) {
  if (registry == nullptr) return;
  auto count = [&](const char* name, double value) {
    if (obs::Counter* c = registry->GetCounter(name, labels)) c->Increment(value);
  };
  count("sim_source_tuples", static_cast<double>(metrics.source_tuples));
  count("sim_sink_tuples", static_cast<double>(metrics.sink_tuples));
  count("sim_dropped_tuples", static_cast<double>(metrics.dropped_tuples));
  count("sim_activation_switches", static_cast<double>(metrics.activation_switches));
  count("sim_processed_tuples", static_cast<double>(metrics.TotalProcessed()));
  count("sim_cpu_cycles", metrics.TotalCpuCycles());
  if (obs::Gauge* g = registry->GetGauge("sim_max_queue_depth", labels)) {
    g->Set(std::max(g->value(), static_cast<double>(metrics.max_queue_depth)));
  }
  if (obs::Gauge* g = registry->GetGauge("sim_duration_seconds", labels)) {
    g->Set(metrics.duration);
  }
  // Only crash runs carry crashed hosts; skipping the keys otherwise keeps
  // failure-free registries (and their golden hashes) unchanged.
  if (!metrics.crashed_hosts.empty()) {
    count("sim_host_crashes", static_cast<double>(metrics.crashed_hosts.size()));
    if (obs::Gauge* g = registry->GetGauge("sim_crashed_host", labels)) {
      g->Set(static_cast<double>(metrics.crashed_hosts.back()));
    }
  }
  if (!metrics.sink_latency.empty()) {
    if (obs::HistogramMetric* h = registry->GetHistogram(
            "sim_sink_latency_seconds", labels, 0.0, kSinkLatencyHistogramMaxSeconds,
            kSinkLatencyHistogramBins)) {
      for (double sample : metrics.sink_latency.samples()) h->Observe(sample);
    }
    if (obs::Gauge* g = registry->GetGauge("sim_sink_latency_mean_seconds", labels)) {
      g->Set(metrics.sink_latency.mean());
    }
    if (obs::Gauge* g = registry->GetGauge("sim_sink_latency_p50_seconds", labels)) {
      g->Set(metrics.sink_latency.Percentile(50.0));
    }
    if (obs::Gauge* g = registry->GetGauge("sim_sink_latency_p95_seconds", labels)) {
      g->Set(metrics.sink_latency.Percentile(95.0));
    }
    if (obs::Gauge* g = registry->GetGauge("sim_sink_latency_p99_seconds", labels)) {
      g->Set(metrics.sink_latency.Percentile(99.0));
    }
  }
}

std::string RunSummaryFromRegistry(const obs::MetricsRegistry& registry,
                                   const obs::MetricsRegistry::Labels& labels) {
  auto counter = [&](const char* name) -> double {
    const obs::Counter* c = registry.FindCounter(name, labels);
    return c == nullptr ? 0.0 : c->value();
  };
  auto gauge = [&](const char* name) -> double {
    const obs::Gauge* g = registry.FindGauge(name, labels);
    return g == nullptr ? 0.0 : g->value();
  };
  std::string summary = StrFormat(
      "drops=%llu lost=%llu switches=%llu worst_queue_depth=%llu in=%llu "
      "out=%llu",
      static_cast<unsigned long long>(counter("sim_dropped_tuples")),
      static_cast<unsigned long long>(counter("sim_lost_tuples")),
      static_cast<unsigned long long>(counter("sim_activation_switches")),
      static_cast<unsigned long long>(gauge("sim_max_queue_depth")),
      static_cast<unsigned long long>(counter("sim_source_tuples")),
      static_cast<unsigned long long>(counter("sim_sink_tuples")));
  if (registry.FindGauge("sim_sink_latency_mean_seconds", labels) != nullptr) {
    summary += StrFormat(" latency_mean=%.4gs latency_p95=%.4gs",
                         gauge("sim_sink_latency_mean_seconds"),
                         gauge("sim_sink_latency_p95_seconds"));
  }
  return summary;
}

std::string AggregateRunSummaryFromRegistry(const obs::MetricsRegistry& registry) {
  return StrFormat(
      "drops=%llu lost=%llu switches=%llu worst_queue_depth=%llu in=%llu "
      "out=%llu",
      static_cast<unsigned long long>(registry.SumCounters("sim_dropped_tuples")),
      static_cast<unsigned long long>(registry.SumCounters("sim_lost_tuples")),
      static_cast<unsigned long long>(registry.SumCounters("sim_activation_switches")),
      static_cast<unsigned long long>(registry.MaxGauge("sim_max_queue_depth")),
      static_cast<unsigned long long>(registry.SumCounters("sim_source_tuples")),
      static_cast<unsigned long long>(registry.SumCounters("sim_sink_tuples")));
}

}  // namespace laar::dsps
