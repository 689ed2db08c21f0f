// Tests of the declarative health/alert layer: rule parsing, threshold
// evaluation over recorded time series and gauges, and the trace-event
// bridge.

#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "laar/obs/health.h"
#include "laar/obs/metrics_registry.h"
#include "laar/obs/trace_event.h"
#include "laar/obs/trace_recorder.h"

namespace laar {
namespace {

// ----------------------------------------------------------------- parsing

TEST(AlertRuleParseTest, FullForm) {
  auto rule = obs::ParseAlertRule("backlog: ts_queue_depth{pe=3} > 50 for 5 warn");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_EQ(rule->name, "backlog");
  EXPECT_EQ(rule->series, "ts_queue_depth");
  ASSERT_EQ(rule->labels.size(), 1u);
  EXPECT_EQ(rule->labels[0].first, "pe");
  EXPECT_EQ(rule->labels[0].second, "3");
  EXPECT_EQ(rule->comparison, obs::AlertComparison::kAbove);
  EXPECT_DOUBLE_EQ(rule->threshold, 50.0);
  EXPECT_DOUBLE_EQ(rule->for_seconds, 5.0);
  EXPECT_EQ(rule->severity, obs::AlertSeverity::kWarning);
  EXPECT_FALSE(rule->ToString().empty());
}

TEST(AlertRuleParseTest, DefaultsAndMinimalForm) {
  auto rule = obs::ParseAlertRule("ts_drop_rate > 0");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_EQ(rule->name, "ts_drop_rate");  // name defaults to the series
  EXPECT_EQ(rule->series, "ts_drop_rate");
  EXPECT_TRUE(rule->labels.empty());
  EXPECT_DOUBLE_EQ(rule->for_seconds, 0.0);
  EXPECT_EQ(rule->severity, obs::AlertSeverity::kCritical);  // default crit

  auto below = obs::ParseAlertRule("ts_output_rate < 1.5 crit");
  ASSERT_TRUE(below.ok());
  EXPECT_EQ(below->comparison, obs::AlertComparison::kBelow);
  EXPECT_DOUBLE_EQ(below->threshold, 1.5);
}

TEST(AlertRuleParseTest, RejectsMalformedRules) {
  EXPECT_FALSE(obs::ParseAlertRule("").ok());
  EXPECT_FALSE(obs::ParseAlertRule("no_comparison 5").ok());
  EXPECT_FALSE(obs::ParseAlertRule("x > notanumber").ok());
  EXPECT_FALSE(obs::ParseAlertRule("x > 5 for").ok());          // missing duration
  EXPECT_FALSE(obs::ParseAlertRule("x > 5 sometimes").ok());    // unknown token
  EXPECT_FALSE(obs::ParseAlertRule("x{unclosed > 5").ok());     // bad label block
  EXPECT_FALSE(obs::ParseAlertRule("x{k} > 5").ok());           // label without value
  EXPECT_FALSE(obs::ParseAlertRule("x > 5 warn crit").ok());    // duplicate severity
  EXPECT_FALSE(obs::ParseAlertRule("x > inf").ok());            // never fires
  EXPECT_FALSE(obs::ParseAlertRule("x < 1e400").ok());          // overflows to inf
  EXPECT_FALSE(obs::ParseAlertRule("x > 5 for inf").ok());      // never sustained
  EXPECT_FALSE(obs::ParseAlertRule(std::string_view("x > 5\0junk", 11)).ok());
}

TEST(AlertRuleParseTest, SemicolonListSkipsEmptySegments) {
  auto rules = obs::ParseAlertRules("a > 1; ;b < 2 warn;");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules->size(), 2u);
  EXPECT_EQ((*rules)[0].series, "a");
  EXPECT_EQ((*rules)[1].series, "b");
  EXPECT_FALSE(obs::ParseAlertRules("a > 1; bogus").ok());
}

// -------------------------------------------------------------- evaluation

obs::TimeSeries* Series(obs::MetricsRegistry* registry, const std::string& name,
                        const obs::MetricsRegistry::Labels& labels = {}) {
  obs::TimeSeries* series = registry->GetTimeSeries(name, labels, 64);
  EXPECT_NE(series, nullptr);
  return series;
}

TEST(EvaluateHealthTest, FiresOnViolationAndStaysQuietBelowThreshold) {
  obs::MetricsRegistry registry;
  obs::TimeSeries* depth = Series(&registry, "ts_queue_depth", {{"pe", "1"}});
  for (int i = 0; i < 5; ++i) depth->Append(i, 10.0);
  depth->Append(5.0, 80.0);
  depth->Append(6.0, 90.0);
  depth->Append(7.0, 10.0);

  auto rules = obs::ParseAlertRules("backlog: ts_queue_depth > 50");
  ASSERT_TRUE(rules.ok());
  const obs::HealthReport report = obs::EvaluateHealth(registry, *rules);
  EXPECT_FALSE(report.healthy);  // default severity is crit
  ASSERT_EQ(report.incidents.size(), 1u);
  const obs::AlertIncident& incident = report.incidents[0];
  EXPECT_EQ(incident.rule, "backlog");
  EXPECT_EQ(incident.series_key, "ts_queue_depth{pe=1}");
  EXPECT_DOUBLE_EQ(incident.first_at, 5.0);
  EXPECT_DOUBLE_EQ(incident.last_at, 6.0);
  EXPECT_DOUBLE_EQ(incident.peak_value, 90.0);
  EXPECT_EQ(incident.samples, 2u);

  // Strictly-above semantics: samples equal to the threshold never violate,
  // and a run that stays at or below the threshold is healthy.
  auto at_threshold = obs::ParseAlertRules("ts_queue_depth > 90");
  ASSERT_TRUE(at_threshold.ok());
  const obs::HealthReport quiet = obs::EvaluateHealth(registry, *at_threshold);
  EXPECT_TRUE(quiet.healthy);
  EXPECT_TRUE(quiet.incidents.empty());
}

TEST(EvaluateHealthTest, SustainedRuleNeedsTheFullDuration) {
  obs::MetricsRegistry registry;
  obs::TimeSeries* util = Series(&registry, "ts_host_cpu_util");
  // Two violating streaks: [2, 4] spans 2 s; [8, 13] spans 5 s.
  const double values[] = {0.1, 0.1, 0.99, 0.99, 0.99, 0.1, 0.1, 0.1,
                           0.99, 0.99, 0.99, 0.99, 0.99, 0.99, 0.1};
  for (int i = 0; i < 15; ++i) util->Append(i, values[i]);

  auto sustained = obs::ParseAlertRules("saturation: ts_host_cpu_util > 0.9 for 3 warn");
  ASSERT_TRUE(sustained.ok());
  const obs::HealthReport report = obs::EvaluateHealth(registry, *sustained);
  EXPECT_TRUE(report.healthy);  // warnings never fail the run
  ASSERT_EQ(report.incidents.size(), 1u);  // only the 5 s streak qualifies
  EXPECT_DOUBLE_EQ(report.incidents[0].first_at, 8.0);
  EXPECT_DOUBLE_EQ(report.incidents[0].duration, 5.0);
  EXPECT_EQ(report.incidents[0].severity, obs::AlertSeverity::kWarning);

  // Boundary: requiring exactly the streak's span still fires; requiring
  // more does not.
  auto exact = obs::ParseAlertRules("ts_host_cpu_util > 0.9 for 5");
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(obs::EvaluateHealth(registry, *exact).incidents.size(), 1u);
  auto longer = obs::ParseAlertRules("ts_host_cpu_util > 0.9 for 6");
  ASSERT_TRUE(longer.ok());
  EXPECT_TRUE(obs::EvaluateHealth(registry, *longer).incidents.empty());
}

TEST(EvaluateHealthTest, LabelSubsetSelectsSeriesAndGaugesAreEvaluated) {
  obs::MetricsRegistry registry;
  Series(&registry, "ts_queue_depth", {{"pe", "1"}, {"scenario", "best-case"}})
      ->Append(1.0, 100.0);
  Series(&registry, "ts_queue_depth", {{"pe", "2"}, {"scenario", "best-case"}})
      ->Append(1.0, 5.0);
  registry.GetGauge("sim_sink_latency_p99_seconds")->Set(2.5);

  auto rules = obs::ParseAlertRules(
      "hot: ts_queue_depth{pe=1} > 50; slo: sim_sink_latency_p99_seconds > 2");
  ASSERT_TRUE(rules.ok());
  const obs::HealthReport report = obs::EvaluateHealth(registry, *rules);
  ASSERT_EQ(report.incidents.size(), 2u);  // pe=2 matched the label filter out
  // Incidents sort by first_at; gauges snapshot at time 0, before the series.
  EXPECT_EQ(report.incidents[0].rule, "slo");
  EXPECT_DOUBLE_EQ(report.incidents[0].peak_value, 2.5);
  EXPECT_EQ(report.incidents[1].rule, "hot");
  EXPECT_EQ(report.incidents[1].series_key, "ts_queue_depth{pe=1,scenario=best-case}");

  // Below-comparison on a gauge.
  auto below = obs::ParseAlertRules("throughput: sim_sink_latency_p99_seconds < 3");
  ASSERT_TRUE(below.ok());
  EXPECT_EQ(obs::EvaluateHealth(registry, *below).incidents.size(), 1u);

  // The report embeds the evaluated series and serializes deterministically.
  EXPECT_FALSE(report.series.empty());
  EXPECT_EQ(report.ToJson().Dump(),
            obs::EvaluateHealth(registry, *rules).ToJson().Dump());
  EXPECT_NE(report.ToString().find("hot"), std::string::npos);
}

TEST(EvaluateHealthTest, EmitAlertEventsLandsOnTheHealthCategory) {
  obs::MetricsRegistry registry;
  Series(&registry, "ts_drop_rate")->Append(3.0, 12.0);
  auto rules = obs::ParseAlertRules("drops: ts_drop_rate > 0");
  ASSERT_TRUE(rules.ok());
  const obs::HealthReport report = obs::EvaluateHealth(registry, *rules);
  ASSERT_EQ(report.incidents.size(), 1u);

  obs::TraceRecorder recorder;
  obs::EmitAlertEvents(&recorder, report);
  const std::vector<obs::TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, obs::EventName::kAlert);
  EXPECT_DOUBLE_EQ(events[0].time, 3.0);
  EXPECT_DOUBLE_EQ(events[0].value, 12.0);

  // A recorder that filters out the health category records nothing.
  obs::TraceRecorder::Options options;
  options.categories = static_cast<uint32_t>(obs::Category::kDrops);
  obs::TraceRecorder filtered(options);
  obs::EmitAlertEvents(&filtered, report);
  EXPECT_EQ(filtered.size(), 0u);
  obs::EmitAlertEvents(nullptr, report);  // null recorder is a no-op
}

}  // namespace
}  // namespace laar
