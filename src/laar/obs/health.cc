#include "laar/obs/health.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "laar/common/strings.h"

namespace laar::obs {

const char* AlertSeverityName(AlertSeverity severity) {
  switch (severity) {
    case AlertSeverity::kWarning:
      return "warning";
    case AlertSeverity::kCritical:
      return "critical";
  }
  return "unknown";
}

std::string AlertRule::ToString() const {
  std::string labels_text;
  if (!labels.empty()) {
    labels_text += '{';
    for (size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) labels_text += ',';
      labels_text += labels[i].first;
      labels_text += '=';
      labels_text += labels[i].second;
    }
    labels_text += '}';
  }
  std::string out = StrFormat("%s: %s%s %c %g", name.c_str(), series.c_str(),
                              labels_text.c_str(),
                              comparison == AlertComparison::kAbove ? '>' : '<', threshold);
  if (for_seconds > 0.0) out += StrFormat(" for %g", for_seconds);
  out += severity == AlertSeverity::kCritical ? " crit" : " warn";
  return out;
}

namespace {

Status ParseError(std::string_view rule, const char* why) {
  return Status::InvalidArgument(
      StrFormat("bad alert rule \"%.*s\": %s", static_cast<int>(rule.size()), rule.data(),
                why));
}

/// Parses a strictly numeric, finite token (no trailing junk, not even
/// after an embedded NUL): a threshold of NaN or infinity would silently
/// never, or always, fire.
bool ParseNumber(std::string_view token, double* out) {
  const std::string text(token);
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || end != text.c_str() + text.size() || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

Result<AlertRule> ParseAlertRule(std::string_view text) {
  const std::string_view original = StrTrim(text);
  std::string_view rest = original;
  if (rest.empty()) return ParseError(original, "empty rule");

  AlertRule rule;

  // Optional `name:` prefix — a colon before the comparison operator.
  const size_t colon = rest.find(':');
  const size_t cmp_probe = rest.find_first_of("<>");
  if (colon != std::string_view::npos &&
      (cmp_probe == std::string_view::npos || colon < cmp_probe)) {
    rule.name = std::string(StrTrim(rest.substr(0, colon)));
    if (rule.name.empty()) return ParseError(original, "empty rule name");
    rest = StrTrim(rest.substr(colon + 1));
  }

  const size_t cmp = rest.find_first_of("<>");
  if (cmp == std::string_view::npos) {
    return ParseError(original, "missing comparison operator (> or <)");
  }
  rule.comparison =
      rest[cmp] == '>' ? AlertComparison::kAbove : AlertComparison::kBelow;

  // Series name with optional `{k=v,...}` label selector.
  std::string_view series = StrTrim(rest.substr(0, cmp));
  if (const size_t brace = series.find('{'); brace != std::string_view::npos) {
    if (series.back() != '}') return ParseError(original, "unterminated label block");
    const std::string_view labels = series.substr(brace + 1, series.size() - brace - 2);
    for (const std::string& pair : StrSplit(labels, ',')) {
      const std::string_view trimmed = StrTrim(pair);
      if (trimmed.empty()) continue;
      const size_t eq = trimmed.find('=');
      if (eq == std::string_view::npos || eq == 0) {
        return ParseError(original, "label selector must be key=value");
      }
      rule.labels.emplace_back(std::string(StrTrim(trimmed.substr(0, eq))),
                               std::string(StrTrim(trimmed.substr(eq + 1))));
    }
    series = StrTrim(series.substr(0, brace));
  }
  if (series.empty()) return ParseError(original, "missing series name");
  rule.series = std::string(series);
  if (rule.name.empty()) rule.name = rule.series;

  // After the operator, accept exactly: THRESHOLD [for SECONDS] [warn|crit].
  std::vector<std::string> tokens;
  for (const std::string& token : StrSplit(rest.substr(cmp + 1), ' ')) {
    if (!StrTrim(token).empty()) tokens.push_back(std::string(StrTrim(token)));
  }
  if (tokens.empty()) return ParseError(original, "missing threshold");
  if (!ParseNumber(tokens[0], &rule.threshold)) {
    return ParseError(original, "threshold is not a number");
  }
  size_t i = 1;
  if (i < tokens.size() && tokens[i] == "for") {
    if (i + 1 >= tokens.size() || !ParseNumber(tokens[i + 1], &rule.for_seconds) ||
        rule.for_seconds < 0.0) {
      return ParseError(original, "`for` needs a non-negative duration in seconds");
    }
    i += 2;
  }
  if (i < tokens.size()) {
    if (tokens[i] == "warn") {
      rule.severity = AlertSeverity::kWarning;
    } else if (tokens[i] == "crit") {
      rule.severity = AlertSeverity::kCritical;
    } else {
      return ParseError(original, "trailing tokens (expected `for N`, `warn` or `crit`)");
    }
    ++i;
  }
  if (i < tokens.size()) return ParseError(original, "trailing tokens after severity");
  return rule;
}

Result<std::vector<AlertRule>> ParseAlertRules(std::string_view text) {
  std::vector<AlertRule> rules;
  for (const std::string& segment : StrSplit(text, ';')) {
    if (StrTrim(segment).empty()) continue;
    Result<AlertRule> rule = ParseAlertRule(segment);
    if (!rule.ok()) return rule.status();
    rules.push_back(std::move(rule).value());
  }
  return rules;
}

namespace {

std::string SeriesKey(const std::string& name, const MetricsRegistry::Labels& labels) {
  if (labels.empty()) return name;
  std::string out = name;
  out += '{';
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first;
    out += '=';
    out += labels[i].second;
  }
  out += '}';
  return out;
}

/// Every rule label must appear (same key and value) in the series labels.
bool LabelsMatch(const MetricsRegistry::Labels& rule_labels,
                 const MetricsRegistry::Labels& series_labels) {
  for (const auto& want : rule_labels) {
    bool found = false;
    for (const auto& have : series_labels) {
      if (have == want) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

bool Violates(const AlertRule& rule, double value) {
  return rule.comparison == AlertComparison::kAbove ? value > rule.threshold
                                                    : value < rule.threshold;
}

void EvaluateRuleOnSeries(const AlertRule& rule,
                          const MetricsRegistry::SeriesSnapshot& snapshot,
                          std::vector<AlertIncident>* incidents) {
  const AlertIncident none;
  AlertIncident current = none;
  bool in_streak = false;
  bool fired = false;
  auto flush = [&]() {
    if (in_streak && fired) incidents->push_back(current);
    current = none;
    in_streak = false;
    fired = false;
  };
  for (const TimeSeries::Sample& sample : snapshot.samples) {
    if (!Violates(rule, sample.value)) {
      flush();
      continue;
    }
    if (!in_streak) {
      in_streak = true;
      current.rule = rule.name;
      current.series_key = SeriesKey(snapshot.name, snapshot.labels);
      current.severity = rule.severity;
      current.first_at = sample.time;
      current.peak_value = sample.value;
    }
    current.last_at = sample.time;
    current.duration = current.last_at - current.first_at;
    ++current.samples;
    if (rule.comparison == AlertComparison::kAbove) {
      current.peak_value = std::max(current.peak_value, sample.value);
    } else {
      current.peak_value = std::min(current.peak_value, sample.value);
    }
    if (current.duration >= rule.for_seconds) fired = true;
  }
  flush();
}

}  // namespace

HealthReport EvaluateHealth(const MetricsRegistry& registry,
                            const std::vector<AlertRule>& rules) {
  HealthReport report;
  report.rules = rules;
  report.series = registry.SnapshotTimeSeries();
  const std::vector<MetricsRegistry::SeriesSnapshot> gauges = registry.SnapshotGauges();
  for (const AlertRule& rule : rules) {
    for (const auto& snapshot : report.series) {
      if (snapshot.name != rule.series) continue;
      if (!LabelsMatch(rule.labels, snapshot.labels)) continue;
      EvaluateRuleOnSeries(rule, snapshot, &report.incidents);
    }
    for (const auto& snapshot : gauges) {
      if (snapshot.name != rule.series) continue;
      if (!LabelsMatch(rule.labels, snapshot.labels)) continue;
      EvaluateRuleOnSeries(rule, snapshot, &report.incidents);
    }
  }
  // Deterministic order regardless of rule order: by onset time, then rule.
  std::stable_sort(report.incidents.begin(), report.incidents.end(),
                   [](const AlertIncident& a, const AlertIncident& b) {
                     if (a.first_at != b.first_at) return a.first_at < b.first_at;
                     if (a.rule != b.rule) return a.rule < b.rule;
                     return a.series_key < b.series_key;
                   });
  for (const AlertIncident& incident : report.incidents) {
    if (incident.severity == AlertSeverity::kCritical) report.healthy = false;
  }
  return report;
}

json::Value HealthReport::ToJson() const {
  json::Value out = json::Value::MakeObject();
  out.Set("healthy", json::Value::Bool(healthy));
  json::Value rule_list = json::Value::MakeArray();
  for (const AlertRule& rule : rules) {
    rule_list.Append(json::Value::String(rule.ToString()));
  }
  out.Set("rules", std::move(rule_list));
  json::Value incident_list = json::Value::MakeArray();
  for (const AlertIncident& incident : incidents) {
    json::Value entry = json::Value::MakeObject();
    entry.Set("rule", json::Value::String(incident.rule));
    entry.Set("series", json::Value::String(incident.series_key));
    entry.Set("severity", json::Value::String(AlertSeverityName(incident.severity)));
    entry.Set("first_at_seconds", json::Value::Number(incident.first_at));
    entry.Set("last_at_seconds", json::Value::Number(incident.last_at));
    entry.Set("duration_seconds", json::Value::Number(incident.duration));
    entry.Set("peak_value", json::Value::Number(incident.peak_value));
    entry.Set("samples", json::Value::Int(static_cast<int64_t>(incident.samples)));
    incident_list.Append(std::move(entry));
  }
  out.Set("incidents", std::move(incident_list));
  json::Value series_list = json::Value::MakeArray();
  for (const MetricsRegistry::SeriesSnapshot& snapshot : series) {
    json::Value entry = json::Value::MakeObject();
    entry.Set("name", json::Value::String(snapshot.name));
    if (!snapshot.labels.empty()) {
      json::Value labels = json::Value::MakeObject();
      for (const auto& [k, v] : snapshot.labels) labels.Set(k, json::Value::String(v));
      entry.Set("labels", std::move(labels));
    }
    json::Value samples = json::Value::MakeArray();
    for (const TimeSeries::Sample& s : snapshot.samples) {
      json::Value pair = json::Value::MakeArray();
      pair.Append(json::Value::Number(s.time));
      pair.Append(json::Value::Number(s.value));
      samples.Append(std::move(pair));
    }
    entry.Set("samples", std::move(samples));
    series_list.Append(std::move(entry));
  }
  out.Set("series", std::move(series_list));
  return out;
}

std::string HealthReport::ToString() const {
  std::string out = StrFormat("health: %s (%zu rule%s, %zu incident%s)\n",
                              healthy ? "OK" : "UNHEALTHY", rules.size(),
                              rules.size() == 1 ? "" : "s", incidents.size(),
                              incidents.size() == 1 ? "" : "s");
  for (const AlertIncident& incident : incidents) {
    out += StrFormat("  [%s] %s on %s: peak=%g over [%g, %g] (%llu sample%s)\n",
                     AlertSeverityName(incident.severity), incident.rule.c_str(),
                     incident.series_key.c_str(), incident.peak_value, incident.first_at,
                     incident.last_at, static_cast<unsigned long long>(incident.samples),
                     incident.samples == 1 ? "" : "s");
  }
  return out;
}

void EmitAlertEvents(TraceRecorder* recorder, const HealthReport& report) {
  if (recorder == nullptr) return;
  for (const AlertIncident& incident : report.incidents) {
    recorder->Instant(EventName::kAlert, incident.first_at, /*pe=*/-1, /*replica=*/-1,
                      /*host=*/-1, /*port=*/-1, incident.peak_value);
  }
}

}  // namespace laar::obs
