#include "laar/obs/run_diff.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "laar/common/strings.h"
#include "laar/obs/loss_ledger.h"
#include "laar/obs/run_info.h"

namespace laar::obs {

namespace {

struct Scalars {
  std::map<std::string, double> values;
};

struct SeriesStats {
  size_t points = 0;
  double sum = 0.0;
  double peak = 0.0;
};

std::string KeyOf(const json::Value& metric) {
  std::string key = metric.GetOr("name", json::Value::String("?")).string_value();
  const json::Value labels = metric.GetOr("labels", json::Value::MakeObject());
  if (labels.is_object() && !labels.object().empty()) {
    key += '{';
    bool first = true;
    for (const auto& [k, v] : labels.object()) {
      if (!first) key += ',';
      first = false;
      key += k;
      key += '=';
      key += v.is_string() ? v.string_value() : v.Dump();
    }
    key += '}';
  }
  return key;
}

/// Flattens one registry document into comparable scalar and series maps.
Status Flatten(const json::Value& doc, Scalars* scalars,
               std::map<std::string, SeriesStats>* series) {
  const json::Value metrics = doc.GetOr("metrics", json::Value::MakeArray());
  if (!metrics.is_array()) {
    return Status::InvalidArgument("'metrics' must be an array");
  }
  for (const json::Value& metric : metrics.array()) {
    if (!metric.is_object()) continue;
    const std::string key = KeyOf(metric);
    const std::string type =
        metric.GetOr("type", json::Value::String("")).string_value();
    if (type == "counter" || type == "gauge") {
      scalars->values[key] =
          metric.GetOr("value", json::Value::Number(0.0)).number_value();
    } else if (type == "histogram") {
      const auto count = metric.GetOr("count", json::Value::Int(0)).AsInt();
      scalars->values[key + ".count"] =
          count.ok() ? static_cast<double>(*count) : 0.0;
      scalars->values[key + ".sum"] =
          metric.GetOr("sum", json::Value::Number(0.0)).number_value();
    } else if (type == "timeseries") {
      SeriesStats stats;
      const json::Value samples = metric.GetOr("samples", json::Value::MakeArray());
      for (const json::Value& sample : samples.array()) {
        if (!sample.is_array() || sample.array().size() < 2) continue;
        const double value = sample.array()[1].number_value();
        ++stats.points;
        stats.sum += value;
        stats.peak = std::max(stats.peak, value);
      }
      (*series)[key] = stats;
    }
  }
  return Status::OK();
}

bool IsEngineProfile(const json::Value& doc) {
  return doc.is_object() &&
         doc.GetOr("schema", json::Value::String("")).string_value() ==
             "laar-engine-profile-v1";
}

/// Recursively flattens every numeric (and boolean) leaf of `node` into
/// dotted/indexed keys under `prefix`. Strings (e.g. series digests) are
/// skipped — digest inequality already shows up through the numeric summary
/// fields next to them.
void FlattenJsonNumbers(const json::Value& node, const std::string& prefix,
                        std::map<std::string, double>* out) {
  if (node.is_number()) {
    (*out)[prefix] = node.number_value();
  } else if (node.is_bool()) {
    (*out)[prefix] = node.bool_value() ? 1.0 : 0.0;
  } else if (node.is_object()) {
    for (const auto& [key, value] : node.object()) {
      FlattenJsonNumbers(value, prefix + "." + key, out);
    }
  } else if (node.is_array()) {
    const auto& items = node.array();
    for (size_t i = 0; i < items.size(); ++i) {
      FlattenJsonNumbers(items[i], StrFormat("%s[%zu]", prefix.c_str(), i), out);
    }
  }
}

/// Flattens one engine-profile document: the deterministic section joins the
/// verdict-participating scalars, the measured section goes to the
/// informational map. Phase records are dropped — thousands of raw timings
/// per run, already summarized by the totals kept here.
void FlattenProfile(const json::Value& doc, Scalars* scalars,
                    Scalars* measured) {
  const json::Value empty_object = json::Value::MakeObject();
  FlattenJsonNumbers(doc.GetOr("deterministic", empty_object), "prof",
                     &scalars->values);
  json::Value measured_section = doc.GetOr("measured", empty_object);
  measured_section.Erase("phase_records");
  measured_section.Erase("phase_records_truncated");
  FlattenJsonNumbers(measured_section, "prof", &measured->values);
}

bool Same(double a, double b) {
  // Registry values survive a JSON round-trip ("%.17g"), so exact equality
  // is the right notion of "unchanged".
  return a == b || (std::isnan(a) && std::isnan(b));
}

std::string FormatDelta(double a, double b) {
  std::string out = StrFormat("%.6g -> %.6g", a, b);
  if (a != 0.0) out += StrFormat(" (%+.1f%%)", 100.0 * (b - a) / a);
  return out;
}

}  // namespace

json::Value DiffReport::ToJson() const {
  json::Value doc = json::Value::MakeObject();
  doc.Set("comparable", json::Value::Bool(workload_mismatches.empty()));
  json::Value mismatches = json::Value::MakeArray();
  for (const std::string& text : workload_mismatches) {
    mismatches.Append(json::Value::String(text));
  }
  doc.Set("workload_mismatches", std::move(mismatches));
  json::Value scalar_list = json::Value::MakeArray();
  for (const Delta& delta : scalars) {
    json::Value entry = json::Value::MakeObject();
    entry.Set("key", json::Value::String(delta.key));
    if (delta.in_a) entry.Set("a", json::Value::Number(delta.a));
    if (delta.in_b) entry.Set("b", json::Value::Number(delta.b));
    scalar_list.Append(std::move(entry));
  }
  doc.Set("scalars", std::move(scalar_list));
  doc.Set("scalars_compared", json::Value::Int(static_cast<int64_t>(scalars_compared)));
  if (has_profile) {
    json::Value measured_list = json::Value::MakeArray();
    for (const Delta& delta : measured) {
      json::Value entry = json::Value::MakeObject();
      entry.Set("key", json::Value::String(delta.key));
      if (delta.in_a) entry.Set("a", json::Value::Number(delta.a));
      if (delta.in_b) entry.Set("b", json::Value::Number(delta.b));
      measured_list.Append(std::move(entry));
    }
    doc.Set("measured", std::move(measured_list));
    doc.Set("measured_compared",
            json::Value::Int(static_cast<int64_t>(measured_compared)));
  }
  json::Value series_list = json::Value::MakeArray();
  for (const SeriesDelta& delta : series) {
    json::Value entry = json::Value::MakeObject();
    entry.Set("key", json::Value::String(delta.key));
    entry.Set("points_a", json::Value::Int(static_cast<int64_t>(delta.points_a)));
    entry.Set("points_b", json::Value::Int(static_cast<int64_t>(delta.points_b)));
    entry.Set("sum_a", json::Value::Number(delta.sum_a));
    entry.Set("sum_b", json::Value::Number(delta.sum_b));
    entry.Set("peak_a", json::Value::Number(delta.peak_a));
    entry.Set("peak_b", json::Value::Number(delta.peak_b));
    series_list.Append(std::move(entry));
  }
  doc.Set("series", std::move(series_list));
  doc.Set("series_compared", json::Value::Int(static_cast<int64_t>(series_compared)));
  if (has_ledger) {
    json::Value loss_list = json::Value::MakeArray();
    for (const LossDelta& delta : losses) {
      json::Value entry = json::Value::MakeObject();
      entry.Set("key", json::Value::String(delta.key));
      entry.Set("a", json::Value::Int(static_cast<int64_t>(delta.a)));
      entry.Set("b", json::Value::Int(static_cast<int64_t>(delta.b)));
      loss_list.Append(std::move(entry));
    }
    doc.Set("losses", std::move(loss_list));
    doc.Set("lost_a", json::Value::Int(static_cast<int64_t>(lost_a)));
    doc.Set("lost_b", json::Value::Int(static_cast<int64_t>(lost_b)));
  }
  doc.Set("verdict", json::Value::String(verdict));
  return doc;
}

std::string DiffReport::ToString() const {
  std::string out;
  if (!workload_mismatches.empty()) {
    out += "NOT COMPARABLE — the runs measured different workloads:\n";
    for (const std::string& text : workload_mismatches) out += "  " + text + "\n";
  } else if (has_run_info) {
    out += "runs are comparable (same workload stamp)\n";
  }
  if (has_ledger) {
    out += StrFormat("loss ledger: %llu -> %llu lost tuple copies\n",
                     static_cast<unsigned long long>(lost_a),
                     static_cast<unsigned long long>(lost_b));
    for (const LossDelta& delta : losses) {
      out += StrFormat("  %-24s %10llu -> %-10llu\n", delta.key.c_str(),
                       static_cast<unsigned long long>(delta.a),
                       static_cast<unsigned long long>(delta.b));
    }
  }
  out += StrFormat("scalars: %zu of %zu differ\n", scalars.size(), scalars_compared);
  for (const Delta& delta : scalars) {
    if (!delta.in_a) {
      out += StrFormat("  %-40s (only in B) %.6g\n", delta.key.c_str(), delta.b);
    } else if (!delta.in_b) {
      out += StrFormat("  %-40s (only in A) %.6g\n", delta.key.c_str(), delta.a);
    } else {
      out += StrFormat("  %-40s %s\n", delta.key.c_str(),
                       FormatDelta(delta.a, delta.b).c_str());
    }
  }
  if (has_profile) {
    out += StrFormat(
        "measured wall-clock (informational, never in the verdict): "
        "%zu of %zu differ\n",
        measured.size(), measured_compared);
    for (const Delta& delta : measured) {
      if (!delta.in_a) {
        out += StrFormat("  %-40s (only in B) %.6g\n", delta.key.c_str(), delta.b);
      } else if (!delta.in_b) {
        out += StrFormat("  %-40s (only in A) %.6g\n", delta.key.c_str(), delta.a);
      } else {
        out += StrFormat("  %-40s %s\n", delta.key.c_str(),
                         FormatDelta(delta.a, delta.b).c_str());
      }
    }
  }
  if (series_compared > 0) {
    out += StrFormat("timeseries: %zu of %zu differ\n", series.size(),
                     series_compared);
    for (const SeriesDelta& delta : series) {
      out += StrFormat("  %-40s sum %s, peak %s\n", delta.key.c_str(),
                       FormatDelta(delta.sum_a, delta.sum_b).c_str(),
                       FormatDelta(delta.peak_a, delta.peak_b).c_str());
    }
  }
  out += "verdict: " + verdict + "\n";
  return out;
}

Result<DiffReport> DiffRuns(const json::Value& run_a, const json::Value& run_b) {
  if (!run_a.is_object() || !run_b.is_object()) {
    return Status::InvalidArgument("run artifacts must be JSON objects");
  }
  DiffReport report;

  const auto info_a = run_a.Get("run_info");
  const auto info_b = run_b.Get("run_info");
  if (info_a.ok() && info_b.ok()) {
    LAAR_ASSIGN_OR_RETURN(const RunInfo a, RunInfo::FromJson(**info_a));
    LAAR_ASSIGN_OR_RETURN(const RunInfo b, RunInfo::FromJson(**info_b));
    report.has_run_info = true;
    report.workload_mismatches = WorkloadMismatches(a, b);
  }

  Scalars scalars_a, scalars_b;
  std::map<std::string, SeriesStats> series_a, series_b;
  LAAR_RETURN_IF_ERROR(Flatten(run_a, &scalars_a, &series_a));
  LAAR_RETURN_IF_ERROR(Flatten(run_b, &scalars_b, &series_b));

  // Engine-profile documents: deterministic "prof.*" scalars join the
  // verdict like any counter; measured wall-clock stays informational.
  const bool profile_a = IsEngineProfile(run_a);
  const bool profile_b = IsEngineProfile(run_b);
  Scalars measured_a, measured_b;
  if (profile_a != profile_b) {
    report.workload_mismatches.push_back(
        "document kinds differ: only one side is an engine profile");
  } else if (profile_a && profile_b) {
    report.has_profile = true;
    FlattenProfile(run_a, &scalars_a, &measured_a);
    FlattenProfile(run_b, &scalars_b, &measured_b);
  }

  std::map<std::string, std::pair<const double*, const double*>> merged;
  for (const auto& [key, value] : scalars_a.values) merged[key].first = &value;
  for (const auto& [key, value] : scalars_b.values) merged[key].second = &value;
  report.scalars_compared = merged.size();
  for (const auto& [key, sides] : merged) {
    DiffReport::Delta delta;
    delta.key = key;
    delta.in_a = sides.first != nullptr;
    delta.in_b = sides.second != nullptr;
    if (delta.in_a) delta.a = *sides.first;
    if (delta.in_b) delta.b = *sides.second;
    if (delta.in_a && delta.in_b && Same(delta.a, delta.b)) continue;
    report.scalars.push_back(std::move(delta));
  }

  std::map<std::string, std::pair<const double*, const double*>> measured_merged;
  for (const auto& [key, value] : measured_a.values)
    measured_merged[key].first = &value;
  for (const auto& [key, value] : measured_b.values)
    measured_merged[key].second = &value;
  report.measured_compared = measured_merged.size();
  for (const auto& [key, sides] : measured_merged) {
    DiffReport::Delta delta;
    delta.key = key;
    delta.in_a = sides.first != nullptr;
    delta.in_b = sides.second != nullptr;
    if (delta.in_a) delta.a = *sides.first;
    if (delta.in_b) delta.b = *sides.second;
    if (delta.in_a && delta.in_b && Same(delta.a, delta.b)) continue;
    report.measured.push_back(std::move(delta));
  }

  std::map<std::string, std::pair<const SeriesStats*, const SeriesStats*>>
      series_merged;
  for (const auto& [key, stats] : series_a) series_merged[key].first = &stats;
  for (const auto& [key, stats] : series_b) series_merged[key].second = &stats;
  report.series_compared = series_merged.size();
  for (const auto& [key, sides] : series_merged) {
    static const SeriesStats kEmpty;
    const SeriesStats& a = sides.first != nullptr ? *sides.first : kEmpty;
    const SeriesStats& b = sides.second != nullptr ? *sides.second : kEmpty;
    if (sides.first != nullptr && sides.second != nullptr &&
        a.points == b.points && Same(a.sum, b.sum) && Same(a.peak, b.peak)) {
      continue;
    }
    DiffReport::SeriesDelta delta;
    delta.key = key;
    delta.in_a = sides.first != nullptr;
    delta.in_b = sides.second != nullptr;
    delta.points_a = a.points;
    delta.points_b = b.points;
    delta.sum_a = a.sum;
    delta.sum_b = b.sum;
    delta.peak_a = a.peak;
    delta.peak_b = b.peak;
    report.series.push_back(std::move(delta));
  }

  const auto ledger_a_json = run_a.Get("loss_ledger");
  const auto ledger_b_json = run_b.Get("loss_ledger");
  if (ledger_a_json.ok() && ledger_b_json.ok()) {
    LAAR_ASSIGN_OR_RETURN(const LossLedger ledger_a,
                          LossLedger::FromJson(**ledger_a_json));
    LAAR_ASSIGN_OR_RETURN(const LossLedger ledger_b,
                          LossLedger::FromJson(**ledger_b_json));
    report.has_ledger = true;
    report.lost_a = ledger_a.Total();
    report.lost_b = ledger_b.Total();
    for (size_t c = 0; c < kLossCauseCount; ++c) {
      const LossCause cause = static_cast<LossCause>(c);
      if (ledger_a.TotalOf(cause) == ledger_b.TotalOf(cause)) continue;
      report.losses.push_back(DiffReport::LossDelta{
          LossCauseName(cause), ledger_a.TotalOf(cause), ledger_b.TotalOf(cause)});
    }
  }

  // The verdict leads with what the paper cares about: loss. Ledgers when
  // stamped, the canonical drop counter otherwise.
  const auto scalar_or = [](const Scalars& scalars, const char* key) {
    const auto it = scalars.values.find(key);
    return it == scalars.values.end() ? 0.0 : it->second;
  };
  double loss_a = static_cast<double>(report.lost_a);
  double loss_b = static_cast<double>(report.lost_b);
  if (!report.has_ledger) {
    loss_a = scalar_or(scalars_a, "sim_dropped_tuples");
    loss_b = scalar_or(scalars_b, "sim_dropped_tuples");
  }
  // Flag-only mismatches are the normal A/B shape — comparing placements or
  // strategies on the same seeded workload — so they annotate the verdict
  // instead of voiding it. A different tool, seed, or build, though, means
  // the runs did not measure the same thing.
  bool incomparable = false;
  for (const std::string& mismatch : report.workload_mismatches) {
    if (mismatch.rfind("only in", 0) != 0) incomparable = true;
  }
  std::string intervention;
  if (!incomparable && !report.workload_mismatches.empty()) {
    intervention = StrFormat("; A/B differs in %zu flags",
                             report.workload_mismatches.size());
  }
  if (incomparable) {
    report.verdict = StrFormat("incomparable runs (%zu workload mismatches); "
                               "deltas above are indicative only",
                               report.workload_mismatches.size());
  } else if (report.has_profile && !report.has_ledger) {
    // Profile-vs-profile: the deterministic section is the verdict; the
    // measured timings never are (a byte-identical rerun still times
    // differently).
    report.verdict = StrFormat(
        "engine profiles: %zu/%zu deterministic entries differ "
        "(%zu measured wall-clock deltas are informational only)%s",
        report.scalars.size(), report.scalars_compared, report.measured.size(),
        intervention.c_str());
  } else if (loss_a == loss_b) {
    report.verdict = StrFormat("equal loss (%.0f tuple copies); %zu/%zu metrics differ%s",
                               loss_a, report.scalars.size(), report.scalars_compared,
                               intervention.c_str());
  } else {
    const bool improved = loss_b < loss_a;
    std::string relative;
    if (loss_a != 0.0) {
      relative = StrFormat(", %+.1f%%", 100.0 * (loss_b - loss_a) / loss_a);
    }
    report.verdict = StrFormat(
        "B loses %.0f %s tuple copies than A (%.0f -> %.0f%s); %zu/%zu metrics differ%s",
        std::abs(loss_b - loss_a), improved ? "fewer" : "more", loss_a, loss_b,
        relative.c_str(), report.scalars.size(), report.scalars_compared,
        intervention.c_str());
  }
  return report;
}

}  // namespace laar::obs
