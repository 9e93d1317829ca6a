#include "src/introspect/statusz.h"

#include <algorithm>
#include <cstdio>

#include "src/obs/export.h"
#include "src/obs/flight_recorder.h"

namespace balsa::introspect {

namespace {

/// Alert transitions shown (newest first).
constexpr size_t kMaxAlertEvents = 5;
/// Retained traces shown per flight-recorder list (slowest first).
constexpr size_t kMaxFlightTraces = 5;

std::string FmtF(const char* fmt, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

/// `entries` as a JSON array in the flight recorder's one export format.
std::string RetainedJsonArray(const std::vector<obs::RetainedTrace>& entries) {
  std::string out = "[";
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out += ',';
    out += obs::TraceStore::RetainedJson(entries[i]);
  }
  return out + ']';
}

int64_t CounterValue(const obs::RegistrySnapshot& snapshot,
                     const std::string& name) {
  const obs::MetricValue* m = snapshot.Find(name);
  return m == nullptr ? 0 : m->value;
}

/// Everything Statusz reports, gathered once and rendered twice.
struct StatuszData {
  int64_t requests = 0;
  int64_t hits = 0;
  double hit_rate = 0;
  double qps = -1;  // -1 = no rate window
  struct OutcomeLatency {
    std::string outcome;
    int64_t count = 0;
    double p50 = 0, p99 = 0;
    /// Trace id tagged on the p99 bucket (0 = none); resolves in the
    /// flight recorder's retained set.
    uint64_t p99_exemplar = 0;
  };
  std::vector<OutcomeLatency> outcomes;
  struct StageLatency {
    std::string stage;
    int64_t count = 0;
    double p50 = 0, p99 = 0;
  };
  std::vector<StageLatency> stages;
  int64_t cache_entries = 0;
  int64_t cache_bytes = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t publication_epoch = 0;
  int64_t retained_bytes = 0;
  double ingest_rows_per_sec = -1;
  int64_t sampler_ticks = 0;
  size_t sampler_series = 0;
  std::vector<obs::RuleStatus> alerts;
  std::vector<obs::AlertEvent> alert_events;  // newest first, truncated
  int alerts_firing = 0;
  bool has_flight = false;
  obs::TraceStore::Stats flight;
  std::vector<obs::RetainedTrace> flight_top;  // slowest first, truncated
  /// Retained row-capped or errored requests, slowest first, truncated.
  std::vector<obs::RetainedTrace> flight_flagged;
};

StatuszData Gather(const StatuszSources& sources) {
  StatuszData data;
  const obs::RegistrySnapshot snapshot = sources.registry->Snapshot();
  const std::string p = "serving";
  data.requests = CounterValue(snapshot, p + ".requests");
  data.hits = CounterValue(snapshot, p + ".hits");
  data.hit_rate = data.requests > 0
                      ? static_cast<double>(data.hits) / data.requests
                      : 0;

  // Per-outcome request latency and per-stage span histograms both ride in
  // the snapshot under labeled names; scan by prefix so exactly what is
  // attached is what shows up.
  const std::string outcome_prefix = p + ".request_us{outcome=";
  const std::string stage_prefix = p + ".stage_us{stage=";
  for (const obs::MetricValue& m : snapshot.metrics) {
    if (m.kind != obs::MetricKind::kHistogram) continue;
    auto label_of = [&](const std::string& prefix) -> std::string {
      if (m.name.compare(0, prefix.size(), prefix) != 0) return "";
      std::string label = m.name.substr(prefix.size());
      if (!label.empty() && label.back() == '}') label.pop_back();
      return label;
    };
    std::string label = label_of(outcome_prefix);
    if (!label.empty() && m.histogram.count > 0) {
      data.outcomes.push_back({label, m.histogram.count,
                               m.histogram.Percentile(50),
                               m.histogram.Percentile(99),
                               m.histogram.PercentileExemplar(99)});
      continue;
    }
    label = label_of(stage_prefix);
    if (!label.empty() && m.histogram.count > 0) {
      data.stages.push_back({label, m.histogram.count,
                             m.histogram.Percentile(50),
                             m.histogram.Percentile(99)});
    }
  }

  data.cache_entries = CounterValue(snapshot, p + ".plan_cache.entries");
  data.cache_bytes = CounterValue(snapshot, p + ".plan_cache.approx_bytes");
  data.cache_hits = CounterValue(snapshot, p + ".plan_cache.hits");
  data.cache_misses = CounterValue(snapshot, p + ".plan_cache.misses");
  data.publication_epoch = CounterValue(snapshot, "storage.publication_epoch");
  data.retained_bytes = CounterValue(snapshot, "storage.retained_bytes");

  if (sources.monitor != nullptr) {
    const obs::HealthMonitor& monitor = *sources.monitor;
    // A rate needs two ticks in the ring; with fewer the field is omitted.
    const obs::SeriesWindow qps = monitor.GetSeries(p + ".requests");
    if (qps.points.size() >= 2) data.qps = qps.RatePerSec();
    const obs::SeriesWindow ingest =
        monitor.GetSeries("storage.changelog.rows_inserted");
    if (ingest.points.size() >= 2) {
      data.ingest_rows_per_sec = ingest.RatePerSec();
    }
    data.sampler_ticks = monitor.evaluations();
    data.sampler_series = monitor.series_count();

    data.alerts = monitor.Rules();
    for (const obs::RuleStatus& r : data.alerts) {
      if (r.state == obs::AlertState::kFiring) data.alerts_firing++;
    }
    std::vector<obs::AlertEvent> events = monitor.Events();
    for (auto it = events.rbegin();
         it != events.rend() &&
         data.alert_events.size() < kMaxAlertEvents;
         ++it) {
      data.alert_events.push_back(*it);
    }
  }

  if (sources.server != nullptr &&
      sources.server->flight_recorder().enabled()) {
    const obs::TraceStore& store = sources.server->flight_recorder();
    data.has_flight = true;
    data.flight = store.stats();
    std::vector<obs::RetainedTrace> retained = store.Retained();
    std::sort(retained.begin(), retained.end(),
              [](const obs::RetainedTrace& a, const obs::RetainedTrace& b) {
                return a.latency_us > b.latency_us;
              });
    for (const obs::RetainedTrace& entry : retained) {
      if (data.flight_top.size() < kMaxFlightTraces) {
        data.flight_top.push_back(entry);
      }
      if ((entry.capped || entry.error) &&
          data.flight_flagged.size() < kMaxFlightTraces) {
        data.flight_flagged.push_back(entry);
      }
    }
  }
  return data;
}

}  // namespace

std::string StatuszText(const StatuszSources& sources) {
  const StatuszData d = Gather(sources);
  std::string out = "== statusz ==\n";
  out += "serving: " + std::to_string(d.requests) + " requests";
  if (d.qps >= 0) out += ", " + FmtF("%.1f", d.qps) + " req/s";
  out += ", hit rate " + FmtF("%.3f", d.hit_rate) + '\n';
  if (!d.outcomes.empty()) {
    out += "  p50/p99 us by outcome:";
    for (const auto& o : d.outcomes) {
      out += " " + o.outcome + " " + FmtF("%.0f", o.p50) + "/" +
             FmtF("%.0f", o.p99);
      if (o.p99_exemplar != 0) {
        out += " ex=#" + std::to_string(o.p99_exemplar);
      }
    }
    out += '\n';
  }
  if (!d.stages.empty()) {
    out += "  p50/p99 us by stage:";
    bool first = true;
    for (const auto& s : d.stages) {
      out += first ? " " : " | ";
      first = false;
      out += s.stage + " " + FmtF("%.0f", s.p50) + "/" + FmtF("%.0f", s.p99);
    }
    out += '\n';
  }
  if (!d.alerts.empty()) {
    out += "alerts: " + std::to_string(d.alerts_firing) + " firing / " +
           std::to_string(d.alerts.size()) + " rules\n";
    for (const obs::RuleStatus& r : d.alerts) {
      out += std::string("  ") +
             (r.state == obs::AlertState::kFiring ? "FIRING " : "ok     ") +
             r.rule.name + " (" + obs::RuleKindName(r.rule.kind) + " " +
             r.rule.metric + "): " + FmtF("%.1f", r.last_value) +
             " vs " + FmtF("%.1f", r.rule.threshold) + ", fired " +
             std::to_string(r.times_fired) + "x\n";
    }
    for (const obs::AlertEvent& e : d.alert_events) {
      out += std::string("  [tick ") + std::to_string(e.tick) + "] " +
             (e.firing ? "FIRED" : "resolved") + " " + e.rule + " at " +
             FmtF("%.1f", e.value) + '\n';
    }
  }
  out += "cache: " + std::to_string(d.cache_entries) + " entries, " +
         std::to_string(d.cache_bytes) + " bytes, " +
         std::to_string(d.cache_hits) + " hits / " +
         std::to_string(d.cache_misses) + " misses\n";
  out += "storage: epoch " + std::to_string(d.publication_epoch) +
         ", retained " + std::to_string(d.retained_bytes) + " bytes";
  if (d.ingest_rows_per_sec >= 0) {
    out += ", ingest " + FmtF("%.1f", d.ingest_rows_per_sec) + " rows/s";
  }
  out += '\n';
  if (sources.monitor != nullptr) {
    out += "sampler: " + std::to_string(d.sampler_ticks) + " ticks over " +
           std::to_string(d.sampler_series) + " series\n";
  }
  if (d.has_flight) {
    out += "flight recorder: " + std::to_string(d.flight.completions) +
           " completions, retained " +
           std::to_string(d.flight.retained_top_k) + " top-k + " +
           std::to_string(d.flight.retained_outcome) + " outcome + " +
           std::to_string(d.flight.retained_reservoir) + " reservoir, " +
           std::to_string(d.flight.evicted) + " evicted\n";
    for (const obs::RetainedTrace& t : d.flight_top) {
      out += "  #" + std::to_string(t.trace_id) + " " +
             FmtF("%.1f", t.latency_us) + "us [" + t.outcome + "] " +
             t.query_name + " (" + obs::RetainReasonName(t.reason) + ", " +
             std::to_string(t.trace != nullptr ? t.trace->spans().size() : 0) +
             " spans)\n";
    }
    if (!d.flight_flagged.empty()) {
      out += "row-capped / errored requests (slowest first):\n";
    }
    for (const obs::RetainedTrace& t : d.flight_flagged) {
      out += "  #" + std::to_string(t.trace_id) + " " +
             FmtF("%.1f", t.latency_us) + "us [" + t.outcome + "] " +
             t.query_name;
      if (t.capped) {
        out += " capped: " + std::to_string(t.rows_out) + " rows in " +
               FmtF("%.1f", t.exec_micros) + "us " + t.plan_summary;
      }
      out += '\n';
    }
  }
  return out;
}

std::string StatuszJson(const StatuszSources& sources) {
  const StatuszData d = Gather(sources);
  std::string out = "{\"serving\":{";
  out += "\"requests\":" + std::to_string(d.requests);
  out += ",\"hit_rate\":" + FmtF("%.4f", d.hit_rate);
  if (d.qps >= 0) out += ",\"qps\":" + FmtF("%.1f", d.qps);
  out += ",\"outcomes\":[";
  for (size_t i = 0; i < d.outcomes.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"outcome\":\"" + obs::JsonEscape(d.outcomes[i].outcome) +
           "\",\"count\":" + std::to_string(d.outcomes[i].count) +
           ",\"p50_us\":" + FmtF("%.1f", d.outcomes[i].p50) +
           ",\"p99_us\":" + FmtF("%.1f", d.outcomes[i].p99);
    if (d.outcomes[i].p99_exemplar != 0) {
      out += ",\"p99_exemplar\":" + std::to_string(d.outcomes[i].p99_exemplar);
    }
    out += '}';
  }
  out += "],\"stages\":[";
  for (size_t i = 0; i < d.stages.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"stage\":\"" + obs::JsonEscape(d.stages[i].stage) +
           "\",\"count\":" + std::to_string(d.stages[i].count) +
           ",\"p50_us\":" + FmtF("%.1f", d.stages[i].p50) +
           ",\"p99_us\":" + FmtF("%.1f", d.stages[i].p99) + '}';
  }
  out += "]}";
  out += ",\"cache\":{\"entries\":" + std::to_string(d.cache_entries) +
         ",\"approx_bytes\":" + std::to_string(d.cache_bytes) +
         ",\"hits\":" + std::to_string(d.cache_hits) +
         ",\"misses\":" + std::to_string(d.cache_misses) + '}';
  out += ",\"storage\":{\"publication_epoch\":" +
         std::to_string(d.publication_epoch) +
         ",\"retained_bytes\":" + std::to_string(d.retained_bytes);
  if (d.ingest_rows_per_sec >= 0) {
    out += ",\"ingest_rows_per_sec\":" + FmtF("%.1f", d.ingest_rows_per_sec);
  }
  out += '}';
  if (sources.monitor != nullptr) {
    out += ",\"sampler\":{\"ticks\":" + std::to_string(d.sampler_ticks) +
           ",\"series\":" + std::to_string(d.sampler_series) + '}';
    out += ",\"alerts\":{\"firing\":" + std::to_string(d.alerts_firing) +
           ",\"rules\":[";
    for (size_t i = 0; i < d.alerts.size(); ++i) {
      if (i > 0) out += ',';
      const obs::RuleStatus& r = d.alerts[i];
      out += "{\"name\":\"" + obs::JsonEscape(r.rule.name) +
             "\",\"kind\":\"" + obs::RuleKindName(r.rule.kind) +
             "\",\"metric\":\"" + obs::JsonEscape(r.rule.metric) +
             "\",\"state\":\"" +
             (r.state == obs::AlertState::kFiring ? "firing" : "ok") +
             "\",\"value\":" + FmtF("%.1f", r.last_value) +
             ",\"threshold\":" + FmtF("%.1f", r.rule.threshold) +
             ",\"times_fired\":" + std::to_string(r.times_fired) + '}';
    }
    out += "],\"events\":[";
    for (size_t i = 0; i < d.alert_events.size(); ++i) {
      if (i > 0) out += ',';
      const obs::AlertEvent& e = d.alert_events[i];
      out += "{\"rule\":\"" + obs::JsonEscape(e.rule) + "\",\"firing\":" +
             (e.firing ? "true" : "false") +
             ",\"value\":" + FmtF("%.1f", e.value) +
             ",\"tick\":" + std::to_string(e.tick) + '}';
    }
    out += "]}";
  }
  if (d.has_flight) {
    out += ",\"flight_recorder\":{\"completions\":" +
           std::to_string(d.flight.completions) +
           ",\"top_k\":" + std::to_string(d.flight.retained_top_k) +
           ",\"outcome\":" + std::to_string(d.flight.retained_outcome) +
           ",\"reservoir\":" + std::to_string(d.flight.retained_reservoir) +
           ",\"evicted\":" + std::to_string(d.flight.evicted) +
           ",\"slowest\":" + RetainedJsonArray(d.flight_top) +
           ",\"capped_or_errored\":" + RetainedJsonArray(d.flight_flagged) +
           '}';
  }
  out += '}';
  return out;
}

}  // namespace balsa::introspect
