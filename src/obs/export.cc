#include "src/obs/export.h"

#include <cstdio>

namespace balsa::obs {

namespace {

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "hist";
  }
  return "unknown";
}

std::string FmtDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char raw : s) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += raw;
        }
    }
  }
  return out;
}

std::string TextDump(const RegistrySnapshot& snapshot) {
  std::string out;
  char line[256];
  for (const MetricValue& m : snapshot.metrics) {
    if (m.kind == MetricKind::kHistogram) {
      const uint64_t exemplar = m.histogram.PercentileExemplar(99);
      std::string suffix;
      if (exemplar != 0) {
        suffix = " p99_ex=#" + std::to_string(exemplar);
      }
      std::snprintf(line, sizeof(line),
                    "%-8s %s  count=%lld mean=%.1f p50<=%.0f p90<=%.0f "
                    "p99<=%.0f%s\n",
                    KindName(m.kind), m.name.c_str(),
                    static_cast<long long>(m.histogram.count),
                    m.histogram.Mean(), m.histogram.Percentile(50),
                    m.histogram.Percentile(90), m.histogram.Percentile(99),
                    suffix.c_str());
    } else {
      std::snprintf(line, sizeof(line), "%-8s %s  %lld\n", KindName(m.kind),
                    m.name.c_str(), static_cast<long long>(m.value));
    }
    out += line;
  }
  return out;
}

std::string JsonDump(const RegistrySnapshot& snapshot) {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const MetricValue& m : snapshot.metrics) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    // Metric names are mostly code-chosen identifiers, but label *values*
    // ride inside them ("name{k=v}") and may carry quotes, backslashes, or
    // control characters — full escaping keeps the document parseable no
    // matter what a label holds.
    out += JsonEscape(m.name);
    out += "\",\"kind\":\"";
    out += KindName(m.kind);
    out += "\"";
    if (m.kind == MetricKind::kHistogram) {
      out += ",\"count\":" + std::to_string(m.histogram.count);
      out += ",\"sum\":" + std::to_string(m.histogram.sum);
      out += ",\"p50\":" + FmtDouble(m.histogram.Percentile(50));
      out += ",\"p99\":" + FmtDouble(m.histogram.Percentile(99));
      if (const uint64_t exemplar = m.histogram.PercentileExemplar(99)) {
        out += ",\"p99_exemplar\":" + std::to_string(exemplar);
      }
      int last = -1;
      for (int i = 0; i < HistogramData::kBuckets; ++i) {
        if (m.histogram.buckets[static_cast<size_t>(i)] != 0) last = i;
      }
      out += ",\"buckets\":[";
      for (int i = 0; i <= last; ++i) {
        if (i > 0) out += ',';
        out += std::to_string(m.histogram.buckets[static_cast<size_t>(i)]);
      }
      out += ']';
    } else {
      out += ",\"value\":" + std::to_string(m.value);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

Status WriteJsonFile(const RegistrySnapshot& snapshot,
                     const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  const std::string json = JsonDump(snapshot);
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != json.size() || !closed) {
    return Status::Internal("short write to " + path);
  }
  return Status::OK();
}

std::string StageBreakdownText(const RequestTracer& tracer) {
  std::string rows;
  char line[160];
  for (int i = 0; i < kNumTraceStages; ++i) {
    const auto stage = static_cast<TraceStage>(i);
    const HistogramData data = tracer.stage_histogram(stage).Snapshot();
    if (data.count == 0) continue;
    std::snprintf(line, sizeof(line),
                  "  %-14s %10lld %10.1f %10.0f %10.0f\n",
                  TraceStageName(stage),
                  static_cast<long long>(data.count), data.Mean(),
                  data.Percentile(50), data.Percentile(99));
    rows += line;
  }
  const int every = tracer.options().sample_every;
  if (rows.empty()) {
    return every > 0 ? "stage breakdown: no sampled spans yet\n"
                     : "stage breakdown: tracing disabled\n";
  }
  const std::string caption =
      every > 0 ? "per-stage latency breakdown (sampled 1/" +
                      std::to_string(every) + "):"
                : "per-stage latency breakdown (sampling off; spans of "
                  "traced requests only):";
  std::snprintf(line, sizeof(line), "  %-14s %10s %10s %10s %10s\n", "stage",
                "samples", "mean us", "p50 us<=", "p99 us<=");
  return caption + '\n' + line + rows;
}

void PrintStageBreakdown(const RequestTracer& tracer) {
  std::fputs(StageBreakdownText(tracer).c_str(), stdout);
}

}  // namespace balsa::obs
