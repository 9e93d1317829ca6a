#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>

#include "src/obs/export.h"

namespace balsa::obs {

namespace {

/// Ids from the store's counter carry the top bit so they can never
/// collide with RequestTracer ids (arrival * kThreadStripes + stripe).
constexpr uint64_t kFlightIdBit = uint64_t{1} << 63;

/// Seeds the deterministic reservoir coin flips.
constexpr uint64_t kReservoirSeed = 1;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Min-heap by latency: the top() is the cheapest retained tail entry —
/// the one a slower completion displaces.
bool LatencyGreater(const RetainedTrace& a, const RetainedTrace& b) {
  return a.latency_us > b.latency_us;
}

}  // namespace

const char* RetainReasonName(RetainReason reason) {
  switch (reason) {
    case RetainReason::kTopK: return "top_k";
    case RetainReason::kOutcome: return "outcome";
    case RetainReason::kReservoir: return "reservoir";
  }
  return "unknown";
}

TraceStore::TraceStore(TraceStoreOptions options) : options_(options) {
  if (options_.top_k < 1) options_.top_k = 1;
  top_k_.reserve(static_cast<size_t>(options_.top_k));
  reservoir_.reserve(kReservoirSize);
}

std::shared_ptr<Trace> TraceStore::StartTrace() {
  return std::make_shared<Trace>(
      kFlightIdBit | next_id_.fetch_add(1, std::memory_order_relaxed));
}

uint64_t TraceStore::Admit(const std::shared_ptr<Trace>& trace,
                           const TraceCompletion& completion,
                           RetainReason reason, uint64_t index) {
  RetainedTrace entry;
  static_cast<TraceCompletion&>(entry) = completion;
  // Hit-path completions arrive without a shell (the fast path allocates
  // nothing); materialize a span-less one only now that it is retained.
  entry.trace = trace != nullptr ? trace : StartTrace();
  entry.trace_id = entry.trace->id();
  const uint64_t admitted_id = entry.trace_id;
  entry.reason = reason;
  entry.completion_index = index;

  MutexLock lock(mu_);
  switch (reason) {
    case RetainReason::kOutcome:
      outcomes_.push_back(std::move(entry));
      while (outcomes_.size() > kMaxOutcomes) {
        outcomes_.pop_front();
        evicted_.Inc();
      }
      break;
    case RetainReason::kTopK: {
      // Re-check under the lock: another completion may have raised the
      // floor past this one since the relaxed pre-check.
      const bool full = top_k_.size() >= static_cast<size_t>(options_.top_k);
      if (full && entry.latency_us <= top_k_.front().latency_us) return 0;
      if (full) {
        std::pop_heap(top_k_.begin(), top_k_.end(), LatencyGreater);
        top_k_.pop_back();
        evicted_.Inc();
      }
      top_k_.push_back(std::move(entry));
      std::push_heap(top_k_.begin(), top_k_.end(), LatencyGreater);
      if (top_k_.size() >= static_cast<size_t>(options_.top_k)) {
        top_k_floor_.store(top_k_.front().latency_us,
                           std::memory_order_relaxed);
      }
      break;
    }
    case RetainReason::kReservoir: {
      if (reservoir_.size() < kReservoirSize) {
        reservoir_.push_back(std::move(entry));
      } else {
        const size_t slot = static_cast<size_t>(
            SplitMix64(kReservoirSeed ^ (index * 0x9E3779B97F4A7C15ULL)) %
            kReservoirSize);
        reservoir_[slot] = std::move(entry);
        evicted_.Inc();
      }
      break;
    }
  }
  retained_.Inc();
  return admitted_id;
}

uint64_t TraceStore::OnComplete(const std::shared_ptr<Trace>& trace,
                                const TraceCompletion& completion) {
  if (!options_.enabled) return 0;
  // The index comes from the increment itself: concurrent completions each
  // get their own, and it seeds the reservoir slot hash.
  const auto index = static_cast<uint64_t>(completions_.Inc());
  if (completion.error || completion.capped) {
    return Admit(trace, completion, RetainReason::kOutcome, index);
  }
  // Tail check first: floor is -1 until the heap fills, so early
  // completions all qualify.
  if (completion.latency_us > top_k_floor_.load(std::memory_order_relaxed)) {
    const uint64_t id = Admit(trace, completion, RetainReason::kTopK, index);
    if (id != 0) return id;
  }
  // Ordinary completion: uniform reservoir. After n normal completions the
  // admission probability is kReservoirSize/n — the textbook scheme, with
  // the coin flip a pure function of n so replays are reproducible.
  const uint64_t n = normal_seen_.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t cap = kReservoirSize;
  if (n <= cap || SplitMix64(kReservoirSeed ^ n) % n < cap) {
    return Admit(trace, completion, RetainReason::kReservoir, index);
  }
  return 0;
}

void TraceStore::PromoteCapped(const std::shared_ptr<Trace>& trace,
                               const TraceCompletion& completion) {
  if (!options_.enabled) return;
  if (trace != nullptr) {
    const uint64_t id = trace->id();
    MutexLock lock(mu_);
    auto mark = [&](RetainedTrace& entry) {
      if (entry.trace_id != id) return false;
      entry.capped = true;
      entry.plan_summary = completion.plan_summary;
      entry.rows_out = completion.rows_out;
      entry.exec_micros = completion.exec_micros;
      return true;
    };
    for (RetainedTrace& entry : outcomes_) {
      if (mark(entry)) return;
    }
    for (RetainedTrace& entry : top_k_) {
      if (mark(entry)) return;
    }
    for (RetainedTrace& entry : reservoir_) {
      if (mark(entry)) return;
    }
  }
  TraceCompletion capped = completion;
  capped.capped = true;
  Admit(trace, capped, RetainReason::kOutcome, /*index=*/0);
}

std::vector<RetainedTrace> TraceStore::Retained() const {
  MutexLock lock(mu_);
  std::vector<RetainedTrace> out;
  out.reserve(top_k_.size() + outcomes_.size() + reservoir_.size());
  out.insert(out.end(), top_k_.begin(), top_k_.end());
  out.insert(out.end(), outcomes_.begin(), outcomes_.end());
  out.insert(out.end(), reservoir_.begin(), reservoir_.end());
  return out;
}

bool TraceStore::FindTrace(uint64_t trace_id, RetainedTrace* out) const {
  MutexLock lock(mu_);
  auto scan = [&](const auto& entries) {
    for (const RetainedTrace& entry : entries) {
      if (entry.trace_id == trace_id) {
        *out = entry;
        return true;
      }
    }
    return false;
  };
  return scan(top_k_) || scan(outcomes_) || scan(reservoir_);
}

bool TraceStore::MaxRetained(RetainedTrace* out) const {
  std::vector<RetainedTrace> all = Retained();
  if (all.empty()) return false;
  *out = *std::max_element(all.begin(), all.end(),
                           [](const RetainedTrace& a, const RetainedTrace& b) {
                             return a.latency_us < b.latency_us;
                           });
  return true;
}

TraceStore::Stats TraceStore::stats() const {
  Stats stats;
  stats.completions = completions_.Value();
  stats.evicted = evicted_.Value();
  MutexLock lock(mu_);
  stats.retained_top_k = static_cast<int64_t>(top_k_.size());
  stats.retained_outcome = static_cast<int64_t>(outcomes_.size());
  stats.retained_reservoir = static_cast<int64_t>(reservoir_.size());
  return stats;
}

std::string TraceStore::RetainedJson(const RetainedTrace& entry) {
  char buf[64];
  std::string out = "{";
  out += "\"trace_id\":" + std::to_string(entry.trace_id);
  std::snprintf(buf, sizeof(buf), ",\"latency_us\":%.1f", entry.latency_us);
  out += buf;
  out += ",\"outcome\":\"" + JsonEscape(entry.outcome) + '"';
  out += ",\"reason\":\"";
  out += RetainReasonName(entry.reason);
  out += '"';
  std::snprintf(buf, sizeof(buf), ",\"fingerprint\":\"%016llx\"",
                static_cast<unsigned long long>(entry.fingerprint));
  out += buf;
  out += ",\"query\":\"" + JsonEscape(entry.query_name) + '"';
  out += ",\"error\":";
  out += entry.error ? "true" : "false";
  out += ",\"capped\":";
  out += entry.capped ? "true" : "false";
  out += ",\"completion_index\":" + std::to_string(entry.completion_index);
  out += ",\"stats_version\":" + std::to_string(entry.stats_version);
  out += ",\"data_epoch\":" + std::to_string(entry.data_epoch);
  out += ",\"plan\":\"" + JsonEscape(entry.plan_summary) + '"';
  out += ",\"rows_out\":" + std::to_string(entry.rows_out);
  std::snprintf(buf, sizeof(buf), ",\"exec_us\":%.1f", entry.exec_micros);
  out += buf;
  out += ",\"spans\":[";
  const std::vector<TraceSpan> spans =
      entry.trace != nullptr ? entry.trace->spans() : std::vector<TraceSpan>{};
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) out += ',';
    std::snprintf(buf, sizeof(buf), "\"start_us\":%.1f,\"dur_us\":%.1f",
                  spans[i].start_us, spans[i].duration_us);
    out += "{\"stage\":\"";
    out += TraceStageName(spans[i].stage);
    out += "\",";
    out += buf;
    out += '}';
  }
  out += "]}";
  return out;
}

std::string TraceStore::ToJsonl() const {
  std::vector<RetainedTrace> all = Retained();
  std::sort(all.begin(), all.end(),
            [](const RetainedTrace& a, const RetainedTrace& b) {
              return a.latency_us > b.latency_us;
            });
  std::string out;
  for (const RetainedTrace& entry : all) {
    out += RetainedJson(entry);
    out += '\n';
  }
  return out;
}

Status TraceStore::WriteJsonlFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  const std::string jsonl = ToJsonl();
  const size_t written = std::fwrite(jsonl.data(), 1, jsonl.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != jsonl.size() || !closed) {
    return Status::Internal("short write to " + path);
  }
  return Status::OK();
}

std::vector<Registration> TraceStore::AttachTo(MetricsRegistry* registry,
                                               const std::string& prefix) {
  std::vector<Registration> registrations;
  registrations.push_back(registry->AttachCounter(
      prefix + ".flight_recorder.completions", &completions_));
  registrations.push_back(registry->AttachCounter(
      prefix + ".flight_recorder.retained", &retained_));
  registrations.push_back(registry->AttachCounter(
      prefix + ".flight_recorder.evicted", &evicted_));
  return registrations;
}

}  // namespace balsa::obs
