#include "src/obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

namespace balsa::obs {

const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kFingerprint: return "fingerprint";
    case TraceStage::kCacheLookup: return "cache_lookup";
    case TraceStage::kCoalesceWait: return "coalesce_wait";
    case TraceStage::kQueueWait: return "queue_wait";
    case TraceStage::kBeamSearch: return "beam_search";
    case TraceStage::kInference: return "inference";
    case TraceStage::kAdmit: return "admit";
    case TraceStage::kExecScan: return "exec_scan";
    case TraceStage::kExecJoin: return "exec_join";
    case TraceStage::kReanalyze: return "reanalyze";
    case TraceStage::kCount: break;
  }
  return "unknown";
}

Trace::Trace(uint64_t id)
    : id_(id), start_(std::chrono::steady_clock::now()) {}

void Trace::AddSpan(TraceStage stage, double start_us, double duration_us) {
  MutexLock lock(mu_);
  spans_.push_back({stage, start_us, duration_us});
}

std::vector<TraceSpan> Trace::spans() const {
  MutexLock lock(mu_);
  return spans_;
}

int Trace::NumDistinctStages() const {
  MutexLock lock(mu_);
  std::unordered_set<int> stages;
  for (const TraceSpan& span : spans_) {
    stages.insert(static_cast<int>(span.stage));
  }
  return static_cast<int>(stages.size());
}

bool Trace::HasStage(TraceStage stage) const {
  MutexLock lock(mu_);
  for (const TraceSpan& span : spans_) {
    if (span.stage == stage) return true;
  }
  return false;
}

double Trace::SpanUnionMicros() const {
  std::vector<TraceSpan> spans = this->spans();
  std::vector<std::pair<double, double>> intervals;
  intervals.reserve(spans.size());
  for (const TraceSpan& span : spans) {
    intervals.emplace_back(span.start_us, span.start_us + span.duration_us);
  }
  std::sort(intervals.begin(), intervals.end());
  double total = 0;
  double cover_end = -1;
  for (const auto& [begin, end] : intervals) {
    if (begin > cover_end) {
      total += end - begin;
      cover_end = end;
    } else if (end > cover_end) {
      total += end - cover_end;
      cover_end = end;
    }
  }
  return total;
}

std::string Trace::ToString() const {
  std::vector<TraceSpan> spans = this->spans();
  std::string out = "trace #" + std::to_string(id_) + " (" +
                    std::to_string(spans.size()) + " spans)\n";
  char line[128];
  for (const TraceSpan& span : spans) {
    std::snprintf(line, sizeof(line), "  %-14s +%10.1fus  %10.1fus\n",
                  TraceStageName(span.stage), span.start_us,
                  span.duration_us);
    out += line;
  }
  return out;
}

RequestTracer::RequestTracer(RequestTracerOptions options)
    : options_(options) {
  const int every = options_.sample_every;
  sample_pow2_ = every > 0 && (every & (every - 1)) == 0;
  sample_mask_ = sample_pow2_ ? static_cast<uint64_t>(every) - 1 : 0;
}

std::shared_ptr<Trace> RequestTracer::MaybeStartTrace() {
  if (options_.sample_every <= 0) return nullptr;
  const size_t stripe = ThreadStripe();
  const uint64_t local =
      arrivals_[stripe].n.fetch_add(1, std::memory_order_relaxed);
  if (!Enabled()) return nullptr;
  const uint64_t phase = local + options_.seed;
  const bool sampled =
      sample_pow2_ ? (phase & sample_mask_) == 0
                   : phase % static_cast<uint64_t>(options_.sample_every) == 0;
  if (!sampled) return nullptr;
  traces_started_.Inc();
  return std::make_shared<Trace>(
      local * static_cast<uint64_t>(kThreadStripes) + stripe);
}

int64_t RequestTracer::requests_seen() const {
  int64_t total = 0;
  for (const ArrivalCounter& arrivals : arrivals_) {
    total += static_cast<int64_t>(
        arrivals.n.load(std::memory_order_relaxed));
  }
  return total;
}

void RequestTracer::RecordStageMicros(TraceStage stage, double micros,
                                      uint64_t exemplar_id) {
  stage_us_[static_cast<size_t>(stage)].Record(micros, exemplar_id);
}

std::vector<Registration> RequestTracer::AttachTo(MetricsRegistry* registry,
                                                  const std::string& prefix) {
  std::vector<Registration> registrations;
  registrations.push_back(
      registry->AttachCounter(prefix + ".traces", &traces_started_));
  for (int i = 0; i < kNumTraceStages; ++i) {
    const auto stage = static_cast<TraceStage>(i);
    registrations.push_back(registry->AttachHistogram(
        Labeled(prefix + ".stage_us", {{"stage", TraceStageName(stage)}}),
        &stage_us_[static_cast<size_t>(i)]));
  }
  return registrations;
}

namespace {
thread_local const TraceContext* t_current_context = nullptr;
}  // namespace

const TraceContext* CurrentTraceContext() { return t_current_context; }

ScopedTraceContext::ScopedTraceContext(TraceContext context)
    : context_(std::move(context)) {
  if (!context_.active()) return;
  previous_ = t_current_context;
  t_current_context = &context_;
  installed_ = true;
}

ScopedTraceContext::~ScopedTraceContext() {
  if (installed_) t_current_context = previous_;
}

}  // namespace balsa::obs
