#include "src/runtime/inference_service.h"

#include "src/obs/trace.h"
#include "src/util/logging.h"

namespace balsa {

InferenceService::InferenceService(const ValueNetwork* network,
                                   InferenceServiceOptions options)
    : network_(network) {
  BALSA_CHECK(options.num_workers == 0,
              "InferenceService scores on the calling thread; "
              "num_workers must be 0");
}

void InferenceService::AttachMetrics(obs::MetricsRegistry* registry) {
  registrations_.clear();
  if (registry == nullptr) return;
  registrations_.push_back(
      registry->AttachCounter("runtime.inference.requests", &requests_));
  registrations_.push_back(
      registry->AttachCounter("runtime.inference.items", &items_));
}

std::vector<SubtreeEmbedding> InferenceService::ScoreRoots(
    const std::vector<RootJob>& jobs) {
  if (jobs.empty()) return {};
  // On a traced planning thread this records one kInference span per call:
  // the forward pass. Inert otherwise.
  obs::SpanTimer span(obs::TraceStage::kInference);
  requests_.Inc();
  items_.Inc(static_cast<int64_t>(jobs.size()));
  return network_->ScoreRoots(jobs);
}

InferenceService::Stats InferenceService::stats() const {
  Stats stats;
  stats.requests = requests_.Value();
  stats.items = items_.Value();
  return stats;
}

}  // namespace balsa
