#include "src/runtime/inference_service.h"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "src/obs/trace.h"

namespace balsa {

InferenceService::InferenceService(const ValueNetwork* network,
                                   InferenceServiceOptions options)
    : network_(network), options_(options) {
  options_.max_batch_size = std::max(1, options_.max_batch_size);
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void InferenceService::AttachMetrics(obs::MetricsRegistry* registry) {
  registrations_.clear();
  if (registry == nullptr) return;
  registrations_.push_back(
      registry->AttachCounter("runtime.inference.requests", &requests_));
  registrations_.push_back(
      registry->AttachCounter("runtime.inference.items", &items_));
  registrations_.push_back(registry->AttachCounter(
      "runtime.inference.forward_batches", &forward_batches_));
  registrations_.push_back(registry->AttachGauge(
      "runtime.inference.max_fused_items", &max_fused_));
  registrations_.push_back(registry->AttachHistogram(
      "runtime.inference.batch_items", &batch_items_));
  registrations_.push_back(registry->AttachHistogram(
      "runtime.inference.batch_serve_us", &batch_serve_us_));
}

InferenceService::~InferenceService() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  queue_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

std::vector<SubtreeEmbedding> InferenceService::ScoreRoots(
    const std::vector<RootJob>& jobs) {
  if (jobs.empty()) return {};
  // On a traced planning thread this records one kInference span per
  // ScoreRoots: queue wait plus the fused forward pass. Inert otherwise.
  obs::SpanTimer span(obs::TraceStage::kInference);
  requests_.Inc();

  Request request;
  request.jobs = &jobs;
  if (workers_.empty()) {
    // Synchronous mode: evaluate on the calling thread, still chunked.
    ServeBatch({&request});
    return std::move(request.results);
  }
  {
    MutexLock lock(mu_);
    queue_.push_back(&request);
  }
  queue_cv_.NotifyOne();
  MutexLock lock(mu_);
  while (!request.done) done_cv_.Wait(mu_);
  return std::move(request.results);
}

void InferenceService::WorkerLoop() {
  for (;;) {
    std::vector<Request*> batch;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) queue_cv_.Wait(mu_);
      if (queue_.empty()) return;  // stopping, queue drained
      // Fuse queued requests up to max_batch_size items; always take at
      // least one request so oversized requests still make progress.
      int taken = 0;
      while (!queue_.empty()) {
        const int next = static_cast<int>(queue_.front()->jobs->size());
        if (!batch.empty() && taken + next > options_.max_batch_size) break;
        batch.push_back(queue_.front());
        queue_.pop_front();
        taken += next;
      }
    }
    ServeBatch(batch);
    {
      MutexLock lock(mu_);
      for (Request* r : batch) r->done = true;
    }
    done_cv_.NotifyAll();
  }
}

void InferenceService::ServeBatch(const std::vector<Request*>& batch) {
  const auto start = std::chrono::steady_clock::now();
  // Flatten the fused requests' root jobs into one array.
  std::vector<RootJob> jobs;
  for (const Request* r : batch) {
    jobs.insert(jobs.end(), r->jobs->begin(), r->jobs->end());
  }
  const int total = static_cast<int>(jobs.size());

  std::vector<SubtreeEmbedding> results;
  results.reserve(static_cast<size_t>(total));
  for (int lo = 0; lo < total; lo += options_.max_batch_size) {
    const int hi = std::min(total, lo + options_.max_batch_size);
    std::vector<SubtreeEmbedding> chunk = network_->ScoreRoots(
        std::vector<RootJob>(jobs.begin() + lo, jobs.begin() + hi));
    std::move(chunk.begin(), chunk.end(), std::back_inserter(results));
    forward_batches_.Inc();
    max_fused_.UpdateMax(hi - lo);
    batch_items_.Record(hi - lo);
  }

  auto next = results.begin();
  for (Request* r : batch) {
    const size_t n = r->jobs->size();
    r->results.assign(std::make_move_iterator(next),
                      std::make_move_iterator(next + n));
    next += n;
  }
  items_.Inc(total);
  batch_serve_us_.Record(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - start)
                             .count());
}

InferenceService::Stats InferenceService::stats() const {
  Stats stats;
  stats.requests = requests_.Value();
  stats.items = items_.Value();
  stats.forward_batches = forward_batches_.Value();
  stats.max_fused_items = max_fused_.Value();
  return stats;
}

}  // namespace balsa
