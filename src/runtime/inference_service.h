// A micro-batching inference service over the value network, mirroring
// Balsa's batched V(query, plan) scoring of beam-search frontiers (§6).
// Beam search scores incrementally: each planning thread keeps a per-search
// arena of subtree embeddings, so a request carries only the frontier's new
// join roots (RootJobs, each with its own query and pointers to its
// children's cached embeddings). The planning thread fills the children's
// child terms before it sends a request, so serving only reads the children
// and concurrent requests may share them. Clients block on ScoreRoots(); worker
// threads drain the request queue, fuse the root jobs of concurrent
// requests — across clients and across queries — into single
// ValueNetwork::ScoreRoots calls, and hand each client its embeddings back.
//
// Determinism: the batched nn kernels make every root's embedding bitwise
// independent of the rest of the batch (see nn::AddMatMul), so coalescing —
// however the race between clients plays out — never changes any result.
// The service adds throughput, not nondeterminism.
//
// The network pointer is borrowed; callers must not train the network while
// requests are in flight (the agent plans and trains in distinct phases).
#pragma once

#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "src/model/value_network.h"
#include "src/obs/metrics.h"
#include "src/util/thread_annotations.h"

namespace balsa {

struct InferenceServiceOptions {
  /// Max root jobs fused into one ValueNetwork::ScoreRoots call; larger
  /// requests are evaluated in chunks of this size.
  int max_batch_size = 128;
  /// Worker threads draining the queue. 0 = synchronous mode: ScoreRoots
  /// runs the forward pass on the calling thread (no queue, no fusion) —
  /// useful for profiling and single-threaded callers.
  int num_workers = 1;
};

class InferenceService {
 public:
  explicit InferenceService(const ValueNetwork* network,
                            InferenceServiceOptions options = {});
  ~InferenceService();

  InferenceService(const InferenceService&) = delete;
  InferenceService& operator=(const InferenceService&) = delete;

  /// Blocking: one embedding (with its score) per job, as
  /// ValueNetwork::ScoreRoots returns. Thread-safe; concurrent calls may be
  /// fused into shared forward passes without affecting any result (see
  /// file comment). The jobs' pointers must stay valid until it returns.
  std::vector<SubtreeEmbedding> ScoreRoots(const std::vector<RootJob>& jobs)
      EXCLUDES(mu_);

  struct Stats {
    int64_t requests = 0;         // ScoreRoots calls
    int64_t items = 0;            // root jobs scored
    int64_t forward_batches = 0;  // ValueNetwork::ScoreRoots calls issued
    int64_t max_fused_items = 0;  // largest single forward batch
  };
  Stats stats() const;

  /// Items per forward pass — the fusion-quality distribution (a
  /// service doing its job shows this clustering near max_batch_size under
  /// concurrent load). Same bucketing the registry exports.
  const obs::Log2Histogram& batch_items_histogram() const {
    return batch_items_;
  }
  /// Wall µs per ServeBatch call (all chunks of one fused drain).
  const obs::Log2Histogram& batch_serve_us_histogram() const {
    return batch_serve_us_;
  }

  const ValueNetwork* network() const { return network_; }

  /// Attaches the counters (".requests", ".items", ".forward_batches"),
  /// the ".max_fused_items" gauge, and the fused-batch-size and
  /// forward-pass duration histograms (".batch_items", ".batch_serve_us")
  /// under "runtime.inference". Registry is borrowed and must outlive the
  /// service; calling again replaces the previous attachments.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  struct Request {
    const std::vector<RootJob>* jobs = nullptr;
    /// Written by the serving worker while the request sits in no queue
    /// (exclusive access between dequeue and the done flip), read by the
    /// client only after observing done == true under the service's mu_.
    std::vector<SubtreeEmbedding> results;
    /// Guarded by the owning service's mu_ (not annotatable from a nested
    /// struct: the capability expression cannot name the outer instance).
    bool done = false;
  };

  void WorkerLoop() EXCLUDES(mu_);
  /// Runs the fused forward passes for `batch` (chunked at max_batch_size)
  /// and fills each request's results. Called without holding mu_.
  void ServeBatch(const std::vector<Request*>& batch) EXCLUDES(mu_);

  const ValueNetwork* network_;
  InferenceServiceOptions options_;

  mutable Mutex mu_;
  CondVar queue_cv_;  // workers wait for requests
  CondVar done_cv_;   // clients wait for their results
  std::deque<Request*> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;

  // Lock-free stats: ScoreRoots/ServeBatch record without touching mu_
  // (the old Stats struct lived under it; moving to obs instruments took
  // the bookkeeping out of the queue's critical sections entirely).
  obs::Counter requests_;
  obs::Counter items_;
  obs::Counter forward_batches_;
  obs::Gauge max_fused_;  // high-water mark via UpdateMax
  obs::Log2Histogram batch_items_;
  obs::Log2Histogram batch_serve_us_;
  /// Registry attachments (empty until AttachMetrics). Last member:
  /// detaches before the instruments die.
  std::vector<obs::Registration> registrations_;
};

}  // namespace balsa
