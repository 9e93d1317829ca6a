// The value-network scoring call beam search makes once per expansion,
// mirroring Balsa's batched V(query, plan) scoring of beam-search frontiers
// (§6). Beam search scores incrementally: each planning thread keeps a
// per-search table of subtree embedding rows, so a call carries only the
// frontier's new join roots (RootJobs, each with its query's term and
// pointers to its children's cached rows). The planning thread fills the
// children's child terms before it calls, so scoring only reads them.
//
// Scoring runs on the calling thread: a miss's beam search and its forward
// passes stay on one thread, with no queue and no hand-off. Concurrent
// planners share one read-only network; the row kernels score each root
// job in its own row, reading only its children (see nn::ScoreRoots), so a
// root's embedding is bitwise independent of the rest of its batch and a
// score never depends on who else is planning.
//
// The service is the span and counter site: each call opens a kInference
// span on a traced thread and counts requests and root jobs.
//
// The network pointer is borrowed; callers must not train the network while
// planning is in flight (the agent plans and trains in distinct phases).
#pragma once

#include <cstdint>
#include <vector>

#include "src/model/value_network.h"
#include "src/obs/metrics.h"

namespace balsa {

struct InferenceServiceOptions {
  /// Must be 0 (the constructor checks): scoring always runs on the calling
  /// thread. The field remains only because perfbench still assigns it; it
  /// goes when the benchmark harness next changes.
  int num_workers = 0;
};

class InferenceService {
 public:
  explicit InferenceService(const ValueNetwork* network,
                            InferenceServiceOptions options = {});

  InferenceService(const InferenceService&) = delete;
  InferenceService& operator=(const InferenceService&) = delete;

  /// ValueNetwork::ScoreRoots on the calling thread: writes each job's row
  /// and score. Thread-safe.
  void ScoreRoots(const std::vector<RootJob>& jobs);

  struct Stats {
    int64_t requests = 0;  // ScoreRoots calls
    int64_t items = 0;     // root jobs scored
  };
  Stats stats() const;

  /// Attaches the counters ".requests" and ".items" under
  /// "runtime.inference". Registry is borrowed and must outlive the
  /// service; calling again replaces the previous attachments.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  const ValueNetwork* network_;
  obs::Counter requests_;
  obs::Counter items_;
  /// Registry attachments (empty until AttachMetrics). Last member:
  /// detaches before the instruments die.
  std::vector<obs::Registration> registrations_;
};

}  // namespace balsa
