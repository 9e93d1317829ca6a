#include "src/balsa/experience.h"

#include <algorithm>

namespace balsa {

void ExperienceBuffer::Add(Execution e) {
  uint64_t root_fp = e.plan.Fingerprint();
  uint64_t plan_key = Key(e.query_id, root_fp);
  visit_counts_[plan_key]++;
  unique_plans_.insert(plan_key);
  for (uint64_t fp : e.plan.SubtreeFingerprints()) {
    uint64_t key = Key(e.query_id, fp);
    auto it = best_subplan_label_.find(key);
    if (it == best_subplan_label_.end() || e.label_ms < it->second) {
      best_subplan_label_[key] = e.label_ms;
    }
  }
  executions_.push_back(std::move(e));
}

int ExperienceBuffer::VisitCount(int query_id,
                                 uint64_t plan_fingerprint) const {
  auto it = visit_counts_.find(Key(query_id, plan_fingerprint));
  return it == visit_counts_.end() ? 0 : it->second;
}

double ExperienceBuffer::CorrectedLabel(int query_id,
                                        uint64_t subplan_fingerprint,
                                        double fallback) const {
  auto it = best_subplan_label_.find(Key(query_id, subplan_fingerprint));
  return it == best_subplan_label_.end() ? fallback : it->second;
}

void ExperienceBuffer::Merge(const ExperienceBuffer& other) {
  executions_.insert(executions_.end(), other.executions_.begin(),
                     other.executions_.end());
  for (const auto& [key, label] : other.best_subplan_label_) {
    auto it = best_subplan_label_.find(key);
    if (it == best_subplan_label_.end() || label < it->second) {
      best_subplan_label_[key] = label;
    }
  }
  for (const auto& [key, count] : other.visit_counts_) {
    visit_counts_[key] += count;
  }
  unique_plans_.insert(other.unique_plans_.begin(),
                       other.unique_plans_.end());
}

std::vector<TrainingPoint> ExperienceBuffer::BuildDataset(
    const Featurizer& featurizer, const Workload& workload,
    int iteration) const {
  std::vector<TrainingPoint> data;
  // Query feature vectors are shared across many points; cache per query.
  std::unordered_map<int, nn::Vec> query_feats;
  for (const Execution& e : executions_) {
    if (iteration >= 0 && e.iteration != iteration) continue;
    const Query& query = workload.query(e.query_id);
    auto [it, inserted] = query_feats.try_emplace(e.query_id);
    if (inserted) it->second = featurizer.QueryFeatures(query);
    std::vector<nn::TreeSample> subtrees =
        featurizer.SubtreeFeatures(query, e.plan);
    std::vector<uint64_t> fps = e.plan.SubtreeFingerprints();
    for (int node = 0; node < e.plan.num_nodes(); ++node) {
      TrainingPoint pt;
      pt.query = it->second;
      pt.plan = std::move(subtrees[node]);
      pt.label = CorrectedLabel(e.query_id, fps[node], e.label_ms);
      data.push_back(std::move(pt));
    }
  }
  return data;
}

}  // namespace balsa
