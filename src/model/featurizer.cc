#include "src/model/featurizer.h"

#include <algorithm>

namespace balsa {

nn::Vec Featurizer::QueryFeatures(const Query& query, TableSet scope) const {
  nn::Vec out(static_cast<size_t>(query_dim()), 0.f);
  for (int rel : scope) {
    int table = query.relations()[rel].table_idx;
    float sel =
        static_cast<float>(estimator_->EstimateSelectivity(query, rel));
    // Multiple aliases of one table share a slot; keep the most selective
    // (smallest) non-zero value, encoding "this table participates and is
    // filtered this hard".
    float& slot = out[static_cast<size_t>(table)];
    slot = (slot == 0.f) ? sel : std::min(slot, sel);
    if (slot <= 0.f) slot = 1e-6f;  // presence must be distinguishable from 0
  }
  return out;
}

void Featurizer::NodeFeatures(const Query& query, const PlanNode& node,
                              float* out) const {
  std::fill(out, out + node_dim(), 0.f);
  if (node.is_join) {
    out[static_cast<size_t>(node.join_op)] = 1.f;
  } else {
    out[kNumJoinOps + static_cast<size_t>(node.scan_op)] = 1.f;
  }
  for (int rel : node.tables) {
    out[kNumJoinOps + kNumScanOps +
        static_cast<size_t>(query.relations()[rel].table_idx)] = 1.f;
  }
}

nn::Vec Featurizer::NodeFeatures(const Query& query,
                                 const PlanNode& node) const {
  nn::Vec feat(static_cast<size_t>(node_dim()));
  NodeFeatures(query, node, feat.data());
  return feat;
}

nn::TreeSample Featurizer::PlanFeatures(const Query& query, const Plan& plan,
                                        int node_idx) const {
  if (node_idx < 0) node_idx = plan.root();
  nn::TreeSample sample;
  // Emit the subtree in a preorder walk; remap arena indices to sample slots.
  struct Frame {
    int arena;
    int parent_slot;
    bool is_left;
  };
  std::vector<Frame> stack{{node_idx, -1, false}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const PlanNode& n = plan.node(f.arena);
    int slot = static_cast<int>(sample.features.size());

    sample.features.push_back(NodeFeatures(query, n));
    sample.left.push_back(-1);
    sample.right.push_back(-1);

    if (f.parent_slot >= 0) {
      (f.is_left ? sample.left : sample.right)[f.parent_slot] = slot;
    }
    if (n.is_join) {
      // Push right first so left is visited first (stable preorder).
      stack.push_back({n.right, slot, false});
      stack.push_back({n.left, slot, true});
    }
  }
  return sample;
}

std::vector<nn::TreeSample> Featurizer::SubtreeFeatures(
    const Query& query, const Plan& plan) const {
  // A plan's children precede their join in the arena (Plan::AddJoin), so
  // both child samples exist when a join is reached.
  std::vector<nn::TreeSample> out(static_cast<size_t>(plan.num_nodes()));
  for (int i = 0; i < plan.num_nodes(); ++i) {
    const PlanNode& n = plan.node(i);
    nn::TreeSample& sample = out[i];
    sample.features.push_back(NodeFeatures(query, n));
    sample.left.push_back(-1);
    sample.right.push_back(-1);
    if (!n.is_join) continue;
    for (int side : {0, 1}) {
      const nn::TreeSample& child = out[side == 0 ? n.left : n.right];
      const int offset = static_cast<int>(sample.features.size());
      (side == 0 ? sample.left : sample.right)[0] = offset;
      sample.features.insert(sample.features.end(), child.features.begin(),
                             child.features.end());
      for (int k : child.left) sample.left.push_back(k < 0 ? -1 : k + offset);
      for (int k : child.right) {
        sample.right.push_back(k < 0 ? -1 : k + offset);
      }
    }
  }
  return out;
}

}  // namespace balsa
