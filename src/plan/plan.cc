#include "src/plan/plan.h"

#include <algorithm>

namespace balsa {

const char* ScanOpName(ScanOp op) {
  switch (op) {
    case ScanOp::kSeqScan: return "SeqScan";
    case ScanOp::kIndexScan: return "IndexScan";
  }
  return "?";
}

const char* JoinOpName(JoinOp op) {
  switch (op) {
    case JoinOp::kHashJoin: return "HashJoin";
    case JoinOp::kMergeJoin: return "MergeJoin";
    case JoinOp::kIndexNLJoin: return "IndexNLJoin";
    case JoinOp::kNLJoin: return "NLJoin";
  }
  return "?";
}

int Plan::AddScan(int relation, ScanOp op) {
  PlanNode node;
  node.is_join = false;
  node.scan_op = op;
  node.relation = relation;
  node.tables = TableSet::Single(relation);
  nodes_.push_back(node);
  if (root_ < 0) root_ = 0;
  return static_cast<int>(nodes_.size()) - 1;
}

int Plan::AddJoin(int left, int right, JoinOp op) {
  PlanNode node;
  node.is_join = true;
  node.join_op = op;
  node.left = left;
  node.right = right;
  node.tables = nodes_[left].tables.Union(nodes_[right].tables);
  nodes_.push_back(node);
  root_ = static_cast<int>(nodes_.size()) - 1;
  return root_;
}

int Plan::NumJoins() const {
  int count = 0;
  for (const auto& n : nodes_) count += n.is_join ? 1 : 0;
  return count;
}

namespace {
uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h * 0x100000001B3ULL;
}
}  // namespace

uint64_t Plan::LeafFingerprint(int relation, ScanOp op) {
  uint64_t h = 0xCBF29CE484222325ULL;
  h = Mix(h, 1);
  h = Mix(h, static_cast<uint64_t>(op));
  h = Mix(h, static_cast<uint64_t>(relation));
  return h;
}

uint64_t Plan::JoinFingerprint(JoinOp op, uint64_t left, uint64_t right) {
  uint64_t h = 0x84222325CBF29CE4ULL;
  h = Mix(h, 2);
  h = Mix(h, static_cast<uint64_t>(op));
  h = Mix(h, left);
  h = Mix(h, right);
  return h;
}

uint64_t Plan::Fingerprint(int idx) const {
  if (idx < 0) idx = root_;
  if (idx < 0) return 0;
  const PlanNode& n = nodes_[idx];
  if (!n.is_join) return LeafFingerprint(n.relation, n.scan_op);
  return JoinFingerprint(n.join_op, Fingerprint(n.left), Fingerprint(n.right));
}

std::vector<uint64_t> Plan::SubtreeFingerprints() const {
  // Children precede their join in the arena (AddJoin).
  std::vector<uint64_t> fps(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const PlanNode& n = nodes_[i];
    fps[i] = n.is_join ? JoinFingerprint(n.join_op, fps[n.left], fps[n.right])
                       : LeafFingerprint(n.relation, n.scan_op);
  }
  return fps;
}

bool Plan::IsLeftDeep(int idx) const {
  if (idx < 0) idx = root_;
  if (idx < 0) return true;
  const PlanNode& n = nodes_[idx];
  if (!n.is_join) return true;
  if (nodes_[n.right].is_join) return false;
  return IsLeftDeep(n.left);
}

bool Plan::IsLeftDeepOrRightDeep(int idx) const {
  const PlanNode& n = nodes_[idx];
  if (!n.is_join) return true;
  bool left_join = nodes_[n.left].is_join;
  bool right_join = nodes_[n.right].is_join;
  if (left_join && right_join) return false;
  if (left_join) return IsLeftDeepOrRightDeep(n.left);
  if (right_join) return IsLeftDeepOrRightDeep(n.right);
  return true;
}

int Plan::Depth(int idx) const {
  if (idx < 0) idx = root_;
  if (idx < 0) return 0;
  const PlanNode& n = nodes_[idx];
  if (!n.is_join) return 1;
  return 1 + std::max(Depth(n.left), Depth(n.right));
}

std::string Plan::ToString(const Query& query, int idx) const {
  if (idx < 0) idx = root_;
  if (idx < 0) return "<empty>";
  const PlanNode& n = nodes_[idx];
  if (!n.is_join) {
    return std::string(ScanOpName(n.scan_op)) + "(" +
           query.relations()[n.relation].alias + ")";
  }
  return std::string(JoinOpName(n.join_op)) + "(" +
         ToString(query, n.left) + ", " + ToString(query, n.right) + ")";
}

bool Plan::Validate() const {
  if (root_ < 0 || root_ >= num_nodes()) return false;
  std::vector<int> ref_count(nodes_.size(), 0);
  for (const auto& n : nodes_) {
    if (n.is_join) {
      if (n.left < 0 || n.right < 0 || n.left >= num_nodes() ||
          n.right >= num_nodes()) {
        return false;
      }
      ref_count[n.left]++;
      ref_count[n.right]++;
      if (nodes_[n.left].tables.Intersects(nodes_[n.right].tables)) {
        return false;
      }
      if (n.tables !=
          nodes_[n.left].tables.Union(nodes_[n.right].tables)) {
        return false;
      }
      if (n.join_op == JoinOp::kIndexNLJoin && nodes_[n.right].is_join) {
        return false;
      }
    } else {
      if (n.relation < 0) return false;
      if (n.tables != TableSet::Single(n.relation)) return false;
    }
  }
  // Every node reachable from root is referenced at most once (tree shape).
  for (int rc : ref_count) {
    if (rc > 1) return false;
  }
  return true;
}

void Plan::CountOps(std::vector<int>* join_counts,
                    std::vector<int>* scan_counts) const {
  join_counts->assign(kNumJoinOps, 0);
  scan_counts->assign(kNumScanOps, 0);
  // Count only nodes in the tree rooted at root_.
  std::vector<int> stack = {root_};
  while (!stack.empty()) {
    int idx = stack.back();
    stack.pop_back();
    if (idx < 0) continue;
    const PlanNode& n = nodes_[idx];
    if (n.is_join) {
      (*join_counts)[static_cast<int>(n.join_op)]++;
      stack.push_back(n.left);
      stack.push_back(n.right);
    } else {
      (*scan_counts)[static_cast<int>(n.scan_op)]++;
    }
  }
}

namespace {
// Appends the subtree of `src` at `idx` into `dst`, returning the new index.
int CopySubtree(const Plan& src, int idx, Plan* dst) {
  const PlanNode& n = src.node(idx);
  if (!n.is_join) return dst->AddScan(n.relation, n.scan_op);
  int l = CopySubtree(src, n.left, dst);
  int r = CopySubtree(src, n.right, dst);
  return dst->AddJoin(l, r, n.join_op);
}
}  // namespace

Plan ComposeJoin(const Plan& left, const Plan& right, JoinOp op) {
  Plan out;
  int l = CopySubtree(left, left.root(), &out);
  int r = CopySubtree(right, right.root(), &out);
  if (op == JoinOp::kIndexNLJoin && !right.node(right.root()).is_join) {
    // The inner of an index nested-loop join is probed through its index.
    Plan rewritten;
    l = CopySubtree(left, left.root(), &rewritten);
    r = rewritten.AddScan(right.node(right.root()).relation,
                          ScanOp::kIndexScan);
    rewritten.AddJoin(l, r, op);
    return rewritten;
  }
  out.AddJoin(l, r, op);
  return out;
}

Plan ExtractSubtree(const Plan& src, int idx) {
  if (idx < 0) idx = src.root();
  Plan out;
  // A binary tree over k leaves has 2k - 1 nodes.
  out.Reserve(2 * src.node(idx).tables.size() - 1);
  int root = CopySubtree(src, idx, &out);
  out.set_root(root);
  return out;
}

}  // namespace balsa
