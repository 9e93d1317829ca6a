#include "src/balsa/planner.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <utility>

#include "src/cost/cost_model.h"

namespace balsa {

namespace {

// What a thread's workspace may hold between searches. JOB searches stay
// well below it (under 1 MB with a 64/32/32 network); a search that grew
// the workspace past it frees the workspace when it ends.
constexpr size_t kRetainedBytes = size_t{4} << 20;

// Safety bound on state expansions per search.
constexpr int kMaxExpansions = 20000;

// The join operators tried for every joinable pair; index nested-loop is
// added per pair, where the inner leaf has a usable index.
constexpr JoinOp kJoinOps[] = {JoinOp::kHashJoin, JoinOp::kMergeJoin,
                               JoinOp::kNLJoin};

template <typename T>
size_t Bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

// An open-addressing table from 64-bit fingerprints to ids: linear probing,
// at most half full. Clear() keeps its slots.
class FingerprintTable {
 public:
  // The id stored under `key`, storing `id` there first if the key is
  // absent; the bool is true when it was.
  std::pair<int, bool> Insert(uint64_t key, int id) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.id < 0) {
        slot = {key, id};
        ++size_;
        return {id, true};
      }
      if (slot.key == key) return {slot.id, false};
    }
  }

  void Clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

  size_t Bytes() const { return balsa::Bytes(slots_); }

 private:
  struct Slot {
    uint64_t key = 0;
    int id = -1;  // -1: empty
  };

  static size_t Hash(uint64_t key) {
    key ^= key >> 33;
    key *= 0xFF51AFD7ED558CCDULL;
    return static_cast<size_t>(key ^ (key >> 33));
  }

  void Grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.resize(std::max<size_t>(64, 2 * old.size()));
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.id >= 0) Insert(slot.key, slot.id);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

// A float array that grows without writing what it adds. The arena's rows
// need no zero fill: every part of a row is written before it is read.
class RawFloats {
 public:
  void clear() { size_ = 0; }

  // Adds `n` unwritten floats at the end.
  void Extend(size_t n) {
    if (size_ + n > capacity_) Reserve(std::max(size_ + n, 2 * capacity_));
    size_ += n;
  }

  float* data() { return data_.get(); }
  size_t Bytes() const { return capacity_ * sizeof(float); }

 private:
  void Reserve(size_t capacity) {
    std::unique_ptr<float[]> grown(new float[capacity]);
    if (size_ > 0) std::memcpy(grown.get(), data_.get(), size_ * sizeof(float));
    data_ = std::move(grown);
    capacity_ = capacity;
  }

  std::unique_ptr<float[]> data_;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

// What a search keeps of one subtree besides its root node, its embedding
// row and its node features.
struct Subtree {
  uint64_t fingerprint = 0;
  bool scored = false;                // set when queued for scoring
  bool has_term[2] = {false, false};  // set when queued for ChildTerms
  double score = 0;
};

// The hash-consed subtrees of one search. States share subtrees by id, so
// each subtree is built, fingerprinted and scored once per search however
// many states hold it. A subtree's id is its root's index in a forest plan,
// whose join nodes point at their children's ids, and its row in the
// embedding table. Ids stay valid as the arena grows; references from at()
// and pointers from row() and node_features() do not.
//
// Rows and node features start unwritten, and each part is written before
// anything reads it: scoring writes a subtree's node features (NodeFeatures
// fills all node_dim floats) and its h1 and pooled (ScoreRoots); a parent
// reads a child's term for its side only after ChildTerms has filled it,
// and ChildTerms reads only node features and h1 of a scored child.
class SubtreeArena {
 public:
  // Empties the arena for a search with `stride`-float embedding rows and
  // `node_dim`-float node features, keeping capacity.
  void Reset(int stride, int node_dim) {
    stride_ = static_cast<size_t>(stride);
    node_dim_ = static_cast<size_t>(node_dim);
    forest_.Clear();
    subtrees_.clear();
    rows_.clear();
    node_features_.clear();
    ids_.Clear();
  }

  size_t Bytes() const {
    return balsa::Bytes(forest_.nodes()) + balsa::Bytes(subtrees_) +
           rows_.Bytes() + node_features_.Bytes() + ids_.Bytes();
  }

  int Leaf(int relation, ScanOp op) {
    const uint64_t fp = Plan::LeafFingerprint(relation, op);
    auto [id, inserted] = ids_.Insert(fp, forest_.num_nodes());
    if (inserted) {
      forest_.AddScan(relation, op);
      Add(fp);
    }
    return id;
  }

  int Join(JoinOp op, int left, int right) {
    const uint64_t fp =
        Plan::JoinFingerprint(op, at(left).fingerprint, at(right).fingerprint);
    auto [id, inserted] = ids_.Insert(fp, forest_.num_nodes());
    if (inserted) {
      forest_.AddJoin(left, right, op);
      Add(fp);
    }
    return id;
  }

  const PlanNode& node(int id) const { return forest_.node(id); }
  Subtree& at(int id) { return subtrees_[id]; }
  float* row(int id) { return rows_.data() + id * stride_; }
  float* node_features(int id) {
    return node_features_.data() + id * node_dim_;
  }

  // The subtree as a standalone plan, copied in postorder: ComposeJoin's
  // node layout.
  Plan ToPlan(int id) const { return ExtractSubtree(forest_, id); }

 private:
  // The entries of the forest node just added.
  void Add(uint64_t fingerprint) {
    subtrees_.push_back({fingerprint});
    rows_.Extend(stride_);
    node_features_.Extend(node_dim_);
  }

  size_t stride_ = 0;
  size_t node_dim_ = 0;
  Plan forest_;
  // By id:
  std::vector<Subtree> subtrees_;
  RawFloats rows_;           // embedding rows, stride_ floats each
  RawFloats node_features_;  // written when queued for scoring
  FingerprintTable ids_;     // fingerprint -> id
};

// A search state: `length` arena ids (its partial plans) and the max of
// their scores (a state runs at least this long). A built state's ids are
// at `offset` of the workspace's id pool. A child of the state being
// expanded is built only if it survives the beam cut: until then `offset`
// and `length` + 1 are its parent's, and its ids are the parent's other
// entries in order, then `joined`.
struct State {
  size_t offset = 0;
  int length = 0;
  int i = -1, j = -1;  // the parent entries joined
  int joined = -1;     // -1: built
  double score = 0;
};

// A frontier child: state entries i and j replaced by their join.
struct Child {
  int i, j, joined;
};

// A complete plan found; it becomes a Plan only if it is among the k best.
struct Complete {
  int id;
  double score;
};

// A subtree's share of a state's signature, the sum of its entries'
// shares: order-insensitive, and a child's signature follows from its
// parent's in O(1).
uint64_t SignatureShare(uint64_t fingerprint) {
  uint64_t x = fingerprint + 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

struct BeamSearchPlanner::Workspace {
  SubtreeArena arena;
  FingerprintTable visited;  // state signatures
  FingerprintTable emitted;  // complete-plan fingerprints
  std::vector<float> query_term;
  std::vector<int> pool;  // the beam's ids
  std::vector<State> beam;
  std::vector<Child> children;
  std::vector<Complete> complete;
  // One scoring call's subtrees, and the jobs for them.
  std::vector<int> pending, need;
  std::vector<TermJob> terms;
  std::vector<RootJob> jobs;

  void Reset(int stride, int node_dim) {
    arena.Reset(stride, node_dim);
    visited.Clear();
    emitted.Clear();
    pool.clear();
    beam.clear();
    complete.clear();
  }

  // The heap the workspace holds.
  size_t Bytes() const {
    return arena.Bytes() + visited.Bytes() + emitted.Bytes() +
           balsa::Bytes(query_term) + balsa::Bytes(pool) +
           balsa::Bytes(beam) +
           balsa::Bytes(children) + balsa::Bytes(complete) +
           balsa::Bytes(pending) + balsa::Bytes(need) +
           balsa::Bytes(terms) + balsa::Bytes(jobs);
  }
};

StatusOr<BeamSearchPlanner::PlanningResult> BeamSearchPlanner::TopK(
    const Query& query, Rng* rng) const {
  auto start = std::chrono::steady_clock::now();
  if (options_.epsilon_collapse > 0 && rng == nullptr) {
    return Status::InvalidArgument("epsilon_collapse requires an rng");
  }
  thread_local Workspace ws;
  PlanningResult result;
  Status status = Search(query, rng, &ws, &result);
  if (ws.Bytes() > kRetainedBytes) ws = Workspace();
  if (!status.ok()) return status;
  auto end = std::chrono::steady_clock::now();
  result.planning_time_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  return result;
}

Status BeamSearchPlanner::Search(const Query& query, Rng* rng, Workspace* ws,
                                 PlanningResult* result) const {
  ws->Reset(network_->row_layout().stride, featurizer_->node_dim());
  SubtreeArena& arena = ws->arena;
  const nn::Vec query_feat = featurizer_->QueryFeatures(query);
  ws->query_term.resize(static_cast<size_t>(network_->query_term_dim()));
  network_->QueryTerm(query_feat.data(), ws->query_term.data());
  const float* query_term = ws->query_term.data();

  // Scores every subtree in ws->pending not scored yet, in one batched
  // root-only pass. Every child of a pending join must already be scored.
  auto score_pending = [&] {
    result->scored_states += static_cast<int64_t>(ws->pending.size());
    std::vector<int>& need = ws->need;
    need.clear();
    for (int id : ws->pending) {
      Subtree& s = arena.at(id);
      if (s.scored) continue;
      s.scored = true;
      need.push_back(id);
    }
    if (need.empty()) return;
    // Fill the child terms the new roots read first, so scoring only reads
    // children.
    ws->terms.clear();
    for (int id : need) {
      const PlanNode& root = arena.node(id);
      if (!root.is_join) continue;
      for (int side : {0, 1}) {
        const int child = side == 0 ? root.left : root.right;
        Subtree& s = arena.at(child);
        if (s.has_term[side]) continue;
        s.has_term[side] = true;
        ws->terms.push_back({query_term, arena.node_features(child),
                             arena.row(child), side});
      }
    }
    network_->ChildTerms(ws->terms);
    result->child_terms += static_cast<int64_t>(ws->terms.size());

    ws->jobs.clear();
    for (int id : need) {
      const PlanNode& root = arena.node(id);
      float* features = arena.node_features(id);
      featurizer_->NodeFeatures(query, root, features);
      RootJob job{query_term, features, nullptr, nullptr, arena.row(id),
                  &arena.at(id).score};
      if (root.is_join) {
        job.left = arena.row(root.left);
        job.right = arena.row(root.right);
      }
      ws->jobs.push_back(job);
    }
    if (service_) {
      service_->ScoreRoots(ws->jobs);
    } else {
      network_->ScoreRoots(ws->jobs);
    }
    result->batch_calls++;
    result->network_evals += static_cast<int64_t>(need.size());
  };

  // Per relation: the scan variants a join side can use, and the index
  // scan an index nested-loop join probes its inner leaf with (ComposeJoin's
  // rewrite) when some join column of the relation is indexed. All are
  // interned and embedded up front, in one call. A Query has at most
  // TableSet::kCapacity relations. An outer side joins a relation by
  // index nested loop when it holds one of the relation's partners.
  const int num_rels = query.num_relations();
  int leaf_variants[TableSet::kCapacity][2];
  int num_variants[TableSet::kCapacity];
  int index_inner[TableSet::kCapacity];
  TableSet index_partners[TableSet::kCapacity];
  ws->pending.clear();
  for (int rel = 0; rel < num_rels; ++rel) {
    index_partners[rel] = IndexNLPartners(*schema_, query, rel);
    int* variants = leaf_variants[rel];
    num_variants[rel] = 0;
    variants[num_variants[rel]++] = arena.Leaf(rel, ScanOp::kSeqScan);
    if (IndexScanEffective(*schema_, query, rel)) {
      variants[num_variants[rel]++] = arena.Leaf(rel, ScanOp::kIndexScan);
    }
    ws->pending.insert(ws->pending.end(), variants,
                       variants + num_variants[rel]);
    index_inner[rel] = -1;
    if (index_partners[rel].Intersects(query.AllTables().Without(rel))) {
      index_inner[rel] = arena.Leaf(rel, ScanOp::kIndexScan);
      if (num_variants[rel] == 1) ws->pending.push_back(index_inner[rel]);
    }
  }
  score_pending();

  // Root state: every relation as an unjoined sequential scan.
  State root;
  root.length = num_rels;
  for (int rel = 0; rel < num_rels; ++rel) {
    ws->pool.push_back(leaf_variants[rel][0]);
    root.score = std::max(root.score, arena.at(ws->pool.back()).score);
  }
  if (num_rels == 1) {
    result->plans.reserve(1);
    result->plans.push_back({arena.ToPlan(ws->pool[0]), root.score});
    return Status::OK();
  }

  std::vector<State>& beam = ws->beam;
  beam.push_back(root);
  std::vector<Complete>& complete = ws->complete;
  std::vector<int>& pool = ws->pool;
  auto by_score = [](const State& a, const State& b) {
    return a.score < b.score;
  };
  int expansions = 0;

  while (!beam.empty() &&
         static_cast<int>(complete.size()) < options_.top_k &&
         expansions < kMaxExpansions) {
    // Pop the best state.
    auto best_it = std::min_element(beam.begin(), beam.end(), by_score);
    const State state = *best_it;
    beam.erase(best_it);
    expansions++;
    const int n = state.length;
    const int* ids = pool.data() + state.offset;

    // Per entry: its tables, score and signature share; the state's
    // signature is the sum of the shares. `max_score` is the max of the
    // scores folded in order from 0, as a child's score is, and `argmax`
    // the entry it came from (-1: none exceeds 0). A child that keeps
    // that entry has the same max over its other entries.
    TableSet tables[TableSet::kCapacity];
    double scores[TableSet::kCapacity];
    uint64_t shares[TableSet::kCapacity];
    uint64_t signature = 0;
    double max_score = 0;
    int argmax = -1;
    for (int x = 0; x < n; ++x) {
      const Subtree& s = arena.at(ids[x]);
      tables[x] = arena.node(ids[x]).tables;
      scores[x] = s.score;
      shares[x] = SignatureShare(s.fingerprint);
      signature += shares[x];
      if (max_score < scores[x]) {
        max_score = scores[x];
        argmax = x;
      }
    }

    // Build the expansion frontier structurally: each child state replaces
    // entries i and j of `state` with their new join, scored below in one
    // batch.
    ws->children.clear();

    // Left-deep mode: once a multi-relation plan exists, it must be the
    // outer side of every further join.
    int forced_left = -1;
    if (!options_.bushy) {
      for (int i = 0; i < n; ++i) {
        if (tables[i].size() > 1) forced_left = i;
      }
    }

    for (int i = 0; i < n; ++i) {
      if (forced_left >= 0 && i != forced_left) continue;
      const TableSet left = tables[i];
      const TableSet neighbors = query.NeighborsOf(left);
      // A base relation joins as any of its scan variants (a state holds
      // it as its sequential scan); a joined subtree as itself. The pool
      // does not change while the frontier is built.
      const bool left_is_leaf = left.size() == 1;
      const int* lefts = left_is_leaf ? leaf_variants[left.First()] : &ids[i];
      const int num_lefts = left_is_leaf ? num_variants[left.First()] : 1;
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        const TableSet right = tables[j];
        if (!options_.bushy && right.size() > 1) continue;
        // Query::CanJoin(left, right), with the neighbors hoisted.
        if (left.Intersects(right) || !neighbors.Intersects(right)) continue;

        const bool right_is_leaf = right.size() == 1;
        const int* rights =
            right_is_leaf ? leaf_variants[right.First()] : &ids[j];
        const int num_rights =
            right_is_leaf ? num_variants[right.First()] : 1;

        auto add_children = [&](JoinOp op, const int* inners,
                                int num_inners) {
          for (int li = 0; li < num_lefts; ++li) {
            for (int ri = 0; ri < num_inners; ++ri) {
              ws->children.push_back(
                  {i, j, arena.Join(op, lefts[li], inners[ri])});
            }
          }
        };
        for (JoinOp op : kJoinOps) add_children(op, rights, num_rights);
        // Index-NL probes its inner leaf through an index; scan variants of
        // the inner are meaningless for it.
        if (right_is_leaf &&
            left.Intersects(index_partners[right.First()])) {
          add_children(JoinOp::kIndexNLJoin, &index_inner[right.First()], 1);
        }
      }
    }

    // Score the frontier's new join roots in one ScoreRoots.
    ws->pending.clear();
    for (const Child& child : ws->children) {
      ws->pending.push_back(child.joined);
    }
    score_pending();

    // A child state holds the state's other entries, then the new join.
    // Only unseen incomplete ones join the beam, unbuilt: the compaction
    // below builds those that survive the cut.
    for (const Child& child : ws->children) {
      const Subtree& joined = arena.at(child.joined);
      if (n == 2) {
        if (ws->emitted.Insert(joined.fingerprint, 0).second) {
          complete.push_back({child.joined, joined.score});
        }
        continue;
      }
      const uint64_t child_signature = signature - shares[child.i] -
                                       shares[child.j] +
                                       SignatureShare(joined.fingerprint);
      if (!ws->visited.Insert(child_signature, 0).second) continue;
      double score = max_score;
      if (child.i == argmax || child.j == argmax) {
        score = 0;
        for (int x = 0; x < n; ++x) {
          if (x != child.i && x != child.j) score = std::max(score, scores[x]);
        }
      }
      score = std::max(score, joined.score);
      beam.push_back(
          {state.offset, n - 1, child.i, child.j, child.joined, score});
    }

    // epsilon-greedy beam collapse (ablation arm, §8.3.3).
    if (options_.epsilon_collapse > 0 && !beam.empty() &&
        rng->Bernoulli(options_.epsilon_collapse)) {
      const State kept = beam[rng->Uniform(beam.size())];
      beam.clear();
      beam.push_back(kept);
    }

    // Keep only the best b states.
    if (static_cast<int>(beam.size()) > options_.beam_size) {
      std::nth_element(beam.begin(), beam.begin() + options_.beam_size - 1,
                       beam.end(), by_score);
      beam.resize(options_.beam_size);
    }

    // Compact the pool to the surviving states' ids, building the children:
    // append each state's ids, then drop what was there before.
    const size_t old_size = pool.size();
    for (State& s : beam) {
      const size_t offset = pool.size() - old_size;
      if (s.joined < 0) {
        for (int x = 0; x < s.length; ++x) {
          const int id = pool[s.offset + x];
          pool.push_back(id);
        }
      } else {
        for (int x = 0; x <= s.length; ++x) {
          const int id = pool[s.offset + x];
          if (x != s.i && x != s.j) pool.push_back(id);
        }
        pool.push_back(s.joined);
        s.joined = -1;
      }
      s.offset = offset;
    }
    pool.erase(pool.begin(), pool.begin() + static_cast<ptrdiff_t>(old_size));
  }

  if (complete.empty()) {
    return Status::Internal("beam search found no complete plan for query " +
                            query.name());
  }
  std::sort(complete.begin(), complete.end(),
            [](const Complete& a, const Complete& b) {
              return a.score < b.score;
            });
  // One expansion can emit several complete plans; keep the k best.
  if (static_cast<int>(complete.size()) > options_.top_k) {
    complete.resize(static_cast<size_t>(options_.top_k));
  }
  result->plans.reserve(complete.size());
  for (const Complete& c : complete) {
    result->plans.push_back({arena.ToPlan(c.id), c.score});
  }
  return Status::OK();
}

}  // namespace balsa
