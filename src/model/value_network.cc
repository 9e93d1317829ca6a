#include "src/model/value_network.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace balsa {

struct ValueNetwork::Stacked {
  std::vector<int> begin;        // item i owns columns [begin[i], begin[i+1])
  std::vector<int> left, right;  // global child columns, -1 for none
  nn::Mat x, h1, h2, pooled, m1, out;
  std::vector<int> argmax;       // per (dim, item): h2's first maximal column
};

ValueNetwork::ValueNetwork(ValueNetConfig config) : config_(config) {
  layout_.pooled = config_.tree_hidden1;
  layout_.term_dim = config_.tree_hidden1 + config_.tree_hidden2;
  layout_.term[0] = layout_.pooled + config_.tree_hidden2;
  layout_.term[1] = layout_.term[0] + layout_.term_dim;
  layout_.stride = layout_.term[1] + layout_.term_dim;
  InitWeights(config_.init_seed);
}

void ValueNetwork::InitWeights(uint64_t seed) {
  Rng rng(seed);
  int in = config_.query_dim + config_.node_dim;
  tc1_ = nn::TreeConvLayer(in, config_.tree_hidden1, &rng);
  tc2_ = nn::TreeConvLayer(config_.tree_hidden1, config_.tree_hidden2, &rng);
  fc1_ = nn::Linear(config_.tree_hidden2, config_.mlp_hidden, &rng);
  fc2_ = nn::Linear(config_.mlp_hidden, 1, &rng);
  TransposeLayer1();
}

void ValueNetwork::TransposeLayer1() {
  tc1_wt_[0] = nn::Transpose(tc1_.wp());
  tc1_wt_[1] = nn::Transpose(tc1_.wl());
  tc1_wt_[2] = nn::Transpose(tc1_.wr());
}

std::vector<nn::Param*> ValueNetwork::Params() {
  std::vector<nn::Param*> params;
  tc1_.CollectParams(&params);
  tc2_.CollectParams(&params);
  fc1_.CollectParams(&params);
  fc2_.CollectParams(&params);
  return params;
}

std::vector<const nn::Param*> ValueNetwork::Params() const {
  auto* self = const_cast<ValueNetwork*>(this);
  std::vector<nn::Param*> mutable_params = self->Params();
  return {mutable_params.begin(), mutable_params.end()};
}

size_t ValueNetwork::NumWeights() const {
  size_t total = 0;
  for (const nn::Param* p : Params()) total += p->NumWeights();
  return total;
}

double ValueNetwork::ToLabelSpace(double y) const {
  return config_.log_transform ? std::log1p(std::max(0.0, y)) : y;
}

double ValueNetwork::FromLabelSpace(double z) const {
  if (!config_.log_transform) return z;
  // Clamp to avoid overflow on wild early-training outputs.
  return std::expm1(std::min(z, 40.0));
}

double ValueNetwork::Predict(const nn::Vec& query,
                             const nn::TreeSample& plan) const {
  // The per-item MatVec path: the baseline bench_inference_batching holds
  // ForwardBatch against.
  const size_t n = plan.features.size();
  std::vector<nn::Vec> inputs(n), h1, h2;
  for (size_t i = 0; i < n; ++i) {
    nn::Vec& in = inputs[i];
    in.reserve(query.size() + plan.features[i].size());
    in.assign(query.begin(), query.end());
    in.insert(in.end(), plan.features[i].begin(), plan.features[i].end());
  }
  tc1_.Forward(inputs, plan.left, plan.right, &h1);
  for (auto& v : h1) nn::ReluForward(&v);
  tc2_.Forward(h1, plan.left, plan.right, &h2);
  for (auto& v : h2) nn::ReluForward(&v);
  nn::Vec pooled, m1, out;
  nn::DynamicMaxPool(h2, &pooled);
  fc1_.Forward(pooled, &m1);
  nn::ReluForward(&m1);
  fc2_.Forward(m1, &out);
  return FromLabelSpace(out[0]);
}

void ValueNetwork::StackedForward(
    const std::vector<const nn::Vec*>& queries,
    const std::vector<const nn::TreeSample*>& plans, Stacked* s) const {
  const int items = static_cast<int>(plans.size());
  // Child indices become global column indices.
  s->begin.assign(static_cast<size_t>(items) + 1, 0);
  for (int i = 0; i < items; ++i) {
    s->begin[i + 1] =
        s->begin[i] + static_cast<int>(plans[i]->features.size());
  }
  const int total = s->begin[items];
  const int qd = config_.query_dim;
  const int nd = config_.node_dim;
  s->x = nn::Mat(qd + nd, total);
  s->left.resize(static_cast<size_t>(total));
  s->right.resize(static_cast<size_t>(total));
  for (int i = 0; i < items; ++i) {
    const nn::TreeSample& tree = *plans[i];
    const nn::Vec& query = *queries[i];
    const int base = s->begin[i];
    for (size_t node = 0; node < tree.features.size(); ++node) {
      const int col = base + static_cast<int>(node);
      for (int r = 0; r < qd; ++r) s->x.at(r, col) = query[r];
      const nn::Vec& feat = tree.features[node];
      for (int r = 0; r < nd; ++r) s->x.at(qd + r, col) = feat[r];
      s->left[col] = tree.left[node] >= 0 ? base + tree.left[node] : -1;
      s->right[col] = tree.right[node] >= 0 ? base + tree.right[node] : -1;
    }
  }

  tc1_.ForwardBatch(s->x, s->left, s->right, &s->h1);
  nn::ReluMatForward(&s->h1);
  tc2_.ForwardBatch(s->h1, s->left, s->right, &s->h2);
  nn::ReluMatForward(&s->h2);
  nn::DynamicMaxPoolBatch(s->h2, s->begin, &s->pooled, &s->argmax);
  fc1_.ForwardBatch(s->pooled, &s->m1);
  nn::ReluMatForward(&s->m1);
  fc2_.ForwardBatch(s->m1, &s->out);
}

void ValueNetwork::StackedBackward(const Stacked& s, const nn::Mat& dout) {
  // Node-major throughout: row j of every matrix here is column j of the
  // forward pass, and dout (one output per item) has the same layout.
  const nn::Mat m1 = nn::Transpose(s.m1);
  const nn::Mat h2 = nn::Transpose(s.h2);
  const nn::Mat h1 = nn::Transpose(s.h1);
  nn::Mat dm1, dpooled, dh1;
  fc2_.BackwardBatch(m1, dout, &dm1);
  nn::ReluMatBackward(m1, &dm1);
  fc1_.BackwardBatch(nn::Transpose(s.pooled), dm1, &dpooled);
  nn::Mat dh2(h2.rows, h2.cols);
  nn::DynamicMaxPoolBatchBackward(dpooled, s.argmax, &dh2);
  nn::ReluMatBackward(h2, &dh2);
  tc2_.BackwardBatch(h1, s.left, s.right, dh2, &dh1);
  nn::ReluMatBackward(h1, &dh1);
  tc1_.BackwardBatch(nn::Transpose(s.x), s.left, s.right, dh1, nullptr);
}

std::vector<double> ValueNetwork::ForwardBatch(
    const std::vector<const nn::Vec*>& queries,
    const std::vector<const nn::TreeSample*>& plans) const {
  std::vector<double> out(plans.size());
  if (plans.empty()) return out;
  Stacked s;
  StackedForward(queries, plans, &s);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = FromLabelSpace(s.out.at(0, static_cast<int>(i)));
  }
  return out;
}

std::vector<double> ValueNetwork::ForwardBatch(
    const nn::Vec& query,
    const std::vector<const nn::TreeSample*>& plans) const {
  std::vector<const nn::Vec*> queries(plans.size(), &query);
  return ForwardBatch(queries, plans);
}

namespace {

// ScoreRoots' and ChildTerms' batch matrices, reused across a thread's
// calls. A call over more than kRetainedColumns columns frees them at its
// end, so between calls a thread keeps at most that many columns of each,
// however wide a batch once was.
struct ScoringScratch {
  static constexpr size_t kRetainedColumns = 512;

  nn::Mat h1, pooled, m1, out, t2;
  nn::TermColumns terms[2][2];  // [layer][side]
  std::vector<size_t> side_jobs;  // ChildTerms: one side's jobs

  void Trim(size_t columns) {
    if (columns > kRetainedColumns) *this = ScoringScratch();
  }
};

ScoringScratch& ThreadScratch() {
  thread_local ScoringScratch scratch;
  return scratch;
}

// Sizes `m` as rows x cols, keeping its capacity; the entries are left for
// the caller to write.
void Shape(nn::Mat* m, int rows, int cols) {
  m->rows = rows;
  m->cols = cols;
  m->data.resize(static_cast<size_t>(rows) * cols);
}

}  // namespace

void ValueNetwork::QueryTerm(const float* query, float* term) const {
  const int h1_rows = config_.tree_hidden1;
  std::fill(term, term + query_term_dim(), 0.f);
  for (int k = 0; k < 3; ++k) {
    nn::GatherAdd(tc1_wt_[k], 0, query, config_.query_dim,
                  term + k * h1_rows);
  }
}

void ValueNetwork::ScoreRoots(const std::vector<RootJob>& jobs) const {
  const int n = static_cast<int>(jobs.size());
  if (n == 0) return;
  ScoringScratch& s = ThreadScratch();

  // Layer 1's Wp (query ++ node) per column: the query's term, continued
  // over the node's nonzero inputs (GatherAdd) in the row's h1 slot, bitwise
  // the AddMatMul that ForwardWithTerms would run.
  const int qd = config_.query_dim;
  const int h1_rows = config_.tree_hidden1;
  Shape(&s.h1, h1_rows, n);
  for (int j = 0; j < n; ++j) {
    float* product = jobs[j].row;
    std::copy(jobs[j].query_term, jobs[j].query_term + h1_rows, product);
    nn::GatherAdd(tc1_wt_[0], qd, jobs[j].node, config_.node_dim, product);
    for (int r = 0; r < h1_rows; ++r) s.h1.at(r, j) = product[r];
  }
  // Each side's cached terms for each layer: a child's term holds the tc1
  // term, then the tc2 term from h1_rows on.
  for (int layer : {0, 1}) {
    for (int side : {0, 1}) {
      nn::TermColumns& t = s.terms[layer][side];
      t.cols.assign(static_cast<size_t>(n), nullptr);
      const int offset = layout_.term[side] + layer * h1_rows;
      for (int j = 0; j < n; ++j) {
        const float* child = side == 0 ? jobs[j].left : jobs[j].right;
        if (child != nullptr) t.cols[j] = child + offset;
      }
    }
  }

  tc1_.AddTermsAndBias(s.terms[0][0], s.terms[0][1], &s.h1);
  nn::ReluMatForward(&s.h1);
  tc2_.ForwardWithTerms(s.h1, s.terms[1][0], s.terms[1][1], &s.pooled);
  nn::ReluMatForward(&s.pooled);
  // pooled starts as each root's h2; fold in the children's pooled maxima.
  nn::Mat& pooled = s.pooled;
  for (int j = 0; j < n; ++j) {
    for (const float* child : {jobs[j].left, jobs[j].right}) {
      if (child == nullptr) continue;
      const float* child_pooled = child + layout_.pooled;
      for (int d = 0; d < pooled.rows; ++d) {
        if (child_pooled[d] > pooled.at(d, j)) {
          pooled.at(d, j) = child_pooled[d];
        }
      }
    }
  }
  fc1_.ForwardBatch(pooled, &s.m1);
  nn::ReluMatForward(&s.m1);
  fc2_.ForwardBatch(s.m1, &s.out);
  for (int j = 0; j < n; ++j) {
    float* row = jobs[j].row;
    for (int r = 0; r < h1_rows; ++r) row[r] = s.h1.at(r, j);
    for (int d = 0; d < pooled.rows; ++d) {
      row[layout_.pooled + d] = pooled.at(d, j);
    }
    *jobs[j].score = FromLabelSpace(s.out.at(0, j));
  }
  s.Trim(static_cast<size_t>(n));
}

void ValueNetwork::ChildTerms(const std::vector<TermJob>& jobs) const {
  ScoringScratch& s = ThreadScratch();
  const int qd = config_.query_dim;
  const int h1_rows = config_.tree_hidden1;
  for (int side : {0, 1}) {
    s.side_jobs.clear();
    for (size_t k = 0; k < jobs.size(); ++k) {
      if (jobs[k].side == side) s.side_jobs.push_back(k);
    }
    if (s.side_jobs.empty()) continue;
    const int m = static_cast<int>(s.side_jobs.size());
    // Layer 2's terms from the subtrees' h1 columns stacked into one batch;
    // layer 1's (Wl or Wr) continued from the query term over the node's
    // features, as ScoreRoots continues Wp's.
    Shape(&s.h1, h1_rows, m);
    for (int k = 0; k < m; ++k) {
      const float* h1 = jobs[s.side_jobs[k]].row;
      for (int r = 0; r < h1_rows; ++r) s.h1.at(r, k) = h1[r];
    }
    tc2_.ChildTerm(side, s.h1, &s.t2);
    const nn::Mat& wt = tc1_wt_[1 + side];
    for (int k = 0; k < m; ++k) {
      const TermJob& job = jobs[s.side_jobs[k]];
      const float* query_term = job.query_term + (1 + side) * h1_rows;
      float* term = job.row + layout_.term[side];
      std::copy(query_term, query_term + h1_rows, term);
      nn::GatherAdd(wt, qd, job.node, config_.node_dim, term);
      for (int r = 0; r < s.t2.rows; ++r) term[h1_rows + r] = s.t2.at(r, k);
    }
  }
  s.Trim(jobs.size());
}

ValueNetwork::TrainResult ValueNetwork::Train(
    const std::vector<TrainingPoint>& data, const TrainOptions& options) {
  TrainResult result;
  if (data.empty()) return result;

  std::vector<int> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(options.shuffle_seed);
  rng.Shuffle(&order);

  size_t num_val = static_cast<size_t>(
      static_cast<double>(data.size()) * options.val_fraction);
  // Keep at least one training example.
  num_val = std::min(num_val, data.size() - 1);
  std::vector<int> val(order.begin(), order.begin() + num_val);
  std::vector<int> train(order.begin() + num_val, order.end());

  nn::Adam::Options adam_opts;
  adam_opts.lr = options.lr;
  nn::Adam adam(Params(), adam_opts);

  // One StackedForward over data[idx[pos..end)], reusing `stacked`.
  Stacked stacked;
  std::vector<const nn::Vec*> queries;
  std::vector<const nn::TreeSample*> plans;
  auto forward = [&](const std::vector<int>& idx, size_t pos, size_t end) {
    queries.clear();
    plans.clear();
    for (size_t k = pos; k < end; ++k) {
      queries.push_back(&data[idx[k]].query);
      plans.push_back(&data[idx[k]].plan);
    }
    StackedForward(queries, plans, &stacked);
  };
  const size_t batch_size = static_cast<size_t>(options.batch_size);

  auto eval_loss = [&](const std::vector<int>& idx) {
    if (idx.empty()) return 0.0;
    double total = 0;
    for (size_t pos = 0; pos < idx.size(); pos += batch_size) {
      const size_t end = std::min(pos + batch_size, idx.size());
      forward(idx, pos, end);
      for (size_t k = pos; k < end; ++k) {
        double z = ToLabelSpace(data[idx[k]].label);
        double pred = stacked.out.at(0, static_cast<int>(k - pos));
        total += (pred - z) * (pred - z);
      }
    }
    return total / static_cast<double>(idx.size());
  };

  double best_val = std::numeric_limits<double>::infinity();
  int stale_epochs = 0;
  // Snapshot of the best-so-far weights for early-stopping restoration.
  std::vector<nn::Mat> best_weights;
  auto snapshot = [&] {
    best_weights.clear();
    for (nn::Param* p : Params()) best_weights.push_back(p->value);
  };
  auto restore = [&] {
    if (best_weights.empty()) return;
    auto params = Params();
    for (size_t i = 0; i < params.size(); ++i) {
      params[i]->value = best_weights[i];
    }
  };

  for (int epoch = 0; epoch < options.max_epochs; ++epoch) {
    rng.Shuffle(&train);
    double epoch_loss = 0;
    size_t pos = 0;
    while (pos < train.size()) {
      const size_t batch_end = std::min(pos + batch_size, train.size());
      const int batch = static_cast<int>(batch_end - pos);
      forward(train, pos, batch_end);
      nn::Mat dout(batch, 1);
      for (int k = 0; k < batch; ++k) {
        double residual =
            stacked.out.at(0, k) - ToLabelSpace(data[train[pos + k]].label);
        epoch_loss += residual * residual;
        dout.at(k, 0) = static_cast<float>(2.0 * residual);
      }
      StackedBackward(stacked, dout);
      adam.Step(batch);
      result.sgd_samples += batch;
      pos = batch_end;
    }
    result.epochs_run = epoch + 1;
    result.final_train_loss =
        epoch_loss / static_cast<double>(std::max<size_t>(1, train.size()));

    if (!val.empty()) {
      double val_loss = eval_loss(val);
      if (val_loss < best_val - 1e-9) {
        best_val = val_loss;
        stale_epochs = 0;
        snapshot();
      } else if (epoch + 1 >= options.min_epochs &&
                 ++stale_epochs >= options.patience) {
        break;
      }
    }
  }
  if (!val.empty()) restore();
  TransposeLayer1();
  result.best_val_loss = val.empty() ? result.final_train_loss : best_val;
  return result;
}

Status ValueNetwork::CopyWeightsFrom(const ValueNetwork& other) {
  auto* mutable_other = const_cast<ValueNetwork*>(&other);
  Status status = nn::CopyParams(mutable_other->Params(), Params());
  if (status.ok()) TransposeLayer1();
  return status;
}

Status ValueNetwork::Save(const std::string& path) {
  return nn::SaveParams(Params(), path);
}

Status ValueNetwork::Load(const std::string& path) {
  Status status = nn::LoadParams(Params(), path);
  if (status.ok()) TransposeLayer1();
  return status;
}

}  // namespace balsa
