#include "src/model/value_network.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "src/util/logging.h"

namespace balsa {

namespace {

// The network learns log1p(label): latencies span orders of magnitude.
double ToLabelSpace(double y) { return std::log1p(std::max(0.0, y)); }

double FromLabelSpace(double z) {
  // Clamp to avoid overflow on wild early-training outputs.
  return std::expm1(std::min(z, 40.0));
}

}  // namespace

// Node-major: row j of x, h1 and h2 is node j, row i of pooled and m1 is
// item i.
struct ValueNetwork::Stacked {
  std::vector<int> begin;        // item i owns nodes [begin[i], begin[i+1])
  std::vector<int> left, right;  // global child nodes, -1 for none
  nn::Mat x, h1, h2, pooled, m1;  // x: query ++ node features
  std::vector<double> out;
  std::vector<int> argmax;  // per (dim, item): h2's first maximal node
  std::vector<float> rows, query_term;  // the row kernels' scratch
};

ValueNetwork::ValueNetwork(ValueNetConfig config) : config_(config) {
  InitWeights(config_.init_seed);
}

void ValueNetwork::InitWeights(uint64_t seed) {
  Rng rng(seed);
  int in = config_.query_dim + config_.node_dim;
  tc1_ = nn::TreeConvLayer(in, config_.tree_hidden1, &rng);
  tc2_ = nn::TreeConvLayer(config_.tree_hidden1, config_.tree_hidden2, &rng);
  fc1_ = nn::Linear(config_.tree_hidden2, config_.mlp_hidden, &rng);
  fc2_ = nn::Linear(config_.mlp_hidden, 1, &rng);
  TransposeWeights();
}

void ValueNetwork::TransposeWeights() {
  rows_ = nn::RowNet(tc1_, tc2_, fc1_, fc2_, config_.query_dim);
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

double ValueNetwork::Predict(const nn::Vec& query,
                             const nn::TreeSample& plan) const {
  // The per-item MatVec path: the independent reference the row kernels
  // are tested against, and the baseline bench_inference_batching holds
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
  s->begin.assign(static_cast<size_t>(items) + 1, 0);
  for (int i = 0; i < items; ++i) {
    s->begin[i + 1] =
        s->begin[i] + static_cast<int>(plans[i]->features.size());
  }
  const int total = s->begin[items];
  const int qd = config_.query_dim;
  const int nd = config_.node_dim;
  const int h1 = config_.tree_hidden1;
  const int h2 = config_.tree_hidden2;
  const EmbeddingRowLayout& layout = rows_.layout;
  const size_t stride = static_cast<size_t>(layout.stride);
  s->x = nn::Mat(total, qd + nd);
  s->h1 = nn::Mat(total, h1);
  s->h2 = nn::Mat(total, h2);
  s->pooled = nn::Mat(items, h2);
  s->m1 = nn::Mat(items, config_.mlp_hidden);
  s->out.resize(static_cast<size_t>(items));
  s->argmax.resize(static_cast<size_t>(h2) * items);
  s->left.resize(static_cast<size_t>(total));
  s->right.resize(static_cast<size_t>(total));
  s->rows.resize(stride * total);
  s->query_term.resize(static_cast<size_t>(query_term_dim()));
  float* term = s->query_term.data();
  auto row = [&](int j) { return s->rows.data() + stride * j; };

  for (int i = 0; i < items; ++i) {
    const nn::TreeSample& tree = *plans[i];
    const nn::Vec& query = *queries[i];
    const int base = s->begin[i];
    nn::QueryTerm(rows_, query.data(), term);
    // Bottom-up: in preorder, a node's children come after it.
    for (int node = s->begin[i + 1] - base - 1; node >= 0; --node) {
      const int j = base + node;
      float* x = &s->x.at(j, 0);
      std::copy(query.begin(), query.end(), x);
      std::copy(tree.features[node].begin(), tree.features[node].end(),
                x + qd);
      nn::RootJob job;
      job.query_term = term;
      job.node = x + qd;
      job.row = row(j);
      job.h2 = &s->h2.at(j, 0);
      if (node == 0) {
        job.score = &s->out[i];
        job.hidden = &s->m1.at(i, 0);
      }
      nn::TermJob terms[2];
      size_t num_terms = 0;
      for (int side = 0; side < 2; ++side) {
        const int child = (side == 0 ? tree.left : tree.right)[node];
        (side == 0 ? s->left : s->right)[j] = child >= 0 ? base + child : -1;
        if (child < 0) continue;
        BALSA_CHECK(child > node, "a TreeSample must be in preorder");
        (side == 0 ? job.left : job.right) = row(base + child);
        terms[num_terms++] = {term, &s->x.at(base + child, 0) + qd,
                              row(base + child), side};
      }
      nn::ChildTerms(rows_, terms, num_terms);
      nn::ScoreRoots(rows_, &job, 1);
      std::copy(job.row, job.row + h1, &s->h1.at(j, 0));
    }
    const float* pooled = row(base) + layout.pooled;
    std::copy(pooled, pooled + h2, &s->pooled.at(i, 0));
    // The first node in preorder holding each maximum takes its gradient
    // (ReLU zeros tie often).
    for (int d = 0; d < h2; ++d) {
      float best = -1e30f;
      int arg = base;
      for (int j = base; j < s->begin[i + 1]; ++j) {
        const float v = s->h2.at(j, d);
        const bool greater = v > best;  // a select, not a branch
        best = greater ? v : best;
        arg = greater ? j : arg;
      }
      s->argmax[static_cast<size_t>(d) * items + i] = arg;
    }
  }
}

void ValueNetwork::StackedBackward(const Stacked& s, const nn::Mat& dout) {
  // Node-major throughout, as StackedForward wrote it; dout (one output
  // per item) has the same layout.
  nn::Mat dm1, dpooled, dh1;
  fc2_.BackwardBatch(s.m1, dout, &dm1);
  nn::ReluMatBackward(s.m1, &dm1);
  fc1_.BackwardBatch(s.pooled, dm1, &dpooled);
  nn::Mat dh2(s.h2.rows, s.h2.cols);
  nn::DynamicMaxPoolBatchBackward(dpooled, s.argmax, &dh2);
  nn::ReluMatBackward(s.h2, &dh2);
  tc2_.BackwardBatch(s.h1, s.left, s.right, dh2, &dh1);
  nn::ReluMatBackward(s.h1, &dh1);
  tc1_.BackwardBatch(s.x, s.left, s.right, dh1, nullptr);
}

std::vector<double> ValueNetwork::ForwardBatch(
    const std::vector<const nn::Vec*>& queries,
    const std::vector<const nn::TreeSample*>& plans) const {
  std::vector<double> out(plans.size());
  if (plans.empty()) return out;
  Stacked s;
  StackedForward(queries, plans, &s);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = FromLabelSpace(s.out[i]);
  }
  return out;
}

std::vector<double> ValueNetwork::ForwardBatch(
    const nn::Vec& query,
    const std::vector<const nn::TreeSample*>& plans) const {
  std::vector<const nn::Vec*> queries(plans.size(), &query);
  return ForwardBatch(queries, plans);
}

void ValueNetwork::QueryTerm(const float* query, float* term) const {
  nn::QueryTerm(rows_, query, term);
}

void ValueNetwork::ScoreRoots(const std::vector<RootJob>& jobs) const {
  nn::ScoreRoots(rows_, jobs.data(), jobs.size());
  for (const RootJob& job : jobs) {
    if (job.score != nullptr) *job.score = FromLabelSpace(*job.score);
  }
}

void ValueNetwork::ChildTerms(const std::vector<TermJob>& jobs) const {
  nn::ChildTerms(rows_, jobs.data(), jobs.size());
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

  nn::Adam adam(Params(), options.lr);

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
        double pred = stacked.out[k - pos];
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
            stacked.out[k] - ToLabelSpace(data[train[pos + k]].label);
        epoch_loss += residual * residual;
        dout.at(k, 0) = static_cast<float>(2.0 * residual);
      }
      StackedBackward(stacked, dout);
      adam.Step(batch);
      TransposeWeights();
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
  TransposeWeights();
  result.best_val_loss = val.empty() ? result.final_train_loss : best_val;
  return result;
}

Status ValueNetwork::CopyWeightsFrom(const ValueNetwork& other) {
  auto* mutable_other = const_cast<ValueNetwork*>(&other);
  Status status = nn::CopyParams(mutable_other->Params(), Params());
  if (status.ok()) TransposeWeights();
  return status;
}

Status ValueNetwork::Save(const std::string& path) {
  return nn::SaveParams(Params(), path);
}

Status ValueNetwork::Load(const std::string& path) {
  Status status = nn::LoadParams(Params(), path);
  if (status.ok()) TransposeWeights();
  return status;
}

}  // namespace balsa
