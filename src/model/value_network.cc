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

void ValueNetwork::QueryTerm(const float* query, float* term) const {
  nn::QueryTerm(rows_, query, term);
}

void ValueNetwork::ScoreRoots(const std::vector<RootJob>& jobs) const {
  nn::ScoreRoots(rows_, jobs.data(), jobs.size());
  for (const RootJob& job : jobs) *job.score = FromLabelSpace(*job.score);
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
