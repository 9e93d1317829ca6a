#include "src/model/value_network.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/util/logging.h"

namespace balsa {

struct ValueNetwork::Activations {
  std::vector<nn::Vec> inputs;   // per node: concat(query, node features)
  std::vector<nn::Vec> h1;       // post-ReLU tree conv 1
  std::vector<nn::Vec> h2;       // post-ReLU tree conv 2
  nn::Vec pooled;
  std::vector<int> argmax;
  nn::Vec m1;                    // post-ReLU fc1
  nn::Vec out;                   // fc2 output (size 1)
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

double ValueNetwork::ForwardTransformed(const nn::Vec& query,
                                        const nn::TreeSample& plan,
                                        Activations* acts) const {
  Activations local;
  Activations& a = acts ? *acts : local;
  size_t n = plan.features.size();
  a.inputs.resize(n);
  for (size_t i = 0; i < n; ++i) {
    nn::Vec& in = a.inputs[i];
    in.reserve(query.size() + plan.features[i].size());
    in.assign(query.begin(), query.end());
    in.insert(in.end(), plan.features[i].begin(), plan.features[i].end());
  }
  tc1_.Forward(a.inputs, plan.left, plan.right, &a.h1);
  for (auto& v : a.h1) nn::ReluForward(&v);
  tc2_.Forward(a.h1, plan.left, plan.right, &a.h2);
  for (auto& v : a.h2) nn::ReluForward(&v);
  nn::DynamicMaxPool(a.h2, &a.pooled, &a.argmax);
  fc1_.Forward(a.pooled, &a.m1);
  nn::ReluForward(&a.m1);
  fc2_.Forward(a.m1, &a.out);
  return a.out[0];
}

void ValueNetwork::Backward(const nn::Vec& /*query*/,
                            const nn::TreeSample& plan,
                            const Activations& acts, double dout) {
  nn::Vec dy_out{static_cast<float>(dout)};
  nn::Vec dm1(acts.m1.size(), 0.f);
  fc2_.Backward(acts.m1, dy_out, &dm1);
  nn::ReluBackward(acts.m1, &dm1);
  nn::Vec dpooled(acts.pooled.size(), 0.f);
  fc1_.Backward(acts.pooled, dm1, &dpooled);

  std::vector<nn::Vec> dh2(acts.h2.size(),
                           nn::Vec(acts.pooled.size(), 0.f));
  nn::DynamicMaxPoolBackward(dpooled, acts.argmax, &dh2);
  for (size_t i = 0; i < dh2.size(); ++i) nn::ReluBackward(acts.h2[i], &dh2[i]);

  std::vector<nn::Vec> dh1(acts.h1.size(),
                           nn::Vec(acts.h1.empty() ? 0 : acts.h1[0].size(),
                                   0.f));
  tc2_.Backward(acts.h1, plan.left, plan.right, dh2, &dh1);
  for (size_t i = 0; i < dh1.size(); ++i) nn::ReluBackward(acts.h1[i], &dh1[i]);
  tc1_.Backward(acts.inputs, plan.left, plan.right, dh1, nullptr);
}

double ValueNetwork::Predict(const nn::Vec& query,
                             const nn::TreeSample& plan) const {
  return FromLabelSpace(ForwardTransformed(query, plan, nullptr));
}

std::vector<double> ValueNetwork::ForwardBatch(
    const std::vector<const nn::Vec*>& queries,
    const std::vector<const nn::TreeSample*>& plans) const {
  const int items = static_cast<int>(plans.size());
  std::vector<double> out(static_cast<size_t>(items));
  if (items == 0) return out;

  // Stack every plan's nodes into one column-per-node batch; child indices
  // become global column indices.
  std::vector<int> begin(static_cast<size_t>(items) + 1, 0);
  for (int i = 0; i < items; ++i) {
    begin[i + 1] = begin[i] + static_cast<int>(plans[i]->features.size());
  }
  const int total = begin[items];
  const int qd = config_.query_dim;
  const int nd = config_.node_dim;
  nn::Mat x(qd + nd, total);
  std::vector<int> left(static_cast<size_t>(total));
  std::vector<int> right(static_cast<size_t>(total));
  for (int i = 0; i < items; ++i) {
    const nn::TreeSample& tree = *plans[i];
    const nn::Vec& query = *queries[i];
    for (size_t node = 0; node < tree.features.size(); ++node) {
      const int col = begin[i] + static_cast<int>(node);
      for (int r = 0; r < qd; ++r) x.at(r, col) = query[r];
      const nn::Vec& feat = tree.features[node];
      for (int r = 0; r < nd; ++r) x.at(qd + r, col) = feat[r];
      left[col] = tree.left[node] >= 0 ? begin[i] + tree.left[node] : -1;
      right[col] = tree.right[node] >= 0 ? begin[i] + tree.right[node] : -1;
    }
  }

  nn::Mat h1, h2, pooled, m1, o;
  tc1_.ForwardBatch(x, left, right, &h1);
  nn::ReluMatForward(&h1);
  tc2_.ForwardBatch(h1, left, right, &h2);
  nn::ReluMatForward(&h2);
  nn::DynamicMaxPoolBatch(h2, begin, &pooled);
  fc1_.ForwardBatch(pooled, &m1);
  nn::ReluMatForward(&m1);
  fc2_.ForwardBatch(m1, &o);
  for (int i = 0; i < items; ++i) out[i] = FromLabelSpace(o.at(0, i));
  return out;
}

std::vector<double> ValueNetwork::ForwardBatch(
    const nn::Vec& query,
    const std::vector<const nn::TreeSample*>& plans) const {
  std::vector<const nn::Vec*> queries(plans.size(), &query);
  return ForwardBatch(queries, plans);
}

std::vector<SubtreeEmbedding> ValueNetwork::ScoreRoots(
    const std::vector<RootJob>& jobs) const {
  const int n = static_cast<int>(jobs.size());
  std::vector<SubtreeEmbedding> out(static_cast<size_t>(n));
  if (n == 0) return out;

  nn::Mat x(config_.query_dim + config_.node_dim, n);
  for (int j = 0; j < n; ++j) {
    nn::Vec& in = out[j].input;
    in.reserve(static_cast<size_t>(x.rows));
    in.assign(jobs[j].query->begin(), jobs[j].query->end());
    in.insert(in.end(), jobs[j].node->begin(), jobs[j].node->end());
    for (int r = 0; r < x.rows; ++r) x.at(r, j) = in[r];
  }
  // One side's cached terms for one layer: a child's terms hold the tc1
  // term, then the tc2 term from `offset` on.
  const size_t term_dim =
      static_cast<size_t>(config_.tree_hidden1 + config_.tree_hidden2);
  auto terms = [&](int side, size_t offset) {
    nn::TermColumns t;
    t.cols.resize(static_cast<size_t>(n));
    for (int j = 0; j < n; ++j) {
      const SubtreeEmbedding* child = side == 0 ? jobs[j].left : jobs[j].right;
      if (child == nullptr) continue;
      BALSA_CHECK(child->terms[side].size() == term_dim,
                  "ScoreRoots: a child's term for its side is not filled");
      t.cols[j] = child->terms[side].data() + offset;
    }
    return t;
  };
  auto column = [](const nn::Mat& m, int j) {
    nn::Vec v(static_cast<size_t>(m.rows));
    for (int r = 0; r < m.rows; ++r) v[r] = m.at(r, j);
    return v;
  };

  const size_t h1_dim = static_cast<size_t>(config_.tree_hidden1);
  nn::Mat h1, pooled, m1, o;
  tc1_.ForwardWithTerms(x, terms(0, 0), terms(1, 0), &h1);
  nn::ReluMatForward(&h1);
  tc2_.ForwardWithTerms(h1, terms(0, h1_dim), terms(1, h1_dim), &pooled);
  nn::ReluMatForward(&pooled);
  // pooled starts as each root's h2; fold in the children's pooled maxima.
  for (int j = 0; j < n; ++j) {
    for (const SubtreeEmbedding* child : {jobs[j].left, jobs[j].right}) {
      if (child == nullptr) continue;
      for (int d = 0; d < pooled.rows; ++d) {
        if (child->pooled[d] > pooled.at(d, j)) {
          pooled.at(d, j) = child->pooled[d];
        }
      }
    }
  }
  fc1_.ForwardBatch(pooled, &m1);
  nn::ReluMatForward(&m1);
  fc2_.ForwardBatch(m1, &o);
  for (int j = 0; j < n; ++j) {
    out[j].h1 = column(h1, j);
    out[j].pooled = column(pooled, j);
    out[j].score = FromLabelSpace(o.at(0, j));
  }
  return out;
}

void ValueNetwork::ChildTerms(const std::vector<TermJob>& jobs) const {
  for (int side : {0, 1}) {
    std::vector<SubtreeEmbedding*> children;
    for (const TermJob& job : jobs) {
      if (job.side == side) children.push_back(job.child);
    }
    if (children.empty()) continue;
    const int m = static_cast<int>(children.size());
    // Column k of `field` stacked over the children.
    auto gather = [&](nn::Vec SubtreeEmbedding::*field, int rows) {
      nn::Mat g(rows, m);
      for (int k = 0; k < m; ++k) {
        const nn::Vec& col = children[k]->*field;
        for (int r = 0; r < rows; ++r) g.at(r, k) = col[r];
      }
      return g;
    };
    nn::Mat t1 = tc1_.ChildTerm(side, gather(&SubtreeEmbedding::input,
                                             tc1_.in_dim()));
    nn::Mat t2 =
        tc2_.ChildTerm(side, gather(&SubtreeEmbedding::h1, tc2_.in_dim()));
    for (int k = 0; k < m; ++k) {
      nn::Vec& term = children[k]->terms[side];
      term.resize(static_cast<size_t>(t1.rows + t2.rows));
      for (int r = 0; r < t1.rows; ++r) term[r] = t1.at(r, k);
      for (int r = 0; r < t2.rows; ++r) term[t1.rows + r] = t2.at(r, k);
    }
  }
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

  auto eval_loss = [&](const std::vector<int>& idx) {
    if (idx.empty()) return 0.0;
    double total = 0;
    for (int i : idx) {
      double z = ToLabelSpace(data[i].label);
      double pred = ForwardTransformed(data[i].query, data[i].plan, nullptr);
      total += (pred - z) * (pred - z);
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
      size_t batch_end =
          std::min(pos + static_cast<size_t>(options.batch_size),
                   train.size());
      int batch = static_cast<int>(batch_end - pos);
      for (size_t b = pos; b < batch_end; ++b) {
        const TrainingPoint& pt = data[train[b]];
        Activations acts;
        double pred = ForwardTransformed(pt.query, pt.plan, &acts);
        double residual = pred - ToLabelSpace(pt.label);
        epoch_loss += residual * residual;
        Backward(pt.query, pt.plan, acts, 2.0 * residual);
      }
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
  result.best_val_loss = val.empty() ? result.final_train_loss : best_val;
  return result;
}

Status ValueNetwork::CopyWeightsFrom(const ValueNetwork& other) {
  auto* mutable_other = const_cast<ValueNetwork*>(&other);
  return nn::CopyParams(mutable_other->Params(), Params());
}

Status ValueNetwork::Save(const std::string& path) {
  return nn::SaveParams(Params(), path);
}

Status ValueNetwork::Load(const std::string& path) {
  return nn::LoadParams(Params(), path);
}

}  // namespace balsa
