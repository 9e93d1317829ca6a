// The learned value function V(query, plan) -> overall cost or latency (§2.1,
// §7): a tree convolution network over the plan tree, where every node's
// input is the concatenation of the query feature vector and the node's
// operator/table features, followed by dynamic max pooling and an MLP head.
// Trained with L2 loss in log space (latencies span orders of magnitude).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/model/featurizer.h"
#include "src/nn/nn.h"
#include "src/util/status.h"

namespace balsa {

struct ValueNetConfig {
  int query_dim = 0;
  int node_dim = 0;
  int tree_hidden1 = 64;
  int tree_hidden2 = 32;
  int mlp_hidden = 32;
  uint64_t init_seed = 1;
};

/// One supervised example: featurized (query, plan) with a scalar label
/// (cost in simulation, latency in ms in real execution).
struct TrainingPoint {
  nn::Vec query;
  nn::TreeSample plan;
  double label = 0;
};

/// Incremental scoring's row types (nn.h): a scored subtree's row, the
/// roots to score, and the child terms to fill. A RootJob's score is the
/// predicted label (original units) once ValueNetwork::ScoreRoots returns.
using EmbeddingRowLayout = nn::EmbeddingRowLayout;
using RootJob = nn::RootJob;
using TermJob = nn::TermJob;

class ValueNetwork {
 public:
  explicit ValueNetwork(ValueNetConfig config);

  // Copyable (diversified-experience retraining clones architectures).
  ValueNetwork(const ValueNetwork&) = default;
  ValueNetwork& operator=(const ValueNetwork&) = default;

  /// Predicted label (original units) for a featurized (query, plan).
  double Predict(const nn::Vec& query, const nn::TreeSample& plan) const;

  /// Batched prediction: training's forward pass over all (query, plan)
  /// items. Each item gets one query term; its nodes are scored bottom-up
  /// by the row kernels beam search scores with (nn::ChildTerms for each
  /// child's side, then nn::ScoreRoots), so a score is bitwise Predict's
  /// and independent of the rest of the batch. `queries[i]` pairs with
  /// `plans[i]`; every plan is a tree in preorder, as
  /// Featurizer::PlanFeatures emits it (node 0 the root, each child after
  /// its parent).
  std::vector<double> ForwardBatch(
      const std::vector<const nn::Vec*>& queries,
      const std::vector<const nn::TreeSample*>& plans) const;

  /// Shared-query convenience overload (many plans of one query).
  std::vector<double> ForwardBatch(
      const nn::Vec& query,
      const std::vector<const nn::TreeSample*>& plans) const;

  /// The row layout incremental scoring uses for this architecture.
  const EmbeddingRowLayout& row_layout() const { return rows_.layout; }

  /// Floats in a query term: 3 * tree_hidden1.
  int query_term_dim() const { return 3 * config_.tree_hidden1; }

  /// Layer 1's products of a query's part of the input columns (see
  /// nn::QueryTerm). A search computes it once; ScoreRoots and ChildTerms
  /// continue every root's columns from it.
  void QueryTerm(const float* query, float* term) const;

  /// Incremental scoring: scores each job's root from its query term, its
  /// node features and its children's cached terms and pooled maxima, one
  /// job at a time in its own row (nn::ScoreRoots over the transposed
  /// weights), writing the root's h1 and pooled and its score. Bitwise
  /// equal to Predict over the whole subtree:
  ///  - layer 1's Wp product is the query term continued over the node's
  ///    nonzero (mostly one-hot) inputs by nn::GatherAdd, and layer 2's
  ///    and the head's products are nn::ColumnAccumulate, all summing as
  ///    MatVec does;
  ///  - the children's terms (ChildTerms) and the bias are added to each
  ///    layer's product in the order TreeConvLayer::Forward adds them;
  ///  - pooled = max(root h2, children's pooled) is DynamicMaxPool's value:
  ///    post-ReLU values are never negative, -0 or NaN, so their max does
  ///    not depend on visiting order.
  /// Only reads the children, so concurrent calls may share them. Holds no
  /// per-thread state.
  void ScoreRoots(const std::vector<RootJob>& jobs) const;

  /// Fills each job's term for its side: layer 1's Wl (or Wr) product,
  /// continued from the query term over the node's features as ScoreRoots
  /// continues Wp's, then layer 2's product over the subtree's h1
  /// (nn::ChildTerms). A term is bitwise the MatVec products
  /// TreeConvLayer::Forward adds for the subtree as that child, and
  /// independent of the rest of the batch.
  void ChildTerms(const std::vector<TermJob>& jobs) const;

  struct TrainOptions {
    int max_epochs = 100;
    int min_epochs = 1;
    int batch_size = 64;
    double lr = 1e-3;
    /// Fraction of data held out as a validation set for early stopping
    /// (the paper uses 10%).
    double val_fraction = 0.1;
    /// Stop after this many epochs without validation improvement.
    int patience = 3;
    uint64_t shuffle_seed = 3;
  };

  struct TrainResult {
    int epochs_run = 0;
    double final_train_loss = 0;
    double best_val_loss = 0;
    int64_t sgd_samples = 0;  // total examples processed (for virtual time)
  };

  /// Trains on `data` with minibatch Adam and early stopping. Loss is L2 in
  /// (optionally log-transformed) label space.
  TrainResult Train(const std::vector<TrainingPoint>& data,
                    const TrainOptions& options);

  /// Re-initializes all weights (the full-retrain scheme, §8.3.4).
  void InitWeights(uint64_t seed);

  /// Copies weights from another network of identical architecture
  /// (V_real <- V_sim initialization, §2.1). On a mismatch, nothing
  /// changes.
  Status CopyWeightsFrom(const ValueNetwork& other);

  Status Save(const std::string& path);
  /// All-or-nothing: a failed load leaves the network as it was.
  Status Load(const std::string& path);

  size_t NumWeights() const;
  const ValueNetConfig& config() const { return config_; }

 private:
  struct Stacked;

  /// The batched forward pass in transformed label space (see
  /// ForwardBatch), keeping what StackedBackward reads, node-major: every
  /// plan's nodes stacked in preorder, one row per node or item. out[i] is
  /// item i's output, bitwise equal to Predict's before FromLabelSpace.
  /// Reads rows_, so the transposed weights must be current.
  void StackedForward(const std::vector<const nn::Vec*>& queries,
                      const std::vector<const nn::TreeSample*>& plans,
                      Stacked* s) const;
  /// Accumulates the gradients of sum_i dout(i, 0) * out[i] over a
  /// StackedForward batch: each gradient element adds its per-sample,
  /// per-node terms in sample order, then node order.
  void StackedBackward(const Stacked& s, const nn::Mat& dout);

  std::vector<nn::Param*> Params();
  std::vector<const nn::Param*> Params() const;

  /// Rebuilds rows_ from the layers' weights. Every write of the weights
  /// (InitWeights, each of Train's steps, Load, CopyWeightsFrom) ends with
  /// it.
  void TransposeWeights();

  ValueNetConfig config_;
  nn::TreeConvLayer tc1_, tc2_;
  nn::Linear fc1_, fc2_;
  /// Transposed copies of every layer's weights, and of the biases, that
  /// QueryTerm, ScoreRoots, ChildTerms and the batched forward pass read.
  nn::RowNet rows_;
};

}  // namespace balsa
