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
  /// Train on log1p(label) rather than raw values.
  bool log_transform = true;
  uint64_t init_seed = 1;
};

/// One supervised example: featurized (query, plan) with a scalar label
/// (cost in simulation, latency in ms in real execution).
struct TrainingPoint {
  nn::Vec query;
  nn::TreeSample plan;
  double label = 0;
};

/// What incremental scoring keeps of a scored subtree: enough to score any
/// join over it from the new root's columns alone.
struct SubtreeEmbedding {
  nn::Vec input;     // the root's input column: query ++ node features
  nn::Vec h1;        // the root's post-ReLU first tree-conv layer
  nn::Vec pooled;    // max of the second layer's output over the subtree
  /// What the subtree adds to a parent as its left (0) or right (1) child:
  /// Wl·input ++ Wl2·h1 of the two tree-conv layers (Wr, Wr2 on the
  /// right). Filled by ValueNetwork::ChildTerms; empty until then.
  nn::Vec terms[2];
  double score = 0;  // predicted label (original units)
};

/// One subtree root to score. A leaf has no children; a join's children
/// are subtrees scored earlier, each with its term for its side filled.
/// The pointers are borrowed for the call.
struct RootJob {
  const nn::Vec* query = nullptr;
  const nn::Vec* node = nullptr;  // Featurizer::NodeFeatures of the root
  const SubtreeEmbedding* left = nullptr;
  const SubtreeEmbedding* right = nullptr;
};

/// A scored subtree whose child term for `side` (0 = left, 1 = right) is to
/// be filled.
struct TermJob {
  SubtreeEmbedding* child = nullptr;
  int side = 0;
};

class ValueNetwork {
 public:
  explicit ValueNetwork(ValueNetConfig config);

  // Copyable (diversified-experience retraining clones architectures).
  ValueNetwork(const ValueNetwork&) = default;
  ValueNetwork& operator=(const ValueNetwork&) = default;

  /// Predicted label (original units) for a featurized (query, plan).
  double Predict(const nn::Vec& query, const nn::TreeSample& plan) const;

  /// Batched prediction: one forward pass over all (query, plan) items,
  /// with every plan's nodes stacked into shared matrices (batched tree
  /// convolution + dynamic pooling in nn::). An item's score is bitwise
  /// independent of the rest of the batch — the batched kernels accumulate
  /// in MatVec's exact summation order — so micro-batching concurrent
  /// requests can never change a result. `queries[i]` pairs with `plans[i]`.
  std::vector<double> ForwardBatch(
      const std::vector<const nn::Vec*>& queries,
      const std::vector<const nn::TreeSample*>& plans) const;

  /// Shared-query convenience overload (many plans of one query).
  std::vector<double> ForwardBatch(
      const nn::Vec& query,
      const std::vector<const nn::TreeSample*>& plans) const;

  /// Incremental scoring: embeds each job's root from its own input column
  /// and its children's cached terms, in one batched pass over the new
  /// roots only. Bitwise equal to ForwardBatch over the whole subtree:
  ///  - layer 1's Wp product is the query's term W[:, :qd] q, computed once
  ///    per call for each distinct query, continued over the node's
  ///    nonzero (mostly one-hot) inputs by nn::GatherAdd, which sums as
  ///    AddMatMul does;
  ///  - the rest of both tree-conv layers is TreeConvLayer's kernel
  ///    (ForwardWithTerms) with terms that ChildTerms computed the same way;
  ///  - pooled = max(root h2, children's pooled) is DynamicMaxPool's value:
  ///    post-ReLU values are never negative, -0 or NaN, so their max does
  ///    not depend on visiting order.
  /// Only reads the children, so concurrent calls may share them.
  std::vector<SubtreeEmbedding> ScoreRoots(
      const std::vector<RootJob>& jobs) const;

  /// Fills each job's child->terms[side]: layer 1's Wl (or Wr) times the
  /// child's input, as ScoreRoots computes Wp's product, then layer 2's
  /// TreeConvLayer::ChildTerm of the children's h1 columns, batched per
  /// side. A term is bitwise independent of the rest of the batch.
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
  /// (V_real <- V_sim initialization, §2.1).
  Status CopyWeightsFrom(const ValueNetwork& other);

  Status Save(const std::string& path);
  Status Load(const std::string& path);

  size_t NumWeights() const;
  const ValueNetConfig& config() const { return config_; }

 private:
  struct Stacked;

  /// The batched forward pass in transformed label space: every plan's
  /// nodes stacked into one column-per-node batch (each plan's nodes in
  /// preorder), keeping what StackedBackward reads. out(0, i) is item i's
  /// output, bitwise equal to Predict's before FromLabelSpace.
  void StackedForward(const std::vector<const nn::Vec*>& queries,
                      const std::vector<const nn::TreeSample*>& plans,
                      Stacked* s) const;
  /// Accumulates the gradients of sum_i dout(i, 0) * out(0, i) over a
  /// StackedForward batch: each gradient element adds its per-sample,
  /// per-node terms in sample order, then node order.
  void StackedBackward(const Stacked& s, const nn::Mat& dout);

  std::vector<nn::Param*> Params();
  std::vector<const nn::Param*> Params() const;

  /// Rebuilds tc1_wt_ from tc1_'s weights. Every write of the weights
  /// (InitWeights, Train, Load, CopyWeightsFrom) ends with it.
  void TransposeLayer1();

  double ToLabelSpace(double y) const;
  double FromLabelSpace(double z) const;

  ValueNetConfig config_;
  nn::TreeConvLayer tc1_, tc2_;
  nn::Linear fc1_, fc2_;
  /// Transposes of tc1_'s Wp, Wl and Wr, which ScoreRoots and ChildTerms
  /// gather weight columns from.
  nn::Mat tc1_wt_[3];
};

}  // namespace balsa
