#include "src/stats/cardinality_estimator.h"

#include <algorithm>
#include <cmath>

namespace balsa {

const ColumnStats& CardinalityEstimator::ColStats(const Query& query,
                                                  const ColumnRef& col) const {
  int table_idx = query.relations()[col.relation].table_idx;
  return stats_[table_idx].columns[col.column];
}

double CardinalityEstimator::FilterSelectivity(
    const Query& query, const FilterPredicate& f) const {
  const ColumnStats& cs = ColStats(query, f.col);
  if (cs.num_distinct <= 0) return kDefaultSelectivity;
  const double non_null = 1.0 - cs.null_fraction;

  auto eq_sel = [&](int64_t value) -> double {
    for (size_t i = 0; i < cs.mcv_values.size(); ++i) {
      if (cs.mcv_values[i] == value) return cs.mcv_freqs[i] * non_null;
    }
    int64_t rest_ndv =
        cs.num_distinct - static_cast<int64_t>(cs.mcv_values.size());
    if (rest_ndv <= 0) return 0.0;
    return cs.non_mcv_fraction / static_cast<double>(rest_ndv) * non_null;
  };

  auto le_sel = [&](int64_t value) -> double {
    // MCV contribution.
    double sel = 0;
    for (size_t i = 0; i < cs.mcv_values.size(); ++i) {
      if (cs.mcv_values[i] <= value) sel += cs.mcv_freqs[i];
    }
    // Histogram contribution: fraction of buckets below, with linear
    // interpolation inside the containing bucket.
    if (cs.histogram_bounds.size() >= 2) {
      const auto& hb = cs.histogram_bounds;
      int buckets = static_cast<int>(hb.size()) - 1;
      double frac;
      if (value < hb.front()) {
        frac = 0.0;
      } else if (value >= hb.back()) {
        frac = 1.0;
      } else {
        int b = 0;
        while (b < buckets - 1 && hb[b + 1] <= value) b++;
        double lo = static_cast<double>(hb[b]);
        double hi = static_cast<double>(hb[b + 1]);
        double inside = hi > lo ? (static_cast<double>(value) - lo) / (hi - lo)
                                : 1.0;
        frac = (static_cast<double>(b) + inside) / buckets;
      }
      sel += cs.non_mcv_fraction * frac;
    }
    return std::clamp(sel, 0.0, 1.0) * non_null;
  };

  switch (f.op) {
    case PredOp::kEq:
      return eq_sel(f.value);
    case PredOp::kNe:
      return std::max(0.0, non_null - eq_sel(f.value));
    case PredOp::kLe:
      return le_sel(f.value);
    case PredOp::kLt:
      return std::max(0.0, le_sel(f.value) - eq_sel(f.value));
    case PredOp::kGe:
      return std::max(0.0, non_null - le_sel(f.value) + eq_sel(f.value));
    case PredOp::kGt:
      return std::max(0.0, non_null - le_sel(f.value));
    case PredOp::kIn: {
      double sel = 0;
      for (int64_t v : f.in_values) sel += eq_sel(v);
      return std::clamp(sel, 0.0, 1.0);
    }
  }
  return kDefaultSelectivity;
}

double CardinalityEstimator::EstimateSelectivity(const Query& query,
                                                 int rel) const {
  // Independence assumption: multiply selectivities of all conjuncts, in
  // the query's order (FiltersOn's, without its copies: query features are
  // on beam search's path).
  double sel = 1.0;
  for (const FilterPredicate& f : query.filters()) {
    if (f.col.relation == rel) sel *= FilterSelectivity(query, f);
  }
  return sel;
}

double CardinalityEstimator::EstimateScanRows(const Query& query,
                                              int rel) const {
  int table_idx = query.relations()[rel].table_idx;
  double rows = static_cast<double>(stats_[table_idx].row_count) *
                EstimateSelectivity(query, rel);
  return std::max(1.0, rows);
}

double CardinalityEstimator::JoinSelectivity(const Query& query,
                                             const JoinPredicate& j) const {
  const ColumnStats& l = ColStats(query, j.left);
  const ColumnStats& r = ColStats(query, j.right);
  double ndv = std::max<double>(
      1.0, static_cast<double>(std::max(l.num_distinct, r.num_distinct)));
  double null_factor = (1.0 - l.null_fraction) * (1.0 - r.null_fraction);
  return null_factor / ndv;
}

double CardinalityEstimator::EstimateJoinRows(const Query& query,
                                              TableSet set) const {
  // PostgreSQL-style clause-based estimate: product of filtered base
  // cardinalities times the selectivity of every join predicate internal to
  // the set (assuming independence between all clauses).
  double rows = 1.0;
  for (int rel : set) rows *= EstimateScanRows(query, rel);
  for (const auto& j : query.joins()) {
    if (set.Contains(j.left.relation) && set.Contains(j.right.relation)) {
      rows *= JoinSelectivity(query, j);
    }
  }
  return std::max(1.0, rows);
}

NoisyCardinalityEstimator::NoisyCardinalityEstimator(
    std::shared_ptr<CardinalityEstimatorInterface> base,
    double median_noise_factor, uint64_t seed)
    : base_(std::move(base)),
      sigma_(std::log(std::max(1.0, median_noise_factor))),
      seed_(seed) {}

double NoisyCardinalityEstimator::NoiseFor(int query_id, uint64_t key) const {
  // Deterministic noise: seed an RNG from (query, key) so estimates are
  // stable across calls, as a real (but wrong) estimator's would be.
  Rng rng(seed_ ^ (static_cast<uint64_t>(query_id + 1) * 0x9E3779B97F4A7C15ULL) ^
          key);
  // Median of |factor| is exp(sigma * median|N|) ~ exp(0.6745 sigma); scale
  // so the median divisor equals the requested factor.
  double z = rng.Normal() / 0.6745;
  return std::exp(sigma_ * z);
}

double NoisyCardinalityEstimator::EstimateScanRows(const Query& query,
                                                   int rel) const {
  return std::max(
      1.0, base_->EstimateScanRows(query, rel) /
               NoiseFor(query.id(), TableSet::Single(rel).bits()));
}

double NoisyCardinalityEstimator::EstimateJoinRows(const Query& query,
                                                   TableSet set) const {
  return std::max(1.0, base_->EstimateJoinRows(query, set) /
                           NoiseFor(query.id(), set.bits()));
}

double NoisyCardinalityEstimator::EstimateSelectivity(const Query& query,
                                                      int rel) const {
  return base_->EstimateSelectivity(query, rel);
}

}  // namespace balsa
