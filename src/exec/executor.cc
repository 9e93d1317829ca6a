#include "src/exec/executor.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "src/obs/trace.h"

namespace balsa {

namespace {

/// ANDs one vectorizable predicate into sel[0..n) with a branch-free loop
/// over a chunk's raw values. NULL (exactly kNullValue) fails every
/// predicate; for kEq the comparison subsumes the NULL check whenever the
/// probe itself is non-NULL.
void ApplyFilterToChunk(PredOp op, int64_t value, const int64_t* v, int64_t n,
                        uint8_t* sel) {
  switch (op) {
    case PredOp::kEq:
      if (value == kNullValue) {
        std::fill(sel, sel + n, static_cast<uint8_t>(0));
        return;
      }
      for (int64_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(v[i] == value);
      }
      return;
    case PredOp::kNe:
      for (int64_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(v[i] != value) &
                  static_cast<uint8_t>(v[i] != kNullValue);
      }
      return;
    case PredOp::kLt:
      for (int64_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(v[i] < value) &
                  static_cast<uint8_t>(v[i] != kNullValue);
      }
      return;
    case PredOp::kLe:
      for (int64_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(v[i] <= value) &
                  static_cast<uint8_t>(v[i] != kNullValue);
      }
      return;
    case PredOp::kGt:
      for (int64_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(v[i] > value) &
                  static_cast<uint8_t>(v[i] != kNullValue);
      }
      return;
    case PredOp::kGe:
      for (int64_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(v[i] >= value) &
                  static_cast<uint8_t>(v[i] != kNullValue);
      }
      return;
    case PredOp::kIn:
      break;  // handled per-row by the caller (EvalFilter fallback)
  }
}

/// Fused single-predicate scan of one chunk: with exactly one vectorizable
/// filter the selection bitmap's extra passes cost more than they save, so
/// matches are emitted directly in one pass over the chunk's raw values.
/// Returns true when `matches` reached the row cap.
bool FusedScanChunk(PredOp op, int64_t value, const int64_t* v, int64_t n,
                    int64_t base, int64_t cap,
                    std::vector<uint32_t>* matches) {
  auto emit = [&](int64_t i) {
    matches->push_back(static_cast<uint32_t>(base + i));
    return static_cast<int64_t>(matches->size()) >= cap;
  };
  switch (op) {
    case PredOp::kEq:
      if (value == kNullValue) return false;
      for (int64_t i = 0; i < n; ++i) {
        if (v[i] == value && emit(i)) return true;
      }
      return false;
    case PredOp::kNe:
      for (int64_t i = 0; i < n; ++i) {
        if (v[i] != value && v[i] != kNullValue && emit(i)) return true;
      }
      return false;
    case PredOp::kLt:
      for (int64_t i = 0; i < n; ++i) {
        if (v[i] < value && v[i] != kNullValue && emit(i)) return true;
      }
      return false;
    case PredOp::kLe:
      for (int64_t i = 0; i < n; ++i) {
        if (v[i] <= value && v[i] != kNullValue && emit(i)) return true;
      }
      return false;
    case PredOp::kGt:
      for (int64_t i = 0; i < n; ++i) {
        if (v[i] > value && v[i] != kNullValue && emit(i)) return true;
      }
      return false;
    case PredOp::kGe:
      for (int64_t i = 0; i < n; ++i) {
        if (v[i] >= value && v[i] != kNullValue && emit(i)) return true;
      }
      return false;
    case PredOp::kIn:
      break;
  }
  return false;
}

}  // namespace

int64_t Executor::ColumnValue(const Query& query, int rel, int col,
                              uint32_t row) const {
  int table_idx = query.relations()[rel].table_idx;
  return snapshot_.column(table_idx, col)[static_cast<int64_t>(row)];
}

bool Executor::EvalFilter(const Query& query, const FilterPredicate& f,
                          uint32_t row) const {
  int64_t v = ColumnValue(query, f.col.relation, f.col.column, row);
  if (IsNull(v)) return false;  // NULL fails every predicate
  switch (f.op) {
    case PredOp::kEq: return v == f.value;
    case PredOp::kNe: return v != f.value;
    case PredOp::kLt: return v < f.value;
    case PredOp::kLe: return v <= f.value;
    case PredOp::kGt: return v > f.value;
    case PredOp::kGe: return v >= f.value;
    case PredOp::kIn:
      return std::find(f.in_values.begin(), f.in_values.end(), v) !=
             f.in_values.end();
  }
  return false;
}

StatusOr<Intermediate> Executor::Scan(const Query& query, int rel,
                                      NodeProfile* prof) const {
  // One span per relation scanned; inert unless the calling thread carries
  // a sampled request's trace context (obs::ScopedTraceContext).
  obs::SpanTimer span(obs::TraceStage::kExecScan);
  // Profiling observes only: with no sink no clock is read and no counter
  // is kept — the scan below is byte-for-byte the unprofiled one.
  const bool profiled = prof != nullptr;
  std::chrono::steady_clock::time_point prof_start;
  if (profiled) {
    *prof = NodeProfile{};
    prof->relation = rel;
    prof_start = std::chrono::steady_clock::now();
  }
  auto finish = [&](Intermediate&& out) -> Intermediate {
    if (profiled) {
      prof->rows_out = out.NumRows();
      prof->capped = out.capped;
      prof->wall_micros = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - prof_start)
                              .count();
    }
    return std::move(out);
  };
  if (rel < 0 || rel >= query.num_relations()) {
    return Status::OutOfRange("relation " + std::to_string(rel));
  }
  int table_idx = query.relations()[rel].table_idx;
  if (!snapshot_.HasData(table_idx)) {
    return Status::FailedPrecondition("no data for table index " +
                                      std::to_string(table_idx));
  }
  // The filters on `rel`, walked in place in the query's order.
  const std::vector<FilterPredicate>& filters = query.filters();

  Intermediate out;
  out.rels = {rel};
  out.tuples.resize(1);
  auto& rows = out.tuples[0];
  auto passes_all_but = [&](uint32_t r, const FilterPredicate* skip) {
    for (const FilterPredicate& f : filters) {
      if (f.col.relation != rel || &f == skip) continue;
      if (!EvalFilter(query, f, r)) return false;
    }
    return true;
  };

  // Index-assisted path: an equality filter's matches come straight from
  // the snapshot's hash index, in the same ascending row order a full scan
  // would produce (a kEq on NULL matches nothing either way — NULLs fail
  // every predicate and are not indexed).
  const FilterPredicate* eq = nullptr;
  if (options_.use_index_for_eq) {
    for (const FilterPredicate& f : filters) {
      if (f.col.relation == rel && f.op == PredOp::kEq) {
        eq = &f;
        break;
      }
    }
  }
  if (eq != nullptr) {
    if (profiled) prof->used_index = true;
    const HashIndex& index = snapshot_.index(table_idx, eq->col.column);
    for (uint32_t r : index.Lookup(eq->value)) {
      if (!passes_all_but(r, eq)) continue;
      rows.push_back(r);
      if (static_cast<int64_t>(rows.size()) >= options_.row_cap) {
        out.capped = true;
        break;
      }
    }
    return finish(std::move(out));
  }

  // Chunked full scan. Vectorizable predicates run branch-free over each
  // chunk's raw values: with exactly one of them the fused kernel emits
  // matches in the same pass; otherwise they AND into a selection bitmap
  // and kIn (the only per-row predicate) filters the survivors. Matches
  // append in ascending row order until the row cap.
  struct VecFilter {
    PredOp op;
    int64_t value;
    const ChunkedColumn* column;
  };
  std::vector<VecFilter> vectorized;
  std::vector<const FilterPredicate*> per_row;
  for (const FilterPredicate& f : filters) {
    if (f.col.relation != rel) continue;
    if (f.op == PredOp::kIn) {
      per_row.push_back(&f);
    } else {
      vectorized.push_back(
          {f.op, f.value, &snapshot_.column(table_idx, f.col.column)});
    }
  }

  const int64_t num_rows = snapshot_.row_count(table_idx);
  const int num_chunks = ChunkCountForRows(num_rows);
  if (profiled) prof->chunks_total = num_chunks;
  const bool fused = vectorized.size() == 1 && per_row.empty();
  std::vector<uint8_t> sel;
  for (int ci = 0; ci < num_chunks && !out.capped; ++ci) {
    const int64_t base = static_cast<int64_t>(ci) << kChunkShift;
    const int64_t n = std::min(kChunkRows, num_rows - base);
    if (fused) {
      const VecFilter& f = vectorized[0];
      out.capped = FusedScanChunk(f.op, f.value, f.column->chunk(ci).data(),
                                  n, base, options_.row_cap, &rows);
      continue;
    }
    sel.assign(static_cast<size_t>(n), 1);
    for (const VecFilter& f : vectorized) {
      ApplyFilterToChunk(f.op, f.value, f.column->chunk(ci).data(), n,
                         sel.data());
    }
    for (int64_t i = 0; i < n; ++i) {
      if (!sel[static_cast<size_t>(i)]) continue;
      uint32_t r = static_cast<uint32_t>(base + i);
      bool pass = true;
      for (const FilterPredicate* f : per_row) {
        if (!EvalFilter(query, *f, r)) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      rows.push_back(r);
      if (static_cast<int64_t>(rows.size()) >= options_.row_cap) {
        out.capped = true;
        break;
      }
    }
  }
  return finish(std::move(out));
}

StatusOr<Intermediate> Executor::Join(const Query& query,
                                      const Intermediate& left,
                                      const Intermediate& right,
                                      NodeProfile* prof) const {
  obs::SpanTimer span(obs::TraceStage::kExecJoin);
  const bool profiled = prof != nullptr;
  std::chrono::steady_clock::time_point prof_start;
  if (profiled) {
    *prof = NodeProfile{};
    prof->is_join = true;
    prof->rows_in_left = left.NumRows();
    prof->rows_in_right = right.NumRows();
    prof_start = std::chrono::steady_clock::now();
  }
  TableSet lset, rset;
  for (int r : left.rels) lset = lset.With(r);
  for (int r : right.rels) rset = rset.With(r);

  // Build a hash table on the smaller input, keyed by the first predicate.
  const bool build_left = left.NumRows() <= right.NumRows();
  const Intermediate& build = build_left ? left : right;
  const Intermediate& probe = build_left ? right : left;

  // The predicates crossing the cut, walked in place in the query's order
  // (Query::JoinsBetween's, without its copy) and oriented so .left refers
  // to the build side.
  auto crosses = [&](const JoinPredicate& p) {
    return lset.Contains(p.left.relation) && rset.Contains(p.right.relation);
  };
  std::vector<JoinPredicate> oriented;
  for (JoinPredicate p : query.joins()) {
    if (!crosses(p)) {
      std::swap(p.left, p.right);
      if (!crosses(p)) continue;
    }
    if (!build_left) std::swap(p.left, p.right);
    oriented.push_back(p);
  }
  if (oriented.empty()) {
    return Status::InvalidArgument("no join predicate between " +
                                   lset.ToString() + " and " +
                                   rset.ToString());
  }
  auto finish = [&](Intermediate&& joined) -> Intermediate {
    if (profiled) {
      prof->build_rows = build.NumRows();
      prof->probe_rows = probe.NumRows();
      prof->rows_out = joined.NumRows();
      prof->capped = joined.capped;
      prof->wall_micros = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - prof_start)
                              .count();
    }
    return std::move(joined);
  };

  const JoinPredicate& key = oriented[0];
  int build_slot = build.RelSlot(key.left.relation);
  int probe_slot = probe.RelSlot(key.right.relation);

  std::unordered_map<int64_t, std::vector<uint32_t>> ht;
  ht.reserve(static_cast<size_t>(build.NumRows()));
  for (int64_t i = 0; i < build.NumRows(); ++i) {
    uint32_t row = build.tuples[build_slot][i];
    int64_t v = ColumnValue(query, key.left.relation, key.left.column, row);
    if (IsNull(v)) continue;  // NULL keys never match
    ht[v].push_back(static_cast<uint32_t>(i));
  }

  Intermediate out;
  out.rels = left.rels;
  out.rels.insert(out.rels.end(), right.rels.begin(), right.rels.end());
  out.tuples.resize(out.rels.size());
  out.capped = left.capped || right.capped;

  // Slots of the extra predicates for verification.
  struct ExtraPred {
    int build_slot, probe_slot;
    ColumnRef build_col, probe_col;
  };
  std::vector<ExtraPred> extras;
  for (size_t i = 1; i < oriented.size(); ++i) {
    extras.push_back({build.RelSlot(oriented[i].left.relation),
                      probe.RelSlot(oriented[i].right.relation),
                      oriented[i].left, oriented[i].right});
  }

  const size_t n_left = left.rels.size();
  for (int64_t pi = 0; pi < probe.NumRows(); ++pi) {
    uint32_t prow = probe.tuples[probe_slot][pi];
    int64_t v = ColumnValue(query, key.right.relation, key.right.column, prow);
    if (IsNull(v)) continue;
    auto it = ht.find(v);
    if (it == ht.end()) continue;
    for (uint32_t bi : it->second) {
      bool pass = true;
      for (const auto& e : extras) {
        int64_t bv = ColumnValue(query, e.build_col.relation,
                                 e.build_col.column,
                                 build.tuples[e.build_slot][bi]);
        int64_t pv = ColumnValue(query, e.probe_col.relation,
                                 e.probe_col.column,
                                 probe.tuples[e.probe_slot][pi]);
        if (IsNull(bv) || IsNull(pv) || bv != pv) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      // Emit the combined tuple in (left rels..., right rels...) order.
      const Intermediate& lsrc = build_left ? build : probe;
      const Intermediate& rsrc = build_left ? probe : build;
      int64_t li = build_left ? bi : pi;
      int64_t ri = build_left ? pi : bi;
      for (size_t s = 0; s < n_left; ++s) {
        out.tuples[s].push_back(lsrc.tuples[s][li]);
      }
      for (size_t s = 0; s < right.rels.size(); ++s) {
        out.tuples[n_left + s].push_back(rsrc.tuples[s][ri]);
      }
      if (out.NumRows() >= options_.row_cap) {
        out.capped = true;
        return finish(std::move(out));
      }
    }
  }
  return finish(std::move(out));
}

StatusOr<Intermediate> Executor::Execute(const Query& query, const Plan& plan,
                                         int node_idx) const {
  if (node_idx < 0) node_idx = plan.root();
  if (node_idx < 0) return Status::InvalidArgument("empty plan");
  return ExecuteNode(query, plan, node_idx, nullptr);
}

StatusOr<Intermediate> Executor::ExecuteProfiled(
    const Query& query, const Plan& plan, ExecutionProfile* profile) const {
  const int root = plan.root();
  if (root < 0) return Status::InvalidArgument("empty plan");
  if (profile == nullptr) return ExecuteNode(query, plan, root, nullptr);
  *profile = ExecutionProfile{};
  profile->nodes.resize(static_cast<size_t>(plan.num_nodes()));
  const auto start = std::chrono::steady_clock::now();
  auto result = ExecuteNode(query, plan, root, profile);
  profile->total_micros = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  return result;
}

StatusOr<Intermediate> Executor::ExecuteNode(const Query& query,
                                             const Plan& plan, int node_idx,
                                             ExecutionProfile* profile) const {
  const PlanNode& n = plan.node(node_idx);
  NodeProfile* prof =
      profile != nullptr ? &profile->nodes[static_cast<size_t>(node_idx)]
                         : nullptr;
  if (!n.is_join) {
    auto out = Scan(query, n.relation, prof);
    if (prof != nullptr && out.ok()) prof->node_idx = node_idx;
    return out;
  }
  BALSA_ASSIGN_OR_RETURN(Intermediate left,
                         ExecuteNode(query, plan, n.left, profile));
  BALSA_ASSIGN_OR_RETURN(Intermediate right,
                         ExecuteNode(query, plan, n.right, profile));
  auto out = Join(query, left, right, prof);
  if (prof != nullptr && out.ok()) prof->node_idx = node_idx;
  return out;
}

}  // namespace balsa
