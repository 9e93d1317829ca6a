#include "src/introspect/explain.h"

#include <algorithm>
#include <cstdio>

#include "src/obs/export.h"

namespace balsa::introspect {

namespace {

std::string FmtF(const char* fmt, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

/// Annotates the subtree at `idx` with structure and estimates.
void AnnotateNode(const Query& query, const Plan& plan,
                  const CardinalityEstimatorInterface* estimator, int idx,
                  PlanExplain* out) {
  const PlanNode& n = plan.node(idx);
  ExplainNode& e = out->nodes[static_cast<size_t>(idx)];
  e.node_idx = idx;
  e.is_join = n.is_join;
  if (n.is_join) {
    e.op = JoinOpName(n.join_op);
    e.left = n.left;
    e.right = n.right;
    if (estimator != nullptr) {
      e.est_rows = estimator->EstimateJoinRows(query, n.tables);
    }
    AnnotateNode(query, plan, estimator, n.left, out);
    AnnotateNode(query, plan, estimator, n.right, out);
  } else {
    e.op = ScanOpName(n.scan_op);
    e.label = query.relations()[n.relation].alias;
    if (estimator != nullptr) {
      e.est_rows = estimator->EstimateScanRows(query, n.relation);
    }
  }
}

void RenderText(const PlanExplain& ex, int idx, int depth, std::string* out) {
  const ExplainNode* e = ex.node(idx);
  if (e == nullptr) return;
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += e->op;
  if (!e->label.empty()) {
    *out += '(';
    *out += e->label;
    *out += ')';
  }
  if (e->est_rows >= 0) *out += "  est=" + FmtF("%.0f", e->est_rows);
  if (e->analyzed) {
    *out += " act=" + std::to_string(e->actual_rows);
    if (e->q_error > 0) *out += " q=" + FmtF("%.2f", e->q_error);
    *out += "  " + FmtF("%.1f", e->wall_micros) + "us";
    if (e->is_join) {
      *out += "  [build " + std::to_string(e->build_rows) + ", probe " +
              std::to_string(e->probe_rows) + "]";
    } else if (e->used_index) {
      *out += "  [index]";
    } else {
      *out += "  [chunks " + std::to_string(e->chunks_total) + "]";
    }
    if (e->capped) *out += "  [CAPPED]";
  }
  *out += '\n';
  if (e->is_join) {
    RenderText(ex, e->left, depth + 1, out);
    RenderText(ex, e->right, depth + 1, out);
  }
}

void RenderJson(const PlanExplain& ex, int idx, std::string* out) {
  const ExplainNode* e = ex.node(idx);
  if (e == nullptr) {
    *out += "null";
    return;
  }
  *out += "{\"op\":\"" + obs::JsonEscape(e->op) + '"';
  if (!e->label.empty()) {
    *out += ",\"label\":\"" + obs::JsonEscape(e->label) + '"';
  }
  if (e->est_rows >= 0) *out += ",\"est_rows\":" + FmtF("%.1f", e->est_rows);
  if (e->analyzed) {
    *out += ",\"actual_rows\":" + std::to_string(e->actual_rows);
    *out += ",\"q_error\":" + FmtF("%.3f", e->q_error);
    *out += ",\"wall_us\":" + FmtF("%.1f", e->wall_micros);
    *out += ",\"capped\":";
    *out += e->capped ? "true" : "false";
    if (e->is_join) {
      *out += ",\"build_rows\":" + std::to_string(e->build_rows);
      *out += ",\"probe_rows\":" + std::to_string(e->probe_rows);
    } else {
      *out += ",\"used_index\":";
      *out += e->used_index ? "true" : "false";
      *out += ",\"chunks_total\":" + std::to_string(e->chunks_total);
    }
  }
  if (e->is_join) {
    *out += ",\"children\":[";
    RenderJson(ex, e->left, out);
    *out += ',';
    RenderJson(ex, e->right, out);
    *out += ']';
  }
  *out += '}';
}

}  // namespace

double QError(double est_rows, double actual_rows) {
  const double est = std::max(est_rows, 1.0);
  const double act = std::max(actual_rows, 1.0);
  return std::max(est / act, act / est);
}

std::string PlanExplain::ToText() const {
  std::string out = analyzed ? "EXPLAIN ANALYZE " : "EXPLAIN ";
  out += query_name;
  if (analyzed) {
    out += "  (total " + FmtF("%.1f", total_micros) + "us";
    if (max_q_error > 0) out += ", max q-error " + FmtF("%.2f", max_q_error);
    if (any_capped) out += ", row cap hit";
    out += ")";
  }
  out += '\n';
  RenderText(*this, root, 0, &out);
  return out;
}

std::string PlanExplain::ToJson() const {
  std::string out = "{\"query\":\"" + obs::JsonEscape(query_name) + '"';
  out += ",\"analyzed\":";
  out += analyzed ? "true" : "false";
  if (analyzed) {
    out += ",\"total_us\":" + FmtF("%.1f", total_micros);
    out += ",\"max_q_error\":" + FmtF("%.3f", max_q_error);
    out += ",\"any_capped\":";
    out += any_capped ? "true" : "false";
  }
  out += ",\"plan\":";
  RenderJson(*this, root, &out);
  out += '}';
  return out;
}

PlanExplain ExplainPlan(const Query& query, const Plan& plan,
                        const CardinalityEstimatorInterface* estimator) {
  PlanExplain out;
  out.query_name = query.name();
  out.root = plan.root();
  out.nodes.resize(static_cast<size_t>(plan.num_nodes()));
  if (out.root >= 0) AnnotateNode(query, plan, estimator, out.root, &out);
  return out;
}

StatusOr<PlanExplain> ExplainAnalyze(
    const Executor& executor, const Query& query, const Plan& plan,
    const CardinalityEstimatorInterface* estimator) {
  if (plan.root() < 0) return Status::InvalidArgument("empty plan");
  PlanExplain out = ExplainPlan(query, plan, estimator);

  ExecutionProfile profile;
  BALSA_RETURN_IF_ERROR(
      executor.ExecuteProfiled(query, plan, &profile).status());

  out.analyzed = true;
  out.total_micros = profile.total_micros;
  for (ExplainNode& e : out.nodes) {
    if (e.node_idx < 0) continue;
    const NodeProfile* p = profile.node(e.node_idx);
    if (p == nullptr) continue;
    e.analyzed = true;
    e.actual_rows = p->rows_out;
    e.wall_micros = p->wall_micros;
    e.capped = p->capped;
    e.used_index = p->used_index;
    e.chunks_total = p->chunks_total;
    e.build_rows = p->build_rows;
    e.probe_rows = p->probe_rows;
    if (!e.is_join) {
      // Report the path the executor actually took, not the plan's nominal
      // scan operator.
      e.op = p->used_index ? "IndexScan" : "SeqScan";
    }
    if (e.est_rows >= 0) {
      e.q_error = QError(e.est_rows, static_cast<double>(e.actual_rows));
      out.max_q_error = std::max(out.max_q_error, e.q_error);
    }
    out.any_capped = out.any_capped || e.capped;
  }
  return out;
}

}  // namespace balsa::introspect
