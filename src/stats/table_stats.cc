#include "src/stats/table_stats.h"

#include <algorithm>
#include <string>
#include <unordered_map>

namespace balsa {

namespace {

constexpr int kNumMcvs = 8;
constexpr int kNumHistogramBuckets = 32;

ColumnStats AnalyzeColumn(const ChunkedColumn& column) {
  ColumnStats stats;
  std::vector<int64_t> values;
  values.reserve(static_cast<size_t>(column.size()));
  int64_t nulls = 0;
  for (int64_t v : column) {
    if (IsNull(v)) {
      nulls++;
    } else {
      values.push_back(v);
    }
  }
  stats.null_fraction = column.empty() ? 0.0
                                       : static_cast<double>(nulls) /
                                             static_cast<double>(column.size());
  if (values.empty()) {
    stats.num_distinct = 0;
    return stats;
  }

  for (int64_t v : values) stats.distinct_sketch.Add(v);

  std::sort(values.begin(), values.end());
  stats.min_value = values.front();
  stats.max_value = values.back();

  // Count frequencies via the sorted run lengths.
  std::vector<std::pair<int64_t, int64_t>> freq;  // (count, value)
  int64_t run = 1;
  for (size_t i = 1; i <= values.size(); ++i) {
    if (i < values.size() && values[i] == values[i - 1]) {
      run++;
    } else {
      freq.push_back({run, values[i - 1]});
      run = 1;
    }
  }
  stats.num_distinct = static_cast<int64_t>(freq.size());

  // MCVs: the top-k most frequent values (only those above average freq,
  // like PostgreSQL).
  std::sort(freq.begin(), freq.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  double n = static_cast<double>(values.size());
  double avg_freq = 1.0 / static_cast<double>(freq.size());
  double mcv_total = 0;
  for (int i = 0; i < kNumMcvs && i < static_cast<int>(freq.size()); ++i) {
    double f = static_cast<double>(freq[i].first) / n;
    if (f <= avg_freq * 1.25 && i > 0) break;
    stats.mcv_values.push_back(freq[i].second);
    stats.mcv_freqs.push_back(f);
    mcv_total += f;
  }
  stats.non_mcv_fraction = std::max(0.0, 1.0 - mcv_total);

  // Equi-depth histogram over values excluding MCVs.
  std::vector<int64_t> rest;
  rest.reserve(values.size());
  for (int64_t v : values) {
    if (std::find(stats.mcv_values.begin(), stats.mcv_values.end(), v) ==
        stats.mcv_values.end()) {
      rest.push_back(v);
    }
  }
  if (!rest.empty()) {
    int buckets =
        std::min<int>(kNumHistogramBuckets, static_cast<int>(rest.size()));
    stats.histogram_bounds.resize(buckets + 1);
    for (int b = 0; b <= buckets; ++b) {
      size_t idx = static_cast<size_t>(
          static_cast<double>(b) / buckets * (rest.size() - 1));
      stats.histogram_bounds[b] = rest[idx];
    }
  }
  return stats;
}

}  // namespace

StatusOr<TableStats> AnalyzeTable(const Snapshot& snapshot, int table_idx,
                                  int64_t stats_version) {
  const Schema& schema = snapshot.schema();
  if (table_idx < 0 || table_idx >= schema.num_tables()) {
    return Status::OutOfRange("table index " + std::to_string(table_idx));
  }
  if (!snapshot.HasData(table_idx)) {
    return Status::FailedPrecondition("table " +
                                      schema.table(table_idx).name +
                                      " has no data; generate first");
  }
  const TableVersion& table = snapshot.table(table_idx);
  TableStats ts;
  ts.row_count = table.row_count();
  ts.stats_version = stats_version;
  ts.columns.reserve(static_cast<size_t>(table.num_columns()));
  for (int c = 0; c < table.num_columns(); ++c) {
    ts.columns.push_back(AnalyzeColumn(table.column(c)));
  }
  return ts;
}

StatusOr<TableStats> AnalyzeTable(const Database& db, int table_idx,
                                  int64_t stats_version) {
  return AnalyzeTable(db.GetSnapshot(), table_idx, stats_version);
}

StatusOr<std::vector<TableStats>> Analyze(const Database& db,
                                          int64_t stats_version) {
  const Snapshot snapshot = db.GetSnapshot();
  std::vector<TableStats> out;
  out.reserve(static_cast<size_t>(db.schema().num_tables()));
  for (int t = 0; t < db.schema().num_tables(); ++t) {
    BALSA_ASSIGN_OR_RETURN(TableStats ts,
                           AnalyzeTable(snapshot, t, stats_version));
    out.push_back(std::move(ts));
  }
  return out;
}

}  // namespace balsa
