// Chunked storage: O(batch) publication and chunk-at-a-time scans.
//
// Two measured regimes over one purpose-built table:
//   1. Publication cost: the wall time of a fixed append batch must not
//      grow with the table. We time identical append streams against a
//      100k-row table and a 1M-row table (each stream covers whole chunk
//      cycles so tail alignments average out) and gate the per-batch cost
//      ratio. A paired snapshot check gates the space side: pinning the
//      versions before and after a single append on the 1M-row table may
//      retain at most ~one extra chunk, never a second copy of the table.
//   2. Scan throughput: the executor's vectorized full scan (branch-free
//      per-chunk filter loops) must not be slower than the pre-chunk
//      executor's full-column scan — reproduced here as a per-row loop with
//      predicate dispatch per row through ChunkedColumn::operator[]. The
//      index path is reported, and the reference scan, the full scan and
//      the index path must return bitwise-identical rows.
//
// Acceptance gates (exit non-zero on violation; CI runs --smoke, TSan too):
//   1. append batch cost at 1M rows <= 2x the cost at 100k rows;
//   2. one append on the 1M-row table retains <= one extra chunk of bytes
//      across the before/after snapshots;
//   3. full scan throughput >= the scalar full-column reference;
//   4. reference scan, full scan and index path bitwise identical (zero
//      mismatches).
//
//   ./build/bench/bench_chunk_ingest [--smoke]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_common.h"
#include "src/exec/executor.h"
#include "src/plan/query_builder.h"
#include "src/storage/column_store.h"
#include "src/util/rng.h"

namespace balsa {
namespace {

// TSan instruments every access, which hits the tight scan loops and the
// timed append stream alike but not equally; the structural gates (retained
// bytes, bitwise equality) stay hard and the two timing ratios get slack.
constexpr double kMaxAppendCostRatio = bench::kTsanBuild ? 3.0 : 2.0;
constexpr double kMinScanRatio = bench::kTsanBuild ? 0.6 : 1.0;

struct ChunkBenchConfig {
  bool smoke = false;
  /// Append stream: appends_per_run batches of append_batch_rows rows. The
  /// product is a multiple of kChunkRows so both runs sweep the same tail
  /// alignments and the timing compares like with like.
  int append_batch_rows = 64;
  int appends_per_run = 512;  // 512 * 64 = 8 whole chunks
  int append_repeats = 3;
  int64_t small_table_rows = 100'000;
  int64_t large_table_rows = 1'000'000;
  /// Scan corpus and repetitions (best-of to shed scheduler noise).
  int64_t scan_rows = 4'000'000;
  int scan_repeats = 5;
};

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

Schema BenchSchema() {
  Schema schema;
  auto attr = [](const char* name) {
    ColumnDef c;
    c.name = name;
    c.kind = ColumnKind::kAttribute;
    c.domain_size = 1 << 20;
    return c;
  };
  // a: uniform values (the scanned column);
  // b, c: ballast so publication copies realistic multi-column rows.
  BALSA_CHECK(
      schema.AddTable({"chunks", 16, {attr("a"), attr("b"), attr("c")}}).ok(),
      "add table");
  return schema;
}

/// Installs `rows` rows: a uniform in [0, 10000), b and c arbitrary
/// ballast.
void Install(Database* db, int64_t rows, Rng* rng) {
  TableData data;
  data.row_count = rows;
  data.columns.resize(3);
  for (auto& col : data.columns) col.reserve(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    data.columns[0].push_back(
        static_cast<int64_t>(rng->Uniform(10'000)));
    data.columns[1].push_back(r / 1000);
    data.columns[2].push_back(r * 7);
  }
  BALSA_CHECK(db->SetTableData(0, std::move(data)).ok(), "install");
}

/// Total seconds for the configured append stream against a fresh table of
/// `base_rows` rows; best of `repeats` full runs.
double TimeAppendStream(const ChunkBenchConfig& config, int64_t base_rows,
                        Rng* rng) {
  double best = 1e30;
  for (int rep = 0; rep < config.append_repeats; ++rep) {
    Database db(BenchSchema());
    Install(&db, base_rows, rng);
    std::vector<std::vector<int64_t>> batch;
    for (int i = 0; i < config.append_batch_rows; ++i) {
      batch.push_back({static_cast<int64_t>(rng->Uniform(10'000)), 99, 7});
    }
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < config.appends_per_run; ++i) {
      BALSA_CHECK(db.AppendRows(0, batch).ok(), "append");
    }
    best = std::min(best, Seconds(start));
  }
  return best;
}

/// The pre-chunk executor's scan, reproduced: one pass over row ids with
/// per-row predicate dispatch reading through ChunkedColumn::operator[].
int64_t ReferenceScan(const Snapshot& snap, int col, PredOp op, int64_t value,
                      std::vector<uint32_t>* out) {
  out->clear();
  const ChunkedColumn& column = snap.column(0, col);
  const int64_t rows = column.size();
  for (int64_t r = 0; r < rows; ++r) {
    int64_t v = column[r];
    if (IsNull(v)) continue;
    bool pass = false;
    switch (op) {
      case PredOp::kEq: pass = v == value; break;
      case PredOp::kGe: pass = v >= value; break;
      default: pass = false; break;
    }
    if (pass) out->push_back(static_cast<uint32_t>(r));
  }
  return rows;
}

int Run(const ChunkBenchConfig& config) {
  bool ok = true;
  auto gate = [&ok](bool condition, const char* what) {
    if (!condition) {
      std::printf("FAIL: %s\n", what);
      ok = false;
    }
  };
  Rng rng(42);

  // --- Gate 1: publication cost is O(batch), not O(table) -----------------
  std::printf("timing %d appends of %d rows at %lld and %lld base rows ...\n",
              config.appends_per_run, config.append_batch_rows,
              static_cast<long long>(config.small_table_rows),
              static_cast<long long>(config.large_table_rows));
  const double small_s = TimeAppendStream(config, config.small_table_rows,
                                          &rng);
  const double large_s = TimeAppendStream(config, config.large_table_rows,
                                          &rng);
  const double cost_ratio = small_s > 0 ? large_s / small_s : 1e30;

  // --- Gate 2: one append on the big table retains ~one chunk -------------
  Database big(BenchSchema());
  Install(&big, config.large_table_rows, &rng);
  Snapshot before = big.GetSnapshot();
  BALSA_CHECK(big.AppendRows(0, {{1, 2, 3}}).ok(), "append");
  Snapshot after = big.GetSnapshot();
  const size_t before_bytes = before.DataBytes();
  const size_t retained = RetainedDataBytes({&before, &after});
  // 3 columns publish 3 rebuilt tails; "one extra chunk" per column.
  const size_t retain_budget = 3 * kChunkRows * sizeof(int64_t);

  // --- Gates 3 and 4: chunked scans vs the scalar reference --------------
  Database db(BenchSchema());
  Install(&db, config.scan_rows, &rng);
  Snapshot snap = db.GetSnapshot();

  QueryBuilder eq_builder(&db.schema(), "eq");
  auto eq_query = eq_builder.From("chunks", "x")
                      .Filter("x.a", PredOp::kEq, 123)
                      .Build();
  BALSA_CHECK(eq_query.ok(), "eq query");

  auto time_scan = [&](const Query& query, const ExecutorOptions& options,
                       std::vector<uint32_t>* out) {
    Executor executor(snap, options);
    double best = 1e30;
    for (int rep = 0; rep < config.scan_repeats; ++rep) {
      auto start = std::chrono::steady_clock::now();
      auto result = executor.Scan(query, 0);
      best = std::min(best, Seconds(start));
      BALSA_CHECK(result.ok(), "scan");
      *out = std::move(result->tuples[0]);
    }
    return static_cast<double>(config.scan_rows) / best;  // rows/s
  };

  std::vector<uint32_t> reference_rows;
  double reference_rps = 0;
  {
    double best = 1e30;
    for (int rep = 0; rep < config.scan_repeats; ++rep) {
      auto start = std::chrono::steady_clock::now();
      ReferenceScan(snap, 0, PredOp::kEq, 123, &reference_rows);
      best = std::min(best, Seconds(start));
    }
    reference_rps = static_cast<double>(config.scan_rows) / best;
  }

  ExecutorOptions full;
  full.use_index_for_eq = false;
  ExecutorOptions indexed;  // defaults: index path on

  std::vector<uint32_t> full_rows, index_rows;
  const double full_rps = time_scan(*eq_query, full, &full_rows);
  // Index build cost is not the scan's; warm it before timing the lookup
  // path (still reported, not gated — it answers from the hash index).
  snap.index(0, 0);
  const double index_rps = time_scan(*eq_query, indexed, &index_rows);

  int mismatches = 0;
  mismatches += full_rows != reference_rows;
  mismatches += index_rows != reference_rows;

  const double scan_ratio = reference_rps > 0 ? full_rps / reference_rps : 0;

  TablePrinter table({"measurement", "value", "gate"});
  table.AddRow({"append stream @100k (s)", TablePrinter::Fmt(small_s, 4), ""});
  table.AddRow({"append stream @1M (s)", TablePrinter::Fmt(large_s, 4), ""});
  table.AddRow({"append cost ratio 1M/100k", TablePrinter::Fmt(cost_ratio, 2),
                "<= " + TablePrinter::Fmt(kMaxAppendCostRatio, 1)});
  table.AddRow({"retained bytes delta (KiB)",
                TablePrinter::Fmt(
                    static_cast<double>(retained - before_bytes) / 1024.0, 1),
                "<= " + TablePrinter::Fmt(
                            static_cast<double>(retain_budget) / 1024.0, 1)});
  table.AddRow({"reference scan (Mrows/s)",
                TablePrinter::Fmt(reference_rps / 1e6, 1), ""});
  table.AddRow({"full scan (Mrows/s)", TablePrinter::Fmt(full_rps / 1e6, 1),
                ">= " + TablePrinter::Fmt(kMinScanRatio, 1) + "x ref"});
  table.AddRow({"indexed eq scan (Mrows/s)",
                TablePrinter::Fmt(index_rps / 1e6, 1), ""});
  table.AddRow({"path mismatches",
                TablePrinter::Fmt(static_cast<double>(mismatches), 0), "= 0"});
  table.Print();

  gate(cost_ratio <= kMaxAppendCostRatio,
       "append publication cost must not grow with table size");
  gate(retained - before_bytes <= retain_budget,
       "a 1-row append on a 1M-row table must retain <= one chunk per column");
  gate(scan_ratio >= kMinScanRatio,
       "full scan must not fall below the full-column reference");
  gate(mismatches == 0,
       "all scan paths must return bitwise-identical rows");

  std::printf("%s\n", ok ? "PASS: all chunk-ingest gates hold"
                         : "FAIL: chunk-ingest gates violated");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace balsa

int main(int argc, char** argv) {
  using namespace balsa;
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  ChunkBenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) config.smoke = true;
  }
  if (config.smoke) {
    // Seconds, even under TSan: shorter append streams, smaller scan
    // corpus, fewer repeats. The gates are identical.
    config.appends_per_run = 128;  // 128 * 64 = 2 whole chunks
    config.append_repeats = 2;
    config.scan_rows = 1'000'000;
    config.scan_repeats = 3;
  }
  bench::PrintHeader(
      "chunked storage: O(batch) publication and chunk-at-a-time scans",
      "no direct paper counterpart; the storage substrate under the "
      "adaptivity experiments — publication cost must not scale with table "
      "size, scans must not regress",
      flags);
  std::printf(
      "chunk config:%s %d appends x %d rows (best of %d), scan corpus %lld "
      "rows (best of %d)\n",
      config.smoke ? " (smoke)" : "", config.appends_per_run,
      config.append_batch_rows, config.append_repeats,
      static_cast<long long>(config.scan_rows), config.scan_repeats);
  return Run(config);
}
