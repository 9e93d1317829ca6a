// The serving layer's canonical query fingerprint: invariant to FROM-list
// order and alias spelling, sensitive to everything that changes the
// planning problem (tables, join graph, filter predicates and constants).
#include "src/serving/query_fingerprint.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/serving/literal_memo.h"
#include "src/sql/parser.h"
#include "src/util/rng.h"
#include "src/workloads/imdb_like.h"
#include "src/workloads/job_workload.h"
#include "src/workloads/tpch_like.h"
#include "test_util.h"

// Every heap allocation in this binary is counted, so a test can pin how
// many a call makes. The replacements stay out of line: inlined, gcc would
// pair a caller's `new` with the `free` inside `delete` and warn.
namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace balsa {
namespace {

/// Allocations `fn` makes.
template <typename Fn>
int64_t AllocationsOf(Fn fn) {
  int64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

// A frozen copy of CanonicalizeQuery as it was before the allocation-free
// rewrite: the reference the rewrite must match bit for bit.
namespace reference {

inline uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h *= 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 31);
}

uint64_t FoldSorted(std::vector<uint64_t> values, uint64_t seed) {
  std::sort(values.begin(), values.end());
  uint64_t h = seed;
  for (uint64_t v : values) h = Mix(h, v);
  return h;
}

uint64_t FilterHash(const FilterPredicate& f) {
  uint64_t h = Mix(0xF117E7ULL, static_cast<uint64_t>(f.col.column));
  h = Mix(h, static_cast<uint64_t>(f.op));
  h = Mix(h, static_cast<uint64_t>(f.value));
  std::vector<uint64_t> in(f.in_values.begin(), f.in_values.end());
  return Mix(h, FoldSorted(std::move(in), 0x1A));
}

CanonicalQuery CanonicalizeQuery(const Query& query) {
  const int n = query.num_relations();
  if (n == 0) return {};
  std::vector<uint64_t> color(n);
  for (int r = 0; r < n; ++r) {
    std::vector<uint64_t> filters;
    for (const FilterPredicate& f : query.FiltersOn(r)) {
      filters.push_back(FilterHash(f));
    }
    uint64_t h =
        Mix(0xC0104ULL, static_cast<uint64_t>(query.relations()[r].table_idx));
    color[r] = Mix(h, FoldSorted(std::move(filters), 0x2B));
  }
  struct Incident {
    uint64_t edge;
    int other;
  };
  std::vector<std::vector<Incident>> adjacency(static_cast<size_t>(n));
  for (const JoinPredicate& j : query.joins()) {
    uint64_t left_edge = Mix(
        Mix(0xED6EULL, static_cast<uint64_t>(j.left.column)),
        static_cast<uint64_t>(j.right.column));
    uint64_t right_edge = Mix(
        Mix(0xED6EULL, static_cast<uint64_t>(j.right.column)),
        static_cast<uint64_t>(j.left.column));
    adjacency[static_cast<size_t>(j.left.relation)].push_back(
        {left_edge, j.right.relation});
    adjacency[static_cast<size_t>(j.right.relation)].push_back(
        {right_edge, j.left.relation});
  }
  std::vector<uint64_t> next(static_cast<size_t>(n));
  std::vector<uint64_t> incident;
  for (int round = 0; round < n; ++round) {
    for (int r = 0; r < n; ++r) {
      incident.clear();
      for (const Incident& inc : adjacency[static_cast<size_t>(r)]) {
        incident.push_back(
            Mix(inc.edge, color[static_cast<size_t>(inc.other)]));
      }
      std::sort(incident.begin(), incident.end());
      uint64_t folded = 0x3C;
      for (uint64_t v : incident) folded = Mix(folded, v);
      next[static_cast<size_t>(r)] = Mix(color[static_cast<size_t>(r)], folded);
    }
    color.swap(next);
  }
  std::vector<uint64_t> edges;
  for (const JoinPredicate& j : query.joins()) {
    uint64_t a = Mix(color[j.left.relation],
                     static_cast<uint64_t>(j.left.column));
    uint64_t b = Mix(color[j.right.relation],
                     static_cast<uint64_t>(j.right.column));
    if (a > b) std::swap(a, b);
    edges.push_back(Mix(a, b));
  }
  CanonicalQuery canonical;
  std::vector<int> order(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) order[static_cast<size_t>(r)] = r;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    size_t ua = static_cast<size_t>(a), ub = static_cast<size_t>(b);
    return color[ua] != color[ub] ? color[ua] < color[ub] : a < b;
  });
  canonical.canonical_rank.resize(static_cast<size_t>(n));
  for (int rank = 0; rank < n; ++rank) {
    canonical.canonical_rank[static_cast<size_t>(
        order[static_cast<size_t>(rank)])] = rank;
  }
  uint64_t h = Mix(0xF1DE5ULL, static_cast<uint64_t>(n));
  h = Mix(h, FoldSorted(std::move(color), 0x4D));
  canonical.fingerprint = Mix(h, FoldSorted(std::move(edges), 0x5E));
  return canonical;
}

}  // namespace reference

/// The same planning problem as `q`, spelled differently: relations
/// FROM-permuted and renamed, join and filter lists shuffled, join sides
/// swapped at random and every IN list shuffled.
Query Respell(const Query& q, Rng* rng) {
  const int n = q.num_relations();
  std::vector<int> perm(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) perm[static_cast<size_t>(r)] = r;
  auto shuffle = [rng](auto& v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng->Uniform(i)]);
    }
  };
  shuffle(perm);  // old relation r becomes relation perm[r]
  std::vector<QueryRelation> relations(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    QueryRelation rel = q.relations()[static_cast<size_t>(r)];
    rel.alias = "t" + std::to_string(rng->Next() % 1000) + "_" +
                std::to_string(perm[static_cast<size_t>(r)]);
    relations[static_cast<size_t>(perm[static_cast<size_t>(r)])] = rel;
  }
  auto moved = [&](ColumnRef c) {
    c.relation = perm[static_cast<size_t>(c.relation)];
    return c;
  };
  std::vector<JoinPredicate> joins;
  for (const JoinPredicate& j : q.joins()) {
    JoinPredicate m{moved(j.left), moved(j.right)};
    if (rng->Bernoulli(0.5)) std::swap(m.left, m.right);
    joins.push_back(m);
  }
  shuffle(joins);
  std::vector<FilterPredicate> filters;
  for (FilterPredicate f : q.filters()) {
    f.col = moved(f.col);
    shuffle(f.in_values);
    filters.push_back(std::move(f));
  }
  shuffle(filters);
  return Query(q.name() + "'", std::move(relations), std::move(joins),
               std::move(filters));
}

/// A query past any JOB-sized scratch: every relation of the 64 allowed,
/// a ring plus chords for more than 64 join predicates (parallel edges
/// included), and a 2000-value IN list holding negative constants, longer
/// than any buffer a thread keeps between calls.
Query Oversized() {
  const int n = TableSet::kCapacity;
  std::vector<QueryRelation> relations;
  for (int r = 0; r < n; ++r) {
    relations.push_back({r % 5, "r" + std::to_string(r)});
  }
  std::vector<JoinPredicate> joins;
  for (int r = 0; r < n; ++r) {
    joins.push_back({{r, 0}, {(r + 1) % n, 1}});
    if (r % 3 == 0) joins.push_back({{r, 2}, {(r + 7) % n, 0}});
  }
  joins.push_back({{0, 0}, {1, 1}});
  Rng rng(5);
  FilterPredicate in;
  in.col = {3, 2};
  in.op = PredOp::kIn;
  for (int i = 0; i < 2000; ++i) {
    in.in_values.push_back(rng.UniformInt(-500, 500));
  }
  FilterPredicate lt;
  lt.col = {3, 1};
  lt.op = PredOp::kLt;
  lt.value = -7;
  return Query("oversized", std::move(relations), std::move(joins),
               {in, lt});
}

/// Every query of every workload MakeEnv builds: JOB, Ext-JOB, and TPC-H
/// at MakeEnv's default workload seed.
std::vector<Query> AllWorkloadQueries() {
  std::vector<Query> queries;
  auto add_all = [&](const StatusOr<Workload>& w) {
    BALSA_CHECK(w.ok(), w.status().ToString());
    for (const Query& q : w->queries()) queries.push_back(q);
  };
  JobWorkloadOptions job;
  StatusOr<Schema> imdb = BuildImdbLikeSchema();
  BALSA_CHECK(imdb.ok(), imdb.status().ToString());
  add_all(GenerateJobWorkload(*imdb, job));
  add_all(GenerateExtJobWorkload(*imdb, job));
  TpchLikeOptions tpch;
  tpch.seed = job.seed;
  StatusOr<Schema> tpch_schema = BuildTpchLikeSchema(tpch);
  BALSA_CHECK(tpch_schema.ok(), tpch_schema.status().ToString());
  add_all(GenerateTpchWorkload(*tpch_schema, tpch));
  return queries;
}

/// `q` with one more filter, `relation 0 column 0 <> value`: a literal form
/// no earlier call has seen when `value` is fresh, as a client that inlines
/// a new constant per request sends.
Query WithExtraConstant(const Query& q, int64_t value) {
  std::vector<FilterPredicate> filters = q.filters();
  FilterPredicate extra;
  extra.col = {0, 0};
  extra.op = PredOp::kNe;
  extra.value = value;
  filters.push_back(extra);
  return Query(q.name() + "#" + std::to_string(value), q.relations(),
               q.joins(), std::move(filters));
}

bool SameResult(const CanonicalQuery& a, const CanonicalQuery& b) {
  return a.fingerprint == b.fingerprint && a.canonical_rank == b.canonical_rank;
}

/// Whether this thread canonicalizes `q` from its literal-form memo, without
/// refinement. Canonicalizing Oversized() first frees the thread's value
/// buffer (its IN list is longer than any buffer a thread keeps), so a call
/// that refines a query with a join regrows that buffer, while a memo hit
/// allocates only the returned canonical_rank.
bool FromTheMemo(const Query& q, const Query& oversized) {
  BALSA_CHECK(!q.joins().empty(), "a query without joins never regrows");
  CanonicalizeQuery(oversized);
  return AllocationsOf([&] { CanonicalizeQuery(q); }) == 1;
}

class FingerprintTest : public ::testing::Test {
 protected:
  FingerprintTest() : schema_(testing::MakeStarSchema()) {}

  Query Must(StatusOr<Query> q) {
    BALSA_CHECK(q.ok(), q.status().ToString());
    return std::move(q).value();
  }

  Schema schema_;
};

TEST_F(FingerprintTest, InvariantToFromOrderAndAliasNames) {
  Query a = Must(QueryBuilder(&schema_, "a")
                     .From("sales", "s")
                     .From("customer", "c")
                     .From("product", "p")
                     .JoinEq("s.customer_id", "c.id")
                     .JoinEq("s.product_id", "p.id")
                     .Filter("c.region", PredOp::kEq, 2)
                     .Build());
  // Same query: relations listed in reverse with entirely different aliases.
  Query b = Must(QueryBuilder(&schema_, "b")
                     .From("product", "prod")
                     .From("customer", "cust")
                     .From("sales", "fact")
                     .JoinEq("fact.product_id", "prod.id")
                     .JoinEq("cust.id", "fact.customer_id")  // sides swapped
                     .Filter("cust.region", PredOp::kEq, 2)
                     .Build());
  EXPECT_EQ(QueryFingerprint(a), QueryFingerprint(b));
}

TEST_F(FingerprintTest, SqlAliasRenamingHitsTheSameSlot) {
  Query a = Must(ParseSql(schema_,
                          "SELECT * FROM sales s, customer c "
                          "WHERE s.customer_id = c.id AND c.region = 4"));
  Query b = Must(ParseSql(schema_,
                          "SELECT * FROM customer x, sales y "
                          "WHERE y.customer_id = x.id AND x.region = 4"));
  EXPECT_EQ(QueryFingerprint(a), QueryFingerprint(b));
}

TEST_F(FingerprintTest, FilterConstantsChangeTheFingerprint) {
  auto with_region = [&](int64_t region) {
    return Must(QueryBuilder(&schema_, "q")
                    .From("sales", "s")
                    .From("customer", "c")
                    .JoinEq("s.customer_id", "c.id")
                    .Filter("c.region", PredOp::kEq, region)
                    .Build());
  };
  // Different constants select different rows: they must plan (and cache)
  // separately.
  EXPECT_NE(QueryFingerprint(with_region(2)), QueryFingerprint(with_region(3)));
}

TEST_F(FingerprintTest, FilterOperatorsChangeTheFingerprint) {
  auto with_op = [&](PredOp op) {
    return Must(QueryBuilder(&schema_, "q")
                    .From("sales", "s")
                    .From("customer", "c")
                    .JoinEq("s.customer_id", "c.id")
                    .Filter("c.region", op, 2)
                    .Build());
  };
  EXPECT_NE(QueryFingerprint(with_op(PredOp::kEq)),
            QueryFingerprint(with_op(PredOp::kLt)));
}

TEST_F(FingerprintTest, InListOrderIsIrrelevant) {
  auto with_in = [&](std::vector<int64_t> values) {
    return Must(QueryBuilder(&schema_, "q")
                    .From("sales", "s")
                    .From("customer", "c")
                    .JoinEq("s.customer_id", "c.id")
                    .FilterIn("c.region", std::move(values))
                    .Build());
  };
  EXPECT_EQ(QueryFingerprint(with_in({1, 5, 9})),
            QueryFingerprint(with_in({9, 1, 5})));
  EXPECT_NE(QueryFingerprint(with_in({1, 5, 9})),
            QueryFingerprint(with_in({1, 5, 8})));
}

TEST_F(FingerprintTest, JoinGraphShapeMatters) {
  Query chain = Must(QueryBuilder(&schema_, "chain")
                         .From("sales", "s")
                         .From("customer", "c")
                         .From("product", "p")
                         .JoinEq("s.customer_id", "c.id")
                         .JoinEq("s.product_id", "p.id")
                         .Build());
  Query pair = Must(QueryBuilder(&schema_, "pair")
                        .From("sales", "s")
                        .From("customer", "c")
                        .JoinEq("s.customer_id", "c.id")
                        .Build());
  EXPECT_NE(QueryFingerprint(chain), QueryFingerprint(pair));
}

TEST_F(FingerprintTest, SelfJoinSidesAreDistinguishedByFilters) {
  // Two occurrences of the same table whose *filters* differ: swapping
  // which occurrence carries the filter changes which side of the join
  // graph is selective, i.e. the planning problem — via the relation
  // colors, since aliases themselves are never hashed.
  Query filtered_left = Must(QueryBuilder(&schema_, "l")
                                 .From("sales", "a")
                                 .From("sales", "b")
                                 .From("customer", "c")
                                 .JoinEq("a.customer_id", "c.id")
                                 .JoinEq("b.customer_id", "c.id")
                                 .Filter("a.amount", PredOp::kLt, 10)
                                 .Build());
  Query filtered_both = Must(QueryBuilder(&schema_, "r")
                                 .From("sales", "a")
                                 .From("sales", "b")
                                 .From("customer", "c")
                                 .JoinEq("a.customer_id", "c.id")
                                 .JoinEq("b.customer_id", "c.id")
                                 .Filter("a.amount", PredOp::kLt, 10)
                                 .Filter("b.amount", PredOp::kLt, 10)
                                 .Build());
  EXPECT_NE(QueryFingerprint(filtered_left), QueryFingerprint(filtered_both));

  // And the symmetric rename (filter on b instead of a) is the *same*
  // problem, so it must collide on purpose.
  Query filtered_right = Must(QueryBuilder(&schema_, "r2")
                                  .From("sales", "a")
                                  .From("sales", "b")
                                  .From("customer", "c")
                                  .JoinEq("a.customer_id", "c.id")
                                  .JoinEq("b.customer_id", "c.id")
                                  .Filter("b.amount", PredOp::kLt, 10)
                                  .Build());
  EXPECT_EQ(QueryFingerprint(filtered_left),
            QueryFingerprint(filtered_right));
}

TEST_F(FingerprintTest, CanonicalRanksAlignAcrossFromOrderings) {
  Query a = Must(QueryBuilder(&schema_, "a")
                     .From("sales", "s")
                     .From("customer", "c")
                     .From("product", "p")
                     .JoinEq("s.customer_id", "c.id")
                     .JoinEq("s.product_id", "p.id")
                     .Filter("c.region", PredOp::kEq, 2)
                     .Build());
  Query b = Must(QueryBuilder(&schema_, "b")
                     .From("product", "prod")
                     .From("sales", "fact")
                     .From("customer", "cust")
                     .JoinEq("fact.customer_id", "cust.id")
                     .JoinEq("fact.product_id", "prod.id")
                     .Filter("cust.region", PredOp::kEq, 2)
                     .Build());
  CanonicalQuery ca = CanonicalizeQuery(a);
  CanonicalQuery cb = CanonicalizeQuery(b);
  ASSERT_EQ(ca.fingerprint, cb.fingerprint);
  // Structurally corresponding relations get the same canonical rank,
  // whatever their FROM position: find each table by schema index.
  auto rank_of_table = [&](const Query& q, const CanonicalQuery& c,
                           const char* table) {
    int idx = schema_.TableIndex(table);
    for (int r = 0; r < q.num_relations(); ++r) {
      if (q.relations()[r].table_idx == idx) {
        return c.canonical_rank[static_cast<size_t>(r)];
      }
    }
    return -1;
  };
  for (const char* table : {"sales", "customer", "product"}) {
    EXPECT_EQ(rank_of_table(a, ca, table), rank_of_table(b, cb, table))
        << table;
  }
}

TEST_F(FingerprintTest, RemapPlanRelationsRoundTrips) {
  Plan plan;
  int s = plan.AddScan(0, ScanOp::kSeqScan);
  int c = plan.AddScan(1, ScanOp::kIndexScan);
  int sc = plan.AddJoin(s, c, JoinOp::kHashJoin);
  int p = plan.AddScan(2, ScanOp::kSeqScan);
  plan.AddJoin(sc, p, JoinOp::kIndexNLJoin);

  std::vector<int> map = {2, 0, 1};
  Plan mapped = RemapPlanRelations(plan, map);
  EXPECT_TRUE(mapped.Validate());
  EXPECT_EQ(mapped.node(0).relation, 2);
  EXPECT_EQ(mapped.node(1).relation, 0);
  EXPECT_EQ(mapped.node(1).scan_op, ScanOp::kIndexScan);
  EXPECT_EQ(mapped.node(3).relation, 1);
  EXPECT_EQ(mapped.node(2).join_op, JoinOp::kHashJoin);
  EXPECT_EQ(mapped.RootTables(), TableSet::FirstN(3));

  Plan back = RemapPlanRelations(mapped, InversePermutation(map));
  EXPECT_EQ(back.Fingerprint(), plan.Fingerprint());
}

TEST_F(FingerprintTest, DistinctAcrossAWholeWorkloadScale) {
  // Sanity against accidental collisions: many near-miss variants of one
  // join template must all get distinct fingerprints.
  std::set<uint64_t> seen;
  for (int64_t region = 0; region < 10; ++region) {
    for (int64_t category = 0; category < 8; ++category) {
      Query q = Must(QueryBuilder(&schema_, "v")
                         .From("sales", "s")
                         .From("customer", "c")
                         .From("product", "p")
                         .JoinEq("s.customer_id", "c.id")
                         .JoinEq("s.product_id", "p.id")
                         .Filter("c.region", PredOp::kEq, region)
                         .Filter("p.category", PredOp::kEq, category)
                         .Build());
      seen.insert(QueryFingerprint(q));
    }
  }
  EXPECT_EQ(seen.size(), 80u);
}

TEST(FingerprintDifferentialTest, MatchesTheReferenceBitForBit) {
  // Every query of every workload MakeEnv builds, each respelled eight
  // ways, then one query larger than everything before it. Each literal
  // form is canonicalized twice: cold, then from this thread's memo.
  std::vector<Query> queries = AllWorkloadQueries();
  ASSERT_GT(queries.size(), 113u);
  Query big = Oversized();

  Rng rng(19);
  int mismatches = 0;
  auto check = [&](const Query& q) {
    CanonicalQuery got = CanonicalizeQuery(q);
    CanonicalQuery want = reference::CanonicalizeQuery(q);
    if (got.fingerprint != want.fingerprint ||
        got.canonical_rank != want.canonical_rank) {
      ++mismatches;
      ADD_FAILURE() << "differs from the reference on " << q.name();
    }
    return got.fingerprint;
  };
  auto check_twice = [&](const Query& q) {
    uint64_t cold = check(q);
    EXPECT_TRUE(FromTheMemo(q, big)) << q.name();
    EXPECT_EQ(check(q), cold) << q.name();
    return cold;
  };
  for (const Query& q : queries) {
    uint64_t fingerprint = check_twice(q);
    for (int v = 0; v < 8; ++v) {
      EXPECT_EQ(check_twice(Respell(q, &rng)), fingerprint) << q.name();
    }
  }
  ASSERT_GT(big.joins().size(), 64u);
  uint64_t big_fingerprint = check(big);
  EXPECT_EQ(check(Respell(big, &rng)), big_fingerprint);
  EXPECT_EQ(check(big), big_fingerprint);
  EXPECT_EQ(mismatches, 0);
}

TEST(FingerprintDifferentialTest, NearMissLiteralFormsNeverGetTheirNeighbours) {
  // Each near miss is canonicalized right after its neighbour, which the
  // memo holds. It must get the reference's result, never the neighbour's.
  std::vector<Query> queries = AllWorkloadQueries();
  Query big = Oversized();
  Rng rng(23);
  int constants = 0, in_values = 0, join_columns = 0, from_swaps = 0,
      renumberings = 0;
  auto near_miss = [&](const Query& neighbour, const Query& variant) {
    CanonicalizeQuery(neighbour);
    ASSERT_TRUE(FromTheMemo(neighbour, big)) << neighbour.name();
    CanonicalQuery got = CanonicalizeQuery(variant);
    CanonicalQuery want = reference::CanonicalizeQuery(variant);
    EXPECT_TRUE(SameResult(got, want)) << variant.name();
    // And the variant is now memoized with its own result.
    EXPECT_TRUE(SameResult(CanonicalizeQuery(variant), want))
        << variant.name();
  };
  auto rebuilt = [](const Query& q, const char* what,
                    std::vector<QueryRelation> relations,
                    std::vector<JoinPredicate> joins,
                    std::vector<FilterPredicate> filters) {
    return Query(q.name() + what, std::move(relations), std::move(joins),
                 std::move(filters));
  };
  for (const Query& base : queries) {
    for (const Query& q : {base, Respell(base, &rng)}) {
      const int n = q.num_relations();
      if (!q.filters().empty()) {
        std::vector<FilterPredicate> filters = q.filters();
        filters[rng.Uniform(filters.size())].value += 1;
        near_miss(q, rebuilt(q, "+1", q.relations(), q.joins(), filters));
        ++constants;
      }
      for (size_t f = 0; f < q.filters().size(); ++f) {
        if (q.filters()[f].in_values.empty()) continue;
        std::vector<FilterPredicate> filters = q.filters();
        std::vector<int64_t>& values = filters[f].in_values;
        values[rng.Uniform(values.size())] += 1;
        near_miss(q, rebuilt(q, "-in", q.relations(), q.joins(), filters));
        ++in_values;
        break;
      }
      if (!q.joins().empty()) {
        std::vector<JoinPredicate> joins = q.joins();
        JoinPredicate& j = joins[rng.Uniform(joins.size())];
        std::swap(j.left.column, j.right.column);
        near_miss(q, rebuilt(q, "-cols", q.relations(), joins, q.filters()));
        ++join_columns;
      }
      if (n < 2) continue;
      int a = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
      int b = (a + 1 + static_cast<int>(rng.Uniform(
                           static_cast<uint64_t>(n - 1)))) % n;
      // Two FROM entries swapped and the predicates left alone: another
      // query, unless the two relations read one table.
      std::vector<QueryRelation> relations = q.relations();
      std::swap(relations[static_cast<size_t>(a)],
                relations[static_cast<size_t>(b)]);
      near_miss(q, rebuilt(q, "-from", relations, q.joins(), q.filters()));
      ++from_swaps;
      // The same swap with the predicates renumbered: the same planning
      // problem, so the same fingerprint, but the two ranks trade places.
      auto moved = [a, b](ColumnRef c) {
        if (c.relation == a) {
          c.relation = b;
        } else if (c.relation == b) {
          c.relation = a;
        }
        return c;
      };
      std::vector<JoinPredicate> joins = q.joins();
      for (JoinPredicate& j : joins) j = {moved(j.left), moved(j.right)};
      std::vector<FilterPredicate> filters = q.filters();
      for (FilterPredicate& f : filters) f.col = moved(f.col);
      near_miss(q, rebuilt(q, "-renumbered", relations, joins, filters));
      ++renumberings;
    }
  }
  EXPECT_GT(constants, 0);
  EXPECT_GT(in_values, 0);
  EXPECT_GT(join_columns, 0);
  EXPECT_GT(from_swaps, 0);
  EXPECT_GT(renumberings, 0);
}

TEST(FingerprintDifferentialTest, ConcurrentThreadsEachMatchTheReference) {
  // Four threads canonicalize the workload's queries and respellings in
  // interleaved orders, more literal forms than one thread's memo holds,
  // so each thread's memo both hits and evicts while the others run.
  std::vector<Query> forms;
  Rng rng(29);
  for (const Query& q : AllWorkloadQueries()) {
    forms.push_back(q);
    forms.push_back(Respell(q, &rng));
    forms.push_back(Respell(q, &rng));
  }
  std::vector<CanonicalQuery> want;
  for (const Query& q : forms) want.push_back(reference::CanonicalizeQuery(q));

  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const size_t size = forms.size();
      for (size_t round = 0; round < 3; ++round) {
        for (size_t i = 0; i < size; ++i) {
          // Thread t walks from its own offset; every few steps it goes
          // back to a form it saw recently, which its memo still holds.
          size_t k = (i * (2 * static_cast<size_t>(t) + 1) + 97 * t) % size;
          if (i % 4 == 3) k = (k + size - 2) % size;
          if (!SameResult(CanonicalizeQuery(forms[k]), want[k])) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// The memo's own checks, driven with keys the test chooses: two literal
// forms under one key collide on every hash bit, which no workload input
// does, so only the stored form's word-for-word compare tells them apart.
TEST(LiteralMemoTest, AKeyMatchAloneIsNotAHit) {
  using internal::LiteralMemo;
  StatusOr<Schema> imdb = BuildImdbLikeSchema();
  ASSERT_TRUE(imdb.ok());
  StatusOr<Workload> job = GenerateJobWorkload(*imdb);
  ASSERT_TRUE(job.ok());
  const Query& a = job->queries().front();
  ASSERT_GE(a.filters().size(), 2u);
  const LiteralMemo::Key key = LiteralMemo::KeyOf(a);
  ASSERT_TRUE(LiteralMemo::Fits(a, key));
  // The last filter's constant is the third word from the end of the form
  // (no IN values follow it), well past the first eight words.
  ASSERT_TRUE(a.filters().back().in_values.empty());
  ASSERT_GT(key.words, 8u + 3u);

  auto memo = std::make_unique<LiteralMemo>();
  CanonicalQuery got;
  EXPECT_FALSE(memo->Find(a, {0, key.words}, &got)) << "an unused way";
  EXPECT_FALSE(memo->Find(a, key, &got));
  const CanonicalQuery want = reference::CanonicalizeQuery(a);
  memo->Store(a, key, want);
  ASSERT_TRUE(memo->Find(a, key, &got));
  EXPECT_TRUE(SameResult(got, want));

  // One word differs, early or late; same length, same key: a miss.
  std::vector<QueryRelation> relations = a.relations();
  relations.front().table_idx += 1;
  Query early("early", relations, a.joins(), a.filters());
  std::vector<FilterPredicate> filters = a.filters();
  filters.back().value += 1;
  Query late("late", a.relations(), a.joins(), filters);
  for (const Query* b : {&early, &late}) {
    ASSERT_EQ(LiteralMemo::KeyOf(*b).words, key.words) << b->name();
    EXPECT_FALSE(memo->Find(*b, key, &got)) << b->name();
  }
  // A longer form (one filter more) under the stored form's hash: a miss.
  Query longer = WithExtraConstant(a, 7);
  ASSERT_TRUE(LiteralMemo::Fits(longer, LiteralMemo::KeyOf(longer)));
  EXPECT_FALSE(
      memo->Find(longer, {key.hash, LiteralMemo::KeyOf(longer).words}, &got));
  // The name is not part of the literal form.
  Query renamed("renamed", a.relations(), a.joins(), a.filters());
  ASSERT_TRUE(memo->Find(renamed, key, &got));
  EXPECT_TRUE(SameResult(got, want));
}

TEST(LiteralMemoTest, OneKeyKeepsItsSixteenNewestForms) {
  using internal::LiteralMemo;
  StatusOr<Schema> imdb = BuildImdbLikeSchema();
  ASSERT_TRUE(imdb.ok());
  StatusOr<Workload> job = GenerateJobWorkload(*imdb);
  ASSERT_TRUE(job.ok());
  const Query& base = job->queries().front();
  const size_t n = static_cast<size_t>(base.num_relations());

  // 17 forms that differ in one constant, all stored under one key, so
  // they share a set and a tag: each newer one replaces the set's oldest
  // way, and only the compare tells the live ones apart. Each gets a
  // result of its own (a fingerprint and a rotated ranking) to tell which
  // entry answered.
  constexpr int kForms = 17;
  std::vector<Query> forms;
  std::vector<CanonicalQuery> stored;
  for (int v = 0; v < kForms; ++v) {
    forms.push_back(WithExtraConstant(base, v));
    CanonicalQuery result;
    result.fingerprint = 1000 + static_cast<uint64_t>(v);
    for (size_t r = 0; r < n; ++r) {
      result.canonical_rank.push_back(static_cast<int>((r + v) % n));
    }
    stored.push_back(result);
  }
  const LiteralMemo::Key key = LiteralMemo::KeyOf(forms.front());
  ASSERT_TRUE(LiteralMemo::Fits(forms.front(), key));

  auto memo = std::make_unique<LiteralMemo>();
  for (int v = 0; v < kForms; ++v) memo->Store(forms[v], key, stored[v]);
  CanonicalQuery got;
  EXPECT_FALSE(memo->Find(forms[0], key, &got)) << "the oldest was replaced";
  for (int v = 1; v < kForms; ++v) {
    ASSERT_TRUE(memo->Find(forms[v], key, &got)) << v;
    EXPECT_TRUE(SameResult(got, stored[v])) << v;
  }
  // Storing the first again replaces the next oldest, the second.
  memo->Store(forms[0], key, stored[0]);
  EXPECT_FALSE(memo->Find(forms[1], key, &got));
  ASSERT_TRUE(memo->Find(forms[0], key, &got));
  EXPECT_TRUE(SameResult(got, stored[0]));
}

TEST(FingerprintAllocationTest, HitPathCallsAllocateOnlyTheirResult) {
  StatusOr<Schema> imdb = BuildImdbLikeSchema();
  ASSERT_TRUE(imdb.ok());
  StatusOr<Workload> job = GenerateJobWorkload(*imdb);
  ASSERT_TRUE(job.ok());
  // One pass grows this thread's scratch to the workload's largest sizes.
  const Query* largest = &job->queries().front();
  for (const Query& q : job->queries()) {
    CanonicalizeQuery(q);
    if (q.num_relations() > largest->num_relations()) largest = &q;
  }
  for (const Query& q : job->queries()) {
    CanonicalQuery canonical;
    EXPECT_EQ(AllocationsOf([&] { canonical = CanonicalizeQuery(q); }), 1)
        << q.name();  // the returned canonical_rank
  }

  // A JOB-sized left-deep plan remapped: the one allocation is its arena.
  const int n = largest->num_relations();
  Plan plan;
  int root = plan.AddScan(0, ScanOp::kSeqScan);
  for (int r = 1; r < n; ++r) {
    root = plan.AddJoin(root, plan.AddScan(r, ScanOp::kIndexScan),
                        JoinOp::kHashJoin);
  }
  std::vector<int> map = CanonicalizeQuery(*largest).canonical_rank;
  Plan mapped;
  EXPECT_EQ(AllocationsOf([&] { mapped = RemapPlanRelations(plan, map); }), 1);
  EXPECT_EQ(mapped.num_nodes(), plan.num_nodes());
}

TEST(FingerprintAllocationTest, AnOversizedQueryDoesNotPinItsScratch) {
  StatusOr<Schema> imdb = BuildImdbLikeSchema();
  ASSERT_TRUE(imdb.ok());
  StatusOr<Workload> job = GenerateJobWorkload(*imdb);
  ASSERT_TRUE(job.ok());
  for (const Query& q : job->queries()) CanonicalizeQuery(q);
  const Query& q = job->queries().front();
  ASSERT_FALSE(q.joins().empty());
  ASSERT_EQ(AllocationsOf([&] { CanonicalizeQuery(q); }), 1);

  // The 2000-value IN list grows the thread's value buffer past what it
  // keeps, so that call frees it and the next refined query regrows it
  // once. `q` itself would now come from the memo without refinement, so
  // the next two calls send literal forms this thread has never seen.
  // Both are built before counting, so only canonicalization is counted.
  Query first = WithExtraConstant(q, 1);
  Query fresh = WithExtraConstant(q, 2);
  CanonicalizeQuery(Oversized());
  EXPECT_GT(AllocationsOf([&] { CanonicalizeQuery(first); }), 1);
  EXPECT_EQ(AllocationsOf([&] { CanonicalizeQuery(fresh); }), 1);
}

TEST(FingerprintAllocationTest, AFloodOfLiteralFormsDoesNotGrowTheMemo) {
  StatusOr<Schema> imdb = BuildImdbLikeSchema();
  ASSERT_TRUE(imdb.ok());
  StatusOr<Workload> job = GenerateJobWorkload(*imdb);
  ASSERT_TRUE(job.ok());
  const std::vector<Query>& queries = job->queries();
  for (const Query& q : queries) CanonicalizeQuery(q);

  // 10,000 literal forms no thread has seen, each a miss that the memo
  // stores. The first lap over the workload may still grow the refinement
  // scratch (each form has one filter more than its base); after that no
  // cold call allocates more than its result, so nothing keeps growing.
  constexpr int kForms = 10000;
  const int lap = static_cast<int>(queries.size());
  for (int i = 0; i < kForms; ++i) {
    Query form = WithExtraConstant(queries[static_cast<size_t>(i % lap)],
                                   1000 + i);
    CanonicalQuery got;
    int64_t allocations = AllocationsOf([&] { got = CanonicalizeQuery(form); });
    if (i >= lap) {
      EXPECT_EQ(allocations, 1) << form.name();
    }
    if (i % 97 == 0) {
      EXPECT_TRUE(SameResult(got, reference::CanonicalizeQuery(form)))
          << form.name();
    }
  }

  // The flood evicted the workload; one pass memoizes it again, and every
  // re-warmed hit allocates only its result.
  for (const Query& q : queries) CanonicalizeQuery(q);
  Query big = Oversized();
  for (const Query& q : queries) {
    EXPECT_EQ(AllocationsOf([&] { CanonicalizeQuery(q); }), 1) << q.name();
    EXPECT_TRUE(FromTheMemo(q, big)) << q.name();
  }
}

}  // namespace
}  // namespace balsa
