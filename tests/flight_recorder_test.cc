// Tests for the flight recorder's TraceStore: tail retention by
// construction (top-K min-heap + floor), the bounded error/capped outcome
// ring, deterministic reservoir sampling, lazy shell materialization on the
// hit path, late row-cap promotion, completion indices that stay distinct
// under concurrent completions, and the JSONL export. Also the
// trace-context edge cases the serving stack depends on: nested
// ScopedTraceContext restore order, a pool thread re-installing a context
// while the request completes and the store serializes (the TSan race),
// and a histogram exemplar that dangles after eviction. Runs under
// `ctest -L obs` (the TSan CI job).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace balsa::obs {
namespace {

constexpr uint64_t kFlightIdBit = uint64_t{1} << 63;

TraceStoreOptions Opts(int top_k) {
  TraceStoreOptions options;
  options.enabled = true;
  options.top_k = top_k;
  return options;
}

TraceCompletion Comp(double latency_us, const char* outcome = "hit") {
  TraceCompletion completion;
  completion.latency_us = latency_us;
  completion.outcome = outcome;
  completion.query_name = "q";
  return completion;
}

// Minimal JSON syntax check: quotes pair up (with escapes) and braces /
// brackets balance outside strings.
bool JsonParses(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string && !s.empty() && s.front() == '{';
}

TEST(TraceStoreTest, DisabledStoreIgnoresCompletions) {
  TraceStore store;  // enabled defaults to false
  EXPECT_EQ(store.OnComplete(nullptr, Comp(1e6, "miss")), 0u);
  store.PromoteCapped(nullptr, Comp(1e6, "miss"));
  EXPECT_TRUE(store.Retained().empty());
  EXPECT_EQ(store.completions(), 0);
}

TEST(TraceStoreTest, TopKRetainsTheSlowestByConstruction) {
  TraceStore store(Opts(/*top_k=*/4));
  // 1..100 in a scrambled (but deterministic) order: the heap must end up
  // holding exactly {97, 98, 99, 100} regardless of arrival order.
  for (int i = 0; i < 100; ++i) {
    const double latency = static_cast<double>((i * 37) % 100 + 1);
    store.OnComplete(nullptr, Comp(latency, "miss"));
  }
  std::multiset<double> kept;
  for (const RetainedTrace& entry : store.Retained()) {
    if (entry.reason == RetainReason::kTopK) kept.insert(entry.latency_us);
  }
  EXPECT_EQ(kept, (std::multiset<double>{97, 98, 99, 100}));

  RetainedTrace top;
  ASSERT_TRUE(store.MaxRetained(&top));
  EXPECT_EQ(top.latency_us, 100);

  const TraceStore::Stats stats = store.stats();
  EXPECT_EQ(stats.completions, 100);
  EXPECT_EQ(stats.retained_top_k, 4);
  EXPECT_GT(stats.evicted, 0);
}

TEST(TraceStoreTest, LazyShellMaterializedOnlyWhenRetained) {
  TraceStore store(Opts(/*top_k=*/2));
  // A null-trace (hit-path) completion that wins a top-K slot gets a
  // span-less shell materialized at admission.
  const uint64_t id = store.OnComplete(nullptr, Comp(100));
  ASSERT_NE(id, 0u);
  RetainedTrace entry;
  ASSERT_TRUE(store.FindTrace(id, &entry));
  ASSERT_NE(entry.trace, nullptr);
  EXPECT_EQ(entry.trace->id(), id);
  EXPECT_TRUE(entry.trace->spans().empty());

  // Fill the heap past it. Sub-floor completions then fill the reservoir;
  // once it is full, most are let go without ever allocating (id 0 is the
  // "no shell, no retention" signal).
  store.OnComplete(nullptr, Comp(200));
  store.OnComplete(nullptr, Comp(300));
  EXPECT_FALSE(store.FindTrace(id, &entry));  // evicted by 200/300
  int let_go = 0;
  for (size_t i = 0; i < 10 * TraceStore::kReservoirSize; ++i) {
    const uint64_t sub_floor = store.OnComplete(nullptr, Comp(50));
    if (i < TraceStore::kReservoirSize) {
      EXPECT_NE(sub_floor, 0u) << "completion " << i;
    }
    if (sub_floor == 0) ++let_go;
  }
  EXPECT_GT(let_go, 0);
  EXPECT_EQ(store.Retained().size(), 2 + TraceStore::kReservoirSize);
}

TEST(TraceStoreTest, FlightIdsNeverCollideWithTracerIds) {
  TraceStore store(Opts(4));
  EXPECT_NE(store.StartTrace()->id() & kFlightIdBit, 0u);
  const uint64_t materialized = store.OnComplete(nullptr, Comp(10));
  EXPECT_NE(materialized & kFlightIdBit, 0u);

  RequestTracerOptions tracer_options;
  tracer_options.sample_every = 1;
  RequestTracer tracer(tracer_options);
  std::shared_ptr<Trace> sampled = tracer.MaybeStartTrace();
  ASSERT_NE(sampled, nullptr);
  EXPECT_EQ(sampled->id() & kFlightIdBit, 0u);
}

TEST(TraceStoreTest, OutcomeRingIsBoundedOldestEvicted) {
  TraceStore store(Opts(/*top_k=*/1));
  const uint64_t total = TraceStore::kMaxOutcomes + 6;
  for (uint64_t i = 0; i < total; ++i) {
    TraceCompletion completion = Comp(1.0, "error");
    completion.error = true;
    EXPECT_NE(store.OnComplete(nullptr, completion), 0u);
  }
  std::multiset<uint64_t> indices;
  for (const RetainedTrace& entry : store.Retained()) {
    EXPECT_EQ(entry.reason, RetainReason::kOutcome);
    EXPECT_TRUE(entry.error);
    indices.insert(entry.completion_index);
  }
  // The 64 newest completions survive; 1..6 were pushed out.
  std::multiset<uint64_t> newest;
  for (uint64_t index = 7; index <= total; ++index) newest.insert(index);
  EXPECT_EQ(indices, newest);
  EXPECT_EQ(store.stats().evicted, 6);
}

TEST(TraceStoreTest, ReservoirIsDeterministicInIndex) {
  // Two stores fed the identical completion stream retain the identical
  // reservoir — the coin flip is a pure function of the normal index.
  auto run = [] {
    TraceStore store(Opts(/*top_k=*/1));
    store.OnComplete(nullptr, Comp(1000, "miss"));  // fills the heap
    for (int i = 0; i < 200; ++i) store.OnComplete(nullptr, Comp(1.0));
    std::multiset<uint64_t> indices;
    for (const RetainedTrace& entry : store.Retained()) {
      if (entry.reason == RetainReason::kReservoir) {
        indices.insert(entry.completion_index);
      }
    }
    return indices;
  };
  const std::multiset<uint64_t> first = run();
  EXPECT_EQ(first.size(), TraceStore::kReservoirSize);
  EXPECT_EQ(first, run());
  // Later completions replaced some of the first 32 (indices 2..33).
  EXPECT_GT(*first.rbegin(), 33u);
}

TEST(TraceStoreTest, PromoteCappedMarksRetainedEntryInPlace) {
  TraceStore store(Opts(/*top_k=*/2));
  std::shared_ptr<Trace> trace = store.StartTrace();
  const TraceCompletion completion = Comp(500, "miss");
  ASSERT_EQ(store.OnComplete(trace, completion), trace->id());

  TraceCompletion executed = completion;
  executed.plan_summary = "HashJoin(SeqScan(a), SeqScan(b))";
  executed.rows_out = 8;
  executed.exec_micros = 42;
  store.PromoteCapped(trace, executed);
  RetainedTrace entry;
  ASSERT_TRUE(store.FindTrace(trace->id(), &entry));
  EXPECT_TRUE(entry.capped);
  // The in-place entry takes the row-cap fields and keeps its own index.
  EXPECT_EQ(entry.plan_summary, executed.plan_summary);
  EXPECT_EQ(entry.rows_out, 8);
  EXPECT_EQ(entry.exec_micros, 42);
  EXPECT_EQ(entry.completion_index, 1u);
  // Marked where it already lives — no duplicate in the outcome ring.
  EXPECT_EQ(store.stats().retained_outcome, 0);
  EXPECT_EQ(store.Retained().size(), 1u);
}

TEST(TraceStoreTest, PromoteCappedMaterializesShellForUnretainedHit) {
  TraceStore store(Opts(/*top_k=*/1));
  store.OnComplete(nullptr, Comp(1000, "miss"));  // raises the floor
  // Sub-floor hits until the reservoir, once full, lets one go.
  const TraceCompletion hit = Comp(5);
  bool let_go = false;
  for (size_t i = 0; i < 10 * TraceStore::kReservoirSize && !let_go; ++i) {
    let_go = store.OnComplete(nullptr, hit) == 0;
  }
  ASSERT_TRUE(let_go);  // dropped at completion

  // The row-cap signal arrives later, from plan execution: the request must
  // end up retained even though the serve-time decision dropped it.
  store.PromoteCapped(nullptr, hit);
  const TraceStore::Stats stats = store.stats();
  EXPECT_EQ(stats.retained_outcome, 1);
  for (const RetainedTrace& entry : store.Retained()) {
    if (entry.reason != RetainReason::kOutcome) continue;
    EXPECT_TRUE(entry.capped);
    // A late promotion took no position in the completion order; it must
    // not borrow the index of whichever request finished last.
    EXPECT_EQ(entry.completion_index, 0u);
    ASSERT_NE(entry.trace, nullptr);
    EXPECT_TRUE(entry.trace->spans().empty());
  }
}

TEST(TraceStoreTest, ConcurrentCompletionsGetDistinctIndices) {
  // Every completion is retained (top-K holds them all), so the retained
  // set exposes each completion's index: concurrent completions must never
  // share one, and together they must cover exactly 1..N.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  constexpr int kTotal = kThreads * kPerThread;
  TraceStore store(Opts(/*top_k=*/kTotal));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Strictly increasing latency per thread keeps every completion
        // above the floor while the heap fills.
        store.OnComplete(nullptr, Comp(1.0 + t + i * kThreads, "miss"));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::vector<RetainedTrace> retained = store.Retained();
  ASSERT_EQ(retained.size(), static_cast<size_t>(kTotal));
  std::set<uint64_t> indices;
  for (const RetainedTrace& entry : retained) {
    EXPECT_GE(entry.completion_index, 1u);
    EXPECT_LE(entry.completion_index, static_cast<uint64_t>(kTotal));
    indices.insert(entry.completion_index);
  }
  EXPECT_EQ(indices.size(), static_cast<size_t>(kTotal));
  EXPECT_EQ(store.completions(), kTotal);
}

TEST(TraceStoreTest, JsonlIsSortedByLatencyAndParses) {
  TraceStore store(Opts(/*top_k=*/4));
  std::shared_ptr<Trace> with_spans = store.StartTrace();
  with_spans->AddSpan(TraceStage::kBeamSearch, 1.0, 250.0);
  TraceCompletion miss = Comp(300, "miss");
  miss.query_name = "q\"needs-escaping\\";
  miss.plan_summary = "HashJoin(\"a\", b)";
  miss.stats_version = 3;
  store.OnComplete(with_spans, miss);
  TraceCompletion error = Comp(40, "error");
  error.error = true;
  store.OnComplete(nullptr, error);
  store.OnComplete(nullptr, Comp(120, "hit"));

  const std::string jsonl = store.ToJsonl();
  std::istringstream lines(jsonl);
  std::string line;
  double previous = 1e18;
  int parsed = 0;
  bool saw_spans = false;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(JsonParses(line)) << line;
    const size_t at = line.find("\"latency_us\":");
    ASSERT_NE(at, std::string::npos);
    const double latency = std::strtod(line.c_str() + at + 13, nullptr);
    EXPECT_LE(latency, previous);  // sorted descending
    previous = latency;
    if (line.find("\"stage\":\"beam_search\"") != std::string::npos) {
      saw_spans = true;
      EXPECT_NE(line.find("\"stats_version\":3"), std::string::npos);
      EXPECT_NE(line.find("\"plan\":\"HashJoin(\\\"a\\\", b)\""),
                std::string::npos)
          << line;
    }
    ++parsed;
  }
  EXPECT_EQ(parsed, 3);
  EXPECT_TRUE(saw_spans);
}

TEST(TraceStoreTest, ExemplarDanglesGracefullyAfterEviction) {
  TraceStore store(Opts(/*top_k=*/1));
  Log2Histogram histogram;
  const uint64_t id = store.OnComplete(nullptr, Comp(100, "miss"));
  ASSERT_NE(id, 0u);
  histogram.Record(100, id);

  // A slower completion displaces the exemplar's trace from the heap. The
  // bucket tag survives; resolution reports "gone" instead of crashing or
  // returning someone else's trace.
  store.OnComplete(nullptr, Comp(200, "miss"));
  const HistogramData data = histogram.Snapshot();
  EXPECT_EQ(data.PercentileExemplar(99), id);
  RetainedTrace entry;
  EXPECT_FALSE(store.FindTrace(id, &entry));
}

TEST(TraceContextTest, NestedScopesRestoreInOrder) {
  RequestTracerOptions options;
  options.sample_every = 1;
  RequestTracer tracer(options);
  std::shared_ptr<Trace> outer = tracer.MaybeStartTrace();
  std::shared_ptr<Trace> inner = tracer.MaybeStartTrace();
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);

  EXPECT_EQ(CurrentTraceContext(), nullptr);
  {
    ScopedTraceContext outer_scope(&tracer, outer);
    ASSERT_NE(CurrentTraceContext(), nullptr);
    EXPECT_EQ(CurrentTraceContext()->trace->id(), outer->id());
    {
      ScopedTraceContext inner_scope(&tracer, inner);
      EXPECT_EQ(CurrentTraceContext()->trace->id(), inner->id());
    }
    // The inner scope restored the outer context, not a cleared slot.
    ASSERT_NE(CurrentTraceContext(), nullptr);
    EXPECT_EQ(CurrentTraceContext()->trace->id(), outer->id());
  }
  EXPECT_EQ(CurrentTraceContext(), nullptr);
}

TEST(TraceContextTest, InactiveContextInstallsNothing) {
  RequestTracer tracer;
  ScopedTraceContext scope(&tracer, nullptr);
  EXPECT_EQ(CurrentTraceContext(), nullptr);
}

TEST(TraceContextTest, PoolThreadSpansRaceCompletionAndSerialization) {
  // The serving shape: the request thread completes (and the store
  // serializes) while a pool thread is still appending spans to the same
  // trace through a re-installed context. Trace is append-only and
  // internally synchronized, so every span must land and every JSONL
  // render must stay well-formed. TSan is the real assertion here.
  constexpr int kSpans = 200;
  TraceStore store(Opts(/*top_k=*/4));
  RequestTracer tracer;
  std::shared_ptr<Trace> trace = store.StartTrace();
  const TraceContext context{&tracer, trace};

  std::thread pool_thread([&] {
    ScopedTraceContext scope(context);  // the PlanMiss re-install idiom
    for (int i = 0; i < kSpans; ++i) {
      SpanTimer span(TraceStage::kInference);
    }
  });
  store.OnComplete(trace, Comp(750, "miss"));
  for (int i = 0; i < 50; ++i) {
    const std::string jsonl = store.ToJsonl();
    EXPECT_FALSE(jsonl.empty());
  }
  pool_thread.join();

  RetainedTrace entry;
  ASSERT_TRUE(store.FindTrace(trace->id(), &entry));
  EXPECT_EQ(entry.trace->spans().size(), static_cast<size_t>(kSpans));
  std::istringstream lines(store.ToJsonl());
  std::string line;
  while (std::getline(lines, line)) EXPECT_TRUE(JsonParses(line)) << line;
}

}  // namespace
}  // namespace balsa::obs
