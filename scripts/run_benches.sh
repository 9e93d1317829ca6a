#!/usr/bin/env sh
# Runs every paper-reproduction bench binary in build/bench/ sequentially.
# Usage: scripts/run_benches.sh [build_dir]   (default: build)
set -eu

build_dir=${1:-build}
if [ ! -d "$build_dir/bench" ]; then
  echo "error: $build_dir/bench not found; build first:" >&2
  echo "  cmake -B $build_dir -S . && cmake --build $build_dir -j" >&2
  exit 1
fi

# Gated benches run first so a regression surfaces before the long figure
# reproductions: bench_inference_batching asserts the runtime's batched-
# inference speedup (>= 2x evals/sec at batch 32 vs per-item Predict);
# bench_serving_throughput asserts the serving gates (>= 5x req/s at 16
# clients from the plan cache, bitwise-identical plans, no stale serving);
# bench_adaptive_drift asserts the adaptive-statistics gates (automatic
# drift detection + re-ANALYZE, lower post-bump Q-error, zero stale plans
# after the bump, re-warm cutting the post-bump miss spike, writer-count
# invariance); bench_snapshot_ingest asserts the MVCC snapshot-read gates
# (serving q/s under 4-writer ingest >= 0.8x quiescent, zero torn reads,
# writers actually publishing); bench_chunk_ingest asserts the chunked-
# storage gates (1M-row append batch cost <= 2x the 100k-row cost, one-row
# append on a 1M-row table retains at most one tail chunk per column,
# full scan >= the scalar per-row reference, zero bitwise mismatches
# between the reference scan, the full scan and the index path);
# bench_obs_overhead asserts the observability gates (instrumented serving
# >= 0.97x the recording-disabled baseline on the closed-loop replay, and
# >= 0.90x on a single-thread cache-hit hammer); bench_explain_overhead
# asserts the introspection gates (profiled execution >= 0.90x plain
# Execute, and EXPLAIN ANALYZE actuals bitwise-equal to per-node Execute
# results); bench_flight_recorder asserts the gates of the one request
# retention path (armed serving >= 0.97x unarmed, the max-latency request
# retained by construction, a p99 histogram exemplar resolving to a
# span-consistent retained trace, row-capped requests promoted into the
# store, and the SLO monitor firing on an injected miss storm then
# resolving after re-warm).
# Each exits non-zero on violation.
if [ -x "$build_dir/bench/bench_inference_batching" ]; then
  echo "==> bench_inference_batching"
  "$build_dir/bench/bench_inference_batching"
  echo
fi
if [ -x "$build_dir/bench/bench_serving_throughput" ]; then
  echo "==> bench_serving_throughput"
  "$build_dir/bench/bench_serving_throughput"
  echo
fi
if [ -x "$build_dir/bench/bench_adaptive_drift" ]; then
  echo "==> bench_adaptive_drift"
  "$build_dir/bench/bench_adaptive_drift"
  echo
fi
if [ -x "$build_dir/bench/bench_snapshot_ingest" ]; then
  echo "==> bench_snapshot_ingest"
  "$build_dir/bench/bench_snapshot_ingest"
  echo
fi
if [ -x "$build_dir/bench/bench_chunk_ingest" ]; then
  echo "==> bench_chunk_ingest"
  "$build_dir/bench/bench_chunk_ingest"
  echo
fi
if [ -x "$build_dir/bench/bench_obs_overhead" ]; then
  echo "==> bench_obs_overhead"
  "$build_dir/bench/bench_obs_overhead"
  echo
fi
if [ -x "$build_dir/bench/bench_explain_overhead" ]; then
  echo "==> bench_explain_overhead"
  "$build_dir/bench/bench_explain_overhead"
  echo
fi
if [ -x "$build_dir/bench/bench_flight_recorder" ]; then
  echo "==> bench_flight_recorder"
  "$build_dir/bench/bench_flight_recorder"
  echo
fi

# Binaries share build/bench/ with CMake's own files (CMakeFiles/, Makefile);
# keep only executable regular files.
for bin in "$build_dir"/bench/*; do
  [ -f "$bin" ] && [ -x "$bin" ] || continue
  case "$(basename "$bin")" in
    bench_inference_batching|bench_serving_throughput|bench_adaptive_drift|bench_snapshot_ingest|bench_chunk_ingest|bench_obs_overhead|bench_explain_overhead|bench_flight_recorder)
      continue ;;
  esac
  echo "==> $(basename "$bin")"
  "$bin"
  echo
done
