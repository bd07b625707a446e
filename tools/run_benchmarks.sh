#!/usr/bin/env bash
# Runs the kernel microbenchmarks in JSON mode and assembles one baseline
# file (BENCH_kernels.json by default): the old-vs-new kernel pairs
# introduced by the hot-path overhaul plus the per-phase timings a full
# search reports through SearchStats. The summary block at the top records
# the headline ratios:
#   - dnorm_speedup_*:       naive window re-accumulation vs prefix-sum
#                            context on a finely partitioned target,
#   - dnorm_distinct_speedup_*: per-j enumeration of a probe's qualifying
#                            windows vs the distinct-window sweep Phase 3
#                            runs (same windows, each visited once),
#   - rtree_visit_ratio_*:   R-tree nodes visited by per-probe descents vs
#                            one batched descent (the paper's disk-access
#                            proxy),
#   - profile_speedup_*:     unbounded vs threshold-aware window profile on
#                            non-qualifying candidates,
#   - verify_speedup:        unbounded window profile vs the fused bounded
#                            verify (internal::VerifySequence) on queries
#                            cut from one synthetic sequence and checked
#                            against the other sequences of a small corpus,
#   - simd_speedup_*:        scalar vs dispatched SIMD kernels (Dmbr
#                            MINDIST batch, window point-sum, prefilter
#                            centroid batch) at dim 4; `simd_level` records
#                            the dispatched level (0 scalar, 1 avx2,
#                            2 neon) and the >=2x bar only applies when it
#                            is non-scalar.
#
# A second file (BENCH_ingest.json by default) captures the live-ingestion
# subsystem: append+group-commit throughput (points/s, fsyncs/commit),
# checkpoint cost, and the p99 SearchVerified latency with a concurrent
# writer on vs. off.
#
# A third file (BENCH_shard.json by default) baselines the scatter-gather
# serving layer: the coordinator tax at one shard (fan-out machinery +
# wire-codec round trip vs calling the search directly), threshold and
# top-k latency across loopback shard counts, and the codec throughput
# floor per RPC.
#
# A fourth file (BENCH_replay.json by default) baselines the workload
# flight recorder and replay harness: record encode/append/scan
# throughput from micro_workload, plus an end-to-end record -> replay ->
# diff loop through mdseq_cli — a same-build replay must be CLEAN
# (byte-identical digests and cascade counters), and an injected
# regression (prefilter disabled) must surface as counter divergences
# with digests intact.
#
# A fifth file (BENCH_cache.json by default) baselines the serving QoS
# subsystem: result-cache hit vs miss latency through the full engine
# Submit path (hits must be >=10x faster at p50), the all-miss overhead
# of an enabled cache + tenant classes over the plain engine (<=5%, so
# exact serving pays nothing for the subsystem), and the approximate
# tier's speedup-vs-quality curve across Phase-3 candidate budgets with
# the certified error bounds it achieved (speedup and bound both
# monotone in the budget).
#
# Usage: tools/run_benchmarks.sh [build-dir] [out.json] [ingest-out.json] \
#                                [shard-out.json] [replay-out.json] \
#                                [cache-out.json]
# Build an optimized tree first:  cmake --preset release &&
#                                 cmake --build --preset release -j
set -euo pipefail

BUILD_DIR="${1:-build-release}"
OUT="${2:-BENCH_kernels.json}"
OUT_INGEST="${3:-BENCH_ingest.json}"
OUT_SHARD="${4:-BENCH_shard.json}"
OUT_REPLAY="${5:-BENCH_replay.json}"
OUT_CACHE="${6:-BENCH_cache.json}"

if [[ ! -x "$BUILD_DIR/bench/micro_dnorm" ]]; then
  echo "error: $BUILD_DIR/bench/micro_dnorm not found or not executable." >&2
  echo "Build it with: cmake --preset release && cmake --build --preset release -j" >&2
  exit 1
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"$BUILD_DIR/bench/micro_dnorm" --json \
  --benchmark_filter='DnormManyMbrs|FullSearchPhases|PrefilterKernel' \
  >"$tmp/dnorm.json"
"$BUILD_DIR/bench/micro_rtree" --json \
  --benchmark_filter='MultiProbe|MinDist2Kernel' >"$tmp/rtree.json"
"$BUILD_DIR/bench/micro_distance" --json \
  --benchmark_filter='WindowProfile_|VerifyPopulation|PointSumKernel' \
  >"$tmp/distance.json"

jq -s '
  def bench(n): (map(.benchmarks[] | select(.name == n)) | first);
  {
    summary: {
      dnorm_speedup_64:
        (bench("BM_DnormManyMbrs_Reference/64").real_time /
         bench("BM_DnormManyMbrs_PrefixSum/64").real_time),
      dnorm_speedup_256:
        (bench("BM_DnormManyMbrs_Reference/256").real_time /
         bench("BM_DnormManyMbrs_PrefixSum/256").real_time),
      dnorm_distinct_speedup_64:
        (bench("BM_DnormManyMbrs_PerJWindows/64").real_time /
         bench("BM_DnormManyMbrs_DistinctWindows/64").real_time),
      dnorm_distinct_speedup_256:
        (bench("BM_DnormManyMbrs_PerJWindows/256").real_time /
         bench("BM_DnormManyMbrs_DistinctWindows/256").real_time),
      rtree_visit_ratio_8:
        (bench("BM_RStarMultiProbe_PerQuery/8").node_visits /
         bench("BM_RStarMultiProbe_Batch/8").node_visits),
      rtree_visit_ratio_16:
        (bench("BM_RStarMultiProbe_PerQuery/16").node_visits /
         bench("BM_RStarMultiProbe_Batch/16").node_visits),
      profile_speedup_64:
        (bench("BM_WindowProfile_Unbounded/64").real_time /
         bench("BM_WindowProfile_Bounded/64").real_time),
      profile_speedup_256:
        (bench("BM_WindowProfile_Unbounded/256").real_time /
         bench("BM_WindowProfile_Bounded/256").real_time),
      verify_speedup:
        (bench("BM_VerifyPopulation_Unbounded").real_time /
         bench("BM_VerifyPopulation_Fused").real_time),
      simd_level: bench("BM_MinDist2Kernel_Simd/1024").simd_level,
      simd_speedup_mindist2_256:
        (bench("BM_MinDist2Kernel_Scalar/256").real_time /
         bench("BM_MinDist2Kernel_Simd/256").real_time),
      simd_speedup_mindist2_1024:
        (bench("BM_MinDist2Kernel_Scalar/1024").real_time /
         bench("BM_MinDist2Kernel_Simd/1024").real_time),
      simd_speedup_pointsum_64:
        (bench("BM_PointSumKernel_Scalar/64").real_time /
         bench("BM_PointSumKernel_Simd/64").real_time),
      simd_speedup_pointsum_256:
        (bench("BM_PointSumKernel_Scalar/256").real_time /
         bench("BM_PointSumKernel_Simd/256").real_time),
      simd_speedup_prefilter_1024:
        (bench("BM_PrefilterKernel_Scalar/1024").real_time /
         bench("BM_PrefilterKernel_Simd/1024").real_time)
    },
    context: (.[0].context | del(.date, .load_avg)),
    benchmarks: (map(.benchmarks) | add)
  }' "$tmp/dnorm.json" "$tmp/rtree.json" "$tmp/distance.json" >"$OUT"

echo "wrote $OUT"
jq '.summary' "$OUT"

# Regression guardrails mirroring the perf-smoke acceptance bars.
jq -e '.summary.dnorm_speedup_256 >= 3 and .summary.rtree_visit_ratio_8 >= 2' \
  "$OUT" >/dev/null || {
  echo "error: kernel speedups below the acceptance bars (>=3x dnorm, >=2x fewer node visits)" >&2
  exit 1
}

# SIMD guardrail: when a vector level dispatched (simd_level > 0), the Dmbr
# and window point-sum kernels must beat their scalar references by >=2x at
# dim 4. A scalar-only host (or MDSEQ_FORCE_SCALAR) skips the bar.
jq -e '(.summary.simd_level == 0) or
       (.summary.simd_speedup_mindist2_1024 >= 2 and
        .summary.simd_speedup_pointsum_256 >= 2)' "$OUT" >/dev/null || {
  echo "error: SIMD kernel speedups below the 2x acceptance bar" >&2
  exit 1
}

# --- Live ingestion baseline ------------------------------------------------

"$BUILD_DIR/bench/micro_ingest" --json \
  --benchmark_filter='LiveIngest_|LiveQuery_' >"$tmp/ingest.json"

jq '
  def bench(n): (.benchmarks[] | select(.name == n));
  {
    summary: {
      ingest_points_per_sec:
        bench("BM_LiveIngest_CommitEvery/8").items_per_second,
      fsyncs_per_commit_1:
        bench("BM_LiveIngest_CommitEvery/1").fsyncs_per_commit,
      fsyncs_per_commit_8:
        bench("BM_LiveIngest_CommitEvery/8").fsyncs_per_commit,
      checkpoint_ms_32:
        (bench("BM_LiveIngest_Checkpoint/32").real_time),
      query_p99_us_quiescent: bench("BM_LiveQuery_Quiescent").p99_us,
      query_p99_us_under_ingest: bench("BM_LiveQuery_UnderIngest").p99_us,
      query_p99_ingest_tax:
        (bench("BM_LiveQuery_UnderIngest").p99_us /
         bench("BM_LiveQuery_Quiescent").p99_us)
    },
    context: (.context | del(.date, .load_avg)),
    benchmarks: .benchmarks
  }' "$tmp/ingest.json" >"$OUT_INGEST"

echo "wrote $OUT_INGEST"
jq '.summary' "$OUT_INGEST"

# --- Sharded scatter-gather baseline ----------------------------------------

"$BUILD_DIR/bench/micro_scatter" --json \
  --benchmark_filter='SingleThreshold|ScatterThreshold|SingleNearest|ScatterNearest|ShardCodec' \
  >"$tmp/scatter.json"

jq '
  def bench(n): (.benchmarks[] | select(.name == n));
  {
    summary: {
      # Coordinator tax: one loopback shard (full fan-out + codec round
      # trip) vs calling SimilaritySearch directly. ~1.0 means the
      # scatter-gather machinery is nearly free on top of the search.
      scatter_overhead_1:
        (bench("BM_ScatterThreshold/1").real_time /
         bench("BM_SingleThreshold").real_time),
      scatter_threshold_scaling_4:
        (bench("BM_ScatterThreshold/1").real_time /
         bench("BM_ScatterThreshold/4").real_time),
      scatter_nearest_overhead_1:
        (bench("BM_ScatterNearest/1").real_time /
         bench("BM_SingleNearest").real_time),
      fanout_wait_share_4:
        (bench("BM_ScatterThreshold/4").fanout_wait_ns_per_query /
         bench("BM_ScatterThreshold/4").real_time),
      merge_ns_per_query_4: bench("BM_ScatterThreshold/4").merge_ns_per_query,
      codec_roundtrip_us:
        (bench("BM_ShardCodec_ResponseRoundTrip").real_time / 1000)
    },
    context: (.context | del(.date, .load_avg)),
    benchmarks: .benchmarks
  }' "$tmp/scatter.json" >"$OUT_SHARD"

echo "wrote $OUT_SHARD"
jq '.summary' "$OUT_SHARD"

# Guardrail: the coordinator at one loopback shard must stay within 2x of
# the direct search (it adds one codec round trip and a pool hop).
jq -e '.summary.scatter_overhead_1 <= 2' "$OUT_SHARD" >/dev/null || {
  echo "error: single-shard coordinator overhead above the 2x acceptance bar" >&2
  exit 1
}

# --- Workload record/replay baseline ----------------------------------------

CLI="$BUILD_DIR/tools/mdseq_cli"
"$BUILD_DIR/bench/micro_workload" --json \
  --benchmark_filter='WorkloadRecord|WorkloadLogScan' >"$tmp/workload.json"

# End-to-end determinism loop: record a served workload, replay it on the
# same build (must be CLEAN), then replay with the prefilter disabled (the
# injected regression — counters must move, digests must not).
"$CLI" gen --kind=walk --dim=2 --count=48 --min_len=64 --max_len=192 \
  --seed=7 --out="$tmp/replay_corpus.mdsq" >/dev/null
"$CLI" serve-bench --corpus="$tmp/replay_corpus.mdsq" --clients=2 \
  --queries=24 --eps=0.15 --verified --seed=7 \
  --record="$tmp/replay_workload.mdwl" >/dev/null
"$CLI" replay --log="$tmp/replay_workload.mdwl" \
  --corpus="$tmp/replay_corpus.mdsq" \
  --json-out="$tmp/replay_same.json" >/dev/null
"$CLI" replay --log="$tmp/replay_workload.mdwl" \
  --corpus="$tmp/replay_corpus.mdsq" --prefilter=off \
  --json-out="$tmp/replay_regression.json" >/dev/null

jq -s '
  def bench(n): (.[0].benchmarks[] | select(.name == n));
  {
    summary: {
      record_encode_ns: bench("BM_WorkloadRecordEncode").real_time,
      record_append_ns: bench("BM_WorkloadRecordAppend").real_time,
      recorder_record_ns: bench("BM_WorkloadRecorderRecord").real_time,
      record_bytes: bench("BM_WorkloadRecordEncode").bytes_per_record,
      scan_records_per_sec:
        bench("BM_WorkloadLogScan/1024").items_per_second,
      replay_same_build: .[1].summary,
      replay_prefilter_off: .[2].summary
    },
    context: (.[0].context | del(.date, .load_avg)),
    benchmarks: .[0].benchmarks
  }' "$tmp/workload.json" "$tmp/replay_same.json" \
  "$tmp/replay_regression.json" >"$OUT_REPLAY"

echo "wrote $OUT_REPLAY"
jq '.summary' "$OUT_REPLAY"

# Guardrails: a same-build replay reproduces digests and counters exactly;
# the injected regression is flagged by counters while digests stay intact
# (the prefilter is sound — it changes work, never answers).
jq -e '.summary.replay_same_build.clean == true' "$OUT_REPLAY" \
  >/dev/null || {
  echo "error: same-build replay diverged (digests/counters not reproducible)" >&2
  exit 1
}
jq -e '.summary.replay_prefilter_off.counter_divergences > 0 and
       .summary.replay_prefilter_off.digest_divergences == 0' \
  "$OUT_REPLAY" >/dev/null || {
  echo "error: prefilter-off replay was not flagged (or changed answers)" >&2
  exit 1
}

# --- Serving QoS baseline ----------------------------------------------------

"$BUILD_DIR/bench/micro_serve" --json \
  --benchmark_filter='ServeCache|ServeBatch|ServeApprox' >"$tmp/serve.json"

jq '
  def bench(n): (.benchmarks[] | select(.name == n));
  {
    summary: {
      cache_hit_p50_us: (bench("BM_ServeCacheHit").real_time / 1000),
      cache_miss_p50_us: (bench("BM_ServeCacheMiss").real_time / 1000),
      cache_hit_speedup:
        (bench("BM_ServeCacheMiss").real_time /
         bench("BM_ServeCacheHit").real_time),
      # All-miss serving with the cache + tenant classes enabled, relative
      # to the plain engine: the price exact serving pays for the QoS
      # subsystem when nothing hits.
      qos_all_miss_overhead:
        (bench("BM_ServeBatchEnabledMiss").real_time /
         bench("BM_ServeBatchDisabled").real_time),
      # Approximate tier: speedup over exact, and the certified error
      # bound / skipped-candidate count each budget achieved.
      approx_speedup_4:
        (bench("BM_ServeApprox/0").real_time /
         bench("BM_ServeApprox/4").real_time),
      approx_speedup_16:
        (bench("BM_ServeApprox/0").real_time /
         bench("BM_ServeApprox/16").real_time),
      approx_speedup_64:
        (bench("BM_ServeApprox/0").real_time /
         bench("BM_ServeApprox/64").real_time),
      approx_certified_epsilon_4:
        bench("BM_ServeApprox/4").certified_epsilon,
      approx_certified_epsilon_16:
        bench("BM_ServeApprox/16").certified_epsilon,
      approx_certified_epsilon_64:
        bench("BM_ServeApprox/64").certified_epsilon,
      approx_skipped_4: bench("BM_ServeApprox/4").skipped_per_query,
      approx_skipped_16: bench("BM_ServeApprox/16").skipped_per_query,
      approx_skipped_64: bench("BM_ServeApprox/64").skipped_per_query
    },
    context: (.context | del(.date, .load_avg)),
    benchmarks: .benchmarks
  }' "$tmp/serve.json" >"$OUT_CACHE"

echo "wrote $OUT_CACHE"
jq '.summary' "$OUT_CACHE"

# Guardrail: cache hits skip the queue and the search entirely — at least
# 10x faster than the all-miss path at p50.
jq -e '.summary.cache_hit_speedup >= 10' "$OUT_CACHE" >/dev/null || {
  echo "error: cache-hit speedup below the 10x acceptance bar" >&2
  exit 1
}

# Guardrail: with the subsystem enabled but nothing hitting, exact serving
# stays within 5% of the plain engine.
jq -e '.summary.qos_all_miss_overhead <= 1.05' "$OUT_CACHE" >/dev/null || {
  echo "error: QoS all-miss overhead above the 5% acceptance bar" >&2
  exit 1
}

# Guardrail: the approximate curve is monotone — a tighter budget is never
# slower, and its certified error bound is never better (larger) than a
# looser budget's; every bound stays at or below the requested epsilon.
jq -e '.summary.approx_speedup_4 >= .summary.approx_speedup_16 * 0.9 and
       .summary.approx_speedup_16 >= .summary.approx_speedup_64 * 0.9 and
       .summary.approx_speedup_64 >= 0.95 and
       .summary.approx_certified_epsilon_4
         <= .summary.approx_certified_epsilon_16 + 1e-12 and
       .summary.approx_certified_epsilon_16
         <= .summary.approx_certified_epsilon_64 + 1e-12 and
       .summary.approx_certified_epsilon_64 <= 0.15 and
       .summary.approx_skipped_4 >= .summary.approx_skipped_16 and
       .summary.approx_skipped_16 >= .summary.approx_skipped_64' \
  "$OUT_CACHE" >/dev/null || {
  echo "error: approximate speedup/quality curve is not monotone (or a bound exceeded epsilon)" >&2
  exit 1
}
