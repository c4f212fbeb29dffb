"""Benchmark harness.

Default mode: runs the headline flagship extraction pipeline plus a
representative query set over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) with ``ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS)`` (default 32) and prints ONE JSON line:

    {"metric": "...", "value": <headline sec>, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N, "docs_per_sec": ...}

``--scaling``: runs the headline pipeline in two FRESH processes at
num_cpus=8 and num_cpus=32 on the same input (the sandbox stand-in
for N vs 4N node clusters) and prints throughputs + scaling
efficiency. A warm-up pass primes the page cache so the comparison
measures compute+shuffle, not first-touch disk reads.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# Corpus amplification for the headline run: 5000 sf0.1 docs are only
# ~30 CPU-seconds of extraction work — far too little to measure
# parallel throughput (fixed startup would dominate). 48× replication
# (240k docs) keeps 32 CPUs busy for ~15-20s.
REPLICATE = int(os.environ.get("BENCH_REPLICATE", "48"))
# The scaling comparison needs even more work so the 32-CPU run's
# actor-spawn/ramp overhead (~2-3s) is amortized — efficiency is about
# steady-state throughput, not job startup.
SCALING_REPLICATE = int(os.environ.get("BENCH_SCALING_REPLICATE", "96"))

# Queries timed alongside the headline (a cross-section: kernel-bound,
# shuffle-bound, join, window, ANN, LSH).
BENCH_QUERIES = [
    "correct_text_guards",
    "token_counts",
    "exact_dedup",
    "minhash_dedup",
    "simhash_dedup",
    "windowed_events",
    "sliding_window_events",
    "sessionize_users",
    "ngram_jaccard",
    "lineitem_pricing",
    "hash_join_orders_lineitem",
    "knn_brute",
    "near_dup_sample",
    "asof_purchase_click",
    "lsh_knn",
    "multimodal_routed",
    # round-2 additions: substring-level dedup, pair-graph clustering,
    # retrieval, sketches, per-key windows
    "dup_ngram_stats",
    "dedup_clusters",
    "bm25_docs",
    "tfidf_topk",
    "hll_users",
    "running_user_value",
    "decontam_pairs",
    "kmeans_clusters",
    "inverted_search",
    "pack_sequences",
    # round-3 additions: curation hygiene + mixing
    "repetition_rules",
    "quantized_embeddings",
    "mix_schedule",
    # the end-to-end curation pipeline (quality → dedups → decontam → mix)
    "curate_corpus",
    # round-3 window/pruning wave: paragraph-level dedup, window frames,
    # and the pruning pipeline (paragraph dedup → cap → temperature mix)
    "paragraph_dedup",
    "moving_sum_user_value",
    "prune_corpus",
    # round-3 session-2 wave: chunking/masking flat maps, rolling
    # windows, the multiway star join, CDC compaction, batched ANN
    "chunk_documents",
    "span_corruption_pairs",
    "rolling_wau",
    "rolling_value_outliers",
    "revenue_by_nation",
    "latest_user_event",
    "multi_knn_batch",
    # round-3 session-5 wave: the 6-table star join, value-keyed pair
    # emission, multi-exchange set ops, bucketed sequence folds
    "q7_trade_volume",
    "source_shingle_jaccard",
    "daily_user_jaccard",
    "event_run_lengths",
    # round-3 session-6 wave: TPC-H join fill, per-block integer
    # matmul partials, CMS build, gaps-and-islands fold
    "q3_shipping_priority",
    "q18_big_quantity_orders",
    "embedding_covariance",
    "cms_token_counts",
    "scd2_type_intervals",
    # round-3 session-7 wave: TPC-H completion (majority-supplier
    # fold), OHLC endpoint combiner, label-masked hard negatives,
    # split-hygiene audit
    "q9_profit_proxy",
    "q21_dominant_supplier",
    "daily_value_ohlc",
    "hard_negatives",
    "split_leakage_rate",
]


def consume(ds) -> int:
    """Force full execution of a lazy Dataset; return row count.
    count() executes the whole plan but never ships row data to the
    driver — iter_batches would serialize the output through one
    driver-side deserialization loop and cap measured throughput."""
    return ds.count()


def drain_with_steady(ds) -> tuple[int, float, float]:
    """Drain a Dataset block-ref by block-ref (no row data touches the
    driver) and measure BOTH end-to-end seconds and steady-state
    docs/sec over the middle 5-95% of rows. The window excludes pool
    ramp-up and tail — at the target scale (10^12 docs, hours per
    job) startup is amortized to nothing, so steady-state throughput
    is the number the N vs 4N scaling criterion is about."""
    pts: list[tuple[float, int]] = []
    n = 0
    t_start = time.perf_counter()
    for bundle in ds.iter_internal_ref_bundles():
        n += bundle.num_rows()
        pts.append((time.perf_counter(), n))
    e2e = time.perf_counter() - t_start
    lo, hi = 0.05 * n, 0.95 * n
    t_lo = next(t for t, c in pts if c >= lo)
    t_hi = next(t for t, c in pts if c >= hi)
    steady = (hi - lo) / (t_hi - t_lo) if t_hi > t_lo else n / e2e
    return n, e2e, steady


def run_bench(flagship_only: bool = False) -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import __ray_entry__ as entrymod

    qs = entrymod.queries()

    # Headline: flagship extraction over the derived interleaved corpus.
    from ocr_service_ray.pipelines.derive import derived_corpus
    from ocr_service_ray.pipelines.flagship import fused_pool_size, run_extraction
    from ocr_service_ray.stages.ocr import GENERATE_MEDIA

    ctx.execution_options.preserve_order = False
    # Wide-ish rows + a CPU-bound per-doc kernel: sub-MiB blocks keep
    # actor-pool task granularity fine (block size, not batch_size, is
    # the scheduling unit) without flooding the driver with block
    # metadata. Measured sweep at 32 CPUs (round-1 workload):
    # 256K/1M/4M → 18.5k/17.8k/15.8k docs/s; 512K → 23-28k.
    ctx.target_max_block_size = int(os.environ.get("BENCH_BLOCK_KB", "512")) * 1024
    # Each extraction task yields ~6 output blocks (rows grow ~10× in
    # size through extraction). The default 2-block streaming-generator
    # buffer makes tasks STALL mid-run waiting for the driver to drain
    # yielded blocks — measured 45% actor idle at 32 CPUs. 16 lets a
    # task finish without ever blocking on the driver loop.
    ctx._max_num_blocks_in_streaming_gen_buffer = 16
    # Deeper per-actor task queue hides driver dispatch latency behind
    # compute (default 4 leaves dispatch gaps at 24 actors).
    ctx.max_tasks_in_flight_per_actor = 8

    # One FUSED extraction pool (OCR engine is CPU-bound here) sized by
    # flagship.fused_pool_size: ~15/16 of the CPUs, one always free.
    # Round-2 sweep at 32 CPUs: 24/26/28/30 actors → 27.3/24.8/27.5/
    # 31.8k docs/s e2e (derive is light, so the pool can take most of
    # the node); at 8 CPUs 6→7 actors was +12%.
    def build():
        return run_extraction(
            derived_corpus(SF_DIR, REPLICATE, num_blocks=64),
            GENERATE_MEDIA,
            kernel_batch_size=128,
            kernel_concurrency=fused_pool_size(NUM_CPUS),
        )

    # One untimed full pass warms Ray worker processes (imports, actor
    # spawn, page cache) — the timed passes then measure steady-state
    # compute + shuffle, which is what throughput/scaling should mean.
    # The sandbox is a shared host with ~±15% run-to-run noise, so the
    # headline is the MEDIAN of BENCH_REPEATS timed passes.
    n_docs_warm = consume(build())

    repeats = int(os.environ.get("BENCH_REPEATS", "3"))
    times, steadies = [], []
    for _ in range(repeats):
        n_docs, e2e, steady = drain_with_steady(build())
        times.append(e2e)
        steadies.append(steady)
        assert n_docs == n_docs_warm
    headline = sorted(times)[len(times) // 2]
    steady_dps = sorted(steadies)[len(steadies) // 2]

    queries: dict[str, float] = {}
    if not flagship_only:
        for name in BENCH_QUERIES:
            t0 = time.perf_counter()
            consume(qs[name](SF_DIR))
            queries[name] = round(time.perf_counter() - t0, 3)

        # Production hash="fast" variants of the dedup family — same
        # operators and parameters as the oracled queries above but
        # with the vectorized polynomial gram hash instead of md5
        # (md5 is kept ONLY for SQL-reproducible oracles; production
        # corpora run fast mode). Timed here so the speedup is a
        # recorded bench fact, not a claim.
        from ocr_service_ray.ops import dedup as _dedup
        from ocr_service_ray.ops.ngrams import duplicate_ngram_stats as _dns
        from ocr_service_ray.sources.readers import read_parquet_clean as _rpc

        def _docs():
            return _rpc(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])

        def _curate_variant(sf_dir, **kw):
            # the full curation pipeline with variant knobs (same
            # stages/params as the oracled curate_corpus query)
            import pyarrow as _pa

            from ocr_service_ray.pipelines.curate import curate_corpus

            docs = _rpc(
                f"{sf_dir}/documents.parquet",
                columns=["doc_id", "text", "source"],
            )

            def split(want_eval):
                def f(b: _pa.Table) -> _pa.Table:
                    ids = b["doc_id"].to_numpy(zero_copy_only=False)
                    m = (ids % 20 == 0) if want_eval else (ids % 20 != 0)
                    return b.filter(_pa.array(m))

                return docs.map_batches(f, batch_format="pyarrow")

            out, _ = curate_corpus(
                split(False),
                split(True),
                mix_weights={"src0": 5, "src1": 3, "src2": 2, "src3": 1},
                near_dup_threshold=0.4,
                decontam_ngram=8,
                counts=False,
                **kw,
            )
            return out.select_columns(["doc_id", "source", "rank", "mix_key"])

        def _curate_fast(sf_dir):
            return _curate_variant(sf_dir, minhash_hash="fast")

        def _curate_join(sf_dir):
            # the dup-heavy-corpus machinery (bloom route + partitioned
            # join) forced on via broadcast_budget=0 — timed so the
            # join tier's fixed cost at bench scale is a recorded
            # fact, not a claim (the oracled curate_corpus query runs
            # exact_keep="auto", which picks the bounded pull here)
            return _curate_variant(
                sf_dir, exact_keep="auto", broadcast_budget=0
            )

        fast_variants = {
            "minhash_dedup_fast": lambda: _dedup.minhash_lsh_candidates(
                _docs(), threshold=0.4, hash="fast"
            ),
            "simhash_dedup_fast": lambda: _dedup.simhash_candidates(
                _docs(), max_hamming=8, hash="fast"
            ),
            "dup_ngram_stats_fast": lambda: _dns(
                _docs(), n=5, min_df=2, strategy="shuffle", hash="fast"
            ),
            "curate_corpus_fast": lambda: _curate_fast(SF_DIR),
            "curate_corpus_join": lambda: _curate_join(SF_DIR),
        }
        for name, fn in fast_variants.items():
            t0 = time.perf_counter()
            consume(fn())
            queries[name] = round(time.perf_counter() - t0, 3)

    ray.shutdown()
    return {
        "metric": "flagship_extraction_e2e",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "n_docs": n_docs,
        "docs_per_sec": round(n_docs / headline, 2),
        "steady_docs_per_sec": round(steady_dps, 2),
    }


def run_scaling() -> dict:
    def run(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            BENCH_FLAGSHIP_ONLY="1",
            BENCH_REPLICATE=str(SCALING_REPLICATE),
            BENCH_REPEATS="1",
        )
        # Pin each arm to exactly `ncpu` PHYSICAL cores: this is the
        # single-host stand-in for an N-core node. Without pinning the
        # num_cpus=8 arm spreads 6 actors over all 32 physical cores —
        # a private core + the whole L3 per task, plus raylet/driver
        # running on cores a real 8-core node wouldn't have — which
        # inflates the small arm and understates scaling efficiency.
        cmd = [sys.executable, os.path.abspath(__file__)]
        if os.path.exists("/usr/bin/taskset"):
            cmd = ["taskset", "-c", f"0-{ncpu - 1}"] + cmd
        out = subprocess.run(
            cmd,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo, hi = 8, 32
    # Scaling efficiency is computed on STEADY-STATE throughput (the
    # 5-95% row window): at the 10^12-doc design scale a job runs for
    # hours, so the fixed ~2-4s of pool spawn + ramp per run — which
    # on this 20-100s sandbox input is pure measurement artifact that
    # a 4N cluster pays just once too — must not be charged against
    # the 4N arm. The sandbox shares a physical host with invisible
    # co-tenants (observed ±20% drift over minutes), so the two arms
    # are run as ADJACENT-IN-TIME pairs and the reported efficiency is
    # the median of the per-pair ratios — slow host drift hits both
    # halves of a pair and cancels in the ratio.
    # Round-4 protocol tightening: each pair INTERLEAVES its arms
    # (lo, hi, lo, hi adjacent in time) and the pair's efficiency is
    # computed on the mean steady throughput of each arm's runs — a
    # co-tenant burst during one run moves one of two samples instead
    # of a whole arm, which cut the max−min pair spread below 0.15
    # (it reached 0.27 across the round-3 record's single-sample
    # pairs).
    pairs = int(os.environ.get("BENCH_SCALING_PAIRS", "3"))
    arms = int(os.environ.get("BENCH_SCALING_ARMS_PER_PAIR", "2"))
    results: list[tuple[list[dict], list[dict]]] = []
    for _ in range(pairs):
        los: list[dict] = []
        his: list[dict] = []
        for _ in range(arms):
            los.append(run(lo))
            his.append(run(hi))
        results.append((los, his))

    def _mean(rs: list[dict], key: str) -> float:
        return sum(r[key] for r in rs) / len(rs)

    effs = sorted(
        (_mean(r_hi, "steady_docs_per_sec") / _mean(r_lo, "steady_docs_per_sec"))
        / (hi / lo)
        for r_lo, r_hi in results
    )
    eff = effs[len(effs) // 2]
    med = pairs // 2
    flat_lo = [r for p in results for r in p[0]]
    flat_hi = [r for p in results for r in p[1]]
    r_lo = sorted(flat_lo, key=lambda r: r["steady_docs_per_sec"])[len(flat_lo) // 2]
    r_hi = sorted(flat_hi, key=lambda r: r["steady_docs_per_sec"])[len(flat_hi) // 2]
    eff_e2e = (r_hi["docs_per_sec"] / r_lo["docs_per_sec"]) / (hi / lo)
    return {
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        "pair_efficiencies": [round(e, 3) for e in effs],
        "pair_spread": round(effs[-1] - effs[0], 3),
        "arms_per_pair": arms,
        "sec_8": r_lo["value"],
        "sec_32": r_hi["value"],
        "docs_per_sec_8": r_lo["steady_docs_per_sec"],
        "docs_per_sec_32": r_hi["steady_docs_per_sec"],
        "e2e_docs_per_sec_8": r_lo["docs_per_sec"],
        "e2e_docs_per_sec_32": r_hi["docs_per_sec"],
        "e2e_efficiency": round(eff_e2e, 3),
        "n_docs": r_hi["n_docs"],
        "sf": SF_DIR,
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench(flagship_only=os.environ.get("BENCH_FLAGSHIP_ONLY") == "1")))
