"""10x scale-proof run (VERDICT r4 directive #1) — the one rung of
the 100x ladder testable in this sandbox.

Generates a DETERMINISTIC 2.4M-doc corpus (10x the 240k-doc bench
workload): 5000 sf0.1-shaped base docs x 480 replicas, each replica's
text drawn fresh from a splitmix64 stream over a 50k-word vocabulary
(so replicas are NOT accidental near-duplicates), with two closed-form
injections:

- EXACT duplicates: replica ``r`` with ``r % 7 == 3`` copies replica
  ``r-1``'s text byte for byte -> 69 duplicated pairs per base doc,
  so exact dedup (keep-min) must leave EXACTLY
  ``2_400_000 - 69 * 5000 = 2_055_000`` survivors — an arithmetic
  oracle that holds at any scale, no reference run needed.
- NEAR duplicates: replica ``r`` with ``r % 11 == 5`` (and not an
  exact copy) rewrites ONE word of replica ``r-1``'s text ->
  Jaccard ~0.97 pairs for the MinHash-LSH stage (38 per base doc;
  probabilistic recall, so asserted as a band + determinism, not
  equality).

Each stage runs in its OWN process (fresh ray.init at
``--num-cpus``) and prints one JSON line with wall time, peak DRIVER
RSS (sampled from /proc/self/status — flat RSS is the "nothing
corpus-sized visits the driver" proof), cumulative object-store
spill, row counts and order-invariant content checksums
(ops/diff.table_checksum). Stages:

    python scripts/scale_proof_r5.py gen        # build the corpus
    python scripts/scale_proof_r5.py exact      # exact-dedup oracle
    python scripts/scale_proof_r5.py minhash    # LSH pairs + determinism
    python scripts/scale_proof_r5.py curate --exact-keep auto
    python scripts/scale_proof_r5.py curate --exact-keep join
    python scripts/scale_proof_r5.py flagship   # 2.4M-doc extraction

The two curate runs must agree on final (n_rows, checksum) — the
broadcast-vs-join tier equivalence proof at the 10x rung.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

BASE_DOCS = int(os.environ.get("SCALE10_BASE_DOCS", "5000"))
REPLICAS = int(os.environ.get("SCALE10_REPLICAS", "480"))
VOCAB_SIZE = 50_000
CORPUS = os.environ.get("SCALE10_DIR", "/tmp/scale10")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

EXPECTED_ROWS = BASE_DOCS * REPLICAS
# r in 1..479 with r % 7 == 3 -> 3, 10, ..., 479: 69 values
EXACT_DUP_PER_DOC = len([r for r in range(1, REPLICAS) if r % 7 == 3])
EXPECTED_EXACT_SURVIVORS = EXPECTED_ROWS - EXACT_DUP_PER_DOC * BASE_DOCS
# near-dup seeds: r % 11 == 5 and r % 7 != 3
NEAR_SEEDS_PER_DOC = len(
    [r for r in range(1, REPLICAS) if r % 11 == 5 and r % 7 != 3]
)


def _splitmix(x):
    """Vectorized splitmix64 finalizer over a uint64 numpy array."""
    import numpy as np

    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        z = x
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z &= np.uint64(0xFFFFFFFFFFFFFFFF)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z &= np.uint64(0xFFFFFFFFFFFFFFFF)
        return z ^ (z >> np.uint64(31))


class RssPeak:
    """Peak driver RSS sampled from /proc/self/status (kB)."""

    def __init__(self, interval: float = 0.25):
        self.peak_kb = 0
        self._stop = threading.Event()
        self._t = threading.Thread(target=self._run, args=(interval,), daemon=True)

    def _sample(self):
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
        return 0

    def _run(self, interval):
        while not self._stop.is_set():
            self.peak_kb = max(self.peak_kb, self._sample())
            self._stop.wait(interval)

    def __enter__(self):
        self._t.start()
        return self

    def __exit__(self, *a):
        self._stop.set()
        self._t.join()
        self.peak_kb = max(self.peak_kb, self._sample())


def spilled_mb() -> float:
    """Cumulative object-store spill for this ray session, MiB —
    measured as the byte size of the session's spill directory (the
    grpc-backed memory_summary API is unavailable in this container)."""
    try:
        import glob

        import ray

        sess = ray._private.worker._global_node.get_session_dir_path()
        total = 0
        for d in glob.glob(os.path.join(sess, "*spill*")):
            for dp, _, fs in os.walk(d):
                for f in fs:
                    try:
                        total += os.path.getsize(os.path.join(dp, f))
                    except OSError:
                        pass
        return round(total / (1 << 20), 1)
    except Exception:
        return -1.0


def ray_up():
    import ray

    kw = {}
    store_gb = os.environ.get("SCALE10_OBJ_STORE_GB")
    if store_gb:
        # the 100x rung's shuffles exceed the default 37.6 GiB store on
        # this 93 GB-usable disk (spill hit Ray's 95% disk cap); with
        # 126 GB of /dev/shm the store can simply be sized to the rung
        kw["object_store_memory"] = int(float(store_gb) * (1 << 30))
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        **kw,
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    return ray


def _replica_texts(base: int, vocab) -> tuple[list, int]:
    """The deterministic replica loop shared by ``gen`` and ``census``:
    returns the REPLICAS texts for one base doc plus the number of
    ACCIDENTAL exact copies — near-dup rewrites whose replacement word
    equals the word already at that position (p = 1/VOCAB_SIZE per
    seed), leaving ``text == prev`` byte for byte. Each such event
    converts one would-be-unique near-dup into an extra exact
    duplicate and removes exactly one distinct text, copy chains
    included (no two near-dups ever share a source text: identical
    texts only come in {q, q+1} exact-copy pairs and r%11==5 cannot
    hold for two consecutive r), so the survivor oracle is
    ROWS - 69*BASE_DOCS - n_accidental at ANY scale. Invisible at the
    10x rung (0 events observed, ~3.8 expected over 190k seeds);
    material at the 100x rung (~38 expected over 1.9M seeds)."""
    import numpy as np

    texts = []
    n_accidental = 0
    prev = None
    for r in range(REPLICAS):
        if r % 7 == 3 and prev is not None:
            text = prev  # exact duplicate of r-1
        elif r % 11 == 5 and prev is not None:
            # near duplicate: one word rewritten
            words = prev.split(" ")
            h = int(_splitmix(np.uint64(base * 1000003 + r)))
            words[h % len(words)] = vocab[h % VOCAB_SIZE]
            text = " ".join(words)
            if text == prev:
                n_accidental += 1
        else:
            with np.errstate(over="ignore"):
                seed = np.uint64(base) * np.uint64(982451653) + np.uint64(r)
                n_words = 80 + int(_splitmix(seed)) % 40
                idx = _splitmix(
                    seed * np.uint64(1_000_003)
                    + np.arange(n_words, dtype=np.uint64)
                ) % np.uint64(VOCAB_SIZE)
            text = " ".join(vocab[idx.astype(np.int64)])
        texts.append(text)
        prev = text
    return texts, n_accidental


def gen(args) -> dict:
    """Distributed deterministic corpus generation: one task per base
    doc builds all 480 replicas sequentially (copies need r-1's text),
    blocks stream straight to partitioned parquet — the corpus never
    exists in one place."""
    import numpy as np
    import pyarrow as pa

    ray = ray_up()
    import ray.data as rd

    vocab = np.array([f"w{i:05d}" for i in range(VOCAB_SIZE)])

    def build(batch: pa.Table) -> pa.Table:
        ids, texts, srcs = [], [], []
        for base in batch["id"].to_pylist():
            reps, _ = _replica_texts(base, vocab)
            texts.extend(reps)
            ids.extend(base * REPLICAS + r for r in range(REPLICAS))
            srcs.extend([f"src{base % 20}"] * REPLICAS)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
                "source": pa.array(srcs, pa.string()),
            }
        )

    out_dir = f"{CORPUS}/documents.parquet"
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    with RssPeak() as rss:
        (
            rd.range(BASE_DOCS)
            .repartition(NUM_CPUS * 4)
            .map_batches(build, batch_format="pyarrow", batch_size=16)
            .write_parquet(out_dir)
        )
    wall = time.perf_counter() - t0
    import pyarrow.parquet as pq

    n = pq.read_metadata_rows(out_dir) if hasattr(pq, "read_metadata_rows") else None
    if n is None:
        n = rd.read_parquet(out_dir).count()
    res = {
        "stage": "gen",
        "rows": int(n),
        "expected_rows": EXPECTED_ROWS,
        "wall_sec": round(wall, 1),
        "driver_rss_peak_mb": rss.peak_kb // 1024,
        "spilled_mb": spilled_mb(),
        "bytes": sum(
            os.path.getsize(os.path.join(dp, f))
            for dp, _, fs in os.walk(out_dir)
            for f in fs
        ),
    }
    ray.shutdown()
    return res


def census(args) -> dict:
    """Deterministic replay of the generator's decisions (no corpus
    read, no parquet write) counting accidental exact copies — see
    ``_replica_texts``. Writes ``{CORPUS}/census.json`` so the exact
    stage's survivor oracle stays ARITHMETIC at every rung: the 100x
    run surfaced a 28-survivor deficit that is exactly this p=1/50000
    rewrite-collision effect, not an engine miscount."""
    import numpy as np
    import pyarrow as pa

    ray = ray_up()
    import ray.data as rd

    vocab = np.array([f"w{i:05d}" for i in range(VOCAB_SIZE)])

    def count(batch: pa.Table) -> pa.Table:
        acc = [
            _replica_texts(base, vocab)[1]
            for base in batch["id"].to_pylist()
        ]
        return pa.table({"accidental": pa.array(acc, pa.int64())})

    t0 = time.perf_counter()
    with RssPeak() as rss:
        n_acc = int(
            rd.range(BASE_DOCS)
            .repartition(NUM_CPUS * 4)
            .map_batches(count, batch_format="pyarrow", batch_size=16)
            .sum("accidental")
        )
    wall = time.perf_counter() - t0
    sidecar = {
        "n_accidental_exact": n_acc,
        "expected_exact_survivors": EXPECTED_EXACT_SURVIVORS - n_acc,
        "base_docs": BASE_DOCS,
        "replicas": REPLICAS,
    }
    with open(f"{CORPUS}/census.json", "w") as f:
        json.dump(sidecar, f)
    res = {
        "stage": "census",
        "wall_sec": round(wall, 1),
        "driver_rss_peak_mb": rss.peak_kb // 1024,
        **sidecar,
    }
    ray.shutdown()
    return res


def _expected_survivors() -> int:
    """Census-adjusted survivor oracle when the sidecar exists; the
    pure-arithmetic count otherwise (exact whenever no rewrite
    collision occurred, e.g. the recorded 10x runs)."""
    try:
        with open(f"{CORPUS}/census.json") as f:
            return int(json.load(f)["expected_exact_survivors"])
    except (OSError, ValueError, KeyError):
        return EXPECTED_EXACT_SURVIVORS


def _read_corpus():
    import ray.data as rd

    return rd.read_parquet(f"{CORPUS}/documents.parquet")


def exact(args) -> dict:
    """Exact dedup at 2.4M docs vs the arithmetic oracle."""
    from ocr_service_ray.ops.dedup import exact_dedup

    ray = ray_up()
    t0 = time.perf_counter()
    with RssPeak() as rss:
        groups = exact_dedup(_read_corpus(), "text", "doc_id")
        import pyarrow.compute as pc

        # survivors = distinct groups; dup-group rows for tier context
        n_groups = groups.count()
        dup_rows = groups.map_batches(
            lambda b: b.filter(pc.greater(b["dups"], 1)),
            batch_format="pyarrow",
        ).count()
    wall = time.perf_counter() - t0
    res = {
        "stage": "exact_dedup",
        "survivors": int(n_groups),
        "expected_survivors": _expected_survivors(),
        "oracle_match": int(n_groups) == _expected_survivors(),
        "dup_group_rows": int(dup_rows),
        "wall_sec": round(wall, 1),
        "driver_rss_peak_mb": rss.peak_kb // 1024,
        "spilled_mb": spilled_mb(),
    }
    ray.shutdown()
    return res


def minhash(args) -> dict:
    """MinHash-LSH candidate pairs at 2.4M docs: recall band vs the
    injected near-dup count + run-to-run determinism (checksum)."""
    from ocr_service_ray.ops.dedup import minhash_lsh_candidates
    from ocr_service_ray.ops.diff import table_checksum

    ray = ray_up()
    sig_dir = f"{CORPUS}/signatures"
    results = []
    for run in (1, 2):
        import shutil

        shutil.rmtree(sig_dir, ignore_errors=True)
        t0 = time.perf_counter()
        with RssPeak() as rss:
            pairs = minhash_lsh_candidates(
                _read_corpus(),
                threshold=0.5,
                hash="fast",
                signature_path=sig_dir,
            )
            ck = table_checksum(pairs, ["id_a", "id_b"])
        results.append(
            {
                "pairs": int(ck["n_rows"][0]),
                "checksum": int(ck["checksum"][0]),
                "wall_sec": round(time.perf_counter() - t0, 1),
                "driver_rss_peak_mb": rss.peak_kb // 1024,
            }
        )
    # every injected exact pair is a J=1.0 candidate; near seeds are
    # J~0.97 — both must be recalled at threshold 0.5 with 16 bands
    min_expected = (EXACT_DUP_PER_DOC + NEAR_SEEDS_PER_DOC) * BASE_DOCS
    res = {
        "stage": "minhash_lsh",
        "runs": results,
        "deterministic": results[0]["checksum"] == results[1]["checksum"]
        and results[0]["pairs"] == results[1]["pairs"],
        "min_expected_pairs": min_expected,
        "recall_ok": results[0]["pairs"] >= min_expected * 0.98,
        "spilled_mb": spilled_mb(),
    }
    ray.shutdown()
    return res


def curate(args) -> dict:
    """The composed curation pipeline at 2.4M docs, production flags
    (counts=False, staged phases). Run once with each exact-keep tier;
    the orchestrator asserts both runs' final checksums agree."""
    from ocr_service_ray.ops.diff import table_checksum
    from ocr_service_ray.pipelines.curate import curate_corpus

    ray = ray_up()
    tier = args.exact_keep
    # --no-staging runs the in-memory tier: at the 100x rung the three
    # tiers' staged-phase parquet (~35-45 GB each) cannot coexist with
    # the LSH shuffle spill on this sandbox's ~93 GB disk, so the
    # staged (production) shape is proven on ONE tier and the forced
    # tiers run unstaged — final checksums must agree either way.
    staging = None if args.no_staging else f"{CORPUS}/curate_stage_{tier}"
    import shutil

    if staging:
        shutil.rmtree(staging, ignore_errors=True)
    t0 = time.perf_counter()
    with RssPeak() as rss:
        out, summary = curate_corpus(
            _read_corpus(),
            counts=False,
            staging_path=staging,
            minhash_hash="fast",
            exact_keep=tier,
            # with the default 1M budget the 345k dup-group rows fit the
            # broadcast tier; "join" forces the bloom-routed join path
            broadcast_budget=int(args.broadcast_budget),
        )
        ck = table_checksum(out, ["doc_id"])
    wall = time.perf_counter() - t0
    res = {
        "stage": f"curate[{tier}]",
        "final_rows": int(ck["n_rows"][0]),
        "checksum": int(ck["checksum"][0]),
        "exact_keep_tier": summary.get("exact_keep_tier"),
        "wall_sec": round(wall, 1),
        "driver_rss_peak_mb": rss.peak_kb // 1024,
        "spilled_mb": spilled_mb(),
    }
    ray.shutdown()
    return res


def flagship(args) -> dict:
    """Flagship extraction at 2.4M docs (10x the bench REPLICATE)."""
    ray = ray_up()
    from ray.data import DataContext

    from ocr_service_ray.pipelines.derive import derived_corpus
    from ocr_service_ray.pipelines.flagship import fused_pool_size, run_extraction
    from ocr_service_ray.stages.ocr import GENERATE_MEDIA

    ctx = DataContext.get_current()
    ctx.execution_options.preserve_order = False
    ctx.target_max_block_size = 512 * 1024
    ctx._max_num_blocks_in_streaming_gen_buffer = 16
    ctx.max_tasks_in_flight_per_actor = 8
    repl = int(os.environ.get("SCALE10_FLAGSHIP_REPL", "480"))
    t0 = time.perf_counter()
    n = 0
    with RssPeak() as rss:
        ds = run_extraction(
            derived_corpus(
                "/root/testdata/sf0.1", repl, num_blocks=max(64, repl * 4 // 3)
            ),
            GENERATE_MEDIA,
            kernel_batch_size=128,
            kernel_concurrency=fused_pool_size(NUM_CPUS),
        )
        if getattr(args, "sink", None):
            # the production shape: results stream to partitioned
            # parquet; nothing corpus-sized ever visits the driver
            # (iter_batches below exists only so the harness can
            # count rows — it buffers result batches driver-side)
            import shutil

            from ocr_service_ray.pipelines.flagship import write_documents

            shutil.rmtree(args.sink, ignore_errors=True)
            write_documents(ds, args.sink)
        else:
            for b in ds.iter_batches(batch_format="pyarrow", batch_size=4096):
                n += b.num_rows
    wall = time.perf_counter() - t0
    if getattr(args, "sink", None):
        # row-count verification outside the timer, read back through
        # the sink's own mirror (Lance where present, parquet otherwise)
        from ocr_service_ray.pipelines.flagship import read_documents

        n = read_documents(args.sink, columns=["doc_id"]).count()
    res = {
        "stage": "flagship" + ("[sink]" if getattr(args, "sink", None) else ""),
        "docs": int(n),
        "wall_sec": round(wall, 1),
        "docs_per_sec": round(n / wall, 1),
        "driver_rss_peak_mb": rss.peak_kb // 1024,
        "spilled_mb": spilled_mb(),
    }
    ray.shutdown()
    return res


STAGES = {
    "gen": gen,
    "census": census,
    "exact": exact,
    "minhash": minhash,
    "curate": curate,
    "flagship": flagship,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("stage", choices=sorted(STAGES))
    ap.add_argument("--exact-keep", default="auto",
                    choices=["broadcast", "join", "auto"])
    ap.add_argument("--broadcast-budget", type=int, default=1_000_000)
    ap.add_argument("--no-staging", action="store_true",
                    help="curate in the in-memory tier (no staged phases)")
    ap.add_argument("--sink", default=None,
                    help="flagship: write results to this parquet dir "
                         "(production shape) instead of iterating "
                         "batches on the driver")
    args = ap.parse_args()
    res = STAGES[args.stage](args)
    print(json.dumps(res))


if __name__ == "__main__":
    main()
