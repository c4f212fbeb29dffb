"""Checkpointed, resumable partitioned output (north_rule requirement).

The reference has NO resume story — a crashed corpus run restarts from
zero (SURVEY.md §4.1). Here the input is split into deterministic
shards (unit = input files, or row ranges of one in-memory table);
each shard streams through the pipeline independently and commits
atomically:

    out_dir/
      part=00000/            # parquet files for shard 0
        _manifest.json       # lineage + metrics, written LAST
      part=00001/
        ...

A shard directory is written to ``<part>.tmp`` and renamed into place
only after its ``_manifest.json`` is staged — the rename is the commit
point, so a killed run leaves either a complete shard or an ignorable
``.tmp``. Resume = skip shards whose manifest exists and parses.

The manifest carries per-partition lineage + throughput (north_rule
"per-partition lineage + metrics emitted"): input description, row
count, byte size, wall time, docs/sec, per-block stats of every
operator the shard ran (``blocks``, read from Ray Data's own stats),
and optionally a content hash of the (doc_id, span-sequence) pairs for
byte-stability checks.

Scale note: each shard is itself a fully streaming, cluster-wide
Dataset job; up to ``max_in_flight`` shards run concurrently (driver
threads — Ray Data schedules the overlapping jobs side by side, so
one shard's straggler tail doesn't idle the cluster). Shard count
should be small (tens), sized so one shard ≈ minutes of cluster work;
checkpoint granularity trades against scheduling overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import time


def _shard_id(i: int) -> str:
    return f"part={i:05d}"


def manifest_path(out_dir: str, i: int) -> str:
    return os.path.join(out_dir, _shard_id(i), "_manifest.json")


def completed_shards(out_dir: str) -> set[int]:
    done = set()
    if not os.path.isdir(out_dir):
        return done
    for name in os.listdir(out_dir):
        if name.startswith("part=") and not name.endswith(".tmp"):
            mf = os.path.join(out_dir, name, "_manifest.json")
            try:
                with open(mf, encoding="utf-8") as f:
                    json.load(f)
                done.add(int(name.split("=")[1]))
            except (OSError, ValueError):
                continue
    return done


def span_content_hash(part_dir: str) -> str:
    """Order-insensitive content hash over (doc_id, span sequence) of a
    written partition — the resume test's byte-stability check."""
    import pyarrow.dataset as pads

    tbl = pads.dataset(part_dir, format="parquet").to_table(columns=["doc_id", "spans"])
    digests = []
    for row in tbl.to_pylist():
        h = hashlib.sha256()
        h.update(row["doc_id"].encode())
        for s in row["spans"]:
            h.update(
                f"{s['kind']}\x00{s['text']}\x00{s['media_ref']}\x00{s['offset']}\x1e".encode()
            )
        digests.append(h.hexdigest())
    outer = hashlib.sha256()
    for d in sorted(digests):
        outer.update(d.encode())
    return outer.hexdigest()


def _shard_lineage(shard) -> dict:
    """Structured input lineage for the partition manifest — what fed
    this partition, queryable later (not a repr dump): row count /
    columns / id range for in-memory tables, the path for path-backed
    shards, the schema for Dataset shards."""
    import pyarrow as _pa

    if isinstance(shard, str):
        return {"kind": "path", "path": shard}
    if isinstance(shard, _pa.Table):
        out = {
            "kind": "arrow_table",
            "rows": shard.num_rows,
            "columns": shard.column_names,
        }
        if "doc_id" in shard.column_names and shard.num_rows:
            col = shard["doc_id"]
            out["doc_id_range"] = [str(col[0].as_py()), str(col[-1].as_py())]
        return out
    if hasattr(shard, "schema"):  # ray Dataset
        try:
            cols = list(shard.schema().names)
        except Exception:
            cols = None
        return {"kind": "dataset", "columns": cols}
    return {"kind": type(shard).__name__}


def _block_stats(ds) -> list[dict]:
    """Per-block stats of every operator an executed dataset ran,
    upstream first: its name, then Ray's per-block ``wall_time`` (s) and
    ``output_num_rows``, each as min/max/mean/sum. Ray Data records
    these anyway; a written dataset executes a copy of itself
    (``_write_ds``), which holds them."""
    out: list[dict] = []

    def walk(summary) -> None:
        for parent in summary.parents:
            walk(parent)
        out.extend(
            {
                "name": op.operator_name,
                "wall_time": op.wall_time,
                "output_num_rows": op.output_num_rows,
            }
            for op in summary.operators_stats
            if op.wall_time is not None
        )

    walk((getattr(ds, "_write_ds", None) or ds)._get_stats_summary())
    return out


def _run_one_shard(i, shard, build_pipeline, out_dir, hash_content) -> dict:
    """Execute one shard end-to-end: build → write to ``.tmp`` →
    stage manifest → atomic rename (the commit point). Returns the
    manifest. Safe to run concurrently with other shards — every path
    it touches is namespaced by the shard id."""
    import pyarrow.parquet as pq

    part = os.path.join(out_dir, _shard_id(i))
    tmp = part + ".tmp"
    if os.path.isdir(tmp):
        import shutil

        shutil.rmtree(tmp)
    if os.path.isdir(part):
        import shutil

        shutil.rmtree(part)
    t_start = time.time()
    t0 = time.perf_counter()
    ds = build_pipeline(shard)
    from ocr_service_ray.sources.sinks import write_parquet_sized

    for attempt in range(3):
        try:
            write_parquet_sized(ds, tmp)
            break
        except ImportError as e:
            # Concurrent-shard races on Ray's lazy fsspec.http import:
            # the module fails with ModuleNotFoundError (no aiohttp),
            # is evicted from sys.modules (failed imports are never
            # cached), and a second thread mid-import can observe the
            # partial module as "cannot import name 'HTTPFileSystem'"
            # — which escapes Ray's ModuleNotFoundError-only guard
            # (ray/data/datasource/path_util.py:152). Retry is safe:
            # the raise happens at path resolution, before any write.
            if "fsspec" not in str(e) or attempt == 2:
                raise
            import shutil

            shutil.rmtree(tmp, ignore_errors=True)
            time.sleep(0.1 * (attempt + 1))
    # Row/byte counts from parquet footers only — no data re-read.
    rows = 0
    nbytes = 0
    for name in os.listdir(tmp):
        if name.endswith(".parquet"):
            fp = os.path.join(tmp, name)
            rows += pq.read_metadata(fp).num_rows
            nbytes += os.path.getsize(fp)
    wall = time.perf_counter() - t0
    # span count from a spans-column-pruned read (lineage spec wants
    # docs AND spans per partition); skipped for span-less schemas
    n_spans = None
    try:
        import pyarrow.compute as _pc
        import pyarrow.dataset as _pads

        dset = _pads.dataset(tmp, format="parquet")
        if "spans" in dset.schema.names:
            lens = _pc.list_value_length(
                dset.to_table(columns=["spans"])["spans"]
            )
            n_spans = int(_pc.sum(lens).as_py() or 0)
    except Exception:
        n_spans = None
    manifest = {
        "partition": i,
        "input": _shard_lineage(shard),
        "rows": rows,
        "n_spans": n_spans,
        "bytes": nbytes,
        "t_start": round(t_start, 3),
        "t_end": round(t_start + wall, 3),
        "t_wall_sec": round(wall, 4),
        "docs_per_sec": round(rows / wall, 3) if wall > 0 else None,
        "blocks": _block_stats(ds),
    }
    if hash_content:
        manifest["span_hash"] = span_content_hash(tmp)
    with open(os.path.join(tmp, "_manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
    os.rename(tmp, part)  # commit point
    return manifest


def run_checkpointed(
    shards: list,
    build_pipeline,
    out_dir: str,
    *,
    resume: bool = True,
    hash_content: bool = False,
    max_in_flight: int = 2,
) -> dict:
    """Run ``build_pipeline(shard) -> Dataset`` per shard with atomic
    per-partition commit; skip already-complete shards when resuming.

    Up to ``max_in_flight`` shards execute CONCURRENTLY (each is an
    independent streaming Dataset job; Ray Data schedules them side by
    side, so a shard's long tail no longer idles the cluster between
    commits). Commit atomicity is per shard and unchanged —
    ``max_in_flight=1`` reproduces the strictly sequential behavior.
    Each shard's output bytes are independent of in-flight count
    (asserted by the resume test's span hashes).

    Returns a run summary {partitions, skipped, rows, seconds}.
    """
    os.makedirs(out_dir, exist_ok=True)
    done = completed_shards(out_dir) if resume else set()
    todo = [(i, s) for i, s in enumerate(shards) if i not in done]
    t_run = time.perf_counter()
    manifests: list[dict] = []
    if max_in_flight <= 1 or len(todo) <= 1:
        for i, shard in todo:
            manifests.append(
                _run_one_shard(i, shard, build_pipeline, out_dir, hash_content)
            )
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
            futs = [
                pool.submit(
                    _run_one_shard, i, shard, build_pipeline, out_dir, hash_content
                )
                for i, shard in todo
            ]
            manifests = [f.result() for f in futs]
    return {
        "partitions": len(shards),
        "executed": sorted(m["partition"] for m in manifests),
        "skipped": sorted(done),
        "rows": sum(m["rows"] for m in manifests),
        "seconds": round(time.perf_counter() - t_run, 4),
    }


def table_shards(table, n_shards: int) -> list:
    """Deterministic row-range shards of one Arrow table."""
    step = -(-table.num_rows // n_shards)
    return [table.slice(i * step, step) for i in range(n_shards)]
