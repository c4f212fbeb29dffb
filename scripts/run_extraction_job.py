"""Cluster job entrypoint — what ``ray job submit`` runs.

On a real cluster (north_rule: fixed N-node and 4N-node clusters):

    ray job submit --working-dir . -- \\
        python scripts/run_extraction_job.py \\
        --input /data/corpus --output /data/extracted \\
        --shards 64 --engine synthetic [--resume] [--hash-content]

In this sandbox the same script runs standalone against the derived
testdata corpus (``--input testdata:<sf_dir>``). Ray Data
auto-initialises when no cluster address is set; when submitted via
``ray job submit`` the job driver attaches to the running cluster, so
``ray.init`` is guarded.

The job is resumable: re-submitting with ``--resume`` (default) skips
partitions whose ``_manifest.json`` committed; each partition's
manifest carries lineage + rows + docs/sec + per-block operator stats
(stages/checkpoint.py). Each shard's extraction runs one fused actor
pool that autoscales from one actor up to ``flagship.fused_pool_size``
of the cluster's CPUs; the minimum of one leaves CPUs free for the
upstream read/filter tasks of the two shards ``run_checkpointed`` keeps
in flight.
Output partitions are cost-balanced when ``--cost-balance`` is set
(ops/skew.py): heavy media documents are round-robined across shards
so a restart never re-runs one disproportionately expensive partition.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", required=True, help="corpus path, or testdata:<sf_dir>")
    ap.add_argument("--output", required=True)
    ap.add_argument("--shards", type=int, default=16)
    ap.add_argument("--engine", default="synthetic")
    ap.add_argument("--replicate", type=int, default=1)
    ap.add_argument("--resume", action=argparse.BooleanOptionalAction, default=True)
    ap.add_argument("--hash-content", action="store_true")
    ap.add_argument("--cost-balance", action="store_true")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():  # ray job submit attaches; standalone inits local
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"), include_dashboard=False)
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.preserve_order = False
    ctx.target_max_block_size = 512 * 1024
    ctx._max_num_blocks_in_streaming_gen_buffer = 16
    ctx.max_tasks_in_flight_per_actor = 8

    from ocr_service_ray.pipelines.flagship import fused_pool_size, run_extraction
    from ocr_service_ray.stages.checkpoint import run_checkpointed
    from ocr_service_ray.stages.ocr import GENERATE_MEDIA

    if args.input.startswith("testdata:"):
        import pyarrow.parquet as pq

        from ocr_service_ray.pipelines.derive import derive_documents_batch
        from ocr_service_ray.stages.checkpoint import table_shards

        src = pq.read_table(
            f"{args.input.removeprefix('testdata:')}/documents.parquet",
            columns=["doc_id", "text"],
        )
        corpus = derive_documents_batch(src, replicate=args.replicate)
        if args.cost_balance:
            import ray.data as rd

            from ocr_service_ray.ops.skew import cost_balanced_shard, media_cost_column

            sharded = cost_balanced_shard(
                media_cost_column(rd.from_arrow(corpus)), args.shards
            )
            shards = [
                sharded.filter(expr=f"shard == {i}").drop_columns(
                    ["media_cost", "shard"]
                )
                for i in range(args.shards)
            ]
        else:
            shards = table_shards(corpus, args.shards)
        media = GENERATE_MEDIA
    else:
        # Real corpus layout: one subdirectory per input shard of the
        # doc table, media registry alongside (pushed-down scan).
        shard_dirs = sorted(
            os.path.join(args.input, d)
            for d in os.listdir(args.input)
            if d.startswith("shard=")
        )
        if not shard_dirs:
            raise SystemExit(f"no shard=* dirs under {args.input}")
        shards = shard_dirs
        media = os.path.join(args.input, "media")

    pool_size = fused_pool_size(int(ray.cluster_resources().get("CPU", 8)))
    summary = run_checkpointed(
        shards,
        lambda s: run_extraction(
            s, media, engine=args.engine, kernel_concurrency=(1, pool_size)
        ),
        args.output,
        resume=args.resume,
        hash_content=args.hash_content,
    )
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
