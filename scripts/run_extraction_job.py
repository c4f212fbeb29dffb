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
manifest carries lineage + rows + docs/sec (stages/checkpoint.py).
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
    ap.add_argument(
        "--block-metrics",
        action="store_true",
        help="collect per-BLOCK throughput records (stage, rows, wall_ms) "
        "via a named zero-CPU collector actor and write the per-stage "
        "summary to <output>/_block_metrics.json (north_rule: metrics "
        "emitted per block)",
    )
    ap.add_argument(
        "--fused",
        action="store_true",
        help="one fused extraction pool sized by flagship.fused_pool_size "
        "(the bench-tuned steady-state configuration); default keeps the "
        "autoscaling two-stage pools",
    )
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

    extract_kwargs: dict = {}
    if args.fused:
        ncpu = int(ray.cluster_resources().get("CPU", 8))
        extract_kwargs = dict(
            fused=True,
            kernel_concurrency=fused_pool_size(ncpu),
            kernel_batch_size=128,
        )

    collector = None
    if args.block_metrics:
        from ocr_service_ray.stages.metrics import create_collector

        metrics_name = f"blockmetrics_{os.getpid()}"
        collector = create_collector(metrics_name)
        extract_kwargs["metrics_name"] = metrics_name

    summary = run_checkpointed(
        shards,
        lambda s: run_extraction(s, media, engine=args.engine, **extract_kwargs),
        args.output,
        resume=args.resume,
        hash_content=args.hash_content,
    )
    if collector is not None:
        from ocr_service_ray.stages.metrics import summarize

        block_summary = summarize(ray.get(collector.drain.remote()))
        summary["block_metrics"] = block_summary
        with open(
            os.path.join(args.output, "_block_metrics.json"), "w", encoding="utf-8"
        ) as f:
            json.dump(block_summary, f, indent=2)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
