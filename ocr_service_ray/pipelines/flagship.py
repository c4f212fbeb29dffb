"""Flagship extraction pipeline — the rebuild of the reference's
``POST /api/v1/process`` + ``batch_process`` flow
(``/root/reference/core/processor.py:97-468``) as one streaming Ray
Data plan (SURVEY.md §3.1):

    read(docs)                                    # spans stay list-typed per row
      → map_batches(FusedExtractStage, concurrency=…)
                                                  # actor pool: resolve media + OCR
                                                  # + assemble/correct/validate/quality
      → write / aggregate                         # caller-chosen sink

Design points for 100 TB scale:
- spans stay list-typed inside the row, so the per-document page merge
  (aggregation A1) is an in-kernel fold — NO shuffle anywhere on the
  per-document path;
- OCR and the kernels run in ONE actor (operator fusion): OCR rows go
  straight to the kernels as Python rows, with no intermediate Arrow
  table; skew from media-heavy documents is absorbed by batch
  granularity instead of a pre-shuffle (the streaming executor
  load-balances batches across the pool);
- the corrections DB and (at test scale) the media registry are
  broadcast once via ``ray.put`` / constructor kwargs, never per
  batch; at scale the media side switches to the pushed-down ``scan``
  resolver (``stages/ocr.py``);
- no ``materialize()``/``take_all()`` on the main path — the plan is
  lazy end to end and the caller consumes it streaming.
"""

from __future__ import annotations

import pyarrow as pa

from ocr_service_ray.sources.synth import corrections_entries
from ocr_service_ray.stages.extract import FusedExtractStage
from ocr_service_ray.stages.ocr import media_table_to_registry

# Target rows per block when an in-memory Arrow table is split up
# front (into at most 32 blocks).
SPLIT_ROWS = 32


def read_documents(path: str, columns: list[str] | None = None):
    """Read the document table. Lance when the package is present
    (``ray.data.read_lance``); parquet is the sandbox fallback —
    identical Arrow schema either way. Columns are pruned at the read."""
    cols = columns or ["doc_id", "spans"]
    try:
        import lance  # noqa: F401
        import ray.data as rd

        return rd.read_lance(path, columns=cols)
    except ImportError:
        from ocr_service_ray.sources.readers import read_parquet_clean

        return read_parquet_clean(path, columns=cols)


def write_documents(ds, path: str):
    """Write an output table — the sink mirror of :func:`read_documents`
    (BASELINE.json's ``input_hint`` is a Lance table, so the flagship
    sink is Lance-symmetric): ``ds.write_lance`` when the package is
    present, partitioned parquet as the sandbox fallback — identical
    Arrow schema either way. For resumable sharded output wrap the
    pipeline in ``stages/checkpoint.run_checkpointed`` instead (its
    manifest row/byte accounting reads parquet footers)."""
    try:
        import lance  # noqa: F401

        return ds.write_lance(path)
    except ImportError:
        from ocr_service_ray.sources.sinks import write_parquet_sized

        return write_parquet_sized(ds, path)


def fused_pool_size(num_cpus: int) -> int:
    """Actor count for the FUSED extraction pool on ``num_cpus`` CPUs:
    ~15/16 of them (the same fraction at every cluster size keeps an
    N-vs-4N scaling comparison apples-to-apples), but always at least
    one CPU left free, because the read/derive tasks feeding the pool
    need a slot and a pool reserving every CPU stalls the pipeline.
    Gives 1, 2, 3, 7, 15, 30 actors at 2, 3, 4, 8, 16, 32 CPUs."""
    return max(1, num_cpus - max(1, num_cpus // 16))


def run_extraction(
    docs,
    media,
    corrections: list[tuple[str, str]] | None = None,
    *,
    engine: str = "synthetic",
    kernel_batch_size: int = 128,
    kernel_concurrency=(1, 16),
    fused: bool = True,
):
    """Build the lazy extraction plan: one ``map_batches`` over
    :class:`FusedExtractStage`, an actor pool that autoscales within
    ``kernel_concurrency``.

    ``docs``: a Dataset, a path, or an Arrow table.
    ``media``: an Arrow media table / registry dict (→ broadcast) or a
    path to the media dataset (→ per-batch pushed-down scan).
    ``fused`` is accepted only as ``True``, the one layout there is.
    Returns a Dataset with ``schema.OUT_SCHEMA`` — not yet executed.
    """
    import ray
    import ray.data as rd

    if fused is not True:
        raise ValueError(f"fused={fused!r}: the fused actor is the only extraction layout")

    if isinstance(docs, str):
        ds = read_documents(docs)
    elif isinstance(docs, pa.Table):
        # Split an in-memory table into multiple blocks up front so the
        # actor pool actually fans out (one pa.Table → one block → one
        # task otherwise).
        n_chunks = max(1, min(32, docs.num_rows // SPLIT_ROWS))
        step = -(-docs.num_rows // n_chunks)
        ds = rd.from_arrow(
            [docs.slice(i * step, step) for i in range(n_chunks)]
        )
    else:
        ds = docs

    if isinstance(media, pa.Table):
        media_source = ray.put(media_table_to_registry(media))
    elif isinstance(media, dict):
        media_source = ray.put(media)
    else:
        media_source = media  # path → ScanMediaResolver inside the actor

    corrections = corrections if corrections is not None else corrections_entries()
    return ds.map_batches(
        FusedExtractStage,
        batch_format="pyarrow",
        batch_size=kernel_batch_size,
        concurrency=kernel_concurrency,
        num_cpus=1,
        fn_constructor_kwargs={
            "media_source": media_source,
            "corrections": corrections,
            "engine": engine,
        },
    )


def corpus_summary(out_ds) -> dict:
    """Corpus statistics (aggregation A7 — the reference's
    ``summary.json``, ``scripts/process_dataset_phase1.py:238-269``):
    vectorized map-side partials + driver merge of |blocks| rows
    (ops/agg.global_agg — the native global aggregate pays a per-row
    Python loop)."""
    from ocr_service_ray.ops.agg import global_agg

    return global_agg(
        out_ds,
        {
            "documents": (None, "count"),
            "mean_quality": ("overall_quality", "mean"),
            "mean_ocr_confidence": ("ocr_confidence", "mean"),
            "total_corrections": ("n_corrections", "sum"),
            "total_pages": ("total_pages", "sum"),
        },
    )
