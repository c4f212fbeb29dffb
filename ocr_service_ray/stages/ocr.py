"""OCR stage: media resolution + engine inference per batch.

The reference holds one OCR engine per process for its lifetime
(``/root/reference/api/routes.py:28`` module singleton;
``core/ocr_engine.py:41-49`` engine config). The Ray-native analogue
is an actor pool: ``stages/extract.FusedExtractStage`` builds one
``OcrStage`` per actor — the engine and the media resolver are built
once in ``__init__`` — and calls ``OcrStage.rows`` per batch, handing
the rows straight to the kernels.

Media resolution replaces the reference's on-disk file loads
(``core/ocr_engine.py:84-119``). Two resolvers:

- ``broadcast``: the registry is ``ray.put`` once on the driver and
  each actor ``ray.get``s it in ``__init__`` — zero-copy read of one
  shared object-store copy per node, never re-shipped per batch. Right
  when the registry fits in memory (dimension-table pattern).
- ``scan``: each batch reads only its own ``media_ref`` keys from the
  media parquet/Lance dataset via a pushed-down ``isin`` filter. Right
  at 100 TB where no single node holds the registry; because
  ``media_ref`` embeds ``doc_id`` and the registry is written sorted
  by ``media_ref``, a doc block's refs cluster into few row groups, so
  the filtered read touches O(block) bytes, not O(corpus). This is the
  partitioning assumption the stage relies on (SURVEY.md §4.2).

Continue-on-error: a dangling media_ref (the analogue of the
reference's unreadable file) marks the DOCUMENT as an error row
(``core/processor.py:431-438`` skip-and-record semantics) without
failing the task.
"""

from __future__ import annotations

import pyarrow as pa

from ocr_service_ray.engines import make_engine
from ocr_service_ray.oracle import extract_spans


def media_table_to_registry(media: pa.Table) -> dict[str, dict]:
    """Media table → {media_ref: row} lookup dict for broadcast."""
    return {row["media_ref"]: row for row in media.to_pylist()}


class BroadcastMediaResolver:
    def __init__(self, registry_or_ref):
        import ray

        if isinstance(registry_or_ref, ray.ObjectRef):
            self.registry = ray.get(registry_or_ref)
        else:
            self.registry = registry_or_ref

    def resolve(self, refs: set[str]) -> dict[str, dict]:
        return self.registry


class ScanMediaResolver:
    """Per-batch filtered read of the media dataset (scale path)."""

    def __init__(self, media_path: str):
        import pyarrow.dataset as pads

        self.dataset = pads.dataset(media_path, format="parquet")

    def resolve(self, refs: set[str]) -> dict[str, dict]:
        import pyarrow.dataset as pads

        if not refs:
            return {}
        tbl = self.dataset.to_table(filter=pads.field("media_ref").isin(sorted(refs)))
        return media_table_to_registry(tbl)


class GenerativeMediaResolver:
    """Media rows derived deterministically from the media_ref itself
    (zero IO) — used when the corpus's media is synthetic by
    construction, e.g. the interleaved corpus derived from the plain
    testdata documents table."""

    def resolve(self, refs: set[str]) -> dict[str, dict]:
        from ocr_service_ray.sources.synth import generate_media_row

        return {r: generate_media_row(r) for r in refs}


GENERATE_MEDIA = "__generate__"


class OcrStage:
    """Documents batch in, EXT rows out. Engine + resolver constructed
    once per actor."""

    def __init__(self, media_source, engine: str = "synthetic"):
        if media_source == GENERATE_MEDIA:
            self.resolver = GenerativeMediaResolver()
        elif isinstance(media_source, str):
            self.resolver = ScanMediaResolver(media_source)
        else:
            self.resolver = BroadcastMediaResolver(media_source)
        self.engine = make_engine(engine)

    def rows(self, batch: pa.Table) -> list[dict]:
        """Documents → EXT rows, one dict per document: ``doc_id``,
        ``ext_spans`` (dicts of kind, text, media_ref, offset,
        confidence), ``regions``, the three image metrics
        (``sharpness_var``, ``contrast_std``, ``brightness_mean``, None
        for an error row) and ``error``. The fused stage hands these
        straight to ``KernelStage``."""
        doc_ids = batch["doc_id"].to_pylist()
        spans_col = batch["spans"].to_pylist()
        needed = {
            s["media_ref"]
            for spans in spans_col
            for s in spans
            if s["media_ref"]
        }
        media = self.resolver.resolve(needed)

        out = []
        for doc_id, spans in zip(doc_ids, spans_col):
            try:
                ext, regions, metrics = extract_spans(
                    {"doc_id": doc_id, "spans": spans}, media, self.engine
                )
                error = ""
            except Exception as e:  # continue-on-error, reference semantics
                ext, regions, metrics = [], [], None
                error = f"{type(e).__name__}: {e}"
            out.append(
                {
                    "doc_id": doc_id,
                    "ext_spans": ext,
                    "regions": regions,
                    "sharpness_var": metrics["sharpness_var"] if metrics else None,
                    "contrast_std": metrics["contrast_std"] if metrics else None,
                    "brightness_mean": metrics["brightness_mean"] if metrics else None,
                    "error": error,
                }
            )
        return out
