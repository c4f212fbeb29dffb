"""Extraction stage: OCR + assemble + correct + validate + quality per
document, in one actor.

``FusedExtractStage`` is the actor ``pipelines/flagship.run_extraction``
passes to ``map_batches``. It holds an ``OcrStage`` (engine + media
resolver) and a ``KernelStage`` (the corrections DB, constructed ONCE
per actor from the broadcast entries in ``fn_constructor_kwargs``
instead of being re-shipped per task), and passes ``OcrStage.rows``
straight to ``KernelStage.__call__``: no Arrow table is built between
OCR and the kernels. The per-document string kernels (reference steps
c-j of ``/root/reference/core/processor.py:202-376``) are inherently
sequential Python (the reference's order-dependent replace semantics,
SURVEY.md §7.4-1); the regex machinery is precompiled at module import.

``KernelStage.__call__`` works on a batch of EXT rows in three steps:

1. assemble and correct every row;
2. build the corrected texts once as the Arrow ``full_text`` column
   (the output table reuses it) and evaluate the field-scan guards
   over that column once per batch (``kernels/validate.batch_guard_bits``:
   RE2 forms of the necessary conditions in ``_PRECONDITION``, checked
   against the field patterns over every code point by
   ``tests/test_guard_sweep.py``);
3. validate and extract important data per row with those guard bits,
   score quality, and emit one tuple per row in OUT_SCHEMA order,
   transposed into the output columns.

``perfbench/trace.py`` times ``KernelStage.__call__`` (once per batch)
and the six kernels by patching this module's globals, so the kernels
must be called through them (``tests/test_trace_hooks.py`` pins both).
"""

from __future__ import annotations

import pyarrow as pa

from ocr_service_ray import schema
from ocr_service_ray.kernels.assemble import assemble_document
from ocr_service_ray.kernels.correct import CorrectionsDB, correct_text
from ocr_service_ray.kernels.quality import check_image_quality, check_quality
from ocr_service_ray.kernels.validate import (
    batch_guard_bits,
    extract_important_data,
    validate_critical_fields,
)
from ocr_service_ray.oracle import critical_fields_json, error_row


def _tune_worker_gc() -> None:
    """Per-actor GC tuning (idempotent). The string kernels allocate
    millions of short-lived dicts/strings per batch, none cyclic —
    refcounting frees them. The default gen0 threshold (700) makes the
    cyclic collector walk the heap constantly, which is pure overhead
    here and extra cross-core memory traffic at high worker counts.
    Long-lived state (regexes, the corrections DB) is frozen out of
    collection entirely."""
    import gc

    if getattr(_tune_worker_gc, "_done", False):
        return
    _tune_worker_gc._done = True
    gc.collect()
    gc.freeze()
    gc.set_threshold(50_000, 25, 25)


def _error_record(row: dict) -> tuple:
    rec = error_row(row["doc_id"], RuntimeError(row["error"]))
    rec["error"] = row["error"]
    return tuple(rec[name] for name in schema.OUT_SCHEMA.names)


class KernelStage:
    """EXT rows in → OUT_SCHEMA batch out."""

    def __init__(self, corrections: list[tuple[str, str]]):
        self.db = CorrectionsDB([tuple(p) for p in corrections])
        _tune_worker_gc()

    def __call__(self, rows: list[dict]) -> pa.Table:
        """EXT rows (``OcrStage.rows``) → OUT_SCHEMA table, one tuple per
        row in OUT_SCHEMA order, transposed into the columns."""
        texts = []  # (assembled, full_text, corrections), None for an error row
        for row in rows:
            if row["error"]:
                texts.append(None)
                continue
            assembled = assemble_document(row["ext_spans"])
            full_text, corrections = correct_text(assembled["raw_text"], self.db)
            texts.append((assembled, full_text, corrections))
        full_text_col = pa.array([t[1] if t else "" for t in texts], pa.string())
        records = [
            self._record(row, *t, guards) if t else _error_record(row)
            for row, t, guards in zip(rows, texts, batch_guard_bits(full_text_col))
        ]
        columns = list(zip(*records)) or [()] * len(schema.OUT_SCHEMA)
        arrays = [
            full_text_col if f.name == "full_text" else pa.array(c, f.type)
            for c, f in zip(columns, schema.OUT_SCHEMA)
        ]
        return pa.Table.from_arrays(arrays, schema=schema.OUT_SCHEMA)

    def _record(self, row, assembled, full_text, corrections, guards) -> tuple:
        # One shared field-scan per document: find_field is pure, so
        # validation and important-data extraction reuse the same
        # full-text regex passes (16 → 10 scans per doc).
        scan: dict = {}
        validation = validate_critical_fields(full_text, _scan=scan, guards=guards)
        important = extract_important_data(full_text, _scan=scan, guards=guards)
        image_quality = (
            check_image_quality(
                row["sharpness_var"], row["contrast_std"], row["brightness_mean"]
            )
            if row["sharpness_var"] is not None
            else None
        )
        report = check_quality(image_quality, assembled["ocr_confidence"], row["regions"])
        needs_review = report["needs_review"] or any(
            not r.valid for r in validation.values()
        )
        return (  # OUT_SCHEMA order
            row["doc_id"],
            assembled["spans"],
            full_text,
            assembled["raw_text"],
            critical_fields_json(validation),
            important["inn"],
            important["snils"],
            important["numbers"],
            important["surnames"],
            [
                {
                    "from_": c["from"],
                    "to": c["to"],
                    "confidence": c["confidence"],
                    "method": c["method"],
                }
                for c in corrections
            ],
            report["overall_quality"],
            assembled["ocr_confidence"],
            needs_review,
            assembled["total_pages"],
            len(corrections),
            "",
        )


class FusedExtractStage:
    """``map_batches`` actor: documents batch in, OUT_SCHEMA batch out.
    ``__call__`` chains the OCR rows into the kernels. A pool of these
    sized to the node (``flagship.fused_pool_size``) takes the same CPU
    fraction at every cluster size, which keeps N→4N scaling flat."""

    def __init__(self, media_source, corrections, engine: str = "synthetic"):
        from ocr_service_ray.stages.ocr import OcrStage

        self.ocr = OcrStage(media_source, engine)
        self.kernel = KernelStage(corrections)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.kernel(self.ocr.rows(batch))
