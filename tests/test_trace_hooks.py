"""The benchmark's tracer (``perfbench/trace.py``) times the fused
extract actor by replacing ``stages.extract.KernelStage.__call__`` and
the six kernel names in the ``stages.extract`` module by attribute. A
refactor that stops going through them does not fail: the per-layer
metrics silently read 0. Pin both hook points here."""

from collections import Counter

from ocr_service_ray.sources.synth import corrections_entries, generate_corpus
from ocr_service_ray.stages import extract
from ocr_service_ray.stages.ocr import media_table_to_registry
from perfbench.trace import _KERNELS

KERNELS = (
    "assemble_document",
    "correct_text",
    "validate_critical_fields",
    "extract_important_data",
    "check_image_quality",
    "check_quality",
)


def _counting(counts: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_fused_call_goes_through_the_traced_names(monkeypatch):
    assert set(_KERNELS) == set(KERNELS)
    docs, media = generate_corpus(40, seed=5)
    stage = extract.FusedExtractStage(media_table_to_registry(media), corrections_entries())
    counts: Counter = Counter()
    for name in KERNELS:
        monkeypatch.setattr(extract, name, _counting(counts, name, getattr(extract, name)))
    monkeypatch.setattr(
        extract.KernelStage,
        "__call__",
        _counting(counts, "KernelStage.__call__", extract.KernelStage.__call__),
    )

    out = stage(docs)

    assert out.num_rows == docs.num_rows
    assert counts["KernelStage.__call__"] == 1
    for name in KERNELS:
        assert counts[name] > 0, name
    for name in ("assemble_document", "correct_text", "check_quality"):
        assert counts[name] == docs.num_rows, name
