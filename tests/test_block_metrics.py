"""Per-block metrics live in each partition's ``_manifest.json``
(``stages/checkpoint.py``): a ``blocks`` list read from Ray Data's own
per-operator stats, one entry per executed operator. The extraction
runs as exactly one fused operator, found by the ``ExtractStage``
substring ``perfbench/skew.py`` looks for."""

import json


def test_manifest_blocks_conserve_rows(ray_session, tmp_path):
    from ocr_service_ray.pipelines.flagship import run_extraction
    from ocr_service_ray.sources.synth import corrections_entries, generate_corpus
    from ocr_service_ray.stages.checkpoint import (
        manifest_path,
        run_checkpointed,
        table_shards,
    )

    docs, media = generate_corpus(120, seed=3)
    out = str(tmp_path / "out")
    summary = run_checkpointed(
        table_shards(docs, 2),
        lambda s: run_extraction(s, media, corrections_entries()),
        out,
    )
    assert summary["rows"] == 120
    for i in range(2):
        with open(manifest_path(out, i), encoding="utf-8") as f:
            manifest = json.load(f)
        names = [b["name"] for b in manifest["blocks"]]
        extract = [b for b in manifest["blocks"] if "ExtractStage" in b["name"]]
        assert len(extract) == 1, names
        assert not any("OcrStage" in n or "KernelStage" in n for n in names), names
        (op,) = extract
        assert op["output_num_rows"]["sum"] == manifest["rows"] == 60
        wall = op["wall_time"]
        assert set(wall) == set(op["output_num_rows"]) == {"min", "max", "mean", "sum"}
        assert wall["max"] >= wall["mean"] > 0
