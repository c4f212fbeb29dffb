"""End-to-end curation pipeline: planted defects must each be caught
by exactly their stage, survivors carry the mix schedule."""

import pyarrow as pa
import pytest


def _corpus():
    # doc 1: clean           doc 2: exact dup of 1 (dropped, keep min)
    # doc 3: near-dup of 4 (dropped; 4 is canonical min... 3 < 4 so 3
    #        survives and 4 drops)   doc 5: repetitive (quality drop)
    # doc 6: contaminated vs eval    doc 7: clean
    dup = "one two three four five six seven eight nine ten eleven twelve"
    base = "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima"
    near = base + " mike"
    rep = "spam spam spam spam spam spam spam spam spam spam"
    contaminated = "zulu yankee xray whiskey victor uniform tango sierra extra words here"
    return pa.table(
        {
            "doc_id": [1, 2, 3, 4, 5, 6, 7],
            "text": [dup, dup, base, near, rep, contaminated, "clean text " + "w x y z a b c d"],
            "source": ["a", "a", "a", "b", "a", "b", "b"],
        }
    )


def _eval():
    return pa.table(
        {
            "doc_id": [100],
            "text": ["zulu yankee xray whiskey victor uniform tango sierra different tail"],
        }
    )


def test_curate_corpus_stages(ray_session):
    import ray.data as rd

    from ocr_service_ray.pipelines.curate import curate_corpus

    out, summary = curate_corpus(
        rd.from_arrow(_corpus()).repartition(3),
        rd.from_arrow(_eval()),
        mix_weights={"a": 2, "b": 1},
        near_dup_threshold=0.5,
        decontam_ngram=8,
    )
    df = out.to_pandas().sort_values("doc_id").reset_index(drop=True)

    assert summary["input"] == 7
    assert summary["after_quality"] == 6          # doc 5 out
    assert summary["after_exact_dedup"] == 5      # doc 2 out (1 kept)
    assert summary["after_near_dedup"] == 4       # doc 4 out (3 kept)
    assert summary["after_decontam"] == 3         # doc 6 out
    assert summary["final"] == 3
    assert df["doc_id"].tolist() == [1, 3, 7]
    # mix schedule: ranks are per-source, keys follow the stride rule
    # lcm(2,1)=2 → stride a:1, b:2
    a_rows = df[df["source"] == "a"].sort_values("rank")
    assert a_rows["mix_key"].tolist() == [1, 3]   # (2r+1)*1
    b_rows = df[df["source"] == "b"]
    assert b_rows["mix_key"].tolist() == [2]      # (2*0+1)*2


def test_curate_no_optional_stages(ray_session):
    import ray.data as rd

    from ocr_service_ray.pipelines.curate import curate_corpus

    out, summary = curate_corpus(rd.from_arrow(_corpus()).repartition(2))
    df = out.to_pandas()
    assert summary["final"] == summary["after_near_dedup"] == len(df) == 4
    assert "mix_key" not in df.columns



def test_mix_join_tiers_equal(ray_session):
    """The mix schedule's rank-table join takes auto_join's gather
    tier at the default budget and the hash tier at budget 0: both
    give the same rows, the same column order and int64 rank/mix_key,
    and both drop the doc whose source is not in the weights."""
    import pandas as pd
    import ray.data as rd

    from ocr_service_ray.pipelines.curate import curate_corpus

    corpus = _corpus()
    corpus = pa.concat_tables(
        [
            corpus,
            pa.table(
                {
                    "doc_id": [8],
                    "text": ["out of mix " + "p q r s t u v w"],
                    "source": ["c"],
                }
            ),
        ]
    )
    outs = {}
    for label, budget in {"broadcast": 1_000_000, "hash": 0}.items():
        out, summary = curate_corpus(
            rd.from_arrow(corpus).repartition(3),
            rd.from_arrow(_eval()),
            mix_weights={"a": 2, "b": 1},
            broadcast_budget=budget,
        )
        assert summary["after_decontam"] == 4  # doc 8 is still in
        assert summary["final"] == 3
        outs[label] = out.to_pandas().sort_values("doc_id").reset_index(drop=True)
    bc, hj = outs["broadcast"], outs["hash"]
    assert list(bc.columns) == list(hj.columns) == [
        "doc_id", "text", "source", "rank", "mix_key"
    ]
    pd.testing.assert_frame_equal(bc, hj)
    assert bc["doc_id"].tolist() == [1, 3, 7]  # doc 8 (source c) dropped
    for df in (bc, hj):
        assert str(df["rank"].dtype) == str(df["mix_key"].dtype) == "int64"


@pytest.mark.parametrize("mix", [None, {"a": 2, "b": 1}])
def test_curate_degenerate_corpus_empty(ray_session, mix):
    """Every doc fails the repetition rules: each later stage sees an
    empty, schema-less dataset (the LSH signature join and the mix
    join's build side included) and the result is empty, not an
    error."""
    import ray.data as rd

    from ocr_service_ray.pipelines.curate import curate_corpus

    rep = " ".join(["a"] * 20)
    corpus = pa.table(
        {"doc_id": [1, 2, 3], "text": [rep] * 3, "source": ["a", "b", "a"]}
    )
    out, summary = curate_corpus(
        rd.from_arrow(corpus), counts=False, exact_keep="auto", mix_weights=mix
    )
    assert len(out.to_pandas()) == 0

def test_exact_keep_join_equals_broadcast(ray_session):
    """The 100 TB exact-keep strategy (bloom route + key-partitioned
    left-outer join, no driver pull of the dup-group table) must equal
    the broadcast strategy bit for bit — on a corpus whose
    duplicated-group count (40 groups, 120 dup rows of 135 docs) far
    exceeds any sane broadcast budget for a corpus this size."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ocr_service_ray.pipelines.curate import curate_corpus

    rows = []
    # 40 duplicated groups × 3 copies, plus 15 unique docs — words are
    # distinct enough that quality/near-dup stages keep everything
    for g in range(40):
        text = " ".join(f"g{g}w{j}" for j in range(14))
        for c in range(3):
            rows.append(
                {"doc_id": g * 10 + c, "text": text, "source": f"s{g % 3}"}
            )
    for u in range(15):
        text = " ".join(f"u{u}x{j}" for j in range(14))
        rows.append({"doc_id": 1000 + u, "text": text, "source": f"s{u % 3}"})
    corpus = pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False)

    # auto with the default budget pulls the bounded dup-group table;
    # auto with budget=0 is forced onto the join machinery — all four
    # must agree bit for bit
    outs = {}
    for label, kwargs in {
        "broadcast": dict(exact_keep="broadcast"),
        "join": dict(exact_keep="join"),
        "auto_pull": dict(exact_keep="auto"),
        "auto_join": dict(exact_keep="auto", broadcast_budget=0),
    }.items():
        out, summary = curate_corpus(
            rd.from_arrow(corpus).repartition(5),
            counts=True,
            **kwargs,
        )
        assert summary["after_exact_dedup"] == 55  # 40 keepers + 15 unique
        outs[label] = (
            out.to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
    ref = outs["broadcast"]
    for label in ("join", "auto_pull", "auto_join"):
        pd.testing.assert_frame_equal(
            ref[sorted(ref.columns)],
            outs[label][sorted(outs[label].columns)],
            check_dtype=False,
        )


def test_exact_keep_join_no_dups(ray_session):
    """Join strategy with ZERO duplicated groups: the dup-group table
    is empty, every row is bloom-negative (or a false positive that
    left-outer-joins to null) — nothing may be dropped."""
    import ray.data as rd

    from ocr_service_ray.pipelines.curate import curate_corpus

    out, summary = curate_corpus(
        rd.from_arrow(_corpus()).repartition(2), exact_keep="join"
    )
    assert summary["after_exact_dedup"] == 5
    assert summary["final"] == len(out.to_pandas()) == 4


def test_prune_corpus_stages(ray_session, tmp_path):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ocr_service_ray.pipelines.curate import prune_corpus

    # 3 sources × 9 docs; doc texts share one paragraph so dedup bites
    rows = []
    for i in range(27):
        src = f"s{i % 3}"
        rows.append(
            {
                "doc_id": i,
                "source": src,
                "text": f"unique paragraph {i}\nshared boilerplate",
            }
        )
    ds = rd.from_arrow(
        pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False)
    ).repartition(4)

    out, summary = prune_corpus(ds, cap_per_source=5, counts=True)
    df = out.to_pandas().sort_values("doc_id").reset_index(drop=True)

    assert summary["input"] == 27
    # every doc keeps its unique paragraph → none vanish entirely
    assert summary["after_paragraph_dedup"] == 27
    assert summary["after_cap"] == 15  # 5 per source
    # temperature: floor(sqrt(5)) = 2 per source
    assert summary["final"] == 6 and len(df) == 6
    assert df.groupby("source").size().tolist() == [2, 2, 2]
    # doc 0 keeps both paragraphs, everyone else one
    kept_by_id = dict(zip(df["doc_id"], df["n_kept"]))
    for i, k in kept_by_id.items():
        assert k == (2 if i == 0 else 1)

    # staging_path variant is byte-identical
    out2, _ = prune_corpus(
        ds, cap_per_source=5, counts=False, staging_path=str(tmp_path / "stg")
    )
    df2 = out2.to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        df[sorted(df.columns)], df2[sorted(df2.columns)], check_dtype=False
    )
