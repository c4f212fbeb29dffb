"""Tier-equivalence tests for the round-4 join additions:

- ``broadcast_join``'s size tier (task pool under the threshold,
  actor pool above) returns identical rows either way;
- ``auto_join``'s budget tier (bounded driver pull + broadcast vs
  key-partitioned hash join) returns identical rows AND an identical
  schema either way — the contract that lets callers switch tier by
  data size without downstream changes; against an empty build side
  with no schema an inner join is empty;
- ``bucketed_apply`` (whole-bucket vectorized fold) agrees with
  ``bucketed_map_groups`` (per-group fn) on a fold expressed both
  ways, and both — with ``dedupe_pairs`` — match pandas'
  ``groupby(dropna=False)`` on a multi-column key with nulls, as does
  ``grouped_agg`` on an int key that turns float in some blocks.
"""

import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def orders_ds(ray_session):
    import ray.data as rd

    return rd.read_parquet(
        f"{SF}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )


@pytest.fixture(scope="module")
def cust_df(ray_session):
    import pyarrow.parquet as pq

    return (
        pq.read_table(f"{SF}/customer.parquet", columns=["c_custkey", "c_name"])
        .to_pandas()
        .rename(columns={"c_custkey": "o_custkey"})
    )


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return df[cols].sort_values(cols, kind="stable").reset_index(drop=True)


def test_broadcast_join_task_and_actor_tiers_equal(orders_ds, cust_df, monkeypatch):
    from ocr_service_ray.ops import pool
    from ocr_service_ray.ops.relational import broadcast_join

    # force each tier through bcast_stage's threshold
    monkeypatch.setattr(pool, "BCAST_ACTOR_THRESHOLD", 1 << 40)
    task_tier = broadcast_join(orders_ds, cust_df, on="o_custkey").to_pandas()
    monkeypatch.setattr(pool, "BCAST_ACTOR_THRESHOLD", -1)
    actor_tier = broadcast_join(orders_ds, cust_df, on="o_custkey").to_pandas()
    pd.testing.assert_frame_equal(_sorted(task_tier), _sorted(actor_tier))
    assert len(task_tier) > 0


def test_auto_join_tiers_equal_rows_and_schema(orders_ds, ray_session):
    import ray.data as rd

    from ocr_service_ray.ops.relational import auto_join

    # small side with a DIFFERENT key name, as in the q18 whale set
    small = rd.read_parquet(
        f"{SF}/customer.parquet", columns=["c_custkey", "c_acctbal"]
    ).map_batches(
        lambda b: b.rename_columns(["k_custkey", "c_acctbal"]),
        batch_format="pyarrow",
    )

    bcast = auto_join(
        orders_ds, small, on="o_custkey", small_on="k_custkey", budget=1 << 30
    ).to_pandas()
    hashj = auto_join(
        orders_ds, small, on="o_custkey", small_on="k_custkey", budget=0
    ).to_pandas()

    assert sorted(bcast.columns) == sorted(hashj.columns)
    pd.testing.assert_frame_equal(
        _sorted(bcast), _sorted(hashj), check_dtype=False
    )
    assert len(bcast) > 0
    # renamed key present, original gone — tier-independent contract
    assert "o_custkey" in bcast.columns and "k_custkey" not in bcast.columns


def test_bucketed_apply_matches_bucketed_map_groups(ray_session):
    import ray.data as rd

    from ocr_service_ray.ops.agg import bucketed_apply, bucketed_map_groups

    rng = np.random.RandomState(7)
    df = pd.DataFrame(
        {
            "k": rng.randint(0, 200, size=5000),
            "v": rng.randint(1, 100, size=5000).astype("int64"),
        }
    )
    ds = rd.from_pandas(df).repartition(8)

    def per_group(g: pd.DataFrame):
        if len(g) < 2:
            return None
        tot = int(g["v"].sum())
        mx = int(g["v"].max())
        if 2 * mx > tot:
            return pd.DataFrame({"k": [int(g["k"].iloc[0])], "mx": [mx]})
        return None

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("k", as_index=False).agg(
            tot=("v", "sum"), mx=("v", "max"), n=("v", "size")
        )
        out = agg.loc[(agg["n"] >= 2) & (2 * agg["mx"] > agg["tot"]), ["k", "mx"]]
        return out

    a = bucketed_map_groups(ds, ["k"], per_group).to_pandas()
    b = bucketed_apply(ds, ["k"], per_bucket).to_pandas()
    pd.testing.assert_frame_equal(_sorted(a), _sorted(b), check_dtype=False)

    # Two-column key (string + nullable int, nulls in both) spread over
    # 10 blocks: every key tuple — null ones included — must meet in
    # exactly one fold call, so each operator reproduces pandas'
    # groupby(dropna=False) with one output row per key.
    import pyarrow as pa

    n = 6000
    s = rng.choice(["a", "b", "c", "d", "e"], size=n).astype(object)
    s[rng.rand(n) < 0.1] = None
    i = rng.randint(0, 40, size=n).astype(object)
    i[rng.rand(n) < 0.15] = None
    v = rng.randint(0, 1000, size=n).astype("int64")
    tbl = pa.table(
        {
            "s": pa.array(list(s), pa.string()),
            "i": pa.array(list(i), pa.int64()),
            "v": pa.array(v),
        }
    )
    ds2 = rd.from_arrow([tbl.slice(j * 600, 600) for j in range(10)])
    assert ds2.num_blocks() >= 8
    df2 = tbl.to_pandas()
    want = df2.groupby(["s", "i"], dropna=False, as_index=False).agg(
        n=("v", "size"), tot=("v", "sum"), mn=("v", "min")
    )

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["s"] = df["s"].fillna("<null>")
        df["i"] = df["i"].astype("float64").fillna(-1).astype("int64")
        return _sorted(df)

    def one_group(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "s": [g["s"].iloc[0]],
                "i": [g["i"].iloc[0]],
                "n": [len(g)],
                "tot": [int(g["v"].sum())],
            }
        )

    def whole_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["s", "i"], dropna=False, as_index=False).agg(
            n=("v", "size"), tot=("v", "sum")
        )

    pinned = canon(want[["s", "i", "n", "tot"]])
    for got in (
        bucketed_map_groups(ds2, ["s", "i"], one_group).to_pandas(),
        bucketed_apply(ds2, ["s", "i"], whole_bucket).to_pandas(),
    ):
        pd.testing.assert_frame_equal(canon(got), pinned, check_dtype=False)

    from ocr_service_ray.ops.dedup import dedupe_pairs

    pairs = ds2.map_batches(
        lambda b: pa.table({"id_a": b["s"], "id_b": b["i"], "hamming": b["v"]}),
        batch_format="pyarrow",
    )
    got = dedupe_pairs(pairs, "hamming", agg="min").to_pandas()
    got = got.rename(columns={"id_a": "s", "id_b": "i", "hamming": "mn"})
    pd.testing.assert_frame_equal(
        canon(got), canon(want[["s", "i", "mn"]]), check_dtype=False
    )

    # A nullable int key whose nulls sit in one block only: that
    # block's pandas partial holds the key as float64, the other's as
    # int64, and 1.0 must still meet 1 in one bucket.
    from ocr_service_ray.ops.agg import grouped_agg

    t1 = pa.table({"k": pa.array([1, 2, 3], pa.int64())})
    t2 = pa.table({"k": pa.array([1, 2, None], pa.int64())})
    got = grouped_agg(rd.from_arrow([t1, t2]), ["k"], {"n": (None, "count")})
    want = (
        pa.concat_tables([t1, t2])
        .to_pandas()
        .groupby("k", dropna=False)
        .size()
        .reset_index(name="n")
    )
    pd.testing.assert_frame_equal(
        _sorted(got.to_pandas()), _sorted(want), check_dtype=False
    )


def test_auto_join_gather_string_payload_and_dup_fallback(ray_session):
    import ray.data as rd

    from ocr_service_ray.ops.relational import auto_join

    large = rd.from_pandas(
        pd.DataFrame({"k": [1, 2, 3, 4, 2, 9], "v": [10, 20, 30, 40, 21, 90]})
    ).repartition(3)

    # unique keys + a STRING payload → the sorted-key gather path
    small_u = rd.from_pandas(
        pd.DataFrame({"kk": [2, 3, 5], "name": ["two", "three", "five"]})
    )
    out = auto_join(large, small_u, on="k", small_on="kk").to_pandas()
    expect = pd.DataFrame(
        {"k": [2, 3, 2], "v": [20, 30, 21], "name": ["two", "three", "two"]}
    )
    pd.testing.assert_frame_equal(
        _sorted(out), _sorted(expect), check_dtype=False
    )

    # duplicate build keys → per-batch-merge fallback, fan-out preserved
    small_d = rd.from_pandas(
        pd.DataFrame({"kk": [2, 2], "tag": ["a", "b"]})
    )
    out_d = auto_join(large, small_d, on="k", small_on="kk").to_pandas()
    assert len(out_d) == 4  # two large k=2 rows × two build rows
    assert sorted(out_d["tag"]) == ["a", "a", "b", "b"]



def test_auto_join_empty_schemaless_build_side(ray_session):
    """A build side with no blocks at all has no schema: an inner join
    against it is empty; an outer join cannot know the columns it
    should null-extend and says so."""
    import ray.data as rd

    from ocr_service_ray.ops.relational import auto_join

    large = rd.from_pandas(pd.DataFrame({"k": [1, 2, 3], "v": [1, 2, 3]}))
    empty = rd.from_items([])
    assert empty.schema() is None
    out = auto_join(large, empty, on="k", small_on="kk").to_pandas()
    assert len(out) == 0
    with pytest.raises(ValueError, match="no schema"):
        auto_join(large, empty, on="k", small_on="kk", how="left")

def test_bcast_stage_tiers_equal(ray_session):
    import pyarrow as pa
    import ray
    import ray.data as rd

    from ocr_service_ray.ops.pool import bcast_stage

    keys = pa.array([2, 4, 6, 8])
    ref = ray.put(keys)

    class KeepEven:
        def __init__(self):
            self.keys = ray.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return b.filter(pc.is_in(b["v"], value_set=self.keys))

    ds = rd.from_pandas(pd.DataFrame({"v": list(range(10))})).repartition(4)
    task_tier = bcast_stage(ds, KeepEven, keys.nbytes).to_pandas()
    actor_tier = bcast_stage(ds, KeepEven, None).to_pandas()  # None → actor
    pd.testing.assert_frame_equal(_sorted(task_tier), _sorted(actor_tier))
    assert sorted(task_tier["v"]) == [2, 4, 6, 8]


def test_bucketed_apply_empty_result(ray_session):
    import ray.data as rd

    from ocr_service_ray.ops.agg import bucketed_apply

    ds = rd.from_pandas(pd.DataFrame({"k": [1, 2, 3], "v": [1, 2, 3]}))
    out = bucketed_apply(ds, ["k"], lambda g: None).to_pandas()
    assert len(out) == 0
