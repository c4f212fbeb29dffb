"""Wave-92: grid-blocked L-inf spatial self-join + Kaplan-Meier."""

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings, strategies as st


TEXT_WORDS = st.lists(
    st.text(alphabet="abcxy", min_size=1, max_size=3), min_size=1, max_size=12
).map(" ".join)


def _ds(table: dict):
    import ray.data as rd

    return rd.from_arrow(pa.table(table))


@settings(max_examples=12, deadline=None)
@given(
    pts=st.lists(
        st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
        min_size=1,
        max_size=40,
    ),
    eps=st.integers(1, 25),
)
def test_linf_join_lossless_vs_brute_force(ray_session, pts, eps):
    """The 4-cell replication + min-cell ownership must be LOSSLESS
    and duplicate-free: for any integer point set and eps the result
    equals the naive quadratic join, each pair exactly once."""
    from ocr_service_ray.ops.spatial import linf_self_join

    ids = list(range(len(pts)))
    got = linf_self_join(
        _ds(
            {
                "id": ids,
                "x": [p[0] for p in pts],
                "y": [p[1] for p in pts],
            }
        ),
        "id",
        "x",
        "y",
        eps=eps,
    ).to_pandas()
    if len(got) == 0:
        got = pd.DataFrame(
            {c: pd.Series([], dtype="int64") for c in ("id_a", "id_b", "linf")}
        )
    got_t = sorted(
        tuple(int(v) for v in row)
        for row in got[["id_a", "id_b", "linf"]].to_numpy()
    )
    expect = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dx = abs(pts[i][0] - pts[j][0])
            dy = abs(pts[i][1] - pts[j][1])
            if dx <= eps and dy <= eps:
                expect.append((i, j, max(dx, dy)))
    assert got_t == sorted(expect)


def test_linf_join_negative_coords_and_cell_edges(ray_session):
    """Floor-division cells: points straddling 0 and exact-eps
    distances (boundary inclusive) pair correctly."""
    from ocr_service_ray.ops.spatial import linf_self_join

    got = linf_self_join(
        _ds({"id": [1, 2, 3], "x": [-5, 0, 5], "y": [-5, 0, 5]}),
        "id",
        "x",
        "y",
        eps=5,
    ).to_pandas()
    got_t = sorted(
        tuple(int(v) for v in row)
        for row in got[["id_a", "id_b", "linf"]].to_numpy()
    )
    assert got_t == [(1, 2, 5), (2, 3, 5)]


@settings(max_examples=15, deadline=None)
@given(
    subjects=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 1)),
        min_size=1,
        max_size=60,
    )
)
def test_kaplan_meier_matches_direct_recurrence(ray_session, subjects):
    """KM from the distributed value-counts path equals the direct
    per-subject recurrence (sorted event times, floored-ppm product),
    and the curve is nonincreasing from <= 1e6."""
    from ocr_service_ray.ops.survival import kaplan_meier

    got = kaplan_meier(
        _ds(
            {
                "t": [s[0] for s in subjects],
                "d": [s[1] for s in subjects],
            }
        ),
        "t",
        "d",
    )
    ts = np.array([s[0] for s in subjects])
    ds_ = np.array([s[1] for s in subjects])
    s_ppm = 1_000_000
    expect = []
    for t in sorted(set(ts[ds_ == 1])):
        n_risk = int((ts >= t).sum())
        d = int(((ts == t) & (ds_ == 1)).sum())
        s_ppm = (s_ppm * (n_risk - d)) // n_risk
        expect.append((t, n_risk, d, s_ppm))
    got_t = [
        tuple(int(v) for v in row)
        for row in got[["t", "n_risk", "n_events", "surv_ppm"]].to_numpy()
    ]
    assert got_t == expect
    surv = got["surv_ppm"].to_numpy()
    if len(surv):
        assert surv[0] <= 1_000_000
        assert (np.diff(surv) <= 0).all()


def test_kaplan_meier_all_censored_and_empty(ray_session):
    from ocr_service_ray.ops.survival import kaplan_meier

    out = kaplan_meier(_ds({"t": [3, 5, 7], "d": [0, 0, 0]}), "t", "d")
    assert len(out) == 0
    assert list(out.columns) == ["t", "n_risk", "n_events", "surv_ppm"]


@settings(max_examples=15, deadline=None)
@given(
    vals=st.lists(st.integers(-30, 30), min_size=1, max_size=50)
)
def test_hodges_lehmann_matches_brute_walsh_median(ray_session, vals):
    """Value-counts HL equals the naive lower median over ALL
    n(n+1)/2 Walsh pair sums (i <= j, including i == j)."""
    from ocr_service_ray.ops.stats import hodges_lehmann

    got = hodges_lehmann(_ds({"v": vals}), "v")
    sums = sorted(
        vals[i] + vals[j]
        for i in range(len(vals))
        for j in range(i, len(vals))
    )
    m = len(sums)
    assert int(got["n_pairs"].iloc[0]) == m
    assert int(got["hl_num"].iloc[0]) == sums[(m + 1) // 2 - 1]
    assert int(got["hl_den"].iloc[0]) == 2


def test_hodges_lehmann_robust_to_outlier(ray_session):
    """HL of a symmetric sample shifts far less than the mean under
    one huge outlier (the point of the estimator)."""
    from ocr_service_ray.ops.stats import hodges_lehmann

    base = list(range(1, 22))  # symmetric around 11
    a = hodges_lehmann(_ds({"v": base}), "v")
    b = hodges_lehmann(_ds({"v": base + [10_000]}), "v")
    hl_a = a["hl_num"].iloc[0] / 2
    hl_b = b["hl_num"].iloc[0] / 2
    assert hl_a == 11
    assert abs(hl_b - 11) < 2  # mean would shift by ~450


@settings(max_examples=12, deadline=None)
@given(
    docs=st.lists(
        st.tuples(st.integers(0, 99), st.booleans(), st.integers(0, 2)),
        min_size=1,
        max_size=30,
        unique_by=lambda d: d[0],
    )
)
def test_map_eval_matches_textbook_ap(ray_session, docs):
    """The grouped vectorized AP equals the textbook per-rank loop
    (precision floored to ppm at each relevant rank, integer mean)."""
    import pandas as pd

    from ocr_service_ray.ops.agg import bucketed_map_groups

    frame = pd.DataFrame(
        {
            "doc_id": [d[0] for d in docs],
            "lang": ["en" if d[1] else "de" for d in docs],
            "source": [f"s{d[2]}" for d in docs],
            "n_chars": [(d[0] * 37) % 11 for d in docs],
        }
    )

    def ap(g):
        g = g.sort_values(["n_chars", "doc_id"], ascending=[False, True])
        rel = (g["lang"] == "en").to_numpy().astype(np.int64)
        n_rel = int(rel.sum())
        if n_rel == 0:
            ap_ppm = 0
        else:
            k = np.arange(1, len(g) + 1, dtype=np.int64)
            hits = np.cumsum(rel)
            ap_ppm = int(((hits * 1_000_000) // k)[rel == 1].sum() // n_rel)
        return pd.DataFrame(
            {
                "source": [g["source"].iloc[0]],
                "n_docs": [len(g)],
                "ap_ppm": [ap_ppm],
            }
        )

    got = (
        bucketed_map_groups(
            _ds(frame.to_dict("list")), ["source"], ap
        )
        .to_pandas()
        .sort_values("source")
        .reset_index(drop=True)
    )
    for _, row in got.iterrows():
        g = frame[frame["source"] == row["source"]].sort_values(
            ["n_chars", "doc_id"], ascending=[False, True]
        )
        hits, sp, n_rel = 0, 0, 0
        for rank, (_, doc) in enumerate(g.iterrows(), start=1):
            if doc["lang"] == "en":
                hits += 1
                n_rel += 1
                sp += (hits * 1_000_000) // rank
        expect = sp // n_rel if n_rel else 0
        assert int(row["ap_ppm"]) == expect
        assert int(row["n_docs"]) == len(g)


def _entry_queries():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "ray_entry_for_tests", "/root/repo/__ray_entry__.py"
    )
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    return m.queries()


def test_did_value_cells_partition_events(ray_session):
    """Wave-94 DiD: the four cells partition the event stream and the
    close identity holds (did = Δtreated - Δcontrol in micro-cents,
    reconstructed from the emitted exact cell sums)."""
    q = _entry_queries()["did_value"]
    out = q("/root/testdata/sf0.001")
    r = out.iloc[0]
    import duckdb

    n_events = duckdb.sql(
        "SELECT count(*) FROM '/root/testdata/sf0.001/events.parquet'"
    ).fetchone()[0]
    assert int(r["n00"] + r["n01"] + r["n10"] + r["n11"]) == n_events
    d_t = r["s11"] / r["n11"] - r["s10"] / r["n10"]
    d_c = r["s01"] / r["n01"] - r["s00"] / r["n00"]
    assert abs(r["did_microcents"] / 1e6 - (d_t - d_c)) < 1e-3


def test_matching_att_close_identity(ray_session):
    """Wave-94 matching: att = treated - matched, and the matched
    control mean lies within the control outcome range."""
    q = _entry_queries()["matching_att"]
    out = q("/root/testdata/sf0.001")
    r = out.iloc[0]
    assert int(r["att_micro"]) == int(r["treated_micro"]) - int(
        r["matched_control_micro"]
    )
    assert r["n_treated"] > 0 and r["n_control"] > 0
    assert r["matched_control_micro"] >= 0


@settings(max_examples=10, deadline=None)
@given(
    edges=st.lists(
        st.tuples(
            st.integers(0, 8), st.integers(0, 8), st.integers(1, 9)
        ),
        min_size=1,
        max_size=30,
    ),
    rounds=st.integers(1, 4),
)
def test_bellman_ford_matches_reference(ray_session, edges, rounds):
    """Fixed-round distributed BF equals the textbook k-round
    relaxation (dist after k rounds = shortest <=k-hop path)."""
    from ocr_service_ray.ops.sssp import bellman_ford_rounds

    got = bellman_ford_rounds(
        _ds(
            {
                "src": [e[0] for e in edges],
                "dst": [e[1] for e in edges],
                "w": [e[2] for e in edges],
            }
        ),
        source=0,
        rounds=rounds,
    )
    # reference: parallel (Jacobi) relaxation, min over duplicates
    nodes = sorted({0} | {e[0] for e in edges} | {e[1] for e in edges})
    INF = float("inf")
    dist = {v: (0 if v == 0 else INF) for v in nodes}
    for _ in range(rounds):
        new = dict(dist)
        for s, d, w in edges:
            if dist[s] < INF and dist[s] + w < new[d]:
                new[d] = min(new[d], dist[s] + w)
        # min over parallel edges handled by the min() above
        for s, d, w in edges:
            if dist[s] < INF:
                new[d] = min(new[d], dist[s] + w)
        dist = new
    expect = {v: (-1 if dist[v] == INF else dist[v]) for v in nodes}
    got_map = dict(zip(got["node"].tolist(), got["dist"].tolist()))
    assert got_map == expect


@settings(max_examples=8, deadline=None)
@given(
    texts=st.lists(TEXT_WORDS, min_size=2, max_size=10),
    max_df=st.integers(2, 6),
)
def test_sparse_cosine_matches_brute_force(ray_session, texts, max_df):
    """Term-keyed inverted-join cosine equals the brute-force capped
    cosine for any corpus, cap, and threshold 0 (every pair with a
    shared capped term appears, exact integers)."""
    from collections import Counter

    from ocr_service_ray.ops.allpairs import sparse_cosine_pairs

    ids = list(range(len(texts)))
    got = sparse_cosine_pairs(
        _ds({"doc_id": ids, "text": texts}),
        max_df=max_df,
        t2_ppm=0,
    ).to_pandas()
    if len(got) == 0:
        got = pd.DataFrame(
            {
                c: pd.Series([], dtype="int64")
                for c in ("id_a", "id_b", "dot", "nn_a", "nn_b", "cos2_ppm")
            }
        )
    got_t = sorted(
        tuple(int(v) for v in row)
        for row in got[
            ["id_a", "id_b", "dot", "nn_a", "nn_b", "cos2_ppm"]
        ].to_numpy()
    )
    tfs = [Counter(t.split(" ")) for t in texts]
    df = Counter()
    for c in tfs:
        for term in c:
            df[term] += 1
    capped = [
        {t: v for t, v in c.items() if df[t] <= max_df} for c in tfs
    ]
    nn = [sum(v * v for v in c.values()) for c in capped]
    expect = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            dot = sum(
                capped[i][t] * capped[j][t]
                for t in capped[i]
                if t in capped[j]
            )
            if dot > 0:
                expect.append(
                    (
                        i,
                        j,
                        dot,
                        nn[i],
                        nn[j],
                        (1_000_000 * dot * dot) // (nn[i] * nn[j]),
                    )
                )
    assert got_t == sorted(expect)


def test_equality_delete_survival_rule(ray_session):
    """Wave-96 equality-delete MoR: survival census matches a direct
    pandas replay of the strictly-greater sequence rule."""
    import pandas as pd

    q = _entry_queries()["equality_delete_orders"]
    got = (
        q("/root/testdata/sf0.001")
        .to_pandas()
        .sort_values("o_orderstatus")
        .reset_index(drop=True)
    )
    od = pd.read_parquet(
        "/root/testdata/sf0.001/orders.parquet",
        columns=["o_orderkey", "o_orderstatus", "o_totalprice"],
    )
    k = od["o_orderkey"].to_numpy()
    dmax = np.zeros(len(k), dtype=np.int64)
    dmax[k % 17 == 0] = 1
    dmax[k % 13 == 0] = 2
    keep = (k % 3) >= dmax
    sv = od[keep].copy()
    sv["c"] = np.floor(
        sv["o_totalprice"].to_numpy() * 100.0 + 0.5
    ).astype(np.int64)
    expect = (
        sv.groupby("o_orderstatus", as_index=False)
        .agg(n_rows=("c", "size"), cents=("c", "sum"))
        .sort_values("o_orderstatus")
        .reset_index(drop=True)
    )
    assert got["n_rows"].tolist() == expect["n_rows"].tolist()
    assert got["cents"].tolist() == expect["cents"].tolist()


def test_friedman_rank_mass_conserved(ray_session):
    """Wave-96 Friedman: doubled rank sums over complete blocks must
    total n*k*(k+1) (each block contributes 2*(1+..+k))."""
    q = _entry_queries()["friedman_daily_types"]
    out = q("/root/testdata/sf0.001")
    n = int(out["n_days"].iloc[0])
    k = int(out["k_types"].iloc[0])
    assert int(out["rank2_sum"].sum()) == n * k * (k + 1)
    assert (out["q_den"] == n * k * (k + 1)).all()


@settings(max_examples=20, deadline=None)
@given(words=st.lists(st.text(alphabet="abXY", min_size=1, max_size=14), min_size=1, max_size=10))
def test_dehyphenate_roundtrips_any_wrap(ray_session, words):
    """Wave-97: for any text without preexisting hyphen-breaks, the
    corrupt->repair chain is the identity and the repair count equals
    the number of injected seams."""
    import re

    import pyarrow.compute as pc

    from ocr_service_ray.ops.textrepair import (
        dehyphenate_column,
        hyphen_break_counts,
    )

    text = " ".join(words)
    wrapped = re.sub(
        r"([a-zA-Z]{4})([a-zA-Z]{5,})", "\\1-\n\\2", text
    )
    col = pa.array([wrapped])
    assert dehyphenate_column(col).to_pylist() == [text]
    n_inj = len(re.findall(r"[a-zA-Z]-\n[a-zA-Z]", wrapped))
    assert hyphen_break_counts(col).to_pylist() == [n_inj]


def test_mojibake_detector_scores_damage(ray_session):
    from ocr_service_ray.ops.textrepair import mojibake_counts

    col = pa.array(["clean text", "dÃ¡mÃ¡ged â€œquoteâ€", ""])
    assert mojibake_counts(col).to_pylist() == [0, 4, 0]


@settings(max_examples=15, deadline=None)
@given(
    a=st.lists(st.integers(0, 15), min_size=1, max_size=30),
    b=st.lists(st.integers(0, 15), min_size=1, max_size=30),
)
def test_wasserstein_matches_scipy_free_reference(ray_session, a, b):
    """Wave-98 W1: the rational num/den equals the direct pairwise
    formulation sum|F_A - F_B| dx over the merged support."""
    import pandas as pd

    from ocr_service_ray.ops.agg import grouped_agg

    ds = _ds({"g": [0] * len(a) + [1] * len(b), "v": a + b})
    vc = (
        grouped_agg(ds, ["g", "v"], {"n": (None, "count")})
        .to_pandas()
        .pivot_table(index="v", columns="g", values="n", fill_value=0)
        .reindex(columns=[0, 1], fill_value=0)
        .sort_index()
    )
    ca = vc[0].to_numpy().astype(np.int64)
    cb = vc[1].to_numpy().astype(np.int64)
    v = vc.index.to_numpy().astype(np.int64)
    na, nb = len(a), len(b)
    cuma, cumb = np.cumsum(ca), np.cumsum(cb)
    dx = np.diff(v)
    w1 = float((np.abs(cuma[:-1] * nb - cumb[:-1] * na) * dx).sum()) / (
        na * nb
    )
    # reference: mean-of-sorted-quantile transport on the lcm grid
    import itertools

    xs = sorted(set(a) | set(b))
    fa = fb = 0
    ref = 0.0
    for x, x2 in zip(xs, xs[1:]):
        fa = sum(1 for t in a if t <= x) / na
        fb = sum(1 for t in b if t <= x) / nb
        ref += abs(fa - fb) * (x2 - x)
    assert abs(w1 - ref) < 1e-9


def test_union_by_name_pads_and_rejects_conflicts(ray_session):
    import pytest
    import ray.data as rd

    from ocr_service_ray.ops.relational import union_by_name

    a = rd.from_arrow(pa.table({"k": [1, 2], "v": ["a", "b"]}))
    b = rd.from_arrow(pa.table({"k": [3], "w": [9]}))
    out = (
        union_by_name([a, b])
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert list(out.columns) == ["k", "v", "w"]
    assert out["v"].tolist() == ["a", "b", None]
    assert out["w"].fillna(-1).tolist() == [-1, -1, 9]
    conflicting = rd.from_arrow(pa.table({"k": ["str-typed"]}))
    with pytest.raises(ValueError, match="type conflict"):
        union_by_name([a, conflicting])


def test_ips_policy_identities(ray_session):
    """Wave-99 IPS: ips = k*snips_num/n; uniform-random target would
    match ~n/k rows; identities hold on sf0.001."""
    q = _entry_queries()["ips_policy_value"]
    r = q("/root/testdata/sf0.001").iloc[0]
    assert int(r["ips_num"]) == int(r["k_actions"]) * int(r["snips_num"])
    assert int(r["ips_den"]) == int(r["n"])
    assert 0 <= int(r["n_match"]) <= int(r["n"])


def test_ams_f2_estimator_unbiased_shape(ray_session):
    """Wave-99 AMS: each estimator square >= 0; on a uniform
    frequency vector the median estimate lands within 5x of true F2
    (loose sanity — the 8-estimator median concentrates)."""
    q = _entry_queries()["ams_f2_users"]
    out = q("/root/testdata/sf0.001")
    assert len(out) == 8
    f2 = int(out["f2_true"].iloc[0])
    est = int(out["f2_est"].iloc[0])
    assert (out["sq"] >= 0).all()
    assert est <= 5 * f2 and est * 5 >= f2 // 5


def test_haar_synopsis_invertible(ray_session):
    """Wave-100 Haar: the emitted 15 details + approximation
    losslessly reconstruct the 16 day-bin sums."""
    import duckdb

    q = _entry_queries()["haar_synopsis_daily"]
    out = q("/root/testdata/sf0.001")
    coef = {
        (int(r["level"]), int(r["k"])): int(r["coef"])
        for _, r in out.iterrows()
    }
    cur = np.array([coef[(5, 0)]], dtype=np.int64)
    for level in (4, 3, 2, 1):
        d = np.array(
            [coef[(level, k)] for k in range(len(cur))], dtype=np.int64
        )
        nxt = np.empty(2 * len(cur), dtype=np.int64)
        nxt[0::2] = (cur + d) // 2
        nxt[1::2] = (cur - d) // 2
        cur = nxt
    daily = duckdb.sql(
        """SELECT epoch_us(ts) // 86400000000 AS day,
                  CAST(sum(CAST(floor(value*100.0+0.5) AS BIGINT)) AS BIGINT) t
           FROM '/root/testdata/sf0.001/events.parquet'
           GROUP BY 1 ORDER BY 1"""
    ).df()
    n = len(daily)
    bins = np.zeros(16, dtype=np.int64)
    pos = (np.arange(n, dtype=np.int64) * 16) // n
    np.add.at(bins, pos, daily["t"].to_numpy().astype(np.int64))
    assert cur.tolist() == bins.tolist()


@settings(max_examples=20, deadline=None)
@given(vals=st.lists(st.integers(-9, 9), min_size=1, max_size=25))
def test_lis_dp_matches_patience_reference(ray_session, vals):
    """The O(n^2) LIS DP used in the wave-100 close equals the
    classic patience-sorting O(n log n) algorithm."""
    import bisect

    v = np.array(vals, dtype=np.int64)
    dp = np.ones(len(v), dtype=np.int64)
    for i in range(1, len(v)):
        prior = dp[:i][v[:i] < v[i]]
        if len(prior):
            dp[i] = prior.max() + 1
    tails = []
    for x in vals:
        j = bisect.bisect_left(tails, x)
        if j == len(tails):
            tails.append(x)
        else:
            tails[j] = x
    assert int(dp.max()) == len(tails)


def test_dbscan_roles_and_invariants(ray_session):
    """Wave-101 DBSCAN: role/cluster invariants — cores carry their
    component's min id, borders adopt an existing core cluster,
    noise is -1, and every core cluster id IS a core point."""
    q = _entry_queries()["dbscan_embeddings"]
    out = q("/root/testdata/sf0.001")
    core = out[out["role"] == 2]
    border = out[out["role"] == 1]
    noise = out[out["role"] == 0]
    assert len(out) == len(core) + len(border) + len(noise)
    assert (noise["cluster"] == -1).all()
    core_clusters = set(core["cluster"].tolist())
    core_ids = set(core["vec_id"].tolist())
    assert core_clusters <= core_ids  # labels are canonical core ids
    assert set(border["cluster"].tolist()) <= core_clusters
    # a core's label never exceeds its own id (min-id canonicalization)
    assert (core["cluster"] <= core["vec_id"]).all()
