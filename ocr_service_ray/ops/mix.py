"""Deterministic weighted source interleaving — the data-mixing
schedule of LLM training: given integer weights per source (e.g.
web=7, code=2, books=1), emit for every document a global ``mix_key``
such that reading the corpus in ``mix_key`` order yields the sources
interleaved in weight proportion, with zero RNG and a layout-invariant
result.

Schedule: document ``rank`` (0-based, ordered by ``order_col`` within
its source) of a source with weight ``w`` lands at the rational
position ``(rank + 1/2) / w`` — the classic stride schedule (each
source emits ``w`` items per unit interval, phase-centered). Scaled by
``2 * lcm(weights)`` it is INTEGER: ``mix_key = (2*rank + 1) *
(lcm / w)`` — exact in int64 and SQL-reproducible with one
``row_number()`` window. Ties across sources (same key) are broken by
``(mix_key, source, rank)``, also deterministic.

100 TB shape: one coarse-bucket shuffle co-locates each source's rows
for the in-group rank (same per-key-boundedness contract as
``sessionize``; sources far bigger than a task should be pre-salted
into ``source#shard`` pseudo-sources with proportional weights — the
schedule composes). The weights dict is O(|sources|) in the task
closure; nothing else is driver-side.
"""

from __future__ import annotations

import math

import pandas as pd


def interleave_by_weight(
    ds,
    weights: dict[str, int],
    source_col: str = "source",
    order_col: str = "doc_id",
):
    """Add ``rank`` (0-based position within the source, ordered by
    ``order_col``) and ``mix_key`` (global interleave position) to
    every row of a source present in ``weights``; rows of unknown
    sources are dropped (they are not part of the mix).

    Output columns: order_col, source_col, rank, mix_key (int64)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ocr_service_ray.ops.agg import bucketed_map_groups

    if not weights or any(w <= 0 for w in weights.values()):
        raise ValueError("weights must be positive integers")
    lcm = math.lcm(*weights.values())
    stride = {s: lcm // w for s, w in weights.items()}
    known = pa.array(sorted(stride), pa.string())

    # Drop out-of-mix sources BEFORE the shuffle — they never move.
    ds = ds.map_batches(
        lambda b: b.filter(pc.is_in(b[source_col], value_set=known)),
        batch_format="pyarrow",
    )

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        src = g[source_col].iloc[0]
        g = g.sort_values(order_col, kind="stable")[[order_col, source_col]]
        g = g.reset_index(drop=True)
        g["rank"] = g.index.to_numpy().astype("int64")
        g["mix_key"] = (2 * g["rank"] + 1) * stride[src]
        return g

    return bucketed_map_groups(ds, [source_col], fold)


def temperature_sample(
    ds,
    source_col: str = "source",
    order_col: str = "doc_id",
):
    """Temperature-rebalanced corpus sampling (the multilingual-
    training alpha=0.5 rule): keep ``floor(sqrt(n_s))`` documents from
    a source with ``n_s`` documents, so over-represented sources are
    down-sampled toward uniform while small sources keep nearly
    everything. Deterministic and layout-invariant — ZERO RNG: within
    each source (ordered by ``order_col``) the kept rows are the
    systematic ticks ``(rank * t) // n > ((rank-1) * t) // n`` (every
    n/t-th document, the same integer-tick rule as
    ``ops/scan.weighted_systematic_sample``), so the sample is
    SQL-reproducible and stable under resume.

    100-TB shape: one combiner ``grouped_agg`` for the per-source
    counts (a |sources|-bounded broadcast dict), then one coarse-bucket
    shuffle for the in-source rank — same per-key-boundedness contract
    as ``interleave_by_weight`` (pre-salt giant sources into
    pseudo-sources upstream; the tick rule composes per shard).
    ``floor(sqrt(n))`` is exact for n < 2**52 (IEEE sqrt of an int is
    correctly rounded; perfect squares are exact), matching SQL's
    ``floor(sqrt(n))`` bit for bit.

    Lineage note: the count pass and the tick pass each execute
    ``ds``'s plan once — MATERIALIZE a derived input first (the
    multi-consumer rule; ``pipelines/curate.prune_corpus`` pins its
    capped stage for exactly this reason). A raw parquet read needs no
    pin.

    Output: the kept rows, ALL input columns preserved.
    """
    import math

    from ocr_service_ray.ops.agg import bucketed_map_groups, grouped_agg

    counts = grouped_agg(ds, [source_col], {"n_docs": (None, "count")}).to_pandas()
    if counts.empty:
        # zero-row input: Ray's to_pandas drops the columns entirely,
        # so build the (empty) result from the input itself
        return ds
    targets = {
        s: (int(n), math.isqrt(int(n)))
        for s, n in zip(counts[source_col], counts["n_docs"])
    }

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        src = g[source_col].iloc[0]
        n, t = targets[src]
        g = g.sort_values(order_col, kind="stable")
        rank = pd.RangeIndex(1, len(g) + 1).to_numpy().astype("int64")
        keep = (rank * t) // n > ((rank - 1) * t) // n
        return g[keep]

    return bucketed_map_groups(ds, [source_col], fold)


def proportional_sample(ds, group_col: str, id_col: str, total_n: int, salt: str = "mix"):
    """Exact-N proportional allocation sampling — draw EXACTLY
    ``total_n`` rows overall, apportioned across groups by the
    largest-remainder (Hamilton) method, each group's quota filled by
    md5-rank (uniform, zero RNG, layout-invariant).

    The curation move "cut this corpus to a 10M-doc budget keeping
    source proportions": plain per-group rate sampling only hits the
    budget in expectation; Hamilton quotas hit it exactly and are the
    standard apportionment with no per-group bias.

    Plan: one combiner count per group (|groups| rows to the driver —
    vocabulary-bounded), quota arithmetic on the driver (pure int),
    then one bucketed key shuffle where each group keeps its quota
    smallest md5 ranks. Requires ``total_n`` <= corpus rows. The
    quota dict rides the task closure (O(|groups|)); ray.put it
    explicitly if sources number in the millions.
    """
    import hashlib

    import numpy as np
    import pyarrow as pa

    from .agg import bucketed_map_groups, grouped_agg

    counts = (
        grouped_agg(ds, [group_col], {"c": (None, "count")})
        .to_pandas()
        .sort_values(group_col)
        .reset_index(drop=True)
    )
    total = int(counts["c"].sum())
    if total_n > total:
        raise ValueError(f"total_n={total_n} exceeds corpus rows={total}")
    base = (total_n * counts["c"].to_numpy(dtype=np.int64)) // total
    rem = (total_n * counts["c"].to_numpy(dtype=np.int64)) % total
    extras = total_n - int(base.sum())
    # largest remainders first, group value ascending on ties —
    # mirrored exactly by the SQL oracle's ROW_NUMBER ordering
    order = np.lexsort((counts[group_col].to_numpy(), -rem))
    quota = base.copy()
    quota[order[:extras]] += 1
    quotas = dict(zip(counts[group_col], quota.tolist()))

    def keep(g: pd.DataFrame) -> pd.DataFrame | None:
        q = quotas.get(g[group_col].iloc[0], 0)
        if q <= 0:
            return None
        ranks = np.fromiter(
            (
                int(hashlib.md5(f"{salt}:{v}".encode()).hexdigest()[:15], 16)
                for v in g[id_col]
            ),
            dtype=np.int64,
            count=len(g),
        )
        idx = np.lexsort((g[id_col].to_numpy(), ranks))[:q]
        return g.iloc[np.sort(idx)]

    return bucketed_map_groups(ds, [group_col], keep)


def neyman_sample(
    ds,
    group_col: str,
    id_col: str,
    cents_col: str,
    total_n: int,
    salt: str = "neyman",
):
    """Neyman-allocated stratified sampling — the survey-statistics
    optimum: a stratum's share of the ``total_n`` budget is
    proportional to ``N_h · S_h`` (size × spread), so high-variance
    strata get more rows and near-constant strata barely any. The
    data-pruning move when a fixed labeling/eval budget must buy the
    most variance reduction.

    Exact-integer discipline: per-stratum spread is the integer
    population variance ``(n·Σv² − (Σv)²) // n²`` from ONE moment
    combiner, ``S_h = floor(sqrt(var))`` (float64 sqrt of an int —
    IEEE-correctly-rounded, identical in SQL), weights ``w_h = N_h ·
    S_h``, quotas by the largest-remainder (Hamilton) method (ties →
    group ascending; all-zero weights fall back to plain proportional
    w_h = N_h), each quota filled by md5-rank (zero RNG). A stratum
    whose quota exceeds its rows just keeps them all (the draw cannot
    invent rows; documented — total may undershoot in that corner).

    Plan: one combiner moment pass (|strata| rows to the driver) +
    one bucketed key shuffle for the draw. Returns the drawn rows.
    """
    import hashlib

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from .agg import bucketed_map_groups, grouped_agg

    # moment pass needs Σv² — project it in-kernel first
    def with_sq(b: pa.Table) -> pa.Table:
        v = b[cents_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                group_col: b[group_col],
                id_col: b[id_col],
                cents_col: pa.array(v),
                "_v2": pa.array(v * v),
            }
        )

    proj = ds.map_batches(with_sq, batch_format="pyarrow")
    mom = (
        grouped_agg(
            proj,
            [group_col],
            {"c": (None, "count"), "s": (cents_col, "sum"), "s2": ("_v2", "sum")},
        )
        .to_pandas()
        .sort_values(group_col)
        .reset_index(drop=True)
    )
    c = mom["c"].to_numpy(dtype=np.int64)
    s = mom["s"].to_numpy(dtype=np.int64)
    s2 = mom["s2"].to_numpy(dtype=np.int64)
    var = (c * s2 - s * s) // (c * c)
    sd = np.floor(np.sqrt(var.astype(np.float64))).astype(np.int64)
    w = c * sd
    if int(w.sum()) == 0:
        w = c.copy()
    W = int(w.sum())
    base = (total_n * w) // W
    rem = (total_n * w) % W
    extras = total_n - int(base.sum())
    order = np.lexsort((mom[group_col].to_numpy(), -rem))
    quota = base.copy()
    quota[order[:extras]] += 1
    quotas = dict(zip(mom[group_col], quota.tolist()))

    def keep(g: pd.DataFrame) -> pd.DataFrame | None:
        q = quotas.get(g[group_col].iloc[0], 0)
        if q <= 0:
            return None
        ranks = np.fromiter(
            (
                int(hashlib.md5(f"{salt}:{v}".encode()).hexdigest()[:15], 16)
                for v in g[id_col]
            ),
            dtype=np.int64,
            count=len(g),
        )
        idx = np.lexsort((g[id_col].to_numpy(), ranks))[:q]
        return g.iloc[np.sort(idx)][[group_col, id_col]]

    return bucketed_map_groups(proj, [group_col], keep)
