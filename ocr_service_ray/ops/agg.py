"""Keyed grouping on one exchange, and the aggregates built on it.

The library's hand-rolled keyed grouping runs on ONE exchange,
:func:`bucketed_apply` (joins and native ``Dataset.groupby`` calls
aside): rows are shuffled ONCE on a coarse element-pure hash bucket of
the key (ops/hashing.py; all rows of a key meet in one bucket), and a
FOLD runs once per whole bucket as a pandas frame. What differs
between operators is only the fold:

- :func:`grouped_agg` — one vectorized pandas ``groupby(...).agg`` that
  merges map-side partials;
- :func:`bucketed_map_groups` — a per-group loop calling a Python
  ``fn`` (~50 µs/group);
- callers' own frame-level folds (pair dedup, hot-gram filter,
  paragraph winners, ragged-range pair emission).

``Dataset.groupby(keys).aggregate(...)`` and ``map_groups`` pay ~1 ms
of per-group dispatch in their sort-based reduce; with thousands of
groups that dominates the query (measured 3.4s for a 3.6k-group
count/sum over 100k rows, vs 1.6s with ``grouped_agg``; pair-dedup
showed 34s → 6s).

``grouped_agg`` is the textbook shuffle-minimizing shape: a **partial**
map_batches runs one vectorized groupby per block (the combiner — the
exchange then moves ≤ |groups| partial rows per block, not rows), and
the **final** fold merges the partials of each bucket.

Exactness: count/min/max are exact; sum is exact for ints (use
floor-cents / micro-int columns for money — the repo-wide oracle
discipline); mean is derived as sum/count at the end.

Null semantics (SQL-matching): rows with a NULL group key form their
own group (pandas ``dropna=False`` in every partial/final groupby;
the bucket hash maps nulls to a fixed sentinel — ops/hashing.py).
``count`` with a column counts NON-NULL values of it (SQL
``COUNT(col)``); ``count`` with ``None`` counts rows (``COUNT(*)``);
``mean`` divides the NaN-skipping sum by the non-null count.

Supported aggs: "count", "sum", "min", "max", "mean".
"""

from __future__ import annotations

from ocr_service_ray.ops.pool import bcast_stage

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_PARTIAL = {
    "count": "size",
    "sum": "sum",
    "min": "min",
    "max": "max",
}
_MERGE = {
    "count": "sum",
    "sum": "sum",
    "min": "min",
    "max": "max",
}


def global_agg(ds, specs: dict[str, tuple[str | None, str]]) -> dict:
    """Global (no-key) aggregate as map-side partials + a driver-side
    merge of the tiny partial table. ``Dataset.aggregate`` pays the
    same ~0.5 ms/ROW Python loop as the grouped native path (measured
    76s of remote time for one 150k-row aggregate); here each block
    collapses to ONE partial row vectorized, and only |blocks| rows
    reach the driver. Supported: count/sum/min/max/mean (mean derived
    as sum/count). Returns a plain dict."""
    phys: dict[str, tuple[str | None, str]] = {}
    derived_means: dict[str, tuple[str, str]] = {}
    for out, (col, agg) in specs.items():
        if agg == "mean":
            phys[f"_{out}_sum"] = (col, "sum")
            phys[f"_{out}_cnt"] = (col, "count")
            derived_means[out] = (f"_{out}_sum", f"_{out}_cnt")
        elif agg in _PARTIAL:
            phys[out] = (col, agg)
        else:
            raise ValueError(f"unsupported agg: {agg}")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        row = {}
        for out, (col, agg) in phys.items():
            if agg == "count":
                # COUNT(*) for col=None, COUNT(col) (non-null) otherwise
                row[out] = [len(b) if col is None else int(b[col].count())]
            elif agg == "sum":
                row[out] = [b[col].sum()]
            elif agg in ("min", "max"):
                # dropna first: an all-null block's pandas min() is a
                # float sentinel that poisons the driver merge of a
                # STRING column (mixed str/float comparison)
                vals = b[col].dropna()
                row[out] = (
                    [getattr(vals, agg)()] if len(vals) else [None]
                )
        return pd.DataFrame(row)

    partials = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if partials.empty:
        # zero-block input: to_pandas drops the columns entirely —
        # SQL global-aggregate semantics are COUNT/SUM = 0, MIN/MAX =
        # NULL, MEAN = NULL
        result = {
            out: (0 if agg in ("count", "sum") else None)
            for out, (_, agg) in phys.items()
        }
        for mean_col, (s, c) in derived_means.items():
            result[mean_col] = None
            del result[s], result[c]
        return result
    result: dict = {}
    for out, (_, agg) in phys.items():
        if agg in ("count", "sum"):
            result[out] = partials[out].sum()
        elif agg in ("min", "max"):
            # dropna: pandas nanops fills None with ±inf on object
            # columns, breaking str/float comparison in the reduction
            vals = partials[out].dropna()
            result[out] = getattr(vals, agg)() if len(vals) else None
    for mean_col, (s, c) in derived_means.items():
        result[mean_col] = result[s] / result[c] if result[c] else None
        del result[s], result[c]
    return result


def _key_col_hash(col: pa.ChunkedArray) -> np.ndarray:
    """``hash_column``, except that a float equal to an int64 value
    (and a float null or NaN) hashes like that int64 (or an int64
    null). A pandas batch turns a nullable int key into float64 only
    in the blocks that hold a null, so without this the same key
    would route to two buckets and split its group."""
    from ocr_service_ray.ops.hashing import hash_column

    if not pa.types.is_floating(col.type):
        return hash_column(col)
    x = np.asarray(col.to_numpy(zero_copy_only=False), dtype=np.float64)
    null = np.isnan(x)
    whole = ~null & (x == np.trunc(x)) & (np.abs(x) < 2.0**63)
    h = hash_column(pa.array(np.where(whole, x, 0).astype(np.int64), mask=null))
    rest = ~(whole | null)
    if rest.any():
        h[rest] = hash_column(pc.filter(col, pa.array(rest)))
    return h


def _key_hash(t: pa.Table, keys: list[str]) -> np.ndarray:
    """Combined element-pure uint64 hash of the ``keys`` columns
    (:func:`_key_col_hash` per column, FNV-style fold across columns):
    the same key tuple hashes the same in every batch and process, and
    a null hashes to a fixed sentinel, so a null key is one group."""
    h = _key_col_hash(t[keys[0]])
    for k in keys[1:]:
        with np.errstate(over="ignore"):
            h = h * np.uint64(0x100000001B3) ^ _key_col_hash(t[k])
    return h


def bucketed_apply(ds, keys: list[str], fold, num_buckets: int = 32):
    """THE keyed exchange: shuffle rows once on ``_key_hash(keys) %
    num_buckets`` (all rows of a key land in exactly one bucket), then
    run ``fold`` once on each WHOLE bucket as a pandas frame. The
    library's hand-rolled keyed grouping goes through here —
    ``grouped_agg``'s final merge, ``bucketed_map_groups``' per-group
    loop, pair dedup, the hot-gram filter — so its bucket hash, null
    grouping and empty-output rules are written once. Ray's native
    ``groupby(keys)`` pays ~1 ms of dispatch per GROUP; here the
    per-group cost is whatever the fold makes it (a vectorized
    ``groupby(...).agg``, sort + ``drop_duplicates`` or merge has none
    at all).

    Fold contract:

    - it sees all rows of each key in the bucket, and nothing else;
      it must not depend on WHICH keys share a bucket (the bucket
      count is a tuning knob, not a semantic);
    - a null key is a real key — group inside the fold with
      ``dropna=False``;
    - returning ``None`` emits nothing for the bucket; a 0-row frame
      WITH columns is emitted as is, so its block still carries the
      schema (zero-column blocks are what ``hash_join`` rejects)."""

    def add_bucket(b: pa.Table) -> pa.Table:
        h = _key_hash(b, keys)
        # strip pandas schema metadata (a dict) — Ray's shuffle reduce
        # hashes schemas for dedup and warns on unhashable metadata
        return b.replace_schema_metadata(None).append_column(
            "_bucket", pa.array((h % np.uint64(num_buckets)).astype(np.int32))
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = fold(g.drop(columns=["_bucket"]))
        if out is None:
            return pd.DataFrame()
        return out.reset_index(drop=True)

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )


def bucketed_map_groups(ds, keys: list[str], fn):
    """``groupby(keys).map_groups(fn)`` on the one keyed exchange: the
    fold handed to :func:`bucketed_apply` loops over the bucket's true
    groups (pandas ``groupby(keys, dropna=False)``) and calls ``fn``
    on each — ~50 µs/group instead of Ray's ~1 ms. Same semantics as
    map_groups for a pure ``fn``: each call sees ALL rows of exactly
    one key. ``fn`` may return None to emit nothing for its group.

    Use when the per-key logic is not a frame-level kernel; when it
    is, pass it to ``bucketed_apply`` directly."""

    def per_group(g: pd.DataFrame) -> pd.DataFrame | None:
        outs = [fn(grp) for _, grp in g.groupby(keys, sort=False, dropna=False)]
        outs = [o for o in outs if o is not None]
        return pd.concat(outs, ignore_index=True) if outs else None

    return bucketed_apply(ds, keys, per_group)


def emit_group_pairs(
    ds,
    value_cols: list[str],
    group_col: str,
    a_name: str = "group_a",
    b_name: str = "group_b",
    num_buckets: int = 32,
):
    """All unordered (group_a < group_b) pairs of ``group_col`` values
    sharing each distinct ``value_cols`` key — the shared-token /
    shared-shingle pair-emission primitive behind the Jaccard matrix
    ops. Input rows must already be DISTINCT (group, value) pairs
    (the callers' combiner guarantees it).

    WHOLE-BUCKET VECTORIZED: one coarse value-hash bucket shuffle,
    then inside each bucket a sort makes value segments contiguous and
    the ragged-range trick enumerates every intra-segment pair with no
    per-value Python dispatch — at corpus scale the distinct-value
    count is corpus-bounded (billions of grams), exactly the regime
    where a per-group callable melts down at ~50 µs/group (the same
    trap fixed in the LSH pair pass; semantics pytest-asserted equal
    to the per-group ``combinations`` loop it replaces)."""
    import numpy as np
    import pandas as pd

    def whole(df: pd.DataFrame) -> pd.DataFrame | None:
        if len(df) < 2:
            return None
        df = df.sort_values(
            value_cols + [group_col], kind="stable"
        ).reset_index(drop=True)
        n = len(df)
        new_seg = np.zeros(n, dtype=bool)
        new_seg[0] = True
        for c in value_cols:
            v = df[c].to_numpy()
            new_seg[1:] |= v[1:] != v[:-1]
        seg_starts = np.nonzero(new_seg)[0]
        counts = np.diff(np.append(seg_starts, n))
        pos = np.arange(n) - np.repeat(seg_starts, counts)
        reps = np.repeat(counts, counts) - 1 - pos
        total = int(reps.sum())
        if total == 0:
            return None
        groups = df[group_col].to_numpy()
        a_idx = np.repeat(np.arange(n), reps)
        cum = np.concatenate([[0], np.cumsum(reps)[:-1]])
        b_idx = a_idx + 1 + (np.arange(total) - np.repeat(cum, reps))
        return pd.DataFrame({a_name: groups[a_idx], b_name: groups[b_idx]})

    return bucketed_apply(ds, value_cols, whole, num_buckets=num_buckets)


def grouped_agg(
    ds,
    keys: list[str],
    specs: dict[str, tuple[str | None, str]],
    num_buckets: int = 32,
):
    """Grouped aggregation with vectorized partial+final phases.

    ``specs``: {out_col: (in_col, agg)} — in_col is None for "count".
    Result schema: keys + out_cols (same values as
    ``groupby(keys).aggregate(...)``, row order unspecified).
    """
    # mean = sum/count derived at the end
    phys: dict[str, tuple[str | None, str]] = {}
    derived_means: dict[str, tuple[str, str]] = {}
    for out, (col, agg) in specs.items():
        if agg == "mean":
            if col is None:
                raise ValueError("mean needs a column")
            phys[f"_{out}_sum"] = (col, "sum")
            phys[f"_{out}_cnt"] = (col, "count")
            derived_means[out] = (f"_{out}_sum", f"_{out}_cnt")
        elif agg in _PARTIAL:
            phys[out] = (col, agg)
        else:
            raise ValueError(f"unsupported agg: {agg}")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        data_cols = [c for c, _ in phys.values() if c is not None and c not in keys]
        if not data_cols:
            # count-only over the key columns: size() (agg() can't
            # reference a grouping column). reset_index(name=...)
            # names the count column directly — as_index=False +
            # rename breaks when a KEY is itself named "size"
            (count_out,) = phys.keys()
            return (
                b.groupby(keys, dropna=False)
                .size()
                .reset_index(name=count_out)
            )
        named = {}
        for out, (col, agg) in phys.items():
            if agg == "count":
                # COUNT(*) when col is None ("size"), COUNT(col)
                # (non-null, pandas "count") otherwise — SQL semantics
                named[out] = (
                    (data_cols[0], "size") if col is None else (col, "count")
                )
            else:
                named[out] = (col, _PARTIAL[agg])
        return b.groupby(keys, as_index=False, dropna=False).agg(**named)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        named = {out: (out, _MERGE[agg]) for out, (_, agg) in phys.items()}
        out = g.groupby(keys, as_index=False, dropna=False).agg(**named)
        for mean_col, (s, c) in derived_means.items():
            out[mean_col] = out[s] / out[c]
            out = out.drop(columns=[s, c])
        return out

    return bucketed_apply(
        ds.map_batches(partial, batch_format="pandas"), keys, final, num_buckets
    )


def grouped_distinct_count(ds, group_keys: list[str], col: str):
    """Exact ``COUNT(DISTINCT col) GROUP BY keys`` as two combiner
    aggregates: dedup to (keys, value) rows first (each block
    collapses to its distinct pairs before the shuffle), then count
    rows per key — the exchange moves distinct pairs, never raw rows.
    The exact counterpart of the HLL sketch (ops/sketch.py — which
    likewise skips nulls): use this when |distinct| per group is
    bounded, the sketch when it isn't.

    Null semantics: NULL values of ``col`` are dropped before the
    first combiner (SQL ``COUNT(DISTINCT col)`` never counts NULL);
    consequently a group whose values are ALL NULL does not appear in
    the output at all, where SQL would emit it with 0 — callers that
    need those zero rows should left-join this result back to the
    distinct-group spine."""
    non_null = ds.map_batches(
        lambda b: b.select(group_keys + [col]).filter(pc.is_valid(b[col])),
        batch_format="pyarrow",
    )
    pairs = grouped_agg(non_null, group_keys + [col], {"_one": (None, "count")})
    return grouped_agg(pairs, group_keys, {"n_distinct": (None, "count")})


def grouped_outliers(
    ds,
    group_keys: list[str],
    value_col: str,
    k: float = 3.0,
):
    """Rows whose INTEGER value deviates more than ``k`` population
    standard deviations from their group mean — the statistical
    quality-filter shape (price anomalies, length outliers). Two
    passes, zero shuffle of data rows: per-group (n, Σv, Σv²) via the
    combiner aggregate (INTEGER sums — float sums are
    association-order-dependent and would break cross-engine
    exactness), stats broadcast, then a vectorized filter comparing
    SQUARED deviation to k²·variance — no sqrt, so every operation is
    exact-rounded IEEE arithmetic identical to the SQL mirror.
    ``value_col`` must be integral (use cents/micro upstream)."""
    import ray

    def add_sq(b: pa.Table) -> pa.Table:
        v = b[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                **{g: b[g] for g in group_keys},
                value_col: pa.array(v),
                "_v2": pa.array(v * v),
            }
        )

    stats = grouped_agg(
        ds.map_batches(add_sq, batch_format="pyarrow"),
        group_keys,
        {
            "n": (None, "count"),
            "s": (value_col, "sum"),
            "ss": ("_v2", "sum"),
        },
    ).to_pandas()
    # precompute per-group mean/var once (|groups| rows), broadcast
    n = stats["n"].to_numpy(dtype=np.float64)
    mean = stats["s"].to_numpy(dtype=np.float64) / n
    var = stats["ss"].to_numpy(dtype=np.float64) / n - mean * mean
    if len(group_keys) == 1:
        lut = dict(zip(stats[group_keys[0]], zip(mean, var)))
    else:
        lut = dict(
            zip(zip(*(stats[g] for g in group_keys)), zip(mean, var))
        )
    lut_len = len(lut)
    ref = ray.put(lut)
    k2 = k * k

    class Filter:
        def __init__(self):
            self.lut = ray.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            import pandas as pd

            v = b[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
            if len(group_keys) == 1:
                keys = pd.Series(b[group_keys[0]].to_pylist())
            else:
                keys = pd.Series(
                    list(zip(*(b[g].to_pylist() for g in group_keys)))
                )
            mv = keys.map(self.lut)  # vectorized dict lookup
            means = np.fromiter((t[0] for t in mv), dtype=np.float64, count=len(b))
            vars_ = np.fromiter((t[1] for t in mv), dtype=np.float64, count=len(b))
            d = v - means
            return b.filter(pa.array(d * d > k2 * vars_))

    # ~120 B per dict slot (key tuple + two floats) — tier estimate
    return bcast_stage(ds, Filter, 120 * lut_len)


def grouped_mode(ds, group_keys: list[str], col: str):
    """Most frequent value of ``col`` per group (ties → smallest
    value), via the value-counts combiner: (keys, value) partial
    counts per block, merged, then a per-group argmax over the
    ≤ |distinct values| count rows — raw rows never shuffle."""
    vc = grouped_agg(ds, group_keys + [col], {"cnt": (None, "count")})

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cnt", col], ascending=[False, True], kind="stable")
        row = {k: [g[k].iloc[0]] for k in group_keys}
        row["mode"] = [g[col].iloc[0]]
        row["mode_count"] = [int(g["cnt"].iloc[0])]
        return pd.DataFrame(row)

    return bucketed_map_groups(vc, group_keys, pick)


def _column_type(ds, col: str):
    """Arrow type of ``col`` from METADATA ONLY (fetch_if_missing=False
    — ``schema()`` would otherwise execute the first block of a lazy
    plan, the size_bytes() landmine). Returns None when unknown or a
    pandas block schema — callers then skip the type check rather than
    executing the plan."""
    try:
        s = ds.schema(fetch_if_missing=False)
        base = getattr(s, "base_schema", s)
        if isinstance(base, pa.Schema):
            return base.field(col).type
    except Exception:
        pass
    return None


def mad_outliers(
    ds,
    col: str,
    keep_cols: list[str],
    k_num: int = 3,
    k_den: int = 1,
):
    """Robust outlier filter: keep rows where
    ``|x - median| > (k_num/k_den) * MAD`` (MAD = median absolute
    deviation) — the heavy-tail-safe alternative to the sigma filter
    in ``grouped_outliers`` (a few extreme rows move a mean/stddev but
    not a median). ``col`` must be integer (cents/micro).

    Exact integers end to end: both medians come from ONE value-counts
    combiner pass — the deviation distribution is a driver-side
    TRANSFORM of the same |distinct|-bounded count table
    (|2v - med2| re-grouped), not a second scan. With
    ``med2 = 2*median`` and ``m2d = 2*median(|2x - med2|)`` the rule
    ``|x-med| > k*MAD`` becomes ``2*k_den*|2x - med2| > k_num*m2d`` —
    every quantity an int64, so SQL's ``2*median(...)`` (exact in
    doubles for ints < 2^52) reproduces it bit for bit. Total cost:
    one combiner exchange + one broadcast-filter rescan. NULL values
    are never outliers (SQL comparison-with-NULL semantics).

    Output: keep_cols + col rows flagged as outliers.
    """
    ctype = _column_type(ds, col)
    if ctype is not None and not pa.types.is_integer(ctype):
        raise ValueError(
            f"mad_outliers needs an integer column (cents/micro); {col} is {ctype}"
        )
    vc = grouped_agg(ds, [col], {"cnt": (None, "count")}).to_pandas()
    # guard BEFORE dropna: zero-row to_pandas drops the columns
    vc = vc if vc.empty else vc.dropna(subset=[col])
    if vc.empty:
        # no order statistics: nothing can exceed the (undefined) MAD
        return ds.limit(0).select_columns(keep_cols + [col])
    vc = vc.sort_values(col).reset_index(drop=True)

    def med2_of(vals: np.ndarray, cnts: np.ndarray) -> int:
        # 2 * quantile_cont(0.5): sum of the two straddling order
        # statistics at pos (n-1)/2 — integer, no halves
        cum = np.cumsum(cnts)
        n = int(cum[-1])
        lo = (n - 1) // 2
        hi = n // 2
        a = vals[int(np.searchsorted(cum, lo + 1, side="left"))]
        b = vals[int(np.searchsorted(cum, hi + 1, side="left"))]
        return int(a) + int(b)

    vals = vc[col].to_numpy().astype(np.int64)
    cnts = vc["cnt"].to_numpy().astype(np.int64)
    med2 = med2_of(vals, cnts)

    # deviation distribution from the SAME count table: d = |2v - med2|
    dev = pd.DataFrame({"d": np.abs(2 * vals - med2), "cnt": cnts})
    dev = dev.groupby("d", as_index=False)["cnt"].sum().sort_values("d")
    m2d = med2_of(dev["d"].to_numpy(), dev["cnt"].to_numpy())

    def keep(b: pa.Table) -> pa.Table:
        x = b[col].to_numpy(zero_copy_only=False)
        valid = ~pd.isna(x)
        xi = np.where(valid, x, 0).astype(np.int64)
        mask = valid & (2 * k_den * np.abs(2 * xi - med2) > k_num * m2d)
        return b.filter(pa.array(mask)).select(keep_cols + [col])

    return ds.map_batches(keep, batch_format="pyarrow")


def rollup_agg(
    ds,
    keys: list[str],
    specs: dict[str, tuple[str | None, str]],
    sets: list[tuple[str, ...]] | None = None,
) -> pd.DataFrame:
    """``GROUP BY GROUPING SETS`` / ``CUBE`` / ``ROLLUP`` from ONE
    source scan: the finest level ``grouped_agg`` runs once (combiner
    shuffle moves partials, never rows), and every coarser grouping
    set is derived by re-aggregating the |finest-groups|-bounded
    partial table on the driver — count and sum merge as sums, min/max
    as min/max (mean is not re-aggregatable and is rejected). The
    naive form runs one full aggregate per set: at 100 TB a
    CUBE(a, b) would be 4 scans; here it is 1.

    ``sets`` defaults to the full CUBE (all subsets of ``keys``).
    Output: keys (NULL where rolled up) + agg columns +
    ``grouping_id`` — DuckDB's ``GROUPING(keys...)`` bitmask, first
    key = most significant bit — which disambiguates a rolled-up NULL
    from a genuine NULL key value. Returns a pandas DataFrame (the
    result is |Σ set groups|-bounded, a driver-side table by nature).
    """
    for out, (_, agg) in specs.items():
        if agg not in ("count", "sum", "min", "max"):
            raise ValueError(
                f"rollup_agg: {agg!r} is not re-aggregatable (mean = "
                "derive sum/count sets yourself)"
            )
    if sets is None:
        sets = [
            tuple(k for j, k in enumerate(keys) if (i >> (len(keys) - 1 - j)) & 1 == 0)
            for i in range(1 << len(keys))
        ]
    for s in sets:
        unknown = [k for k in s if k not in keys]
        if unknown:
            raise ValueError(f"grouping set {s} references non-keys {unknown}")
    base = grouped_agg(ds, keys, specs).to_pandas()
    if base.empty:
        # zero-group input: keyed sets emit no rows; the () set emits
        # SQL's global-aggregate row (COUNT/SUM = 0, MIN/MAX = NULL)
        rows = []
        for s in sets:
            if s:
                continue
            row = {k: None for k in keys}
            for out, (_, agg) in specs.items():
                row[out] = 0 if agg in ("count", "sum") else None
            row["grouping_id"] = (1 << len(keys)) - 1
            rows.append(row)
        return pd.DataFrame(rows, columns=keys + list(specs) + ["grouping_id"])

    frames = []
    for s in sets:
        gid = sum(
            1 << (len(keys) - 1 - i) for i, k in enumerate(keys) if k not in s
        )
        merge = {out: (out, _MERGE[agg]) for out, (_, agg) in specs.items()}
        if s:
            lvl = base.groupby(list(s), as_index=False, dropna=False).agg(**merge)
        else:
            lvl = pd.DataFrame(
                {out: [getattr(base[out], _MERGE[agg])()] for out, (_, agg) in specs.items()}
            )
        for k in keys:
            if k not in s:
                lvl[k] = None
        lvl["grouping_id"] = gid
        frames.append(lvl[keys + list(specs) + ["grouping_id"]])
    return pd.concat(frames, ignore_index=True)


def pivot_counts(
    ds,
    key: str,
    pivot_col: str,
    categories: list[str],
):
    """Pivot ``pivot_col`` into one count column per category — the
    ``COUNT(*) FILTER (WHERE pivot = c)`` conditional-aggregation
    shape — in ONE scan: a vectorized indicator projection (pyarrow
    ``==`` per category, int64 0/1) feeds a single ``grouped_agg``
    sum, so the shuffle moves ≤ |keys-in-block| combiner rows of
    |categories|+1 ints. ``categories`` is explicit (stable output
    schema — discovering it would be a second pass; use
    ``distinct_values`` when unknown). Values of ``pivot_col`` outside
    ``categories`` count toward no column (SQL FILTER semantics)."""
    if not categories:
        raise ValueError("categories must be non-empty")
    if len(set(categories)) != len(categories):
        raise ValueError("categories must be unique (duplicate output columns)")

    def indicators(b: pa.Table) -> pa.Table:
        cols: dict = {key: b[key]}
        v = b[pivot_col]
        for c in categories:
            eq = pc.fill_null(pc.equal(v, c), False)
            cols[f"{c}_cnt"] = pc.cast(eq, pa.int64())
        return pa.table(cols)

    specs = {f"{c}_cnt": (f"{c}_cnt", "sum") for c in categories}
    return grouped_agg(
        ds.map_batches(indicators, batch_format="pyarrow"),
        [key],
        specs,
    )


def profile_table(ds, columns: list[str]) -> pd.DataFrame:
    """Data-quality profile: per column — row count, null count,
    exact distinct count, min, max (as strings for a uniform schema).
    TWO source scans total, independent of column count: nulls/min/max
    fold per block via ``global_agg`` partials (scan 1); distinct
    counts for ALL columns come from ONE exploded
    ``(column, value-as-string)`` pass (scan 2) — each block emits its
    per-column distinct values, one grouped count-distinct merges them
    (previously one aggregate per column = C+1 scans; at 100 TB with
    20 columns that was 20 extra reads). The profiling step every
    ingest pipeline runs before training."""
    specs: dict = {"n_rows": (None, "count")}
    for c in columns:
        specs[f"nn_{c}"] = (c, "count")  # non-null
        specs[f"min_{c}"] = (c, "min")
        specs[f"max_{c}"] = (c, "max")
    agg = global_agg(ds, specs)

    s = ds.schema()
    base = getattr(s, "base_schema", s)
    types = (
        {f.name: f.type for f in base}
        if isinstance(base, pa.Schema)
        else {}
    )

    # Scan 2: per-block distinct values of every column, exploded to
    # (column, value) pairs — the string cast is injective within a
    # column (shortest-round-trip float reprs; the column key keeps
    # cross-column collisions irrelevant), nulls excluded per SQL
    # COUNT(DISTINCT) semantics.
    def explode_distinct(b: pa.Table) -> pa.Table:
        parts = []
        for c in columns:
            u = pc.cast(b[c].combine_chunks().drop_null().unique(), pa.string())
            parts.append(
                pa.table(
                    {
                        "column": pa.array([c] * len(u), pa.string()),
                        "value": u,
                    }
                )
            )
        return pa.concat_tables(parts)

    dcounts = (
        grouped_distinct_count(
            ds.map_batches(explode_distinct, batch_format="pyarrow"),
            ["column"],
            "value",
        )
        .to_pandas()
        .set_index("column")["n_distinct"]
        .to_dict()
    )

    def fmt(v, col):
        # a nullable int column rides through pandas as float — format
        # it back as an integer (SQL CAST(x AS VARCHAR) semantics)
        if v is None:
            return "None"
        t = types.get(col)
        if t is not None and pa.types.is_integer(t):
            return str(int(v))
        return str(v)

    rows = []
    for c in columns:
        rows.append(
            {
                "column": c,
                "n_rows": int(agg["n_rows"]),
                "n_null": int(agg["n_rows"]) - int(agg[f"nn_{c}"]),
                "n_distinct": int(dcounts.get(c, 0)),
                "min": fmt(agg[f"min_{c}"], c),
                "max": fmt(agg[f"max_{c}"], c),
            }
        )
    return pd.DataFrame(rows)


_MERGE_OP = {"count": "sum", "sum": "sum", "min": "min", "max": "max"}


def merge_agg_states(states: list, keys: list[str], specs: dict[str, tuple[str | None, str]]):
    """Merge ``grouped_agg`` outputs — the incremental-aggregation
    primitive: yesterday's persisted state table + today's delta
    state fold to exactly the state a full recompute would produce,
    so a 100-TB daily pipeline aggregates only the NEW partition and
    never rescans history.

    ``specs`` is the SAME dict the states were built with; the merge
    op per column is derived from it (count merges by sum, sum by
    sum, min by min, max by max — mean states are not mergeable from
    their derived form, keep (sum, count) columns instead). Inputs
    union block-wise (no re-read, no driver), then one combiner
    grouped_agg over |groups|-bounded state rows.
    """
    for out, (_, agg) in specs.items():
        if agg not in _MERGE_OP:
            raise ValueError(
                f"agg '{agg}' has no lossless state merge; materialize "
                "its (sum, count) parts instead"
            )
    merged = states[0]
    for s in states[1:]:
        merged = merged.union(s)
    return grouped_agg(
        merged, keys, {out: (out, _MERGE_OP[agg]) for out, (_, agg) in specs.items()}
    )
