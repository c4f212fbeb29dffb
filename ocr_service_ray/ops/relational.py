"""Relational building blocks, Ray-Data-first.

Join strategy (SURVEY.md §2.4): broadcast when one side is a
dimension table (ship once via ray.put, pandas merge per batch — no
shuffle); :func:`hash_join`, the one caller of Ray's hash-partitioned
``Dataset.join``, when both sides are large. Window/session operators
follow the streaming-shaped pattern: partition by key, order by ts
INSIDE the group (the stated ordering assumption), never globally.
"""

from __future__ import annotations

from ocr_service_ray.ops.pool import bcast_stage

import pandas as pd
import pyarrow as pa


def broadcast_join(large_ds, small_df: pd.DataFrame, on: str, how: str = "inner"):
    """Broadcast hash join: the small side is put in the object store
    ONCE; every task reads the same copy (per-node, zero-copy via
    plasma) instead of re-shipping per batch.

    Tiered by the broadcast side's pandas size through ``bcast_stage``:
    a small side merges in a plain TASK pool — per-task ``ray.get`` of
    a small frame from local plasma is sub-ms, while an autoscaling
    actor pool pays seconds of spawn/ramp before full throughput
    (measured 1.7-3.0s vs 0.55s for a 3k-row side against a 150k-row
    probe at 32 CPUs). Past the threshold the per-task DESERIALIZE of
    a big pandas frame is the dominant cost, so the stage becomes an
    actor pool that pays the get once per actor."""
    import ray

    ref = ray.put(small_df)
    small_bytes = int(small_df.memory_usage(deep=True).sum())

    class JoinBatch:
        def __init__(self):
            self.small = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            return batch.merge(self.small, on=on, how=how)

    return bcast_stage(large_ds, JoinBatch, small_bytes, batch_format="pandas")


def join_partitions_for(*datasets, target_bytes: int = 128 << 20, lo: int = 2, hi: int = 512) -> int:
    """Partition count for a hash join, derived from the inputs' size
    (~``target_bytes`` of build+probe data per partition) instead of a
    literal — a fixed count either under-parallelizes at scale or
    over-partitions tiny inputs. Falls back to 16 when the size isn't
    knowable WITHOUT EXECUTION: ``Dataset.size_bytes()`` runs the full
    upstream plan of a lazy dataset and the work is not cached (the
    join re-executes it), so only statically-inferred metadata
    (parquet reads, materialized datasets) is consulted here."""
    total = 0
    for ds in datasets:
        sz = None
        try:
            meta = ds._logical_plan.dag.infer_metadata()
            sz = meta.size_bytes
            if sz is None and ds._plan.has_computed_output():
                sz = ds.size_bytes()  # already executed — free
        except Exception:
            sz = None
        if sz:
            total += sz
    if not total:
        return 16
    return max(lo, min(hi, -(-total // target_bytes)))


def join_aggregator_args(num_partitions: int, cpu_share: float = 0.125) -> dict:
    """Resource override for a hash join's aggregator ACTORS.

    Ray 2.49's default reserves up to half the cluster's CPUs per join
    operator (hash_shuffle.py `_get_aggregator_num_cpus_per_partition`:
    min(1, CPU/2/partitions) per partition). Two join operators alive
    in one streaming DAG (a chained join — candidate verify, snapshot
    diff) then pin ALL CPUs in aggregator actors and the map tasks
    that feed them can never schedule: a hard deadlock, reproduced on
    a 4-CPU local cluster. Cap each join's TOTAL aggregator
    reservation at ``cpu_share`` of the cluster instead so several
    exchanges and their producers coexist; aggregator work (concat +
    acero join at finalize) oversubscribes briefly, which is the right
    trade vs. starving the pipeline.

    The returned dict REPLACES Ray's default aggregator args, it is not
    merged into them (hash_shuffle.py: ``override or
    _get_default_aggregator_ray_remote_args(...)``). The defaults also
    reserve ~0.875 GiB of ``memory`` per aggregator, so a 16-partition
    join asks for 14 GiB; on a host whose Ray memory resource is
    smaller, the aggregators past the budget never start and the join
    waits forever without an error. This override reserves CPU only,
    which is why no query may call ``Dataset.join`` directly — every
    equi-join goes through :func:`hash_join`."""
    import math

    import ray
    from ray.data import DataContext

    try:
        cpus = float(ray.cluster_resources().get("CPU", 8.0))
    except Exception:
        cpus = 8.0
    ctx = DataContext.get_current()
    max_aggs = (
        ctx.max_hash_shuffle_aggregators
        or ctx.default_hash_shuffle_parallelism
        or num_partitions
    )
    n_aggs = max(1, min(num_partitions, int(max_aggs)))
    per_agg = (cpus * cpu_share) / n_aggs
    # round DOWN to avoid drift past the budget, floor well below 1
    per_agg = max(0.05, min(1.0, math.floor(per_agg * 100) / 100))
    return {"num_cpus": per_agg}


def hash_join(
    left_ds,
    right_ds,
    on,
    num_partitions: int | None = None,
    join_type: str = "inner",
    right_on=None,
):
    """Large-large equi-join: Ray Data's hash-partitioned join (both
    sides shuffled on the key). ``num_partitions`` defaults to a
    size-derived count (join_partitions_for). ``on``/``right_on`` are a
    column name or tuple of names. Salt hot keys upstream if one key
    value dominates — the join partitions by hash(key) only.

    This is the library's ONLY call of ``Dataset.join``
    (tests/test_single_join_path.py parses the sources to keep it so).
    It passes
    :func:`join_aggregator_args`, which REPLACES Ray's default
    aggregator args and with them their per-aggregator ``memory``
    reservation: a native ``Dataset.join`` with the defaults hangs on
    a host whose Ray memory resource cannot hold every aggregator."""
    from ocr_service_ray import rayfix

    # flaky-schema-broadcast workaround (see rayfix module docstring):
    # must be installed before the streaming executor submits shuffle
    # tasks; building the plan here is early enough
    rayfix.apply()

    if num_partitions is None:
        num_partitions = join_partitions_for(left_ds, right_ds)
    on = (on,) if isinstance(on, str) else tuple(on)
    if right_on is not None:
        right_on = (right_on,) if isinstance(right_on, str) else tuple(right_on)

    def _strip_meta(b):
        # pandas-originated blocks carry a schema-metadata dict; the
        # hash-shuffle aggregator hashes schemas for dedup and logs
        # "Failed to hash the schemas: unhashable type: 'dict'" per
        # aggregator otherwise
        return b.replace_schema_metadata(None)

    left_ds = left_ds.map_batches(_strip_meta, batch_format="pyarrow")
    right_ds = right_ds.map_batches(_strip_meta, batch_format="pyarrow")
    # LANDMINE (verified on ray 2.49): partitions that receive no rows
    # make the join emit zero-COLUMN empty blocks, and map_batches
    # re-normalizes any zero-row output back to a schema-less block —
    # padding cannot stick. If this join's OUTPUT feeds another acero
    # consumer (a chained hash_join, Dataset.sort), interpose a
    # repartition() (a real exchange rebuilds blocks with the unified
    # schema); see triangle_count for the pattern.
    return left_ds.join(
        right_ds,
        join_type=join_type,
        num_partitions=num_partitions,
        on=on,
        right_on=right_on,
        aggregator_ray_remote_args=join_aggregator_args(num_partitions),
    )


def auto_join(
    large_ds,
    small_ds,
    on: str,
    small_on: str | None = None,
    budget: int = 1_000_000,
    how: str = "inner",
    budget_bytes: int = 128 << 20,
):
    """Equi-join against a build side whose size is DATA-dependent (a
    HAVING output, a filtered set of keys): pin + count the small side
    first, then pick the tier — ≤ ``budget`` rows: one BOUNDED driver
    pull, shipped once via ``ray.put`` and merged per batch inside
    ``map_batches`` (zero exchange; the probe side never shuffles);
    above the budget: the key-partitioned :func:`hash_join` (at corpus
    scale an unbounded broadcast breaks the driver and every actor
    heap). This is ``exact_keep="auto"``'s decision shape
    (pipelines/curate.py) applied to joins.

    The small side's key column (``small_on``, default ``on``) is
    renamed to ``on`` before either tier, so BOTH tiers emit the same
    schema: the large side's columns plus the small side's non-key
    columns, key named ``on`` (tier-equivalence pytest-asserted).

    Broadcast-tier cost note: when the build side's key is UNIQUE
    (orderkeys, dedup keepers — the common case) the probe is a
    sorted-key searchsorted + gather, O(|batch|·log|small|) per batch
    regardless of the build side's size; a per-batch pandas merge
    would rebuild the build side's hash index for EVERY batch and
    measurably loses to the hash join past ~10^4 build rows. With
    duplicate keys (a fan-out join) the tier falls back to that
    per-batch merge — keep such sides under the budget or let the
    hash tier take them.

    The budget is TWO-dimensional because the hazard is driver/actor
    memory, not row count: ``budget`` rows AND ``budget_bytes`` of
    materialized block bytes (``sm.size_bytes()``) — a 1M-row side
    with wide string payloads must not be pulled to the driver just
    because its row count fits. Callers joining against wide-payload
    sides should lower ``budget_bytes`` to their per-actor headroom."""
    import numpy as np
    import ray

    sm = small_ds.materialize()
    if small_on and small_on != on:

        def _ren(b: pa.Table) -> pa.Table:
            return b.rename_columns(
                [on if n == small_on else n for n in b.column_names]
            )

        sm = sm.map_batches(_ren, batch_format="pyarrow")
    if sm.count() > budget or (sm.size_bytes() or 0) > budget_bytes:
        return hash_join(large_ds, sm, on=on, join_type=how)
    df = sm.to_pandas()
    if df.empty or on not in df.columns:
        # Ray's to_pandas() on a ZERO-ROW dataset drops the columns
        # entirely (documented landmine — cf. graph.py keep_canonical),
        # so df[on] would KeyError. Empty is a reachable outcome for
        # data-dependent build sides (a HAVING whale set that matched
        # nothing) and must yield an empty/null-extended result, not a
        # crash: derive the payload schema from sm.schema() (known
        # post-materialize) and short-circuit both tiers.
        sch = sm.schema()
        if sch is None or not getattr(sch, "names", None):
            # an all-empty materialized dataset can lose its schema
            # through map_batches; the pre-materialize input still
            # knows it — apply the small_on→on rename by hand
            sch = small_ds.schema()

            class _R:
                names = [
                    on if n == (small_on or on) else n for n in sch.names
                ]
                types = list(sch.types)

            base = _R
        else:
            base = getattr(sch, "base_schema", sch)
        if isinstance(base, pa.Schema):
            extra = [(f.name, f.type) for f in base if f.name != on]
        else:  # ray Schema / PandasBlockSchema: arrow or numpy dtypes
            extra = [
                (n, t if isinstance(t, pa.DataType) else pa.from_numpy_dtype(t))
                for n, t in zip(base.names, base.types)
                if n != on
            ]

        def _extend(b: pa.Table, nrows: int) -> pa.Table:
            for n, t in extra:
                b = b.append_column(n, pa.nulls(nrows, t))
            return b

        if how == "inner":
            return large_ds.map_batches(
                lambda b: _extend(b.slice(0, 0), 0), batch_format="pyarrow"
            )
        return large_ds.map_batches(
            lambda b: _extend(b, len(b)), batch_format="pyarrow"
        )
    keys = df[on].to_numpy()
    if how != "inner" or len(np.unique(keys)) != len(keys):
        return broadcast_join(large_ds, df, on=on, how=how)

    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    payload = {c: df[c].to_numpy()[order] for c in df.columns if c != on}
    ref = ray.put((keys_sorted, payload))

    def gather_join(b: pa.Table) -> pa.Table:
        ks, pl = ray.get(ref)
        k = b[on].to_numpy(zero_copy_only=False)
        if not len(ks):  # empty build side: empty result, full schema
            out = b.slice(0, 0)
            for c, v in pl.items():
                out = out.append_column(c, pa.array(v[:0]))
            return out
        idx = np.minimum(np.searchsorted(ks, k), len(ks) - 1)
        m = ks[idx] == k
        out = b.filter(pa.array(m))
        gi = idx[m]
        for c, v in pl.items():
            out = out.append_column(c, pa.array(v[gi]))
        return out

    return large_ds.map_batches(gather_join, batch_format="pyarrow")


def distinct_values(ds, col: str) -> list:
    """D3 — class-vocabulary style distinct
    (``scripts/train_classifier.py:126`` ``sorted(set(...))``):
    per-block vectorized dedup (the combiner — at most |vocab| rows
    leave each block), then a driver-side set union. The result is a
    vocabulary, small by contract; ``Dataset.unique`` would pay the
    native aggregate's per-row Python loop."""
    import pyarrow as pa

    partial = ds.map_batches(
        lambda b: pa.table({col: b[col].unique()}), batch_format="pyarrow"
    )
    values: set = set()
    for batch in partial.iter_batches(batch_format="pyarrow"):
        values.update(batch[col].to_pylist())
    return sorted(values)


def hash_sample(ds, key_col: str, fraction: float, salt: str = "sample"):
    """Deterministic p-sample: keep a row iff the md5-derived uniform
    of its key is < ``fraction``. Scale-safe sampling — no
    ``random_shuffle`` (an all-to-all), no RNG state; the SAME rows
    are kept on every run/cluster/partitioning, the sample composes
    with resume, and DuckDB reproduces it exactly (md5 hex parse).
    Keys should be unique (doc ids) for an unbiased rate."""
    import hashlib

    import numpy as np
    import pyarrow as pa

    def keep(b: pa.Table) -> pa.Table:
        keys = b[key_col].to_pylist()
        mask = np.fromiter(
            (
                int(hashlib.md5(f"{salt}:{k}".encode()).hexdigest()[:16], 16) / 2**64
                < fraction
                for k in keys
            ),
            dtype=bool,
            count=len(keys),
        )
        return b.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def stratified_split(ds, key_col: str, train_fraction: float = 0.8, salt: str = "split"):
    """Deterministic per-row train/val assignment via the same
    md5-uniform — stratification-free of partition layout: every key
    lands in the same split regardless of block order or cluster
    size (the property a positional split lacks). Adds a ``split``
    column ('train'/'val')."""
    import hashlib

    import numpy as np
    import pyarrow as pa

    def assign(b: pa.Table) -> pa.Table:
        keys = b[key_col].to_pylist()
        mask = np.fromiter(
            (
                int(hashlib.md5(f"{salt}:{k}".encode()).hexdigest()[:16], 16) / 2**64
                < train_fraction
                for k in keys
            ),
            dtype=bool,
            count=len(keys),
        )
        split = np.where(mask, "train", "val")
        return b.append_column("split", pa.array(split.tolist(), pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")


def train_val_split(ds, train_fraction: float = 0.8, sort_col: str | None = None):
    """O8 — the reference's positional, unshuffled 80/20 split
    (``scripts/train_classifier.py:134-136``) via
    ``Dataset.split_proportionately``. Positional order in a
    distributed Dataset is block order, so pass ``sort_col`` to pin a
    deterministic order first (the reference's input is a sorted file
    list — O1)."""
    if sort_col is not None:
        ds = ds.sort(sort_col)
    train, val = ds.split_proportionately([train_fraction])
    return train, val


def broadcast_anti_join(ds, keys, on: str):
    """D4 — skip-existing semantics
    (``services/active_learning.py:110``): drop rows whose ``on``
    value is in ``keys``. The key set is broadcast once via
    ``ray.put`` (dimension-sized by contract); each task filters
    against the same object-store copy. For a large right side, use
    ``hash_join`` with ``join_type="left_anti"`` instead."""
    import pyarrow as pa
    import ray

    import pyarrow.compute as pc

    key_list = list(keys)
    ref = ray.put(key_list)
    # measured serialized size (what ray.put ships) — keys can be
    # unbounded-width strings; a fixed per-slot bound mis-tiers those
    from ocr_service_ray.ops.pool import measured_nbytes

    keys_nbytes = measured_nbytes(key_list)

    class AntiFilter:
        def __init__(self):
            # key list → Arrow array once per actor; the per-batch
            # filter is then one vectorized hash-isin kernel (no
            # per-row Python membership loop)
            self.key_arr = pa.array(ray.get(ref))

        def __call__(self, batch: pa.Table) -> pa.Table:
            col = batch[on]
            if len(self.key_arr) and not col.type.equals(self.key_arr.type):
                col = pc.cast(col, self.key_arr.type)
            mask = pc.invert(pc.is_in(col, value_set=self.key_arr))
            # null keys are never "in" the broadcast set → keep them
            return batch.filter(pc.fill_null(mask, True))

    return bcast_stage(ds, AntiFilter, keys_nbytes)


def asof_join(left_ds, right_ds, on: str, by: str, direction: str = "backward"):
    """As-of join — for each left row, the latest right row with
    ``right[on] <= left[on]`` within the same ``by`` key (DuckDB
    ``ASOF LEFT JOIN`` semantics). Ray Data has no as-of join; the
    Ray-Data-first composition is: tag each side, harmonize schemas,
    UNION (one plan), ONE shuffle on the ``by`` key via
    bucketed_map_groups, and a vectorized ``pandas.merge_asof`` inside
    each key group (rows of one key are co-located by construction —
    the stated partitioning assumption). Left columns keep their
    names; right columns not shared with the left are appended.

    Scale shape: the shuffle moves each row once; per-group work is
    O(n log n) sort + linear merge. Skewed keys are bounded by the
    per-key group size — salt upstream if one key dominates.
    """
    import numpy as np
    import pyarrow as pa

    from ocr_service_ray.ops.agg import bucketed_map_groups

    def _arrow_schema(ds) -> pa.Schema:
        s = ds.schema()
        base = getattr(s, "base_schema", s)
        if isinstance(base, pa.Schema):
            return base
        # PandasBlockSchema (datasets built from pandas blocks)
        empty = pd.DataFrame(
            {n: pd.Series(dtype=t) for n, t in zip(base.names, base.types)}
        )
        return pa.Schema.from_pandas(empty, preserve_index=False).remove_metadata()

    l_schema = _arrow_schema(left_ds)
    r_schema = _arrow_schema(right_ds)
    l_cols = list(l_schema.names)
    r_cols = list(r_schema.names)
    r_extra = [c for c in r_cols if c not in l_cols]
    all_cols = l_cols + r_extra

    def harmonize(side: int, schema: pa.Schema, cols: list[str]):
        def f(b: pa.Table) -> pa.Table:
            arrays, fields = [], []
            for c in all_cols:
                if c in cols:
                    arrays.append(b[c])
                    fields.append(pa.field(c, b.schema.field(c).type))
                else:
                    src = l_schema if c in l_cols else r_schema
                    arrays.append(pa.nulls(b.num_rows, src.field(c).type))
                    fields.append(pa.field(c, src.field(c).type))
            arrays.append(pa.array(np.full(b.num_rows, side, np.int8)))
            fields.append(pa.field("_side", pa.int8()))
            return pa.Table.from_arrays(arrays, schema=pa.schema(fields))

        return f

    unioned = left_ds.map_batches(
        harmonize(0, l_schema, l_cols), batch_format="pyarrow"
    ).union(
        right_ds.map_batches(harmonize(1, r_schema, r_cols), batch_format="pyarrow")
    )
    return asof_join_tagged(unioned, on, by, l_cols, r_extra, direction)


def asof_join_tagged(
    unioned_ds,
    on: str,
    by: str,
    left_cols: list[str],
    right_extra: list[str],
    direction: str = "backward",
):
    """The merge half of :func:`asof_join`, for callers that build the
    side-tagged union themselves — a SELF as-of join (both sides from
    one table) tags rows in ONE scan of the source instead of two
    filtered sub-plans (a map_batches filter does not push down; two
    sub-plans = two full scans at 100 TB). The input needs columns
    ``left_cols + right_extra + ['_side']`` with ``_side`` 0 = left
    row, 1 = right row."""
    from ocr_service_ray.ops.agg import bucketed_map_groups

    all_cols = left_cols + right_extra

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["_side"] == 0][left_cols].sort_values(on, kind="stable")
        right = g[g["_side"] == 1][[on] + right_extra].sort_values(on, kind="stable")
        if not len(left):
            # typed empty — schema stability across groups
            return pd.DataFrame({c: pd.Series(dtype=g[c].dtype) for c in all_cols})
        out = pd.merge_asof(left, right, on=on, direction=direction)
        return out[all_cols]

    return bucketed_map_groups(unioned_ds, [by], per_key)


def broadcast_range_join(ds, ranges: list[tuple[str, float, float]], value_col: str):
    """Range join against a SMALL ranges table: each row is matched to
    the bucket with ``lo <= value < hi``. The ranges (sorted,
    non-overlapping — asserted) are broadcast in the task closure and
    the per-batch lookup is ONE vectorized ``np.searchsorted`` — no
    shuffle, no per-row Python, exactly the broadcast-small-side rule
    for joins whose predicate is a range instead of equality. Rows
    outside every range are dropped (inner-join semantics)."""
    import numpy as np
    import pyarrow as pa

    names = [r[0] for r in ranges]
    los = np.array([r[1] for r in ranges], dtype=np.float64)
    his = np.array([r[2] for r in ranges], dtype=np.float64)
    assert (los[1:] >= his[:-1]).all(), "ranges must be sorted and non-overlapping"
    name_arr = np.array(names, dtype=object)

    def tag(b: pa.Table) -> pa.Table:
        v = b[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        idx = np.searchsorted(los, v, side="right") - 1
        cidx = np.clip(idx, 0, len(ranges) - 1)
        valid = (idx >= 0) & (v < his[cidx])
        kept = b.filter(pa.array(valid))
        return kept.append_column(
            "bucket", pa.array(name_arr[cidx[valid]].tolist(), pa.string())
        )

    return ds.map_batches(tag, batch_format="pyarrow")


def topk(ds, by: list[str], k: int, descending: list[bool]):
    """Canonical top-k (O5/O6), combiner-style: each block keeps its
    local top-k (no row outside a block-local top-k can be in the
    global one), then ONE final pass over the ≤ |blocks|·k candidate
    rows — no all-to-all sort of the full dataset. Callers must
    include a unique tiebreak column for deterministic results."""
    order = [
        (c, "descending" if d else "ascending") for c, d in zip(by, descending)
    ]

    def local_topk(b: pa.Table) -> pa.Table:
        # metadata stripped: pandas-originated blocks carry a schema
        # metadata dict Ray can't hash when unifying schemas
        return b.replace_schema_metadata(None).sort_by(order).slice(0, k)

    # batch_size=None pinned explicitly: the contract REQUIRES
    # whole-block batches (a sliced final pass would emit top-k per
    # slice); .limit(k) is the safety net if that ever degrades.
    return (
        ds.map_batches(local_topk, batch_format="pyarrow", batch_size=None)
        .repartition(1)
        .map_batches(local_topk, batch_format="pyarrow", batch_size=None)
        .limit(k)
    )


def windowed_agg(events_ds, ts_col: str = "ts", key_col: str = "event_type", freq: str = "h"):
    """Tumbling-window aggregate: floor the timestamp to the window in
    a stateless vectorized pass, then ONE combiner-style grouped
    aggregate on (window, key) — ops/agg.grouped_agg collapses each
    block to partials before the shuffle."""
    from ocr_service_ray.ops.agg import grouped_agg

    def add_window(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["window"] = batch[ts_col].dt.floor(freq)
        return batch[["window", key_col, "value"]]

    return grouped_agg(
        events_ds.map_batches(add_window, batch_format="pandas"),
        ["window", key_col],
        {
            "n_events": ("value", "count"),
            "sum_value": ("value", "sum"),
            "avg_value": ("value", "mean"),
        },
    )


def sliding_window_agg(
    events_ds,
    size_hours: int = 2,
    hop_hours: int = 1,
    ts_col: str = "ts",
    key_col: str = "event_type",
    value_col: str = "value",
):
    """Sliding (hopping) window aggregate: each event is exploded to
    the ``size/hop`` windows covering it (stateless vectorized map — no
    per-event state, no ordering assumption), then ONE combined
    grouped aggregate on (window_start, key). Money in floor-cents so
    the distributed sum is bit-exact. window_start is the window's
    inclusive lower bound; windows align to the epoch hop grid."""
    if size_hours % hop_hours:
        raise ValueError("size_hours must be a multiple of hop_hours")
    k = size_hours // hop_hours

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        base = b[ts_col].dt.floor(f"{hop_hours}h")
        frames = []
        for i in range(k):
            f = pd.DataFrame(
                {
                    "window_start": (
                        base - pd.Timedelta(hours=i * hop_hours)
                    ).dt.strftime("%Y-%m-%d %H:%M:%S"),
                    key_col: b[key_col].to_numpy(),
                    "cents": np.floor(b[value_col].to_numpy() * 100.0 + 0.5).astype(
                        "int64"
                    ),
                }
            )
            frames.append(f)
        return pd.concat(frames, ignore_index=True)

    from ocr_service_ray.ops.agg import grouped_agg

    return grouped_agg(
        events_ds.map_batches(explode, batch_format="pandas"),
        ["window_start", key_col],
        {"n_events": ("cents", "count"), "sum_value_cents": ("cents", "sum")},
    )


def sessionize(events_ds, gap_minutes: float = 30.0, user_col: str = "user_id", ts_col: str = "ts"):
    """Session windows: partition by user (shuffle), sort by ts WITHIN
    the group, split on gaps > ``gap_minutes``. Emits one row per user
    with session count + max session length. Ordering assumption: only
    within-user order matters; late events simply land in their user's
    group (next run)."""

    def sessions(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(ts_col)
        gaps = g[ts_col].diff().dt.total_seconds().fillna(0.0)
        new_session = (gaps > gap_minutes * 60).cumsum()
        sizes = new_session.value_counts()
        return pd.DataFrame(
            {
                "user_id": [g[user_col].iloc[0]],
                "n_sessions": [int(new_session.nunique())],
                "max_session_events": [int(sizes.max())],
                "n_events": [len(g)],
            }
        )

    from ocr_service_ray.ops.agg import bucketed_map_groups

    # bucketed: user count grows with the corpus, and per-group dispatch
    # would dominate (~1 ms/user in plain map_groups)
    return bucketed_map_groups(events_ds, [user_col], sessions)


def grouped_topk(
    ds,
    group_keys: list[str],
    by: list[str],
    k: int,
    descending: list[bool],
):
    """Top-``k`` rows PER GROUP (the windowed ``ROW_NUMBER() <= k``
    shape), combiner-style: each block keeps its per-group local
    top-k — no row outside a block-local per-group top-k can reach
    the global per-group top-k — so the one shuffle moves at most
    |blocks| × |groups-in-block| × k candidate rows, never the
    corpus. The final per-group pass runs through
    ``ops/agg.bucketed_map_groups`` (one coarse-bucket shuffle,
    vectorized per-group finish). Callers must include a unique
    tiebreak column in ``by`` for deterministic output."""
    from ocr_service_ray.ops.agg import bucketed_map_groups

    ascending = [not d for d in descending]

    def local(b: pd.DataFrame) -> pd.DataFrame:
        return (
            b.sort_values(by, ascending=ascending, kind="stable")
            .groupby(group_keys, sort=False, dropna=False)
            .head(k)
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(by, ascending=ascending, kind="stable").head(k)

    candidates = ds.map_batches(local, batch_format="pandas", batch_size=None)
    return bucketed_map_groups(candidates, group_keys, final)


def cumulative_by_key(
    ds,
    key_col: str,
    order_cols: list[str],
    value_col: str,
    out_col: str = "running_total",
):
    """Per-key running total ordered by ``order_cols`` (the
    ``SUM(v) OVER (PARTITION BY key ORDER BY ...)`` shape): one
    coarse-bucket shuffle co-locates each key, then a vectorized
    in-group sort + cumsum. Rows of one key must fit a task — the
    same per-key-boundedness assumption as ``sessionize``; salt the
    key upstream if one key dominates.

    Sum the value as INTEGERS (cents/micro) for cross-engine
    exactness — float running totals are association-order-dependent
    and DuckDB's window aggregation does not promise left-assoc."""
    from ocr_service_ray.ops.agg import bucketed_map_groups

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order_cols, kind="stable")
        g[out_col] = g[value_col].cumsum()
        return g

    return bucketed_map_groups(ds, [key_col], fold)


def grouped_sequence(
    ds,
    key_col: str,
    order_cols: list[str],
    value_col: str,
    sep: str = ",",
    out_col: str = "seq",
):
    """Per-key ordered value sequence (SQL ``string_agg(v, sep ORDER
    BY ...)`` / collect_list) — behavioral-sequence assembly for
    training data: one coarse-bucket shuffle co-locates each key, a
    vectorized in-group sort orders it, and the values join into one
    string row per key. Same per-key-boundedness assumption as
    ``sessionize``; ``order_cols`` must be unique per key for a
    deterministic sequence."""
    from ocr_service_ray.ops.agg import bucketed_map_groups

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order_cols, kind="stable")
        return pd.DataFrame(
            {
                key_col: [g[key_col].iloc[0]],
                out_col: [sep.join(str(v) for v in g[value_col])],
                "n_events": [len(g)],
            }
        )

    return bucketed_map_groups(ds, [key_col], fold)


def set_op(ds_a, ds_b, cols: list[str], op: str = "intersect"):
    """SQL ``INTERSECT`` / ``EXCEPT`` / ``UNION`` (DISTINCT set
    semantics) over the
    ``cols`` projection of two datasets, as ONE combiner exchange: each
    side projects + tags a presence indicator, the union flows through
    ``ops/agg.grouped_agg`` max-merging the two flags per distinct key
    (each block collapses to its distinct keys BEFORE the shuffle), and
    a vectorized filter keeps keys present in both (intersect) or only
    in the left (except). NULL keys compare equal, matching SQL set-op
    semantics (grouped dropna=False + the null-sentinel bucket hash).

    The naive plan is a distinct per side plus a join — three
    exchanges; this is one, and it moves distinct keys, never rows.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from ocr_service_ray.ops.agg import grouped_agg

    if op not in ("intersect", "except", "union"):
        raise ValueError(f"unknown set op: {op}")

    def tag(a_flag: int):
        def f(b: pa.Table) -> pa.Table:
            t = b.select(cols)
            n = len(t)
            return t.append_column(
                "_in_a", pa.array(np.full(n, a_flag, dtype=np.int64))
            ).append_column(
                "_in_b", pa.array(np.full(n, 1 - a_flag, dtype=np.int64))
            )

        return f

    both = ds_a.map_batches(tag(1), batch_format="pyarrow").union(
        ds_b.map_batches(tag(0), batch_format="pyarrow")
    )
    flags = grouped_agg(
        both,
        cols,
        {"in_a": ("_in_a", "max"), "in_b": ("_in_b", "max")},
    )

    def keep(b: pa.Table) -> pa.Table:
        if op == "union":  # UNION DISTINCT: every grouped key survives
            return b.select(cols)
        in_a = pc.equal(b["in_a"], 1)
        in_b = pc.equal(b["in_b"], 1)
        mask = (
            pc.and_(in_a, in_b)
            if op == "intersect"
            else pc.and_(in_a, pc.invert(in_b))
        )
        return b.filter(mask).select(cols)

    return flags.map_batches(keep, batch_format="pyarrow")


def banded_sample(
    ds,
    bucket_col: str,
    rates: dict[int, float],
    key_col: str,
    salt: str = "bands",
):
    """Per-band deterministic sampling — each row keeps with its
    band's probability via the same md5-uniform rule as
    ``hash_sample`` (zero RNG, layout-invariant, resume-stable): the
    curation move "sample long documents at 10%, short at 80%" after
    ``ops/sketch.percentile_buckets`` assigns the bands. Bands absent
    from ``rates`` drop (rate 0). Streaming map, zero shuffle."""
    import hashlib

    import numpy as np
    import pyarrow as pa

    def keep(b: pa.Table) -> pa.Table:
        buckets = b[bucket_col].to_numpy(zero_copy_only=False)
        thresholds = np.array(
            [rates.get(int(x), 0.0) for x in buckets], dtype=np.float64
        )
        keys = b[key_col].to_pylist()
        u = np.fromiter(
            (
                int(hashlib.md5(f"{salt}:{k}".encode()).hexdigest()[:16], 16) / 2**64
                for k in keys
            ),
            dtype=np.float64,
            count=len(keys),
        )
        return b.filter(pa.array(u < thresholds))

    return ds.map_batches(keep, batch_format="pyarrow")


def grouped_sample_k(ds, group_keys: list[str], id_col: str, k: int, salt: str = "gsample"):
    """Exactly-k-per-group deterministic uniform sample (groups with
    fewer than k rows keep all): rank every row by the md5-uniform of
    its id and keep each group's k smallest ranks via the block-local
    ``grouped_topk`` combiner — no RNG, no global sort, identical
    output under any partitioning, and SQL-reproducible
    (ROW_NUMBER() OVER (PARTITION BY g ORDER BY md5) <= k). The
    balanced-corpus move ``per-group quota cap`` (first-k) cannot
    give: first-k keeps ingest-order bias, md5-rank-k is uniform."""
    import hashlib

    import numpy as np
    import pyarrow as pa

    def add_rank(b: pa.Table) -> pa.Table:
        hs = np.fromiter(
            (
                int(hashlib.md5(f"{salt}:{v}".encode()).hexdigest()[:15], 16)
                for v in b[id_col].to_pylist()
            ),
            dtype=np.int64,
            count=len(b),
        )
        return b.append_column("_rank", pa.array(hs))

    ranked = ds.map_batches(add_rank, batch_format="pyarrow")
    out = grouped_topk(ranked, group_keys, ["_rank", id_col], k, [False, False])
    return out.drop_columns(["_rank"])


def reconcile_keys(left_ds, right_ds, left_key: str, right_key: str):
    """Full-outer key reconciliation between two tables — the data-
    quality report a migration/dedup job closes with: for each
    category ``both`` / ``left_only`` / ``right_only``, how many
    distinct keys and how many underlying rows each side holds.

    Shuffle-minimizing shape (no row-level full outer join): each
    side collapses to (key, row-count) in its own combiner aggregate,
    the two aggregates union (same tiny schema, sides zero-filled),
    ONE more combiner merge per key assigns the category, and a final
    |categories|-row aggregate closes. Raw rows never shuffle — only
    per-key partials do.

    Returns a Dataset (category, n_keys, left_rows, right_rows).
    """
    import numpy as np
    import pyarrow as pa

    from .agg import grouped_agg

    def tagged(ds, key, out_col):
        agg = grouped_agg(
            ds.select_columns([key]), [key], {out_col: (None, "count")}
        )

        def widen(b: pa.Table) -> pa.Table:
            zero = pa.array(np.zeros(len(b), dtype=np.int64))
            ln = b[out_col] if out_col == "ln" else zero
            rn = b[out_col] if out_col == "rn" else zero
            return pa.table({"k": b[key], "ln": ln, "rn": rn})

        return agg.map_batches(widen, batch_format="pyarrow")

    both = tagged(left_ds, left_key, "ln").union(
        tagged(right_ds, right_key, "rn")
    )
    per_key = grouped_agg(
        both, ["k"], {"ln": ("ln", "sum"), "rn": ("rn", "sum")}
    )

    def categorize(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        has_l = pc.greater(b["ln"], 0)
        has_r = pc.greater(b["rn"], 0)
        cat = pc.if_else(
            pc.and_(has_l, has_r),
            "both",
            pc.if_else(has_l, "left_only", "right_only"),
        )
        return pa.table({"category": cat, "ln": b["ln"], "rn": b["rn"]})

    return grouped_agg(
        per_key.map_batches(categorize, batch_format="pyarrow"),
        ["category"],
        {
            "n_keys": (None, "count"),
            "left_rows": ("ln", "sum"),
            "right_rows": ("rn", "sum"),
        },
    )


def topk_with_ties(ds, group_keys: list[str], value_col: str, k: int):
    """SQL ``RANK() <= k`` per group — top-k BY VALUE including every
    row tied with the k-th (competition-rank semantics), without a
    per-row window: the rank-<=k set is exactly {rows with value >=
    v*} where v* is the k-th highest value counting ties as one rank
    each per row — equivalently the min of the top-k ROWS by value
    under any tie order. So:

    1. ``grouped_topk`` (block-local combiner) finds each group's
       top-k rows by value alone; the per-group thresholds v*
       broadcast driver-side (group-cardinality bounded);
    2. one filtered pass keeps value >= v*; a combiner collapses to
       (group, value, n_rows) — tie multiplicity preserved, row
       orderless.

    Returns a Dataset (group_keys..., value_col, n_rows)."""
    from ocr_service_ray.ops.agg import grouped_agg

    top = grouped_topk(
        ds.select_columns(group_keys + [value_col]),
        group_keys,
        [value_col],
        k,
        [True],
    ).to_pandas()
    thresh = (
        top.groupby(group_keys)[value_col].min().to_dict()
        if len(group_keys) > 1
        else top.groupby(group_keys[0])[value_col].min().to_dict()
    )

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        key = (
            b[group_keys[0]]
            if len(group_keys) == 1
            else list(zip(*[b[c] for c in group_keys]))
        )
        t = pd.Series(key).map(thresh).to_numpy()
        return b[b[value_col].to_numpy() >= t]

    kept = ds.select_columns(group_keys + [value_col]).map_batches(
        keep, batch_format="pandas"
    )
    return grouped_agg(
        kept, group_keys + [value_col], {"n_rows": (None, "count")}
    )


def union_by_name(datasets: list):
    """UNION ALL BY NAME over Datasets with EVOLVED schemas (the
    lakehouse read problem: old files lack columns added later).
    The union schema is the name-keyed union of the inputs' Arrow
    schemas (same-name fields must carry the same type — schema
    WIDENING, not coercion); each input is padded with typed null
    columns and reordered, then the Datasets are unioned — a pure
    metadata + per-block append_column pass, no shuffle, streaming
    preserved. Column order follows first appearance across inputs.
    """
    from functools import reduce

    import pyarrow as pa

    fields: dict[str, "pa.DataType"] = {}
    for d in datasets:
        for f in d.schema().base_schema:
            if f.name in fields:
                if fields[f.name] != f.type:
                    raise ValueError(
                        f"type conflict for column {f.name!r}: "
                        f"{fields[f.name]} vs {f.type}"
                    )
            else:
                fields[f.name] = f.type

    names = list(fields)

    def pad(b: pa.Table) -> pa.Table:
        cols = []
        for n in names:
            if n in b.column_names:
                cols.append(b[n])
            else:
                cols.append(pa.nulls(b.num_rows, fields[n]))
        return pa.table(dict(zip(names, cols)))

    padded = [
        d.map_batches(pad, batch_format="pyarrow") for d in datasets
    ]
    return reduce(lambda a, b: a.union(b), padded)
