"""Ray-private-surface canaries (VERDICT r3 directive #6).

Three repo components pin PRIVATE Ray surfaces that a Ray upgrade can
silently change:

- ``rayfix.py`` monkeypatches ``hash_shuffle._shuffle_block`` and
  ``HashShufflingOperatorBase._do_add_input_inner`` — by design it
  degrades to a NO-OP when the symbols change shape, which silently
  re-exposes the schema-broadcast race. These tests fail LOUDLY on
  that upgrade instead.
- ``ops/streaming.py``'s sequence-numbered actor tier assumes Ray
  actor task submission order is irrelevant because every actor
  reorders partitions by ``seq`` in a bounded buffer; the shuffled-
  dispatch test pins that reorder contract.
- ``stages/checkpoint.py``'s manifest ``blocks`` and the benchmark's
  per-operator metrics (``perfbench/common.py``) read Ray Data's stats
  summary: ``Dataset._write_ds`` after a write, and
  ``_get_stats_summary()``'s operator stats and parents. The manifest
  is written after a shard's data and before its commit rename, so a
  renamed stats method or field raises in every checkpointed shard and
  no shard commits; a renamed ``_write_ds`` is silently skipped by the
  ``getattr`` fallback and empties the block stats and the benchmark's
  steady rate. The stats-surface test fails on either before a job does.
"""

import inspect

import numpy as np
import pyarrow as pa
import pytest


def test_rayfix_patched_symbols_shape_canary(ray_session):
    """If this fails, a Ray upgrade changed the hash-shuffle internals
    rayfix pins: rayfix has silently unpatched (by design) and the
    2.49 schema-broadcast race may be re-exposed — re-verify
    test_sparse_left_join_with_leading_empty_block against the new Ray
    and update rayfix.py (module docstring has the full mechanism)."""
    from ocr_service_ray import rayfix

    assert rayfix.apply() is True, (
        "rayfix.apply() returned False: Ray's hash_shuffle internals "
        "changed shape and the schema-broadcast fix is NOT installed"
    )

    from ray.data._internal.execution.operators import hash_shuffle as hs

    # the remote-function wrapper and its python function must exist
    # with the exact parameter list the patch re-implements
    fn = hs._shuffle_block._function
    params = list(inspect.signature(fn).parameters)
    assert params == [
        "block",
        "input_index",
        "key_columns",
        "pool",
        "block_transformer",
        "send_empty_blocks",
        "override_partition_id",
    ], f"_shuffle_block signature changed: {params}"

    # helpers the wrapper leans on
    assert callable(hs._create_empty_table)
    assert callable(hs.TableBlockAccessor.try_convert_block_type)

    # driver-side half: _do_add_input_inner(self, input_bundle,
    # input_index) and the one-shot broadcast flag it resets
    add = hs.HashShufflingOperatorBase._do_add_input_inner
    add_params = list(inspect.signature(add).parameters)
    assert add_params == ["self", "input_bundle", "input_index"], (
        f"_do_add_input_inner signature changed: {add_params}"
    )
    assert "_has_schemas_broadcasted" in inspect.getsource(
        hs.HashShufflingOperatorBase.__init__
    ), "the one-shot schema-broadcast flag moved — rayfix's driver-side reset is dead"


def test_session_actor_ordering_under_shuffled_dispatch(ray_session):
    """SessionBucketActor must produce IDENTICAL sessions regardless
    of the order its partition slices arrive, as long as every slice
    carries its sequence number — the contract the streaming tier's
    correctness rests on (dispatch tasks complete out of order by
    scheduling)."""
    import ray

    from ocr_service_ray.ops.streaming import _session_actor_cls

    cls = _session_actor_cls()
    gap = 1_000_000  # 1 s session gap, µs

    # 6 partitions of ascending time; 3 users with session breaks
    parts = []
    t = 0
    for p in range(6):
        users, ts = [], []
        for i in range(4):
            u = (p + i) % 3
            t += 300_000 if i % 2 else 2_500_000  # alternate gap/no-gap
            users.append(u)
            ts.append(t)
        parts.append((users, ts))

    def run(order):
        actor = cls.remote(gap, pa.int64())
        refs = [
            actor.ingest.remote(seq, parts[seq][0], parts[seq][1])
            for seq in order
        ]
        ray.get(refs)
        tbl = ray.get(actor.drain.remote())
        ray.kill(actor)
        df = tbl.to_pandas().sort_values(
            ["user_id", "session_start"]
        ).reset_index(drop=True)
        return df

    import pandas as pd

    in_order = run([0, 1, 2, 3, 4, 5])
    shuffled = run([3, 0, 5, 2, 4, 1])
    assert len(in_order) > 3  # the corpus actually splits into sessions
    pd.testing.assert_frame_equal(in_order, shuffled)


def test_window_actor_ordering_under_shuffled_dispatch(ray_session):
    """Same reorder contract for the windowed-aggregate actor tier."""
    import ray

    from ocr_service_ray.ops.streaming import _window_actor_cls

    cls = _window_actor_cls()
    window = 5_000_000
    lateness = 0

    parts = []
    t = 0
    for p in range(5):
        keys, ts, vals = [], [], []
        for i in range(4):
            t += 1_700_000
            keys.append((p + i) % 2)
            ts.append(t)
            vals.append(p * 10 + i)
        parts.append((keys, ts, vals))

    def run(order):
        actor = cls.remote(window, lateness, pa.int64())
        ray.get(
            [
                actor.ingest.remote(seq, *parts[seq])
                for seq in order
            ]
        )
        tbl = ray.get(actor.drain.remote())
        ray.kill(actor)
        return (
            tbl.to_pandas()
            .sort_values(list(tbl.column_names))
            .reset_index(drop=True)
        )

    import pandas as pd

    in_order = run([0, 1, 2, 3, 4])
    shuffled = run([4, 1, 3, 0, 2])
    assert len(in_order) > 0
    pd.testing.assert_frame_equal(in_order, shuffled)


def test_dataset_stats_surface_canary(ray_session, tmp_path):
    """If this fails, a Ray upgrade moved the stats surface read by
    ``stages/checkpoint._block_stats`` and ``perfbench/common.py``:
    update both to the new names."""
    import ray.data as rd

    class Identity:  # an actor pool map, which Ray does not fuse into the write
        def __call__(self, batch):
            return batch

    tables = [pa.table({"x": np.arange(i * 16, (i + 1) * 16)}) for i in range(4)]
    ds = rd.from_arrow(tables).map_batches(Identity, batch_format="pyarrow", concurrency=1)
    ds.write_parquet(str(tmp_path / "out"))

    written = getattr(ds, "_write_ds", None)
    assert written is not None, "Dataset._write_ds is gone: a written dataset's stats moved"
    summary = written._get_stats_summary()
    assert isinstance(summary.parents, list), "stats summary lost .parents"
    ops = []
    todo = [summary]
    while todo:
        level = todo.pop()
        todo.extend(level.parents)
        ops.extend(level.operators_stats)
    executed = [op for op in ops if op.wall_time is not None]
    assert executed, f"no operator carries wall_time: {[op.operator_name for op in ops]}"
    names = [op.operator_name for op in executed]
    assert names.count("MapBatches(Identity)") == 1, names
    for op in executed:
        for field in ("wall_time", "output_num_rows"):
            stats = getattr(op, field)
            assert set(stats) >= {"min", "max", "mean", "sum"}, (op.operator_name, field, stats)
    (mapped,) = [op for op in executed if op.operator_name == "MapBatches(Identity)"]
    assert mapped.output_num_rows["sum"] == 64
    assert mapped.wall_time["max"] >= mapped.wall_time["mean"] > 0
