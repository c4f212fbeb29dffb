"""Self-tests of the benchmark: every workload's output gate passes on
two seeds at a tiny size and fails on a dropped row or an altered span
text; the Ray stats fields the benchmark reads exist; the metric names
match ``BENCHMARK.json``; and the benchmark exits non-zero without the
library.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from perfbench import common, run, trace
from perfbench.curate import CurateDedup
from perfbench.derived import ExtractDerived
from perfbench.skew import ExtractSkewSink, poison_count

SEEDS = (1, 2)


@pytest.fixture(scope="module")
def ray_session():
    common.ray_start()
    yield
    common.ray_stop()


def _alter_first_span(table: pa.Table, column: str = "spans") -> pa.Table:
    rows = table.to_pylist()
    rows[0][column][0]["text"] += " x"
    return pa.Table.from_pylist(rows, schema=table.schema)


@pytest.mark.parametrize("seed", SEEDS)
def test_derived_gate(ray_session, tmp_path, seed):
    w = ExtractDerived(seed, str(tmp_path), n_docs=200)
    table = common.bundles_table(w.run().output)
    assert w.check_table(table) == 0
    assert w.check_table(table.slice(1)) == 1
    assert w.check_table(_alter_first_span(table)) == 1


@pytest.mark.parametrize("seed", SEEDS)
def test_curate_gate(ray_session, tmp_path, seed):
    w = CurateDedup(seed, str(tmp_path), n_blocks=12)
    assert len(w.corpus.expected) == 12 * 15
    table = common.bundles_table(w.run().output)
    assert w.check_table(table) == 0
    assert w.check_table(table.slice(1)) == 1
    rows = table.to_pylist()
    rows[0]["text"] += " x"
    assert w.check_table(pa.Table.from_pylist(rows, schema=table.schema)) == 1


def _first_part_file(out_dir: str) -> str:
    part = os.path.join(out_dir, "part=00000")
    return os.path.join(part, next(n for n in sorted(os.listdir(part)) if n.endswith(".parquet")))


@pytest.mark.parametrize("seed", SEEDS)
def test_skew_sink_gate(ray_session, tmp_path, seed):
    w = ExtractSkewSink(seed, str(tmp_path), n_docs=100)
    p = w.run()
    assert w.check_dir(p.output) == 0
    path = _first_part_file(p.output)
    original = pq.read_table(path)
    i = next(i for i, r in enumerate(original.to_pylist()) if r["spans"])
    altered = pa.concat_tables([original.slice(0, i), _alter_first_span(original.slice(i, 1)), original.slice(i + 1)])
    pq.write_table(altered, path)
    assert w.check_dir(p.output) == 1
    pq.write_table(original.slice(1), path)
    assert w.check_dir(p.output) == 1


def test_skew_sink_poison_rows(ray_session, tmp_path):
    """Poison docs come back as error rows, and the gate counts an error
    row it did not plant as a failure."""
    w = ExtractSkewSink(3, str(tmp_path), n_docs=100)
    p = w.run()
    out = pq.read_table(p.output).to_pylist()
    assert {r["doc_id"] for r in out if r["error"]} == w.poison
    assert len(w.poison) == poison_count(3)

    path = _first_part_file(p.output)
    rows = pq.read_table(path).to_pylist()
    i = next(i for i, r in enumerate(rows) if not r["error"])
    rows[i]["error"] = "RuntimeError: planted"
    pq.write_table(pa.Table.from_pylist(rows, schema=pq.read_schema(path)), path)
    assert w.check_dir(p.output) == 1


def test_ray_stats_fields(ray_session, tmp_path):
    """The fields of Ray's stats summary the benchmark reads, after a
    block-ref drain and after a write, both recorded by the capture."""
    import ray.data as rd

    common.apply_data_context({"enable_get_object_locations_for_metrics": True})
    common.CAPTURE.begin()
    ds = rd.range(400, override_num_blocks=4).map_batches(lambda b: b, batch_format="pyarrow")
    _, rows, _ = common.drain(ds)
    assert rows == 400
    assert common.CAPTURE.datasets == [ds]
    ops = list(common.operator_stats(common.CAPTURE.summaries()))
    assert ops
    levels = list(common._levels(common.CAPTURE.summaries()))
    assert all("obj_store_mem_spilled" in s.extra_metrics for s in levels)
    assert common.spilled_mb(common.CAPTURE.summaries()) == 0.0
    for op in ops:
        for field in ("wall_time", "cpu_time", "output_num_rows", "output_size_bytes"):
            assert {"sum", "max", "mean"} <= set(getattr(op, field))
        assert "max" in op.memory
        assert op.time_total_s >= 0
        assert op.earliest_start_time <= op.latest_end_time
    assert sum(op.output_num_rows["sum"] for op in ops if "MapBatches" in op.operator_name) == 400

    common.CAPTURE.begin()
    out = rd.range(100).map_batches(lambda b: b, batch_format="pyarrow")
    out.write_parquet(str(tmp_path / "w"))
    names = [op.operator_name for op in common.operator_stats(common.CAPTURE.summaries())]
    assert any("Write" in n for n in names) and any("MapBatches" in n for n in names)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["per_layer"]] == trace.metric_names()
    for m in spec["per_layer"]:
        assert m["unit"] == trace.unit(m["name"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_exits_nonzero_without_library(tmp_path):
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(common.ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "extract_derived", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert p.returncode != 0
    assert p.stdout.strip() == ""
