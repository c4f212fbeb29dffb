"""Shared machinery of the benchmark: Ray set-up and teardown in the
one-core shape, timed drains, driver RSS and spill, the capture of the
datasets a pass executes with Ray's per-operator stats of them, and
small helpers.

The benchmark writes under ``<checkout>/.perfbench_work``: its inputs,
outputs and Ray's session directory with the spill files (unless the
checkout path is too long for Ray's socket paths, where Ray's default
applies).
"""

from __future__ import annotations

import functools
import hashlib
import os
import shutil
import statistics
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
# Unix socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp_dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store.
_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_0000000/sockets/plasma_store")


# The workloads are one-core jobs: one fused extraction actor, and Ray
# gets that actor's CPU plus one slot for the read/derive/write tasks (a
# pool that reserves every slot starves the read and the plan stalls).
# The shape does not grow with the machine, so figures from hosts with
# different core counts compare.
POOL_SIZE = 1
LOGICAL_CPUS = POOL_SIZE + 1


@dataclass
class Pass:
    """One timed job: its wall time, its steady throughput, and its
    output (drained bundles or an output directory) for the gate. The
    runner adds the driver's peak RSS during the job."""

    wall_s: float
    steady_docs_per_s: float
    output: object
    rss_peak_mb: float = 0.0


def ray_temp_dir() -> str | None:
    """Ray's session root inside the checkout, or None (Ray's default)
    when the checkout path is too long for Ray's socket paths."""
    path = os.path.join(WORK_ROOT, "ray")
    if len(path) + _SOCKET_SUFFIX > 107:
        return None
    return path


def ray_start(runtime_env: dict | None = None):
    """Start a local Ray in the one-core shape with a bounded object
    store; return the ``ray`` module."""
    import ray

    kw = {}
    temp = ray_temp_dir()
    if temp is not None:
        os.makedirs(temp, exist_ok=True)
        kw["_temp_dir"] = temp
    if runtime_env is not None:
        kw["runtime_env"] = runtime_env
    ray.init(
        address="local",
        num_cpus=LOGICAL_CPUS,
        object_store_memory=768 << 20,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        **kw,
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    # Row order is not part of any workload's contract; the output
    # gates compare order-independent digests.
    ctx.execution_options.preserve_order = False
    return ray


# The DataContext of scripts/run_extraction_job.py and bench.py:
# sub-MiB blocks, a 16-deep generator buffer so extraction tasks do not
# stall on the driver's drain loop, and 8 tasks queued per actor. The
# curation job keeps Ray's defaults.
EXTRACTION_JOB_CONTEXT = {
    "target_max_block_size": 512 * 1024,
    "_max_num_blocks_in_streaming_gen_buffer": 16,
    "max_tasks_in_flight_per_actor": 8,
}


def apply_data_context(settings: dict) -> None:
    """Set a job's DataContext fields in the driver; datasets created
    afterwards carry them to the workers, across Ray restarts too."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    for name, value in settings.items():
        setattr(ctx, name, value)


def _session_pids(session_dir: str) -> list[int]:
    """Live processes whose command line names this Ray session."""
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == os.getpid():
            continue
        try:
            with open(f"/proc/{name}/cmdline", "rb") as f:
                cmd = f.read()
        except OSError:
            continue
        if session_dir.encode() in cmd:
            pids.append(int(name))
    return pids


def ray_stop(timeout_s: float = 5.0) -> None:
    """Shut Ray down and wait until every process of the session has
    exited (SIGKILL after ``timeout_s``), then delete the session
    directory."""
    import signal

    import ray

    session_dir = ray._private.worker._global_node.get_session_dir_path()
    ray.shutdown()
    deadline = time.monotonic() + timeout_s
    while True:
        pids = _session_pids(session_dir)
        if not pids:
            break
        if time.monotonic() > deadline:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + timeout_s
        time.sleep(0.05)
    if session_dir.startswith(WORK_ROOT):
        shutil.rmtree(session_dir, ignore_errors=True)


def reset_rss_peak() -> None:
    """Reset the kernel's peak-RSS mark of this process to its current
    RSS, so the next :func:`rss_peak_mb` covers only what follows."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def release_memory() -> None:
    """Hand the heap that Arrow and malloc keep after frees back to the
    system, so the next peak-RSS mark starts from live memory."""
    import ctypes

    import pyarrow as pa

    pa.default_memory_pool().release_unused()
    ctypes.CDLL("libc.so.6").malloc_trim(0)


def rss_peak_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def drain(ds):
    """Execute ``ds`` block by block without moving row data to the
    driver. Returns (bundles, rows, steady_rows_per_s): the
    bundles keep the output alive for the gate; steady throughput is
    taken over the 5-95% row window, which leaves out pool ramp-up and
    the tail."""
    pts: list[tuple[float, int]] = []
    bundles = []
    n = 0
    t0 = time.perf_counter()
    for bundle in ds.iter_internal_ref_bundles():
        bundles.append(bundle)
        n += bundle.num_rows()
        pts.append((time.perf_counter(), n))
    wall = time.perf_counter() - t0
    lo, hi = 0.05 * n, 0.95 * n
    t_lo = next(t for t, c in pts if c >= lo)
    t_hi = next(t for t, c in pts if c >= hi)
    steady = (hi - lo) / (t_hi - t_lo) if t_hi > t_lo else n / wall
    return bundles, n, steady


def stats_summary(ds):
    """Ray's stats summary of an executed dataset. A written dataset
    executes a copy of itself, which holds the stats."""
    return (getattr(ds, "_write_ds", None) or ds)._get_stats_summary()


def _levels(summaries):
    """Every executed stats level of the given stats summaries, parents
    included, each once (a level is identified by its operators' names
    and first and last task times)."""
    seen = set()

    def walk(s):
        for p in s.parents:
            yield from walk(p)
        yield s

    for summary in summaries:
        for s in walk(summary):
            key = tuple((op.operator_name, op.earliest_start_time, op.latest_end_time) for op in s.operators_stats)
            if key and key not in seen:
                seen.add(key)
                yield s


def operator_stats(summaries):
    """Every executed operator of the given stats summaries, each once."""
    for s in _levels(summaries):
        for op in s.operators_stats:
            if op.wall_time is not None:
                yield op


def spilled_mb(summaries) -> float:
    """MiB of blocks that operators found spilled to disk when they
    consumed them: Ray Data's ``obj_store_mem_spilled`` counter, which
    it keeps only while ``enable_get_object_locations_for_metrics`` is
    set."""
    total = sum(s.extra_metrics.get("obj_store_mem_spilled", 0) for s in _levels(summaries))
    return total / (1 << 20)


class DatasetCapture:
    """Records every Dataset a pass executes, so that Ray's stats of
    them can be read: materialised (the stats are on the returned
    dataset), iterated (``count`` and ``to_pandas`` iterate too),
    drained by block refs, or written. The patches on ``Dataset`` are
    installed by the first :meth:`begin` and stay for the life of the
    process."""

    _METHODS = ("materialize", "iter_batches", "iter_internal_ref_bundles", "write_datasink")

    def __init__(self):
        self.datasets: list = []
        self.installed = False

    def begin(self) -> None:
        """Start a new pass: forget the datasets of the previous one."""
        self.datasets = []
        if self.installed:
            return
        from ray.data import Dataset

        for name in self._METHODS:
            orig = getattr(Dataset, name)

            def wrapper(ds, *a, _orig=orig, **kw):
                out = _orig(ds, *a, **kw)
                self.datasets.append(out if isinstance(out, Dataset) else ds)
                return out

            setattr(Dataset, name, functools.wraps(orig)(wrapper))
        self.installed = True

    def summaries(self) -> list:
        return [stats_summary(ds) for ds in self.datasets]

    def end(self) -> list:
        """The pass's stats summaries. Its datasets are dropped: they
        keep its blocks and actors alive."""
        out = self.summaries()
        self.datasets = []
        return out


# the datasets of the current pass; the runner begins every pass
CAPTURE = DatasetCapture()


def bundles_table(bundles):
    """Concatenate the blocks of drained bundles into one Arrow table."""
    import pyarrow as pa
    import ray

    tables = [ray.get(ref) for b in bundles for ref, _ in b.blocks]
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return None
    return pa.concat_tables(tables, promote_options="default")


def span_digest(doc_id: str, spans: list[dict]) -> str:
    """Per-row digest of ``stages/checkpoint.span_content_hash``: the
    doc id and its span sequence."""
    h = hashlib.sha256()
    h.update(doc_id.encode())
    for s in spans:
        h.update(f"{s['kind']}\x00{s['text']}\x00{s['media_ref']}\x00{s['offset']}\x1e".encode())
    return h.hexdigest()


def median(values) -> float:
    return statistics.median(values)
