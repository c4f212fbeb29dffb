"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One driver runs one job at a time (a closed loop with one client). All
inputs are generated from ``--seed`` and every reference is computed
before timing starts. The run then:

1. starts Ray four times (``setup_s`` is the median of Ray start plus
   library import over the last three) and keeps the last session;
2. runs one untimed warm-up pass on a tenth of the input, then timed
   passes until ``--seconds`` have elapsed (at least three), checking
   every pass's output against the workload's reference;
3. prints one JSON line: ``correct``, ``attempted`` and ``failed`` (docs)
   and the metrics. ``--trace 0`` reports the end-to-end metrics as
   medians over the timed passes; ``--trace 1`` instead runs untimed
   passes, then traced passes in a Ray session whose workers wrap each
   layer (see ``trace.py``), and reports the per-layer metrics and the
   tracing overhead.

Exits non-zero, printing no result, if the library cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import shutil
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import common  # noqa: E402

WORKLOADS = ("extract_derived", "extract_skew_sink", "curate_dedup")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "docs_per_s": "docs/s",
    "steady_docs_per_s": "docs/s",
    "driver_rss_peak_mb": "MiB",
}
SETUPS = 4
MIN_PASSES = 3


def make_workload(name: str, seed: int, work_dir: str, warm_up: bool = False):
    """The workload at its benchmark size, or at a tenth of it for the
    warm-up pass, which loads the same code into the same processes."""
    from perfbench.curate import N_BLOCKS, CurateDedup
    from perfbench.derived import N_DOCS as DERIVED_DOCS
    from perfbench.derived import ExtractDerived
    from perfbench.skew import N_DOCS as SKEW_DOCS
    from perfbench.skew import ExtractSkewSink

    work_dir = os.path.join(work_dir, "warm-up" if warm_up else "timed")
    os.makedirs(work_dir)
    scale = 0.1 if warm_up else 1.0
    if name == "extract_derived":
        return ExtractDerived(seed, work_dir, round(DERIVED_DOCS * scale))
    if name == "extract_skew_sink":
        return ExtractSkewSink(seed, work_dir, round(SKEW_DOCS * scale))
    return CurateDedup(seed, work_dir, round(N_BLOCKS * scale))


def import_library() -> None:
    """The modules a job needs before it can build its plan."""
    import ray.data  # noqa: F401

    import ocr_service_ray.pipelines.curate  # noqa: F401
    import ocr_service_ray.pipelines.derive  # noqa: F401
    import ocr_service_ray.pipelines.flagship  # noqa: F401
    import ocr_service_ray.stages.checkpoint  # noqa: F401


def setup() -> float:
    """Start Ray ``SETUPS`` times, keep the last session; return the
    median set-up time of all starts but the first, which also pays
    for cold caches. The library is imported once per process, so its
    import time is measured once and added to each Ray start."""
    t0 = time.perf_counter()
    import_library()
    import_s = time.perf_counter() - t0
    times = []
    for i in range(SETUPS):
        if i:
            common.ray_stop()
        t0 = time.perf_counter()
        common.ray_start()
        times.append(time.perf_counter() - t0 + import_s)
    return common.median(times[1:])


class Runner:
    """Runs passes of one workload and accounts for every doc."""

    def __init__(self, name: str, seed: int, work_dir: str):
        self.warm = make_workload(name, seed, work_dir, warm_up=True)
        self.w = make_workload(name, seed, work_dir)
        common.apply_data_context(self.w.DATA_CONTEXT)
        self.attempted = 0
        self.failed = 0
        # Ray's stats of the datasets the last pass executed
        self.summaries: list = []

    def one(self, w=None):
        """One pass. Only the job runs under the driver's peak-RSS mark;
        the gate runs after it, and the output is dropped once checked."""
        w = w or self.w
        common.CAPTURE.begin()
        common.reset_rss_peak()
        p = w.run()
        p.rss_peak_mb = common.rss_peak_mb()
        self.summaries = common.CAPTURE.end()
        self.attempted += w.n_docs
        self.failed += w.check(p)
        p.output = None
        # A finished job's actors stay alive, holding their CPUs, until
        # the driver's reference cycles to them are collected; the next
        # pass would otherwise wait for Ray's own periodic GC request.
        gc.collect()
        common.release_memory()
        return p

    def warm_up(self) -> None:
        """One untimed pass at a tenth of the size: worker processes,
        imports and Ray Data's own actors are up before timing."""
        self.one(self.warm)

    def timed(self, seconds: float, min_passes: int = MIN_PASSES) -> list:
        passes = []
        t0 = time.perf_counter()
        while len(passes) < min_passes or time.perf_counter() - t0 < seconds:
            passes.append(self.one())
        return passes


def end_to_end(runner: Runner, seconds: float, setup_s: float) -> dict:
    runner.warm_up()
    passes = runner.timed(seconds)
    wall = common.median([p.wall_s for p in passes])
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "docs_per_s": runner.w.n_docs / wall,
        "steady_docs_per_s": common.median([p.steady_docs_per_s for p in passes]),
        "driver_rss_peak_mb": common.median([p.rss_peak_mb for p in passes]),
    }
    return {k: (values[k], u) for k, u in END_TO_END.items()}


def per_layer(runner: Runner, seconds: float, work_dir: str) -> dict:
    """Untraced passes (Ray's operator stats and spill of the last one),
    then traced passes in a fresh session whose workers wrap each
    layer. Each half gets half of ``seconds`` and at least two passes."""
    from perfbench import trace

    # operators then record the bytes of their inputs found spilled
    common.apply_data_context({"enable_get_object_locations_for_metrics": True})
    runner.warm_up()
    untraced = runner.timed(seconds / 2, 2)
    metrics = trace.ray_op_metrics(runner.summaries)
    metrics["ray.spill_mb"] = common.spilled_mb(runner.summaries)
    common.ray_stop()

    trace_dir = os.path.join(work_dir, "trace")
    os.makedirs(trace_dir)
    # the hook runs before a worker adds the driver's sys.path
    env = {trace.TRACE_DIR_ENV: trace_dir, "PYTHONPATH": ROOT}
    common.ray_start({"worker_process_setup_hook": trace.WORKER_HOOK, "env_vars": env})
    with trace.Tracer(runner.w, trace_dir) as tracer:
        runner.warm_up()
        tracer.reset()
        traced = runner.timed(seconds / 2, 2)
        metrics.update(tracer.metrics(len(traced)))
    wall = [common.median([p.wall_s for p in ps]) for ps in (untraced, traced)]
    metrics["trace.overhead_frac"] = wall[1] / wall[0] - 1.0
    return {k: (metrics[k], trace.unit(k)) for k in trace.metric_names()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if importlib.util.find_spec("ocr_service_ray") is None:
        print(f"ocr_service_ray is not importable from {ROOT}", file=sys.stderr)
        return 2
    # SIGTERM unwinds through the ``finally`` below, which stops Ray
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)  # Ray workers import the library from the working directory
    work_dir = os.path.join(common.WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        if args.trace:
            import_library()
            common.ray_start()
        else:
            setup_s = setup()
        runner = Runner(args.workload, args.seed, work_dir)
        if args.trace:
            metrics = per_layer(runner, args.seconds, work_dir)
        else:
            metrics = end_to_end(runner, args.seconds, setup_s)
    finally:
        import ray

        if ray.is_initialized():
            common.ray_stop()
        shutil.rmtree(work_dir, ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
