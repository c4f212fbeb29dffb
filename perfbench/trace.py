"""Per-layer tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own code, around the calls into
each layer; nothing in the library changes.

- Worker layers (kernels, the extract stage's Arrow<->rows conversion,
  media resolution, the OCR engine) run inside Ray actors. The traced
  Ray session installs :func:`install_worker` as every worker's
  process set-up hook; it wraps the layer functions in the modules that
  call them, keeps running totals in memory and, after each extract
  batch, writes the worker's totals to one JSON file per process.
- Driver layers (the checkpoint commit path, the sink, the curation
  operators) are wrapped by :class:`Tracer`. Each curation operator's
  result, and each checkpointed shard's extraction, is materialised
  where it returns, so every phase's time is its own; this costs the
  pipelining between phases, and shows in ``trace.overhead_frac``.
- Per Ray Data operator, :func:`ray_op_metrics` folds Ray's own stats
  of the datasets a pass executed (``common.CAPTURE``) by operator
  kind. Only remote wall and CPU time are read: Ray's "UDF time" total
  is not a per-pass time.

A layer's self time is its wall time minus the time of traced layers it
called.
"""

from __future__ import annotations

import functools
import json
import os
import time

from perfbench import common

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
WORKER_HOOK = "perfbench.trace.install_worker"

# Ray Data operator kinds, matched on the operator name in this order.
OP_KINDS = (
    ("extract", ("FusedExtractStage", "OcrStage", "KernelStage")),
    ("sink", ("Write",)),
    ("read", ("Read", "FromArrow", "FromPandas", "FromItems")),
    ("shuffle", ("Repartition", "Shuffle", "Sort", "Aggregate", "Join", "Union", "Zip")),
)
OP_FIELDS = ("wall_s", "cpu_s", "rows_out", "bytes_out", "straggler", "peak_heap_mb")

_KERNELS = {
    "assemble_document": "kernels.assemble_s",
    "correct_text": "kernels.correct_s",
    "validate_critical_fields": "kernels.validate_s",
    "extract_important_data": "kernels.important_s",
    "check_image_quality": "kernels.quality_s",
    "check_quality": "kernels.quality_s",
}

WORKER_METRICS = (
    "kernels.correct_s",
    "kernels.validate_s",
    "kernels.important_s",
    "kernels.assemble_s",
    "kernels.quality_s",
    "kernels.corrections",
    "stages.extract.convert_s",
    "engines.recognize_s",
    "engines.calls",
    "stages.ocr.resolve_s",
    "stages.ocr.media_refs",
    "stages.ocr.scan_bytes",
)
DRIVER_METRICS = (
    "stages.checkpoint.write_s",
    "stages.checkpoint.commit_s",
    "stages.checkpoint.hash_s",
    "sources.sinks.files",
    "sources.sinks.bytes",
    "ops.quality_rules.wall_s",
    "ops.dedup.exact_wall_s",
    "ops.dedup.lsh_wall_s",
    "ops.dedup.lsh_candidates",
    "ops.dedup.lsh_precision",
    "ops.graph.wall_s",
    "ops.decontam.wall_s",
    "ops.mix.wall_s",
    "ops.relational.join_wall_s",
)

_COUNTS = {
    "kernels.corrections",
    "engines.calls",
    "stages.ocr.media_refs",
    "sources.sinks.files",
    "ops.dedup.lsh_candidates",
}


def unit(name: str) -> str:
    if name in _COUNTS or name.endswith("rows_out"):
        return "count"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("bytes") or name.endswith("bytes_out"):
        return "B"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    ops = [f"ray.op.{k}.{f}" for k in ("read", "map", "extract", "shuffle", "sink") for f in OP_FIELDS]
    return [*WORKER_METRICS, *DRIVER_METRICS, *ops, "ray.spill_mb", "trace.overhead_frac"]


# ---------------------------------------------------------------- workers


def _timed(totals: dict, key: str, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        totals[key] = totals.get(key, 0.0) + time.perf_counter() - t0
        if count is not None:
            ck, n = count(args, out)
            totals[ck] = totals.get(ck, 0) + n
        return out

    return wrapper


def _resolved_bytes(media: dict) -> int:
    """Bytes of the media rows a resolver returned (payload, key and
    the three float metrics)."""
    return sum(len(r["payload"]) + len(r["media_ref"]) + 24 for r in media.values())


def install_worker() -> None:
    """Ray worker set-up hook: wrap the worker-side layers and flush the
    totals after every extract batch."""
    import ocr_service_ray.engines as engines
    import ocr_service_ray.stages.extract as extract
    import ocr_service_ray.stages.ocr as ocr

    totals: dict = {}
    path = os.path.join(os.environ[TRACE_DIR_ENV], f"{os.getpid()}.json")

    for name, key in _KERNELS.items():
        count = (lambda a, out: ("kernels.corrections", len(out[1]))) if name == "correct_text" else None
        setattr(extract, name, _timed(totals, key, getattr(extract, name), count))

    refs_count = lambda a, out: ("stages.ocr.media_refs", len(a[1]))  # noqa: E731
    for cls in (ocr.BroadcastMediaResolver, ocr.GenerativeMediaResolver):
        cls.resolve = _timed(totals, "stages.ocr.resolve_s", cls.resolve, refs_count)

    def scan_count(args, out):
        totals["stages.ocr.media_refs"] = totals.get("stages.ocr.media_refs", 0) + len(args[1])
        return "stages.ocr.scan_bytes", _resolved_bytes(out)

    ocr.ScanMediaResolver.resolve = _timed(
        totals, "stages.ocr.resolve_s", ocr.ScanMediaResolver.resolve, scan_count
    )
    calls = lambda a, out: ("engines.calls", 1)  # noqa: E731
    for meth in ("recognize", "recognize_area"):
        setattr(
            engines.SyntheticOCR,
            meth,
            _timed(totals, "engines.recognize_s", getattr(engines.SyntheticOCR, meth), calls),
        )

    call = _timed(totals, "stages.extract.call_s", extract.KernelStage.__call__)

    def kernel_call(self, batch):
        out = call(self, batch)
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(totals, f)
        os.replace(tmp, path)
        return out

    extract.KernelStage.__call__ = kernel_call


def read_worker_totals(trace_dir: str) -> dict:
    totals: dict = {}
    for name in os.listdir(trace_dir):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(trace_dir, name)) as f:
            for k, v in json.load(f).items():
                totals[k] = totals.get(k, 0) + v
    return totals


# ---------------------------------------------------------------- driver


class Tracer:
    """Driver-side spans around the checkpoint/sink path and the
    curation operators, plus the worker totals of the traced session.
    Patches are undone on exit."""

    def __init__(self, workload, trace_dir: str):
        self.w = workload
        self.trace_dir = trace_dir
        self.totals: dict = {}
        self.stack: list[float] = []  # child time per open span
        self.patches: list = []
        self.base: dict = {}

    def _patch(self, obj, name: str, new) -> None:
        self.patches.append((obj, name, getattr(obj, name)))
        setattr(obj, name, new)

    def _add(self, key: str, v) -> None:
        self.totals[key] = self.totals.get(key, 0) + v

    def _span(self, key: str, fn, after=None):
        """Wrap ``fn`` as a span whose self time adds to ``key``. A
        Dataset result is materialised inside the span. ``after(args,
        result)`` runs once the span is closed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if hasattr(out, "materialize"):
                    out = out.materialize()
            finally:
                wall = time.perf_counter() - t0
                children = self.stack.pop()
                if self.stack:
                    self.stack[-1] += wall
            self._add(key, wall - children)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def __enter__(self):
        import ocr_service_ray.ops.decontam as decontam
        import ocr_service_ray.ops.dedup as dedup
        import ocr_service_ray.ops.graph as graph
        import ocr_service_ray.ops.mix as mix
        import ocr_service_ray.ops.quality_rules as quality_rules
        import ocr_service_ray.ops.relational as relational
        import ocr_service_ray.sources.sinks as sinks
        import ocr_service_ray.stages.checkpoint as checkpoint

        def sink_files(args, out):
            path = args[1]
            for name in os.listdir(path):
                if name.endswith(".parquet"):
                    self._add("sources.sinks.files", 1)
                    self._add("sources.sinks.bytes", os.path.getsize(os.path.join(path, name)))

        self._patch(sinks, "write_parquet_sized", self._span("stages.checkpoint.write_s", sinks.write_parquet_sized, sink_files))
        self._patch(checkpoint, "span_content_hash", self._span("stages.checkpoint.hash_s", checkpoint.span_content_hash))
        commit = self._span("stages.checkpoint.commit_s", checkpoint._run_one_shard)

        def run_one_shard(i, shard, build_pipeline, *rest):
            # the shard's extraction is materialised in a span of its
            # own before the sink, so write time is the sink alone
            return commit(i, shard, self._span("stages.checkpoint.build_s", build_pipeline), *rest)

        self._patch(checkpoint, "_run_one_shard", run_one_shard)

        self._patch(quality_rules, "repetition_stats", self._span("ops.quality_rules.wall_s", quality_rules.repetition_stats))
        self._patch(dedup, "exact_dedup", self._span("ops.dedup.exact_wall_s", dedup.exact_dedup))
        self._patch(dedup, "minhash_lsh_candidates", self._span("ops.dedup.lsh_wall_s", dedup.minhash_lsh_candidates, self._lsh_pairs))
        self._patch(graph, "keep_canonical", self._span("ops.graph.wall_s", graph.keep_canonical))
        self._patch(decontam, "decontaminate", self._span("ops.decontam.wall_s", decontam.decontaminate))
        self._patch(mix, "interleave_by_weight", self._span("ops.mix.wall_s", mix.interleave_by_weight))
        self._patch(relational, "hash_join", self._span("ops.relational.join_wall_s", relational.hash_join))
        return self

    def __exit__(self, *exc):
        for obj, name, orig in reversed(self.patches):
            setattr(obj, name, orig)
        self.patches.clear()
        return False

    def _lsh_pairs(self, args, pairs) -> None:
        """Candidate pairs, and the share of them that are planted near
        duplicates (the workload knows which pairs it planted)."""
        df = pairs.to_pandas()
        self._add("ops.dedup.lsh_candidates", len(df))
        planted = getattr(getattr(self.w, "corpus", None), "near_pairs", set())
        hits = sum((int(a), int(b)) in planted for a, b in zip(df["id_a"], df["id_b"]))
        self._add("ops.dedup.lsh_hits", hits)

    def reset(self) -> None:
        self.totals.clear()
        self.base = read_worker_totals(self.trace_dir)

    def metrics(self, n_passes: int) -> dict:
        """Per-pass means of every worker and driver metric."""
        worker = read_worker_totals(self.trace_dir)
        t = {k: worker.get(k, 0) - self.base.get(k, 0) for k in worker}
        t.update(self.totals)
        kernels = sum(t.get(k, 0.0) for k in set(_KERNELS.values()))
        t["stages.extract.convert_s"] = t.get("stages.extract.call_s", 0.0) - kernels
        cands = t.get("ops.dedup.lsh_candidates", 0)
        out = {k: t.get(k, 0) / n_passes for k in (*WORKER_METRICS, *DRIVER_METRICS)}
        out["ops.dedup.lsh_precision"] = t.get("ops.dedup.lsh_hits", 0) / cands if cands else 0.0
        return out


def op_kind(name: str) -> str:
    for kind, keys in OP_KINDS:
        if any(k in name for k in keys):
            return kind
    return "map"


def ray_op_metrics(summaries: list) -> dict:
    """Fold Ray's per-operator stats of the given dataset summaries
    (parents included, each operator once) into ``ray.op.<kind>.*``."""
    acc = {
        f"ray.op.{k}.{f}": 0.0
        for k in ("read", "map", "extract", "shuffle", "sink")
        for f in OP_FIELDS
    }
    for op in common.operator_stats(summaries):
        pre = f"ray.op.{op_kind(op.operator_name)}."
        acc[pre + "wall_s"] += op.wall_time["sum"]
        acc[pre + "cpu_s"] += op.cpu_time["sum"]
        acc[pre + "rows_out"] += op.output_num_rows["sum"]
        acc[pre + "bytes_out"] += op.output_size_bytes["sum"]
        if op.wall_time["mean"] > 0:
            acc[pre + "straggler"] = max(acc[pre + "straggler"], op.wall_time["max"] / op.wall_time["mean"])
        acc[pre + "peak_heap_mb"] = max(acc[pre + "peak_heap_mb"], op.memory["max"])
    return acc
