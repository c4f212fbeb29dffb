"""Workload ``extract_skew_sink``: the production extraction job shape.

A seeded ``sources/synth.generate_corpus`` with media-heavy skew (5% of
docs are heavy and carry 20-50 media spans, the rest 0-3) runs through
``stages/checkpoint.run_checkpointed(..., hash_content=True)`` into
``sources/sinks.write_parquet_sized``. The media table is written as
parquet sorted by ``media_ref`` and resolved per batch by
``ScanMediaResolver``, a pushed-down ``isin`` read, so read-side media
IO, the sink, the commit and the stragglers all run in the timed pass.
The Ray Data settings and the kernel batch size are those of
``scripts/run_extraction_job.py``; one shard runs at a time, and a
shard is seconds of work, not minutes (see the README's departures).

A seed-determined number of poison docs carry a dangling ``media_ref``;
each must come back as exactly one error row (continue-on-error).

Gate: every output row must equal a sequential ``oracle.process_document``
of the same doc, and every shard's manifest ``span_hash`` must equal
the same digest computed from the oracle rows.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

from perfbench import common

N_DOCS = 1200
HEAVY_FRACTION = 0.05
N_SHARDS = 2
KERNEL_BATCH = 128
MEDIA_ROW_GROUP = 1024


def poison_count(seed: int) -> int:
    return 2 + seed % 5


def make_corpus(seed: int, n_docs: int):
    """(documents, media, poison doc_ids). Exactly ``HEAVY_FRACTION`` of
    the docs are media-heavy, at seed-chosen rows, so every seed carries
    the same amount of skew; ``poison_count(seed)`` docs get one extra
    image span whose media row does not exist."""
    import random

    import pyarrow as pa

    from ocr_service_ray import schema
    from ocr_service_ray.sources.synth import generate_corpus

    n_heavy = round(n_docs * HEAVY_FRACTION)
    heavy, heavy_media = generate_corpus(n_heavy, seed=seed, skew_fraction=1.0)
    light, light_media = generate_corpus(n_docs - n_heavy, seed=seed, skew_fraction=0.0, id_offset=n_heavy)
    rows = heavy.to_pylist() + light.to_pylist()
    rng = random.Random(f"bench:{seed}")
    rng.shuffle(rows)
    poison = rng.sample(range(n_docs), poison_count(seed))
    for i in poison:
        spans = rows[i]["spans"]
        spans.append(
            {
                "kind": "image",
                "text": "",
                "media_ref": f"m-{rows[i]['doc_id']}-dangling",
                "offset": len(spans),
            }
        )
    docs = pa.Table.from_pylist(rows, schema=schema.DOC_SCHEMA)
    media = pa.concat_tables([heavy_media, light_media]).sort_by("media_ref")
    return docs, media, {rows[i]["doc_id"] for i in poison}


def shard_hash(digests: list[str]) -> str:
    outer = hashlib.sha256()
    for d in sorted(digests):
        outer.update(d.encode())
    return outer.hexdigest()


def oracle_rows(docs, media) -> dict[str, dict]:
    """Sequential reference: ``oracle.process_document`` per doc, an
    error row where a media_ref dangles."""
    from ocr_service_ray.kernels.correct import CorrectionsDB
    from ocr_service_ray.oracle import error_row, process_document
    from ocr_service_ray.sources.synth import corrections_entries
    from ocr_service_ray.stages.ocr import media_table_to_registry

    registry = media_table_to_registry(media)
    db = CorrectionsDB(corrections_entries())
    out = {}
    for doc in docs.to_pylist():
        try:
            out[doc["doc_id"]] = process_document(doc, registry, db)
        except KeyError as e:
            out[doc["doc_id"]] = error_row(doc["doc_id"], e)
    return out


def extract_rate(summaries) -> float:
    """Rows per second while the extraction operator ran: its output
    rows over the span from its first task's start to its last task's
    end (Ray's own stats), summed over the shards' datasets. This
    leaves out plan building, actor start-up and the commit."""
    rows = busy = 0.0
    for op in common.operator_stats(summaries):
        if "ExtractStage" in op.operator_name:
            rows += op.output_num_rows["sum"]
            busy += op.time_total_s
    return rows / busy if busy else 0.0


class ExtractSkewSink:
    """One pass is one checkpointed job: every shard extracted, written, committed and hashed."""

    # Ray Data settings of the job this workload stands for
    DATA_CONTEXT = common.EXTRACTION_JOB_CONTEXT

    def __init__(self, seed: int, work_dir: str, n_docs: int = N_DOCS):
        import pyarrow.parquet as pq

        from ocr_service_ray.stages.checkpoint import table_shards

        self.docs, media, self.poison = make_corpus(seed, n_docs)
        self.media_path = os.path.join(work_dir, "media.parquet")
        pq.write_table(media, self.media_path, row_group_size=MEDIA_ROW_GROUP)
        self.shards = table_shards(self.docs, N_SHARDS)
        self.expected = oracle_rows(self.docs, media)
        self.expected_hash = [
            shard_hash([common.span_digest(d, self.expected[d]["spans"]) for d in s["doc_id"].to_pylist()])
            for s in self.shards
        ]
        self.work_dir = work_dir
        self.n_docs = n_docs
        self.passes = 0

    def build(self, shard):
        from ocr_service_ray.pipelines.flagship import run_extraction

        return run_extraction(
            shard,
            self.media_path,
            kernel_batch_size=KERNEL_BATCH,
            kernel_concurrency=common.POOL_SIZE,
            fused=True,
        )

    def run(self) -> common.Pass:
        """One pass; its steady rate is read from the datasets the
        runner's ``common.CAPTURE`` recorded."""
        from ocr_service_ray.stages.checkpoint import run_checkpointed

        self.passes += 1
        out_dir = os.path.join(self.work_dir, f"out{self.passes}")
        t0 = time.perf_counter()
        run_checkpointed(
            self.shards,
            self.build,
            out_dir,
            resume=False,
            hash_content=True,
            # The job's default is 2 shards in flight, i.e. two fused
            # actors at once; the one-core shape has room for one.
            max_in_flight=1,
        )
        wall = time.perf_counter() - t0
        return common.Pass(wall, extract_rate(common.CAPTURE.summaries()), out_dir)

    def check(self, p: common.Pass) -> int:
        failed = self.check_dir(p.output)
        shutil.rmtree(p.output, ignore_errors=True)
        return failed

    def check_dir(self, out_dir: str) -> int:
        """Docs that are missing, duplicated, differ from the oracle, or
        whose error status is wrong; all docs of a shard whose manifest
        disagrees with the oracle's span hash or row count."""
        import pyarrow.dataset as pads

        from ocr_service_ray.stages.checkpoint import manifest_path

        failed: set[str] = set()
        seen: dict[str, int] = {}
        for i, shard in enumerate(self.shards):
            ids = shard["doc_id"].to_pylist()
            path = manifest_path(out_dir, i)
            with open(path, encoding="utf-8") as f:
                manifest = json.load(f)
            if manifest["span_hash"] != self.expected_hash[i] or manifest["rows"] != len(ids):
                failed.update(ids)
            part = pads.dataset(os.path.dirname(path), format="parquet")
            for row in part.to_table().to_pylist():
                doc_id = row["doc_id"]
                seen[doc_id] = seen.get(doc_id, 0) + 1
                exp = self.expected.get(doc_id)
                if exp is None or (row["error"] != "") != (doc_id in self.poison):
                    failed.add(doc_id)
                elif doc_id not in self.poison and row != exp:
                    failed.add(doc_id)
        failed.update(d for d in self.expected if seen.get(d, 0) != 1)
        return len(failed)
