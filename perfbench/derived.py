"""Workload ``extract_derived``: the flagship extraction over the
derived interleaved corpus, drained block by block with no sink.

Input: a seeded ``documents(doc_id, text)`` table. The seed chooses
which doc numbers appear (the derivation attaches pdf/image/area media
by ``doc_id % 3/7/11``) and the words of each text. Texts use a Latin
vocabulary, which the corrector, the field validators and the quality
score leave untouched, so the derived flagship output equals the
DuckDB ``flagship_extraction`` oracle. That oracle models only
``replicate=1``, so the seed varies doc numbers, not replicas.

The oracle covers counts, confidence and quality but no text, so the
gate also compares each doc's span sequence (kind, text, media_ref,
order) with the one its input defines: the doc's text, then each media
span's lines as ``sources/synth.generate_media_row`` writes them, area
spans first.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from perfbench import common

N_DOCS = 5000
NUM_BLOCKS = 24
KERNEL_BATCH = 128
# Words of the plain testdata documents: no Cyrillic, no digits, no
# corrections-DB key within fuzzy distance.
_WORDS = (
    "batch part spark line column order small sort fast value scan hash "
    "slow group agg filter query big key window row table stream merge "
    "data join vector customer the a index"
).split()


def make_documents(seed: int, n_docs: int):
    """Seeded ``documents`` table: ``n_docs`` distinct doc numbers below
    10^8 and a 10-80 word text per doc."""
    import pyarrow as pa

    rng = np.random.default_rng(seed)
    ids = np.unique(rng.integers(0, 10**8, size=2 * n_docs))
    ids = rng.permutation(ids)[:n_docs]
    ids.sort()
    vocab = np.array(_WORDS)
    lengths = rng.integers(10, 81, size=n_docs)
    words = vocab[rng.integers(0, len(vocab), size=int(lengths.sum()))]
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    texts = [" ".join(words[bounds[i] : bounds[i + 1]]) for i in range(n_docs)]
    return pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})


def expected_spans(doc_number: int, text: str) -> list[dict]:
    """Assembled spans of one derived doc, from its input alone."""
    from ocr_service_ray.sources.synth import generate_media_row

    did = f"tdoc-{doc_number:08d}"

    def media(kind: str, k: int) -> dict:
        ref = f"m-{did}-{k}"
        lines = json.loads(generate_media_row(ref)["payload"])["lines"]
        return {"kind": kind, "text": "\n".join(line[0] for line in lines), "media_ref": ref}

    areas = [media("area", 2)] if doc_number % 11 == 0 else []
    pages = [{"kind": "text", "text": text, "media_ref": ""}]
    if doc_number % 3 == 0:
        pages.append(media("pdf_page", 0))
    if doc_number % 7 == 0:
        pages.append(media("image", 1))
    return [{**s, "offset": i} for i, s in enumerate(areas + pages)]


def oracle_table(documents):
    """Expected projection per doc: the DuckDB flagship oracle's
    columns plus the span digest, keyed by doc_id string."""
    import duckdb

    import __ray_entry__

    sql = __ray_entry__.oracle_sql()["flagship_extraction"]
    con = duckdb.connect()
    con.register("documents", documents)
    rows = con.execute(sql).fetchall()
    con.close()
    digests = {}
    for n, text in zip(documents["doc_id"].to_pylist(), documents["text"].to_pylist()):
        did = f"tdoc-{n:08d}"
        digests[did] = common.span_digest(did, expected_spans(n, text))
    return {r[0]: (*r[1:], digests[r[0]]) for r in rows}


def project(table) -> dict[str, list]:
    """Output rows → the oracle's columns (floats in micro units, as in
    the flagship query) and the span digest, grouped by doc_id; errors
    carried along."""
    import pyarrow.compute as pc

    def micro(col):
        x = col.to_numpy(zero_copy_only=False)
        return np.floor(x * 1000000.0 + 0.5).astype(np.int64).tolist()

    ids = table["doc_id"].to_pylist()
    cols = [
        ids,
        pc.list_value_length(table["spans"]).to_pylist(),
        table["total_pages"].to_pylist(),
        table["n_corrections"].to_pylist(),
        micro(table["ocr_confidence"]),
        micro(table["overall_quality"]),
        table["needs_review"].to_pylist(),
        [common.span_digest(d, s) for d, s in zip(ids, table["spans"].to_pylist())],
        table["error"].to_pylist(),
    ]
    out: dict[str, list] = {}
    for doc_id, *vals in zip(*cols):
        out.setdefault(doc_id, []).append(tuple(vals))
    return out


def count_failed(got: dict[str, list], expected: dict[str, tuple]) -> int:
    """Docs that are missing, duplicated, error rows, or differ from
    the oracle; rows for unknown doc_ids count too."""
    failed = 0
    for doc_id, exp in expected.items():
        rows = got.get(doc_id, [])
        if len(rows) != 1 or rows[0][-1] != "" or rows[0][:-1] != exp:
            failed += 1
    failed += sum(len(v) for k, v in got.items() if k not in expected)
    return failed


class ExtractDerived:
    """One pass is one extraction job over the whole seeded corpus."""

    # Ray Data settings of the job this workload stands for
    DATA_CONTEXT = common.EXTRACTION_JOB_CONTEXT

    def __init__(self, seed: int, work_dir: str, n_docs: int = N_DOCS):
        import pyarrow.parquet as pq

        self.documents = make_documents(seed, n_docs)
        self.corpus_dir = os.path.join(work_dir, "derived")
        os.makedirs(self.corpus_dir, exist_ok=True)
        pq.write_table(self.documents, os.path.join(self.corpus_dir, "documents.parquet"))
        self.expected = oracle_table(self.documents)
        self.n_docs = n_docs

    def run(self) -> common.Pass:
        from ocr_service_ray.pipelines.derive import derived_corpus
        from ocr_service_ray.pipelines.flagship import run_extraction
        from ocr_service_ray.stages.ocr import GENERATE_MEDIA

        t0 = time.perf_counter()
        ds = run_extraction(
            derived_corpus(self.corpus_dir, 1, num_blocks=NUM_BLOCKS),
            GENERATE_MEDIA,
            kernel_batch_size=KERNEL_BATCH,
            kernel_concurrency=common.POOL_SIZE,
            fused=True,
        )
        bundles, _, steady = common.drain(ds)
        wall = time.perf_counter() - t0
        return common.Pass(wall, steady, bundles)

    def check(self, p: common.Pass) -> int:
        return self.check_table(common.bundles_table(p.output))

    def check_table(self, table) -> int:
        got = project(table) if table is not None else {}
        return count_failed(got, self.expected)
