"""Workload ``curate_dedup``: ``pipelines/curate.curate_corpus`` with the
production flags of ``scripts/run_curation_job.py`` (``counts=False``,
``minhash_hash="fast"``, ``exact_keep="auto"``), an eval split by
``doc_id % 20 == 0`` and source mix weights.

The seeded corpus plants every kind of removal in closed form. Each
block of 20 consecutive ids holds one eval doc (slot 0) and 19 train
docs, of which, at seed-chosen slots:

- one pair shares a text byte for byte (exact dedup keeps the min id);
- one pair differs in a single word (MinHash-LSH + components keep the
  min id);
- one doc repeats a single word (dropped by the repetition rules);
- one doc embeds a 13-word window of an eval doc (decontamination).

So each block keeps ``19 - 4 = 15`` train docs, whatever the seed. Every
other text is fresh random words from a 50k-word vocabulary, so no
accidental near duplicates or shared 8-grams arise. The expected output,
including each survivor's mix ``rank`` and ``mix_key``, is computed in
closed form here, independently of the library's operators.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from perfbench import common

N_BLOCKS = 200
BLOCK = 20
VOCAB_SIZE = 50_000
MIX_WEIGHTS = {"src0": 5, "src1": 3, "src2": 2, "src3": 1}
NEAR_DUP_THRESHOLD = 0.5
CONTAM_WINDOW = 13
# train slots per block: exact pair, near pair, low quality, contaminated
_ROLES = ("exact_a", "exact_b", "near_a", "near_b", "lowq", "contam")


@dataclass
class Corpus:
    table: object  # pyarrow Table (doc_id, text, source)
    expected: dict  # doc_id -> (text, source, rank, mix_key)
    near_pairs: set  # planted (min id, max id) near-duplicate pairs


def make_corpus(seed: int, n_blocks: int = N_BLOCKS) -> Corpus:
    import pyarrow as pa

    rng = np.random.default_rng(seed)
    vocab = np.array([f"w{i:05d}" for i in range(VOCAB_SIZE)])
    sources = np.array(sorted(MIX_WEIGHTS))
    base = int(rng.integers(0, 10**6)) * BLOCK

    def fresh() -> list[str]:
        return list(vocab[rng.integers(0, VOCAB_SIZE, size=int(rng.integers(80, 121)))])

    ids, texts, srcs = [], [], []
    dropped: set[int] = set()
    near_pairs: set[tuple[int, int]] = set()
    for blk in range(n_blocks):
        first = base + blk * BLOCK
        slots = rng.permutation(np.arange(1, BLOCK))
        role = {int(s): r for s, r in zip(slots, _ROLES)}
        eval_words = fresh()
        words: dict[int, list[str]] = {0: eval_words}
        for s in range(1, BLOCK):
            words[s] = fresh()
        ex = sorted(s for s, r in role.items() if r.startswith("exact"))
        nr = sorted(s for s, r in role.items() if r.startswith("near"))
        words[ex[1]] = list(words[ex[0]])
        near = list(words[nr[0]])
        pos = int(rng.integers(0, len(near)))
        near[pos] = f"x{int(rng.integers(0, VOCAB_SIZE)):05d}"  # never in vocab
        words[nr[1]] = near
        lowq = next(s for s, r in role.items() if r == "lowq")
        words[lowq] = [str(vocab[rng.integers(0, VOCAB_SIZE)])] * 60
        contam = next(s for s, r in role.items() if r == "contam")
        at = int(rng.integers(0, len(eval_words) - CONTAM_WINDOW))
        cut = int(rng.integers(0, len(words[contam])))
        w = words[contam]
        words[contam] = w[:cut] + eval_words[at : at + CONTAM_WINDOW] + w[cut:]
        dropped.update({first + ex[1], first + nr[1], first + lowq, first + contam})
        near_pairs.add((first + nr[0], first + nr[1]))
        for s in range(BLOCK):
            ids.append(first + s)
            texts.append(" ".join(words[s]))
            srcs.append(str(sources[rng.integers(0, len(sources))]))

    table = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts),
            "source": pa.array(srcs),
        }
    )
    return Corpus(table, expected_output(ids, texts, srcs, dropped), near_pairs)


def expected_output(ids, texts, srcs, dropped) -> dict:
    """Survivors (train docs not planted for removal) with the mix
    schedule: rank within source by doc_id, and
    ``mix_key = (2 * rank + 1) * lcm(weights) / weight``."""
    lcm = math.lcm(*MIX_WEIGHTS.values())
    rank = {s: 0 for s in MIX_WEIGHTS}
    out = {}
    for doc_id, text, src in sorted(zip(ids, texts, srcs)):
        if doc_id % BLOCK == 0 or doc_id in dropped:
            continue
        r = rank[src]
        rank[src] += 1
        out[doc_id] = (text, src, r, (2 * r + 1) * (lcm // MIX_WEIGHTS[src]))
    return out


def count_failed(table, expected: dict) -> int:
    """Expected survivors missing, duplicated or altered, plus any row
    that should not have survived."""
    got: dict[int, list] = {}
    if table is not None:
        cols = [table[c].to_pylist() for c in ("doc_id", "text", "source", "rank", "mix_key")]
        for doc_id, *vals in zip(*cols):
            got.setdefault(doc_id, []).append(tuple(vals))
    failed = sum(1 for k, exp in expected.items() if got.get(k) != [exp])
    return failed + sum(len(v) for k, v in got.items() if k not in expected)


class CurateDedup:
    """One pass is one curation job from the parquet corpus to the mixed output."""

    # Ray Data settings of the job this workload stands for
    # (scripts/run_curation_job.py keeps Ray's defaults)
    DATA_CONTEXT: dict = {}

    def __init__(self, seed: int, work_dir: str, n_blocks: int = N_BLOCKS):
        import pyarrow.parquet as pq

        self.corpus = make_corpus(seed, n_blocks)
        self.path = os.path.join(work_dir, "documents.parquet")
        pq.write_table(self.corpus.table, self.path, row_group_size=1024)
        self.n_docs = self.corpus.table.num_rows

    def build(self):
        import pyarrow as pa

        from ocr_service_ray.pipelines.curate import curate_corpus
        from ocr_service_ray.sources.readers import read_parquet_clean

        docs = read_parquet_clean(self.path, columns=["doc_id", "text", "source"])

        def split(want_eval: bool):
            def f(b: pa.Table) -> pa.Table:
                ids = b["doc_id"].to_numpy(zero_copy_only=False)
                m = (ids % BLOCK == 0) if want_eval else (ids % BLOCK != 0)
                return b.filter(pa.array(m))

            return docs.map_batches(f, batch_format="pyarrow")

        out, _ = curate_corpus(
            split(False),
            split(True),
            mix_weights=MIX_WEIGHTS,
            near_dup_threshold=NEAR_DUP_THRESHOLD,
            counts=False,
            minhash_hash="fast",
            exact_keep="auto",
        )
        return out

    def run(self) -> common.Pass:
        t0 = time.perf_counter()
        ds = self.build()
        bundles, _, _ = common.drain(ds)
        wall = time.perf_counter() - t0
        # The dedup phases are blocking, so output rows arrive only at
        # the end: there is no streaming window, and steady throughput
        # is the end-to-end rate.
        return common.Pass(wall, self.n_docs / wall, bundles)

    def check(self, p: common.Pass) -> int:
        return self.check_table(common.bundles_table(p.output))

    def check_table(self, table) -> int:
        return count_failed(table, self.corpus.expected)
