"""Asymmetric near-duplicate detection: n-gram containment pairs.

Jaccard similarity (ops/dedup.py, ops/similarity.py PPJoin) misses
the quote/subset shape — a short document wholly contained in a much
longer one scores a LOW Jaccard (the union is dominated by the long
side) but containment(A, B) = |grams(A) ∩ grams(B)| / |grams(A)| is
~1. This is the dedup signal for boilerplate inclusion, quoted
replies, and article-plus-commentary pages in a training corpus.

Candidate generation is RARE-GRAM BLOCKING: a pair is considered only
if it shares at least one n-gram whose global document frequency lies
in [2, max_df]. Rationale at 100 TB — a contained document shares ALL
its grams with its container, so unless every shared gram is corpus-
common (boilerplate, which Jaccard-side dedup already handles), some
shared gram is rare and the pair is found; meanwhile the candidate
set per rare gram is at most C(max_df, 2) pairs, so the pair space
never explodes the way sharing-any-gram blocking would. The gram df
table comes from the existing combiner (``ops/ngrams.gram_df`` —
per-doc dedup before the shuffle), pairs are emitted inside gram-hash
buckets (``bucketed_map_groups``), and verification moves CANDIDATE
ROWS ONLY through two hash joins (the ops/dedup.py L4 discipline).

``hash="oracle"`` keys grams by the md5-hex-prefix int so a DuckDB
oracle recomputes the whole pipeline from scratch; ``hash="fast"``
uses the vectorized polynomial hash for production runs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ocr_service_ray.ops.agg import bucketed_map_groups, grouped_agg
from ocr_service_ray.ops.ngrams import _doc_grams

__all__ = ["gram_sets", "containment_pairs"]


def gram_sets(ds, n: int = 3, text_col: str = "text", id_col: str = "doc_id",
              hash: str = "oracle"):
    """(doc_id, gram_hash) — one row per DISTINCT gram per doc."""

    def explode(batch: pa.Table) -> pa.Table:
        ids, grams = [], [np.empty(0, dtype=np.int64)]
        for i, t in zip(batch[id_col].to_pylist(), batch[text_col].to_pylist()):
            g = np.unique(_doc_grams(t, n, hash))
            ids.append(np.full(len(g), i, dtype=np.int64))
            grams.append(g)
        return pa.table(
            {
                id_col: pa.array(
                    np.concatenate(ids) if ids else np.empty(0, np.int64)
                ),
                "gram_hash": pa.array(np.concatenate(grams), pa.int64()),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow")


def containment_pairs(
    ds,
    n: int = 3,
    max_df: int = 5,
    tau_ppm: int = 800_000,
    text_col: str = "text",
    id_col: str = "doc_id",
    hash: str = "oracle",
):
    """Pairs (id_small, id_big) with containment ≥ tau_ppm.

    id_small is the side with the SMALLER distinct-gram set (ties →
    smaller doc_id); containment_ppm = (10^6 * |∩|) // n_small, one
    floor division at the end. Output columns: id_small, id_big,
    n_small, inter, containment_ppm.
    """
    from ocr_service_ray.ops.relational import hash_join

    grams = gram_sets(ds, n, text_col, id_col, hash)

    # rare grams: 2 <= df <= max_df (df=1 pairs with nothing)
    df = grouped_agg(grams, ["gram_hash"], {"df": (None, "count")})
    rare = df.map_batches(
        lambda b: b.filter(
            pc.and_(
                pc.greater_equal(b["df"], 2), pc.less_equal(b["df"], max_df)
            )
        ).select(["gram_hash"]),
        batch_format="pyarrow",
    ).repartition(2)

    rare_docs = hash_join(grams, rare, on="gram_hash")

    def emit_pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.sort(g[id_col].to_numpy())
        a, b = np.triu_indices(len(ids), k=1)
        return pd.DataFrame({"id_a": ids[a], "id_b": ids[b]})

    pairs = bucketed_map_groups(rare_docs, ["gram_hash"], emit_pairs)
    # a pair found via several rare grams appears once
    pairs = grouped_agg(
        pairs, ["id_a", "id_b"], {"_n": (None, "count")}
    ).drop_columns(["_n"])

    # verify: candidate rows only. A doc can sit in MANY pairs, so
    # instead of chaining two hash joins (one per side — a third join
    # operator in the pipeline deadlocks small clusters' actor
    # budget), explode each pair into two membership rows, attach
    # text with ONE join on doc_id, and fold per pair in a bucketed
    # group shuffle.
    def explode_membership(b: pa.Table) -> pa.Table:
        ia = b["id_a"].to_numpy(zero_copy_only=False)
        ib = b["id_b"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "_doc": pa.array(np.concatenate([ia, ib])),
                "id_a": pa.array(np.concatenate([ia, ia])),
                "id_b": pa.array(np.concatenate([ib, ib])),
            }
        )

    members = pairs.map_batches(explode_membership, batch_format="pyarrow")
    docs = ds.map_batches(
        lambda b: b.select([id_col, text_col]), batch_format="pyarrow"
    )
    j = hash_join(members, docs, on="_doc", right_on=id_col)

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                c: pd.Series(dtype="int64")
                for c in ("id_small", "id_big", "n_small", "inter",
                          "containment_ppm")
            }
        )
        if len(g) != 2:
            return empty
        ia, ib = int(g["id_a"].iloc[0]), int(g["id_b"].iloc[0])
        by_doc = dict(zip(g["_doc"], g[text_col]))
        ga = np.unique(_doc_grams(by_doc[ia], n, hash))
        gb = np.unique(_doc_grams(by_doc[ib], n, hash))
        if len(ga) < len(gb) or (len(ga) == len(gb) and ia < ib):
            ids, idb, gs, gl = ia, ib, ga, gb
        else:
            ids, idb, gs, gl = ib, ia, gb, ga
        if not len(gs):
            return empty
        inter = int(np.isin(gs, gl, assume_unique=True).sum())
        ppm = (1_000_000 * inter) // len(gs)
        if ppm < tau_ppm:
            return empty
        return pd.DataFrame(
            {
                "id_small": pd.array([ids], dtype="int64"),
                "id_big": pd.array([idb], dtype="int64"),
                "n_small": pd.array([len(gs)], dtype="int64"),
                "inter": pd.array([inter], dtype="int64"),
                "containment_ppm": pd.array([ppm], dtype="int64"),
            }
        )

    return bucketed_map_groups(j, ["id_a", "id_b"], verify)
