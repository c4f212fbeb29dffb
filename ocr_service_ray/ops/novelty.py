"""Per-document n-gram novelty vs the training split — the
memorization / train-val overlap audit (the Pile-style "how much of
the validation set has the model literally seen?" measurement, the
per-doc complement of ``ops/decontam.py``'s doc-level flagging).

For every validation doc: the fraction of its DISTINCT word n-grams
that never occur in any training doc (``novelty_ppm``). A val doc
with low novelty is near-memorizable; the distribution over docs is
the quantity eval-integrity reviews track.

100 TB shape — two combiner explosions and ONE gram-keyed join, no
raw-text shuffle:

1. each side explodes to per-doc DISTINCT grams in-block (the
   combiner: ≤ one row per (doc, distinct gram));
2. the train side collapses to its distinct-gram set (a grouped
   count — existence only, so the exchange moves one row per
   distinct gram, hapax-bounded like every gram table in this repo);
3. the val (doc_id, gram) table hash-joins the train set on gram
   (``hash_join`` — the distributed path; no broadcast of a
   web-scale gram vocabulary);
4. two |docs|-bounded grouped counts (total vs seen per doc) merge
   driver-side into ``novelty_ppm = ((total - seen) * 1e6) // total``
   — integer floor, SQL-exact.

Tokenization: single-space split (repo convention); grams are
space-joined word ``n``-grams; docs with fewer than ``n`` tokens have
zero grams and are emitted with ``n_grams = 0, novelty_ppm = 1e6``
(nothing was seen — vacuous novelty, documented so the oracle can
reproduce the edge).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

__all__ = ["novelty_report"]


def _doc_distinct_grams(batch: pa.Table, text_col: str, id_col: str, n: int):
    ids, grams = [], []
    for key, t in zip(batch[id_col].to_pylist(), batch[text_col].to_pylist()):
        toks = t.split(" ")
        seen = set()
        for i in range(len(toks) - n + 1):
            seen.add(" ".join(toks[i : i + n]))
        ids.extend([key] * len(seen))
        grams.extend(sorted(seen))
    return pa.table(
        {id_col: pa.array(ids, pa.int64()), "gram": pa.array(grams, pa.string())}
    )


def novelty_report(
    train_ds,
    val_ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 3,
):
    """pandas ``(doc_id, n_grams, n_seen, novelty_ppm)`` for every val
    doc, sorted by doc_id. ``n_seen`` counts the val doc's distinct
    grams that occur anywhere in train."""
    from ocr_service_ray.ops.agg import grouped_agg

    def explode(batch: pa.Table) -> pa.Table:
        return _doc_distinct_grams(batch, text_col, id_col, n)

    val_pairs = val_ds.map_batches(explode, batch_format="pyarrow")
    train_grams = grouped_agg(
        train_ds.map_batches(explode, batch_format="pyarrow"),
        ["gram"],
        {"_n": (None, "count")},
    ).drop_columns(["_n"])

    # gram-keyed hash join — the distributed semi-join (no broadcast
    # of the train vocabulary); house wrapper carries the rayfix +
    # schema-metadata-strip landmines
    from ocr_service_ray.ops.relational import hash_join

    seen_pairs = hash_join(val_pairs, train_grams, on="gram")
    total = grouped_agg(val_pairs, [id_col], {"n_grams": (None, "count")}).to_pandas()
    seen = grouped_agg(seen_pairs, [id_col], {"n_seen": (None, "count")}).to_pandas()

    out = total.merge(seen, on=id_col, how="left").fillna({"n_seen": 0})
    # docs with zero grams never reach `total` (no exploded rows) —
    # re-attach them with the vacuous-novelty contract
    all_ids = val_ds.select_columns([id_col]).to_pandas()
    out = all_ids.merge(out, on=id_col, how="left").fillna(
        {"n_grams": 0, "n_seen": 0}
    )
    out["n_grams"] = out["n_grams"].astype("int64")
    out["n_seen"] = out["n_seen"].astype("int64")
    denom = out["n_grams"].clip(lower=1)
    out["novelty_ppm"] = (
        (out["n_grams"] - out["n_seen"]) * 1_000_000 // denom
    ).astype("int64")
    out.loc[out["n_grams"] == 0, "novelty_ppm"] = 1_000_000
    return out.sort_values(id_col).reset_index(drop=True)
