"""Duplicate n-gram span detection — substring-level corpus dedup.

Document-level dedup (``ops/dedup.py``) removes whole near-identical
documents; this operator finds REPEATED SPANS — token n-grams that
occur in ``min_df``-or-more distinct documents (boilerplate headers,
licence blocks, navigation chrome) — and measures / strips them per
document. The standard shape in large-scale training-data pipelines
(the exact-substring step of corpus curation), built Ray-Data-first:

pass 1  docs → per-doc UNIQUE gram hashes (dedup inside the batch —
        the combiner: at most |distinct grams in block| rows leave)
        → ``grouped_agg`` count = document frequency
        → hot grams (``df >= min_df``)
pass 2  docs scanned once more; per document, the positions of hot
        grams are unioned into covered-token spans.

Two strategies for shipping the hot-gram set back to pass 2:

- ``strategy="broadcast"``: the hot set goes to the object store ONCE
  (``ray.put``), pass 2 is embarrassingly parallel — NO shuffle
  anywhere. Right whenever the hot-gram set fits in a worker's heap
  (it is bounded by the *duplicated* vocabulary, not the corpus).
- ``strategy="shuffle"``: the hot grams stay a Dataset; the
  positional gram table ``(gram_hash, doc_id, start)`` is
  hash-joined to it (one shuffle keyed by gram hash — moves candidate
  gram rows only, never document text), per-doc coverage is folded in
  a single ``bucketed_map_groups`` keyed by doc_id, and the result is
  left-joined back to the (doc_id, n_tokens) spine. The 100 TB path
  when the hot-gram table itself is too large to broadcast.

Both strategies return identical values (asserted in
``tests/test_ngrams.py``); the DuckDB oracle in ``__ray_entry__.py``
(``dup_ngram_stats``) recomputes the whole thing in SQL.

Tokenization is single-space split — the repo-wide convention shared
with ``ops/text.py::token_counts`` and DuckDB
``string_split(text, ' ')``; the gram key is the first 15 hex chars
of ``md5`` of the space-joined gram parsed as an int64 (60 bits —
DuckDB reproduces it bit-for-bit via ``_hex_bigint_sql``). An int64
key instead of the hex string keeps every downstream shuffle on the
vectorized integer hash path (the string path is a ~1 µs/row Python
loop) and moves 8 B/key instead of 32+ — measured 13.7s → ~9s on the
sf0.1 shuffle strategy.

``hash="fast"`` (every public function) replaces the per-gram md5
loop with the fully vectorized polynomial gram hash of
``ops/hashing.py`` — the production mode when SQL-reproducibility is
not needed; statistics semantics are identical, only the key VALUES
differ (``tests/test_ngrams.py`` pins fast == oracle output).
"""

from __future__ import annotations

from ocr_service_ray.ops.pool import bcast_stage

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa


def _doc_grams(text: str, n: int, hash: str = "oracle") -> np.ndarray:
    """All n-gram keys of a document as an int64 array, in positional
    order (1-based start = array index + 1). Empty when the doc has
    < n tokens.

    ``hash="oracle"`` (default): key = int64 of the first 15 md5 hex
    chars — matches the DuckDB oracle's hex-parse of ``md5(...)``.
    ``hash="fast"``: the vectorized polynomial gram hash
    (ops/hashing.py) masked to the same 60-bit range — no per-gram
    md5, for production runs; the two modes produce different key
    VALUES but identical span/coverage semantics (hot-gram sets are
    keyed consistently within a run)."""
    toks = text.split(" ")
    if len(toks) < n:
        return np.empty(0, dtype=np.int64)
    if hash == "fast":
        from ocr_service_ray.ops.hashing import gram_hashes_fast, hash_tokens_fast

        gh = gram_hashes_fast(hash_tokens_fast(toks), n)
        return (gh & np.uint64((1 << 60) - 1)).astype(np.int64)
    return np.fromiter(
        (
            int(hashlib.md5(" ".join(toks[i : i + n]).encode("utf-8")).hexdigest()[:15], 16)
            for i in range(len(toks) - n + 1)
        ),
        dtype=np.int64,
        count=len(toks) - n + 1,
    )


def gram_df(ds, n: int = 3, text_col: str = "text", id_col: str = "doc_id",
            hash: str = "oracle"):
    """Pass 1: Dataset of ``(gram_hash, df)`` — document frequency of
    every n-gram. Per-doc grams are deduplicated INSIDE the batch
    before the shuffle (the combiner), so the exchange moves at most
    one row per (doc, distinct gram)."""
    from ocr_service_ray.ops.agg import grouped_agg

    def explode_unique(batch: pa.Table) -> pa.Table:
        parts = [np.empty(0, dtype=np.int64)]
        for t in batch[text_col].to_pylist():
            parts.append(np.unique(_doc_grams(t, n, hash)))
        return pa.table({"gram_hash": pa.array(np.concatenate(parts), pa.int64())})

    pairs = ds.map_batches(explode_unique, batch_format="pyarrow")
    return grouped_agg(pairs, ["gram_hash"], {"df": (None, "count")})


def hot_grams(ds, n: int = 3, min_df: int = 2, text_col: str = "text",
              id_col: str = "doc_id", hash: str = "oracle"):
    """Grams appearing in >= ``min_df`` distinct documents."""
    import pyarrow.compute as pc

    return gram_df(ds, n, text_col, id_col, hash).map_batches(
        lambda b: b.filter(pc.greater_equal(b["df"], min_df)),
        batch_format="pyarrow",
    )


def _coverage(starts: np.ndarray, n: int, n_tokens: int) -> int:
    """Tokens covered by the union of [s, s+n-1] intervals (1-based
    starts) — diff-array + cumsum, O(n_tokens), no per-interval loop."""
    if len(starts) == 0:
        return 0
    diff = np.zeros(n_tokens + 1, dtype=np.int32)
    np.add.at(diff, starts - 1, 1)
    np.add.at(diff, np.minimum(starts - 1 + n, n_tokens), -1)
    return int((np.cumsum(diff[:n_tokens]) > 0).sum())


def duplicate_ngram_stats(
    ds,
    n: int = 3,
    min_df: int = 2,
    text_col: str = "text",
    id_col: str = "doc_id",
    strategy: str = "broadcast",
    hash: str = "oracle",
):
    """Per-document duplicated-span statistics:

    ``n_tokens``              single-space token count
    ``hot_gram_occurrences``  occurrences (incl. within-doc repeats)
                              of grams with corpus df >= min_df
    ``dup_token_count``       tokens covered by >= 1 hot gram
                              (interval union)

    Every document appears in the output (zeros when clean).
    ``hash="fast"`` switches gram hashing to the vectorized
    polynomial mode (see ``_doc_grams``) — same statistics, no
    per-gram md5 (the md5 default is what the DuckDB oracle
    recomputes).
    """
    if strategy == "broadcast":
        return _stats_broadcast(ds, n, min_df, text_col, id_col, hash)
    if strategy == "shuffle":
        return _stats_shuffle(ds, n, min_df, text_col, id_col, hash)
    raise ValueError(f"unknown strategy: {strategy}")


def _stats_broadcast(ds, n, min_df, text_col, id_col, hash="oracle"):
    import ray

    # Hot set size is bounded by the duplicated vocabulary — driver
    # materialization is intentional here; use strategy="shuffle" when
    # it no longer fits (boilerplate-saturated corpora). Broadcast as
    # ONE sorted int64 array: the per-doc membership test is then a
    # vectorized np.isin instead of a per-gram Python set probe.
    hot = hot_grams(ds, n, min_df, text_col, id_col, hash).to_pandas()
    hot_arr = np.sort(hot["gram_hash"].to_numpy(dtype=np.int64))
    hot_ref = ray.put(hot_arr)

    class MarkSpans:
        def __init__(self):
            self.hot = ray.get(hot_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids, ntok, occ, cov = [], [], [], []
            for key, t in zip(
                batch[id_col].to_pylist(), batch[text_col].to_pylist()
            ):
                grams = _doc_grams(t, n, hash)
                starts = (
                    np.nonzero(np.isin(grams, self.hot))[0] + 1
                ).astype(np.int64)
                nt = t.count(" ") + 1
                ids.append(key)
                ntok.append(nt)
                occ.append(len(starts))
                cov.append(_coverage(starts, n, nt))
            return pa.table(
                {
                    id_col: pa.array(ids, batch[id_col].type),
                    "n_tokens": pa.array(ntok, pa.int64()),
                    "hot_gram_occurrences": pa.array(occ, pa.int64()),
                    "dup_token_count": pa.array(cov, pa.int64()),
                }
            )

    return bcast_stage(ds, MarkSpans, hot_arr.nbytes)


def _stats_shuffle(ds, n, min_df, text_col, id_col, hash="oracle"):
    import pyarrow.compute as pc

    from ocr_service_ray.ops.agg import bucketed_apply, bucketed_map_groups
    from ocr_service_ray.ops.relational import hash_join

    def explode_pos(batch: pa.Table) -> pa.Table:
        ids, starts, grams = [], [], []
        for key, t in zip(batch[id_col].to_pylist(), batch[text_col].to_pylist()):
            g = _doc_grams(t, n, hash)
            if len(g):
                ids.extend([key] * len(g))
                starts.append(np.arange(1, len(g) + 1, dtype=np.int64))
                grams.append(g)
        return pa.table(
            {
                id_col: pa.array(ids, batch[id_col].type),
                "s": pa.array(
                    np.concatenate(starts) if starts else np.empty(0, np.int64)
                ),
                "gram_hash": pa.array(
                    np.concatenate(grams) if grams else np.empty(0, np.int64)
                ),
            }
        )

    gram_pos = ds.map_batches(explode_pos, batch_format="pyarrow")

    # ONE gram-keyed exchange does df-count AND hot-filter together:
    # every occurrence of a gram lands in the same bucket, so the
    # bucket-local distinct-doc count IS the global df. This replaces
    # the former separate hot_grams plan (a second corpus scan +
    # grouped_agg) and the gram-keyed hash join — measured ~2× on the
    # sf0.1 query, where per-shuffle fixed overhead, not gram hashing,
    # dominates.
    def bucket_hot_filter(g: pd.DataFrame) -> pd.DataFrame:
        df_per_gram = g.groupby("gram_hash")[id_col].nunique()
        hot_keys = df_per_gram.index[df_per_gram >= min_df]
        out = g[g["gram_hash"].isin(hot_keys)]
        return out[[id_col, "s"]]

    hits = bucketed_apply(gram_pos, ["gram_hash"], bucket_hot_filter)

    def per_doc(g: pd.DataFrame) -> pd.DataFrame:
        starts = g["s"].to_numpy(dtype=np.int64)
        # n_tokens recovered downstream from the spine; coverage only
        # needs an upper bound here (a start never exceeds nt - n + 1)
        bound = int(starts.max()) + n - 1
        return pd.DataFrame(
            {
                id_col: [g[id_col].iloc[0]],
                "hot_gram_occurrences": [len(starts)],
                "dup_token_count": [_coverage(starts, n, bound)],
            }
        )

    # repartition: the bucketed fold emits schema-less zero-row blocks
    # for empty buckets and the pyarrow hash join below rejects them
    # on its right side (repo landmine — see hash_join's docstring)
    folded = bucketed_map_groups(hits, [id_col], per_doc).repartition(4)

    def spine(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        nt = pc.add(pc.count_substring(batch[text_col], " "), 1)
        return pa.table(
            {id_col: batch[id_col], "n_tokens": pc.cast(nt, pa.int64())}
        )

    base = ds.map_batches(spine, batch_format="pyarrow")
    # NOTE: a union-into-the-fold variant (spine rows through the same
    # bucketed fold, no second join) was measured SLOWER (12.6-47s vs
    # ~10s at sf0.1) — Dataset.union over a hash-join branch degrades
    # the plan; the explicit left join is the faster shape on Ray
    # 2.49's streaming executor.
    joined = hash_join(base, folded, on=id_col, join_type="left_outer")

    def fill(b: pd.DataFrame) -> pd.DataFrame:
        for c in ("hot_gram_occurrences", "dup_token_count"):
            b[c] = b[c].fillna(0).astype("int64")
        return b

    return joined.map_batches(fill, batch_format="pandas")


def strip_duplicate_spans(
    ds,
    n: int = 3,
    min_df: int = 2,
    text_col: str = "text",
    id_col: str = "doc_id",
    out_col: str = "clean_text",
    hash: str = "oracle",
):
    """Pass-2 variant that REMOVES covered tokens: the per-document
    text with every token that lies inside a hot n-gram dropped
    (single-space rejoin). Broadcast strategy only — stripping needs
    the text and the hot set in the same task."""
    import ray

    hot = hot_grams(ds, n, min_df, text_col, id_col, hash).to_pandas()
    hot_arr = np.sort(hot["gram_hash"].to_numpy(dtype=np.int64))
    hot_ref = ray.put(hot_arr)

    class Strip:
        def __init__(self):
            self.hot = ray.get(hot_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            out = []
            for t in batch[text_col].to_pylist():
                toks = t.split(" ")
                grams = _doc_grams(t, n, hash)
                keep = np.ones(len(toks), dtype=bool)
                # loop over HITS only (few per doc); membership test
                # is one vectorized np.isin over the gram array
                for i in np.nonzero(np.isin(grams, self.hot))[0]:
                    keep[i : i + n] = False
                out.append(" ".join(tok for tok, k in zip(toks, keep) if k))
            return batch.append_column(out_col, pa.array(out, pa.string()))

    return bcast_stage(ds, Strip, hot_arr.nbytes)
