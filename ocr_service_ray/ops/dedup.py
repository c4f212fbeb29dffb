"""Deduplication operators — exact and near-duplicate, at shuffle scale.

The reference has no dedup (results lists are Python appends, SURVEY.md
§2.7 D5 notes it as required at scale); these are the standard corpus-
dedup family expressed Ray-Data-first:

- exact: content-hash → groupby(hash) → keep min doc_id. One shuffle
  keyed on the md5, pre-hashed vectorized in map_batches.
- MinHash-LSH: per-doc signature (numpy, vectorized over shingles) →
  explode to (band, band_hash) rows → groupby band buckets →
  candidate pairs verified by signature-estimated Jaccard inside the
  group. Signatures travel WITH the band rows, so verification needs
  no second lookup/join.
- SimHash: 64-bit fingerprint, banded into 16-bit keys → groupby →
  pairs within Hamming distance k verified in-group.
- n-gram Jaccard: exact pairwise verification inside a blocking key
  (for candidate sets that are provably small).
- embedding near-dup: label-blocked blockwise cosine (see
  similarity.py for the ANN machinery).

Partitioning assumptions are the groupby keys: md5 for exact, (band,
band_hash) for LSH — both uniform by construction (cryptographic /
near-uniform hashes), so no salting is needed; a pathological
single-value key (e.g. empty documents) is the one skew case, noted
per function.
"""

from __future__ import annotations

from ocr_service_ray.ops.pool import bcast_stage

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from ocr_service_ray.ops.text import content_hash

_MERSENNE31 = np.uint64((1 << 31) - 1)

# Cap on docs per signature/fingerprint map task. Without it the batch
# is the whole input block: at corpus scale (128 MB parquet blocks ~
# 300k docs) the kernel's flat intermediates (word streams, gram
# arrays, B^i prefix tables — hundreds of MB each) fall out of cache
# and the 64-permutation fold re-reads them from DRAM, measured ~4x
# per-doc degradation past ~10k docs (334 us/doc at 10k vs 1384 at
# 150k; the 24M-doc scale-proof signature pass ran 1766 s before the
# cap). Output is per-doc deterministic, so the cap cannot change any
# signature (batch == per-doc is pytest-asserted).
_SIG_BATCH = 8192


# Bucket count of the dedupe_pairs and paragraph_dedup exchanges, whose
# keys are near-unique per row (pairs, paragraphs, doc ids): twice the
# library default.
_DEDUP_BUCKETS = 64


def dedupe_pairs(pairs_ds, value_col: str, agg: str = "min"):
    """Collapse duplicate (id_a, id_b) pair rows keeping the min/max of
    ``value_col`` — the cross-band dedup tail of every LSH pass.

    NOT ``groupby([id_a, id_b]).aggregate(...)``: Ray's grouped
    aggregate pays ~1ms of per-group dispatch, and pair keys are
    near-unique (measured 30s+ for 44k pairs). Instead the pairs go
    through the keyed exchange (``ops/agg.bucketed_apply``) and each
    bucket is deduped with one vectorized pandas sort+drop_duplicates —
    identical result, per-group cost amortized over thousands of
    pairs."""
    from ocr_service_ray.ops.agg import bucketed_apply

    ascending = agg == "min"

    def dedup_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(value_col, ascending=ascending, kind="stable")
        return g.drop_duplicates(subset=["id_a", "id_b"], keep="first")

    return bucketed_apply(
        pairs_ds, ["id_a", "id_b"], dedup_bucket, _DEDUP_BUCKETS
    )


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Group by md5(text); keep the smallest id per group, count dups.
    Returns {text_hash, keep_id, dups}. Skew note: a hot hash value can
    only come from a hot identical text (e.g. ""), which is exactly
    the group we must collapse — per-group work is O(1) because the
    aggregate is Min/Count, not a row materialization."""
    from ocr_service_ray.ops.agg import grouped_agg

    hashed = ds.map_batches(
        lambda b: content_hash(b, text_col).select(["text_hash", id_col]),
        batch_format="pyarrow",
    )
    # vectorized partial+final aggregate: group count ≈ distinct texts
    # (near one per doc), where the native per-group reduce dominates
    return grouped_agg(
        hashed,
        ["text_hash"],
        {"keep_id": (id_col, "min"), "dups": (id_col, "count")},
    )


def _shingle_hashes(text: str, n: int = 3, hash: str = "oracle") -> np.ndarray:
    """Word n-gram shingles → stable 32-bit hashes (distinct).

    ``hash="oracle"`` (default): md5-derived (first 8 hex chars,
    big-endian) — PYTHONHASHSEED-independent AND reproducible in
    DuckDB (``md5()`` + hex parse), so the LSH oracle can recompute
    signatures from scratch. ``hash="fast"``: the vectorized
    polynomial gram hash (ops/hashing.py) masked to 32 bits — no
    per-gram md5, for production runs that don't need
    SQL-reproducibility. The two modes differ only in which CANDIDATE
    pairs surface; verified-pair semantics (exact Jaccard / hamming
    checks downstream) are mode-independent."""
    words = text.split()
    if hash == "fast":
        from ocr_service_ray.ops.hashing import gram_hashes_fast, hash_tokens_fast

        if len(words) < n:
            gh = hash_tokens_fast([" ".join(words)] if words else [""])
        else:
            gh = gram_hashes_fast(hash_tokens_fast(words), n)
        return np.unique(gh & np.uint64(0xFFFFFFFF))
    if len(words) < n:
        grams = [" ".join(words)] if words else [""]
    else:
        grams = [" ".join(words[i : i + n]) for i in range(len(words) - n + 1)]
    distinct = set(grams)
    return np.fromiter(
        (int(hashlib.md5(g.encode()).hexdigest()[:8], 16) for g in distinct),
        dtype=np.uint64,
        count=len(distinct),
    )


def _perm_params(num_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, int(_MERSENNE31), size=num_perm).astype(np.uint64)
    b = rng.randint(0, int(_MERSENNE31), size=num_perm).astype(np.uint64)
    return a, b


def minhash_signature(
    text: str, a: np.ndarray, b: np.ndarray, n: int = 3, hash: str = "oracle"
) -> np.ndarray:
    """MinHash signature: min over shingles of (a·x + b) mod 2^31-1.
    a, x < 2^32 so a*x + b < 2^63 — exact in uint64."""
    x = _shingle_hashes(text, n, hash)
    if len(x) == 0:
        return np.zeros(len(a), dtype=np.uint64)
    # (num_perm, n_shingles) — vectorized outer product
    hx = (a[:, None] * x[None, :] + b[:, None]) % _MERSENNE31
    return hx.min(axis=1)


def _signatures_fast_batch(
    texts: list[str], a: np.ndarray, b: np.ndarray, n: int
) -> np.ndarray:
    """Batch-vectorized ``hash="fast"`` MinHash signatures — byte-
    identical to calling :func:`minhash_signature` per doc (pytest-
    asserted), but the whole batch is ONE ``hash_tokens_fast`` call
    over the concatenated word stream, ONE flat ``gram_hashes_fast``
    pass (windows crossing doc boundaries dropped by per-doc slice
    selection — the window fold only sees its own n token hashes, so
    flat == per-doc), and per-permutation ``np.minimum.reduceat``
    folds. Two exactness notes: the per-doc ``np.unique`` is skipped
    because MIN is duplicate-insensitive; docs shorter than ``n``
    words take the reference's single-joined-token path. Removes the
    ~200µs/doc Python dispatch that dominated the 2.4M-doc scale
    stage (per-doc loop measured ~4x worse than linear there).

    Returns a ``(len(texts), num_perm)`` uint64 matrix."""
    num_perm = len(a)
    sig = np.zeros((len(texts), num_perm), dtype=np.uint64)
    if not texts:
        return sig
    from ocr_service_ray.ops.hashing import gram_hashes_fast, hash_tokens_fast

    words_per_doc = [t.split() for t in texts]
    lens = np.array([len(w) for w in words_per_doc], dtype=np.int64)
    # hash_tokens_fast falls back to blake2b for the WHOLE CALL when
    # any token contains NUL, so its output is call-scope dependent —
    # batching a NUL doc with clean docs would change the clean docs'
    # hashes vs the per-doc path. Route NUL docs (vanishingly rare)
    # through the per-doc reference path to keep batch ≡ per-doc.
    nul = np.array(["\x00" in t for t in texts], dtype=bool)
    if nul.any():
        for i in np.nonzero(nul)[0]:
            sig[i] = minhash_signature(texts[i], a, b, n, "fast")
        lens = np.where(nul, -1, lens)  # exclude from both batch tiers
    long_idx = np.nonzero(lens >= n)[0]
    short_idx = np.nonzero((lens < n) & (lens >= 0))[0]

    # ---- short docs: one joined token each (reference semantics)
    if len(short_idx):
        joined = [" ".join(words_per_doc[i]) for i in short_idx]
        xs = hash_tokens_fast(joined) & np.uint64(0xFFFFFFFF)
        with np.errstate(over="ignore"):
            # (n_short, num_perm): a*x+b < 2^63 — exact in uint64
            hx = (xs[:, None] * a[None, :] + b[None, :]) % _MERSENNE31
        sig[short_idx] = hx

    # ---- long docs: flat token hashes + flat gram windows
    if len(long_idx):
        flat_words: list[str] = []
        for i in long_idx:
            flat_words.extend(words_per_doc[i])
        th = hash_tokens_fast(flat_words)
        llens = lens[long_idx]
        tok_starts = np.concatenate([[0], np.cumsum(llens)[:-1]])
        # flat gram array: window j starts at token j; valid for doc d
        # iff the whole window lies inside d's token segment
        grams_flat = gram_hashes_fast(th, n)
        counts = llens - n + 1  # grams per doc, all >= 1 here
        total = int(counts.sum())
        # ragged-range selection of each doc's gram slice
        row_of = np.repeat(np.arange(len(long_idx)), counts)
        first = np.concatenate([[0], np.cumsum(counts)[:-1]])
        within = np.arange(total, dtype=np.int64) - first[row_of]
        x = (grams_flat[tok_starts[row_of] + within]) & np.uint64(0xFFFFFFFF)
        offsets = first  # reduceat segment starts (no empty segments)
        out = np.empty((len(long_idx), num_perm), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for p in range(num_perm):
                v = (x * a[p] + b[p]) % _MERSENNE31
                out[:, p] = np.minimum.reduceat(v, offsets)
        sig[long_idx] = out
    return sig


def minhash_lsh_candidates(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    threshold: float = 0.5,
    shingle: int = 3,
    signature_path: str | None = None,
    hash: str = "oracle",
):
    """Near-duplicate pairs via MinHash + LSH banding.

    ``hash="fast"`` switches shingle hashing to the vectorized
    polynomial mode (see ``_shingle_hashes``) — production runs that
    don't need the SQL-recomputable md5 signatures.

    Stage 1 (map): signature per doc, exploded into one row per band
    with the band's hash key AND the full signature (so stage 2 needs
    no lookup). Stage 2 (shuffle): groupby (band, band_hash); within
    each bucket, estimate Jaccard as mean(sig_a == sig_b) for the
    bucket's pairs and keep pairs ≥ threshold. Pairs found in several
    bands are deduped by a final groupby.

    Returns {id_a, id_b, est_jaccard} with id_a < id_b.
    """
    a, b = _perm_params(num_perm)
    rows_per_band = num_perm // bands

    def to_sig_rows(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        if hash == "fast":
            # batch-vectorized signatures (identical values, no
            # per-doc Python dispatch) + zero-copy list assembly
            mat = _signatures_fast_batch(texts, a, b, shingle)
            off = pa.array(
                np.arange(len(texts) + 1, dtype=np.int64) * len(a),
                pa.int32(),
            )
            sig_arr = pa.ListArray.from_arrays(off, pa.array(mat.reshape(-1)))
            return pa.table({"id": batch[id_col], "sig": sig_arr})
        ids, sigs = [], []
        for doc_id, text in zip(batch[id_col].to_pylist(), texts):
            ids.append(doc_id)
            sigs.append(minhash_signature(text, a, b, shingle, hash).tolist())
        return pa.table({"id": pa.array(ids), "sig": pa.array(sigs, pa.list_(pa.uint64()))})

    def to_band_rows(batch: pa.Table) -> pa.Table:
        # band KEY rows only — the 512 B signature does NOT ride the
        # band shuffle (it did until r5: 16x signature duplication put
        # ~20 GB through the exchange at 2.4M docs; signatures are now
        # attached once per deduped candidate pair instead)
        band_ids, band_hashes, ids = [], [], []
        for doc_id, sig_list in zip(batch["id"].to_pylist(), batch["sig"].to_pylist()):
            sig = np.asarray(sig_list, dtype=np.uint64)
            for band in range(bands):
                chunk = sig[band * rows_per_band : (band + 1) * rows_per_band]
                band_ids.append(band)
                # bucket key = joined chunk values: any injective
                # encoding works, and this one is reproducible in SQL
                # (string_agg ORDER BY perm index)
                band_hashes.append("|".join(str(int(v)) for v in chunk))
                ids.append(doc_id)
        return pa.table(
            {
                "band": pa.array(band_ids, pa.int32()),
                "band_hash": pa.array(band_hashes, pa.string()),
                "id": pa.array(ids),
            }
        )

    def to_band_rows_fast(batch: pa.Table) -> pa.Table:
        # production band key: the band's signature chunk FNV-folded +
        # splitmix-finalized into ONE int64 — the bucket shuffle then
        # moves 8 B/key on the vectorized integer-hash path instead of
        # a 32+-byte string through the per-element blake2b loop (same
        # trick as ops/ngrams.py gram keys, measured 13.7s → ~9s
        # there). Not injective like the string key, but a 64-bit
        # collision only CO-BUCKETS two different chunks — candidates
        # are still verified against the full signature (est_jaccard ≥
        # threshold), so no wrong pair survives and no true pair is
        # lost (equal chunks always hash equal); fast mode's
        # candidate-set semantics are already hash-dependent
        # (``_shingle_hashes`` docstring).
        from ocr_service_ray.ops.hashing import _splitmix64

        n = batch.num_rows
        if n == 0:
            return pa.table(
                {
                    "band": pa.array([], pa.int32()),
                    "band_hash": pa.array([], pa.int64()),
                    "id": batch["id"],
                }
            )
        tbl = batch.combine_chunks()
        sig_arr = tbl["sig"].chunk(0)
        mat = np.asarray(sig_arr.flatten(), dtype=np.uint64).reshape(n, num_perm)
        chunks = mat.reshape(n, bands, rows_per_band)
        h = np.zeros((n, bands), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for r in range(rows_per_band):
                h = h * np.uint64(0x100000001B3) ^ chunks[:, :, r]
        h = _splitmix64(h.reshape(-1))
        idx = pa.array(np.repeat(np.arange(n), bands))
        return pa.table(
            {
                "band": pa.array(np.tile(np.arange(bands, dtype=np.int32), n)),
                "band_hash": pa.array(h.view(np.int64)),
                "id": tbl["id"].take(idx),
            }
        )

    # Phase 1 — ONE pass over the corpus computes signatures; the text
    # column never travels further. Pinned because two downstream
    # consumers (the hot-bucket count and the pair pass) would each
    # re-read and re-shingle the whole corpus otherwise — measured 2×
    # the total runtime. Signatures are num_perm × 8 bytes per doc:
    # the object store holds them at bench scale (materialize), and
    # ``signature_path`` is the 10^12-doc tier — the same intermediate
    # written as a parquet signature table and read back, so the
    # pinned copy lives in storage instead of cluster memory (and a
    # re-run can reuse it).
    sig_plan = ds.map_batches(
        to_sig_rows, batch_format="pyarrow", batch_size=_SIG_BATCH
    )
    if signature_path is not None:
        from ocr_service_ray.sources.readers import read_parquet_clean
        from ocr_service_ray.sources.sinks import write_parquet_sized

        write_parquet_sized(sig_plan, signature_path)
        sig_rows = read_parquet_clean(signature_path)
    else:
        sig_rows = sig_plan.materialize()

    # Phase 2 — band KEY explosion (band, band_hash, id — ~20 B/row)
    # over the signature table; signatures do NOT ride this exchange.
    to_bands = to_band_rows_fast if hash == "fast" else to_band_rows
    band_rows = sig_rows.map_batches(to_bands, batch_format="pyarrow")

    # Phase 3 — candidate pairs in ONE bucketed exchange over the
    # band-key rows (whole-bucket ragged-range enumeration — no
    # per-bucket Python dispatch; singleton segments emit nothing, so
    # no hot-bucket prefilter is needed). Until r5's 24M-doc
    # scale-proof this phase ran a _keep_hot_buckets broadcast
    # prefilter first, which assumes the >1-member key set is tiny —
    # but on a dup-heavy corpus it is corpus-proportional (~85M keys /
    # ~160M hot rows at 24M docs), so the prefilter cost a SECOND full
    # count exchange, an ~85M-row driver pull, a ~700 MB broadcast and
    # a per-batch re-sorting np.isin, and its pair exchange stalled in
    # multi-GB shuffle tasks. Emitting straight from the single band
    # exchange moves strictly fewer total rows at every scale and
    # keeps the driver out of the data path entirely. Pairs are
    # deduped ACROSS BANDS before any signature travels: every band
    # yields the same est for a pair (same signatures), so dedupe-
    # then-verify-once ≡ verify-per-band-then-max, at 1/bands the
    # verify work and with the 512 B/row signature payload kept out
    # of both the band shuffle and the pair dedup.
    from ocr_service_ray.ops.agg import emit_group_pairs, grouped_agg

    # bucket count sized to ~2M band rows per bucket so per-bucket
    # pandas sorts stay seconds-scale and the reduce side parallelizes
    # at corpus scale; sig_rows.count() is metadata-cheap for both the
    # parquet tier and the materialized tier
    try:
        n_docs = sig_rows.count()
    except Exception:
        n_docs = None

    import ray.data as rd

    id_type = None
    ssch = sig_rows.schema()
    if ssch is not None and getattr(ssch, "names", None):
        t = ssch.types[ssch.names.index("id")]
        id_type = t if isinstance(t, pa.DataType) else None

    out_schema = pa.schema(
        [
            ("id_a", id_type or pa.int64()),
            ("id_b", id_type or pa.int64()),
            ("est_jaccard", pa.float64()),
        ]
    )

    if n_docs == 0:
        # no signatures, no pairs: skip the two exchanges and the two
        # signature joins over nothing
        return rd.from_arrow(out_schema.empty_table())

    nb = (
        32
        if not n_docs
        else int(min(512, max(32, (n_docs * bands) // 2_000_000)))
    )
    cand = grouped_agg(
        emit_group_pairs(
            band_rows, ["band", "band_hash"], "id", "id_a", "id_b",
            num_buckets=nb,
        ),
        ["id_a", "id_b"],
        {"_c": (None, "count")},
        num_buckets=nb,
    ).select_columns(["id_a", "id_b"])

    # Phase 4 — attach each side's signature via the budget-tiered
    # auto_join (bench scale: ONE bounded driver pull of the signature
    # table, gather-broadcast, zero exchange; corpus scale: the
    # signature table exceeds the byte budget and the key-partitioned
    # hash join takes it — candidates, not the corpus, are the probe),
    # then one vectorized mean-equality verify per deduped pair.
    from ocr_service_ray.ops.relational import auto_join

    # signatures travel the join as FIXED-SIZE BINARY (num_perm x 8 B
    # per row): acero rejects list<uint64> as a join non-key field,
    # and the flat encoding is a zero-copy buffer reinterpretation in
    # both directions
    sig_width = num_perm * 8
    fsb_type = pa.binary(sig_width)

    def side(name):
        col = f"sig_{name[-1]}"

        def ren(b: pa.Table) -> pa.Table:
            t = b.combine_chunks()
            n = t.num_rows
            if n == 0:
                return pa.table(
                    {name: t["id"], col: pa.array([], fsb_type)}
                )
            mat = np.ascontiguousarray(
                np.asarray(t["sig"].chunk(0).flatten(), dtype=np.uint64).reshape(
                    n, num_perm
                )
            )
            fsb = pa.FixedSizeBinaryArray.from_buffers(
                fsb_type, n, [None, pa.py_buffer(mat.tobytes())]
            )
            return pa.table({name: t["id"], col: fsb})

        return sig_rows.map_batches(ren, batch_format="pyarrow")

    j = auto_join(cand, side("id_a"), on="id_a")
    j = auto_join(j, side("id_b"), on="id_b")

    def _sig_mat(arr) -> np.ndarray:
        # fixed-size-binary column -> (n, num_perm) uint64, zero-copy
        # from the values buffer (offset-aware for sliced arrays);
        # gather-broadcast tier delivers bytes objects instead — stack
        if arr.type.equals(fsb_type):
            flat = np.frombuffer(arr.buffers()[1], dtype=np.uint64)
            s = arr.offset * num_perm
            return flat[s : s + len(arr) * num_perm].reshape(len(arr), num_perm)
        return np.stack(
            [np.frombuffer(x, dtype=np.uint64) for x in arr.to_pylist()]
        )

    def verify(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "sig_a" not in b.column_names:
            return out_schema.empty_table()
        t = b.combine_chunks()
        A = _sig_mat(t["sig_a"].chunk(0))
        B = _sig_mat(t["sig_b"].chunk(0))
        est = (A == B).mean(axis=1)
        keep = est >= threshold
        out = t.select(["id_a", "id_b"]).filter(pa.array(keep))
        return out.append_column("est_jaccard", pa.array(est[keep]))

    # schema anchor: a dup-free corpus yields ZERO candidate pairs and
    # a zero-block (schema-less) result otherwise — same landmine as
    # ops/lift.frequent_triples
    anchor = rd.from_arrow(out_schema.empty_table()) if id_type is not None else None
    verified = j.map_batches(verify, batch_format="pyarrow")
    return anchor.union(verified) if anchor is not None else verified


def _keep_hot_buckets(rows_ds, key_cols: list[str]):
    """Semi-join broadcast: keep only rows whose bucket has >1 member.

    The >1-member key set is proportional to the number of DUPLICATE
    documents (tiny relative to the corpus), so it is collected once
    and broadcast; every map task filters against the same object-store
    copy. If a corpus ever had a hot-key set too big to broadcast, the
    fallback is a hash-partitioned ``hash_join`` on the keys —
    same semantics, one more shuffle.
    """
    import ray
    import pyarrow.compute as pc

    from ocr_service_ray.ops.agg import _key_hash, grouped_agg

    counts = grouped_agg(
        rows_ds.select_columns(key_cols),  # project before the counting shuffle
        key_cols,
        {"n": (None, "count")},
    )

    hot_tbl = pa.Table.from_pandas(
        counts.map_batches(
            lambda t: t.filter(pc.greater(t["n"], 1)), batch_format="pyarrow"
        ).to_pandas(),
        preserve_index=False,
    )
    # broadcast the hot keys as ONE sorted uint64 hash array — the
    # per-batch filter is then a vectorized np.isin, no per-row Python.
    # A 64-bit hash collision only lets a singleton row THROUGH the
    # prefilter (downstream still groups by the true key, so a
    # false-positive row just lands in a 1-member group → no pair);
    # it can never drop a hot row.
    hot_hashes = np.sort(_key_hash(hot_tbl, key_cols)) if hot_tbl.num_rows else np.array([], np.uint64)
    hot_ref = ray.put(hot_hashes)

    class HotFilter:
        def __init__(self):
            self.hot = ray.get(hot_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            if not batch.num_rows:
                return batch
            if not len(self.hot):
                return batch.slice(0, 0)
            # membership via binary search on the pre-sorted broadcast
            # array — np.isin re-sorts the UNION of probe and hot set
            # on every batch, which at a corpus-proportional hot set
            # turns each batch into an O((n+m) log(n+m)) argsort
            h = _key_hash(batch, key_cols)
            idx = np.minimum(np.searchsorted(self.hot, h), len(self.hot) - 1)
            mask = self.hot[idx] == h
            return batch.filter(pa.array(mask))

    return bcast_stage(rows_ds, HotFilter, hot_hashes.nbytes)


def simhash64(text: str, hash: str = "oracle") -> int:
    """64-bit SimHash over whitespace tokens, vectorized: one
    (n_tokens, 64) bit matrix reduction per document. Token hash in
    ``"oracle"`` mode is md5-derived (first 16 hex chars, big-endian)
    so DuckDB's ``md5()`` reproduces the fingerprint bit-for-bit; in
    ``"fast"`` mode it is the vectorized polynomial token hash
    (ops/hashing.py) — no per-token md5."""
    toks = text.split()
    if not toks:
        return 0
    if hash == "fast":
        from ocr_service_ray.ops.hashing import hash_tokens_fast

        hs = hash_tokens_fast(toks)
    else:
        hs = np.fromiter(
            (int(hashlib.md5(t.encode()).hexdigest()[:16], 16) for t in toks),
            dtype=np.uint64,
            count=len(toks),
        )
    bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(
        np.int64
    )
    acc = (2 * bits - 1).sum(axis=0)
    fp_bits = (acc > 0).astype(np.uint64)
    return int((fp_bits << np.arange(64, dtype=np.uint64)).sum(dtype=np.uint64))


def simhash_candidates(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
    signature_path: str | None = None,
    hash: str = "oracle",
):
    """Near-dup pairs within Hamming distance ≤ max_hamming, via 4×16-bit
    band blocking (any pair within distance 3 shares at least one exact
    16-bit band — pigeonhole over 4 bands). ``hash="fast"`` switches
    token hashing to the vectorized polynomial mode (see
    ``simhash64``)."""

    def to_fp_rows(batch: pa.Table) -> pa.Table:
        ids, fps = [], []
        for doc_id, text in zip(batch[id_col].to_pylist(), batch[text_col].to_pylist()):
            ids.append(doc_id)
            fps.append(simhash64(text, hash))
        return pa.table({"id": pa.array(ids), "fp": pa.array(fps, pa.uint64())})

    def to_band_rows(batch: pa.Table) -> pa.Table:
        band_ids, band_vals, ids, fps = [], [], [], []
        for doc_id, fp in zip(batch["id"].to_pylist(), batch["fp"].to_pylist()):
            for band in range(4):
                band_ids.append(band)
                band_vals.append((fp >> (band * 16)) & 0xFFFF)
                ids.append(doc_id)
                fps.append(fp)
        return pa.table(
            {
                "band": pa.array(band_ids, pa.int32()),
                "band_val": pa.array(band_vals, pa.int64()),
                "id": pa.array(ids),
                "fp": pa.array(fps, pa.uint64()),
            }
        )

    # Pair generation is bucketed by the TRUE blocking key
    # (band, band_val) via bucketed_map_groups — the hot-bucket
    # prefilter leaves only multi-member buckets, and the coarse-hash
    # bucketing amortizes Ray's ~1 ms per-group dispatch exactly like
    # the minhash path (grouping by band alone materialized an entire
    # band — 1/4 of the candidate table — in ONE task: a memory /
    # straggler hazard at corpus scale). Within a bucket every row
    # shares band_val, so pairing is upper-triangle index generation +
    # a byte-table popcount over fp XORs, emitted in bounded slices so
    # a degenerate bucket of D identical fingerprints streams its D²/2
    # candidate rows instead of materializing them at once.
    _POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
    _PAIR_SLICE = 1 << 20  # max candidate pairs materialized per slice

    def bucket_pairs(group: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "id_a": pd.Series(dtype=group["id"].dtype),
                "id_b": pd.Series(dtype=group["id"].dtype),
                "hamming": pd.Series(dtype="int64"),
            }
        )
        n = len(group)
        if n < 2:
            return empty
        g = group.sort_values("id").reset_index(drop=True)
        ids = g["id"].to_numpy()
        fps = g["fp"].to_numpy(dtype=np.uint64)
        ia, ib = np.triu_indices(n, k=1)
        outs = [empty]
        for s in range(0, len(ia), _PAIR_SLICE):
            sa, sb = ia[s : s + _PAIR_SLICE], ib[s : s + _PAIR_SLICE]
            xor = fps[sa] ^ fps[sb]
            ham = _POP8[xor.view(np.uint8).reshape(-1, 8)].sum(axis=1).astype(np.int64)
            keep = ham <= max_hamming
            if keep.any():
                outs.append(
                    pd.DataFrame(
                        {"id_a": ids[sa[keep]], "id_b": ids[sb[keep]], "hamming": ham[keep]}
                    )
                )
        return pd.concat(outs, ignore_index=True) if len(outs) > 1 else empty

    from ocr_service_ray.ops.agg import bucketed_map_groups

    # One corpus pass → 8-byte fingerprint per doc, pinned (see
    # minhash_lsh_candidates phase-1 note; ``signature_path`` is the
    # parquet-table tier for corpus scale). Band explosion + count +
    # filter all read the fingerprint table, never the text again.
    fp_plan = ds.map_batches(
        to_fp_rows, batch_format="pyarrow", batch_size=_SIG_BATCH
    )
    if signature_path is not None:
        from ocr_service_ray.sources.readers import read_parquet_clean
        from ocr_service_ray.sources.sinks import write_parquet_sized

        write_parquet_sized(fp_plan, signature_path)
        fp_rows = read_parquet_clean(signature_path)
    else:
        fp_rows = fp_plan.materialize()
    band_rows = _keep_hot_buckets(
        fp_rows.map_batches(to_band_rows, batch_format="pyarrow"), ["band", "band_val"]
    )
    # Skew note: a degenerate bucket of D identical fingerprints (e.g.
    # empty documents) still yields D²/2 candidate pairs — run
    # exact_dedup first on real corpora so identical texts never reach
    # the near-dup pass.
    pairs = bucketed_map_groups(band_rows, ["band", "band_val"], bucket_pairs)
    return dedupe_pairs(pairs, "hamming", agg="min")


def ngram_jaccard_pairs(ds, pair_key, text_col: str = "text", id_col: str = "doc_id", n: int = 3):
    """Exact n-gram Jaccard over a candidate pairing: rows sharing the
    same ``pair_key(id)`` value are co-located by ONE groupby shuffle
    and verified in-group with the exact kernel. This is the
    verification tail of an LSH pass — the pairing function stands in
    for the candidate-bucket key, so the shuffle moves only candidate
    rows, never the full corpus. Returns {id_a, id_b, jaccard} for
    groups of exactly 2."""

    def add_key(batch: pa.Table) -> pa.Table:
        keys = [pair_key(i) for i in batch[id_col].to_pylist()]
        return batch.append_column("pair_id", pa.array(keys, pa.int64()))

    def verify(group: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "id_a": pd.Series(dtype=group[id_col].dtype),
                "id_b": pd.Series(dtype=group[id_col].dtype),
                "jaccard": pd.Series(dtype="float64"),
            }
        )
        if len(group) != 2:
            return empty
        g = group.sort_values(id_col).reset_index(drop=True)
        jac = ngram_jaccard(g[text_col].iloc[0], g[text_col].iloc[1], n)
        return pd.DataFrame(
            {"id_a": [g[id_col].iloc[0]], "id_b": [g[id_col].iloc[1]], "jaccard": [jac]}
        )

    from ocr_service_ray.ops.agg import bucketed_map_groups

    # bucketed: one group per candidate pair — plain map_groups would
    # pay ~1 ms dispatch per pair
    return bucketed_map_groups(
        ds.map_batches(add_key, batch_format="pyarrow"), ["pair_id"], verify
    )


def ngram_jaccard(text_a: str, text_b: str, n: int = 3) -> float:
    """Exact word-n-gram Jaccard — the verification kernel behind the
    LSH estimates."""
    def grams(t):
        w = t.split()
        if len(w) < n:
            return {" ".join(w)} if w else set()
        return {" ".join(w[i : i + n]) for i in range(len(w) - n + 1)}

    ga, gb = grams(text_a), grams(text_b)
    if not ga and not gb:
        return 1.0
    inter = len(ga & gb)
    return inter / (len(ga) + len(gb) - inter)


def embedding_near_dup(
    ds,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    block_col: str = "label",
    threshold: float = 0.95,
):
    """Embedding-cosine near-dup pairs, blocked by ``block_col``:
    groupby(block) → blockwise normalized matmul inside the group.
    The blocking key is the partitioning assumption — at corpus scale
    use coarse cluster ids from an IVF pass (similarity.py) as the
    block. Returns {id_a, id_b, cos_sim} with id_a < id_b, rounded 6dp."""

    def block_pairs(group: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "id_a": pd.Series(dtype=group[id_col].dtype),
                "id_b": pd.Series(dtype=group[id_col].dtype),
                "cos_sim": pd.Series(dtype="float64"),
            }
        )
        if len(group) < 2:
            return empty
        g = group.sort_values(id_col).reset_index(drop=True)
        mat = np.stack([np.asarray(v, dtype=np.float64) for v in g[vec_col]])
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        mat = mat / norms[:, None]
        sims = mat @ mat.T
        ia, ib = np.triu_indices(len(g), k=1)
        mask = sims[ia, ib] >= threshold
        return pd.DataFrame(
            {
                "id_a": g[id_col].to_numpy()[ia[mask]],
                "id_b": g[id_col].to_numpy()[ib[mask]],
                "cos_sim": np.round(sims[ia, ib][mask], 6),
            }
        )

    from ocr_service_ray.ops.agg import bucketed_map_groups

    # bucketed: at corpus scale the block key is an IVF cluster id with
    # thousands of distinct values
    return bucketed_map_groups(ds, [block_col], block_pairs)


def paragraph_dedup(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    sep: str = "\n",
):
    """Global paragraph-level exact dedup (the RefinedWeb / CCNet
    line-dedup rule): split every document on ``sep``, keep ONLY the
    globally FIRST occurrence of each paragraph — first by
    ``(id_col, position)`` order, so repeats both across documents and
    within one document drop — and reassemble the survivors in
    original order. Documents whose every paragraph was seen earlier
    disappear from the output.

    Ray shape — two exchanges, both element-pure-hash bucketed:

    1. **explode** (map_batches, vectorized): ``pc.split_pattern`` →
       flatten with ``list_parent_indices``; positions come from the
       list offsets. No Python loop over rows.
    2. **winner per paragraph** (keyed exchange on the paragraph
       text): all occurrences of one paragraph meet in one task; keep
       the ``(doc, pos)``-min row. The exchange moves each paragraph
       occurrence once — there is no cheaper exact rule, since the
       surviving text must reach its reassembly group anyway.
    3. **reassemble** (keyed exchange on ``id_col``): in-group
       sort by position, join with ``sep``.

    Skew: the pathological key is a corpus-dominating paragraph (empty
    string, boilerplate header) — all its copies meet in one group but
    the fold is O(group) numpy, and only ONE row survives it.

    Output: ``{id_col, text, n_kept}`` with ``n_kept`` = surviving
    paragraph count per document.
    """
    import pyarrow.compute as pc

    from ocr_service_ray.ops.agg import bucketed_apply

    def explode(b: pa.Table) -> pa.Table:
        lists = pc.split_pattern(b[text_col], sep)
        flat = pc.list_flatten(lists)
        parents = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False)
        ids = b[id_col].to_numpy(zero_copy_only=False)[parents]
        # position within the document = running index minus the
        # document's first flat index (vectorized off the list offsets)
        counts = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        starts = np.repeat(
            np.concatenate(([0], np.cumsum(counts)[:-1])), counts
        )
        pos = np.arange(len(parents), dtype=np.int64) - starts
        return pa.table(
            {id_col: pa.array(ids), "pos": pa.array(pos), "para": flat}
        )

    # Whole-bucket vectorized folds (bucketed_apply): at corpus scale
    # the group counts here are the two LARGEST in the repo (|distinct
    # paragraphs| and |documents|), so the per-group-callable form
    # spends its time in interpreter dispatch, not in the fold.
    def first_occurrence(g: pd.DataFrame) -> pd.DataFrame:
        # min (id, pos) per paragraph == first occurrence in global
        # (doc, position) order
        return g.sort_values(
            [id_col, "pos"], kind="stable"
        ).drop_duplicates("para", keep="first")

    def reassemble(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "pos"], kind="stable")
        out = g.groupby(id_col, sort=False, as_index=False).agg(
            text=("para", sep.join), n_kept=("para", "size")
        )
        return out

    exploded = ds.map_batches(explode, batch_format="pyarrow")
    winners = bucketed_apply(exploded, ["para"], first_occurrence, _DEDUP_BUCKETS)
    return bucketed_apply(winners, [id_col], reassemble, _DEDUP_BUCKETS)


def fuzzy_pairs(ds, col: str, max_dist: int = 1):
    """Edit-distance near-duplicate VALUE pairs — fuzzy-matching the
    distinct strings of ``col`` (titles, names, entity labels) within
    ``max_dist`` Levenshtein edits. The blocked-join shape:

    1. **distinct** (combiner ``grouped_agg``): the pair search runs
       over distinct values, never rows — the exchange moves ≤
       |distinct-in-block| value rows.
    2. **length banding**: ``|len_a - len_b| > max_dist`` implies
       ``lev > max_dist``, so each value is emitted as an ANCHOR in
       its own length bucket and as a PROBE in buckets ``len .. len +
       max_dist`` — every qualifying pair meets in exactly ONE bucket
       (the longer value's), equal lengths deduped by lexicographic
       order.
    3. **in-bucket verify** (bucketed_map_groups): per-pair
       ``levenshtein_distance`` (kernels/correct.py, the M7 parity
       kernel) — O(probes x anchors) Python per bucket, bounded by the
       length-band blocking; for web-scale vocabularies add a stronger
       block key (first char, phonetic code) upstream.

    Output: ``{name_a, name_b, dist}`` with ``name_a < name_b``
    lexicographically, one row per qualifying distinct pair.
    """
    from ocr_service_ray.kernels.correct import levenshtein_distance
    from ocr_service_ray.ops.agg import bucketed_map_groups, grouped_agg

    distinct = grouped_agg(ds, [col], {"_cnt": (None, "count")})

    def roles(b: pa.Table) -> pa.Table:
        vals = [v for v in b[col].to_pylist() if v is not None]
        out_v, out_bucket, out_role = [], [], []
        for v in vals:
            n = len(v)
            out_v.append(v)
            out_bucket.append(n)
            out_role.append(0)  # anchor in its own length bucket
            for d in range(max_dist + 1):
                out_v.append(v)
                out_bucket.append(n + d)
                out_role.append(1)  # probe in len..len+max_dist
        return pa.table(
            {
                "val": pa.array(out_v, pa.string()),
                "len_bucket": pa.array(out_bucket, pa.int64()),
                "role": pa.array(out_role, pa.int64()),
            }
        )

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        anchors = g.loc[g["role"] == 0, "val"].tolist()
        probes = g.loc[g["role"] == 1, "val"].tolist()
        a_rows, b_rows, dists = [], [], []
        for p in probes:
            for a in anchors:
                # meet-once rule: shorter probe vs full-length anchor;
                # equal lengths ordered lexicographically
                if len(p) > len(a) or (len(p) == len(a) and p >= a):
                    continue
                d = levenshtein_distance(p, a)
                if d <= max_dist:
                    lo, hi = (p, a) if p < a else (a, p)
                    a_rows.append(lo)
                    b_rows.append(hi)
                    dists.append(d)
        return pd.DataFrame({"name_a": a_rows, "name_b": b_rows, "dist": dists})

    exploded = distinct.map_batches(roles, batch_format="pyarrow")
    return bucketed_map_groups(exploded, ["len_bucket"], verify)
