"""End-to-end corpus curation — the training-data counterpart of the
extraction flagship: one composition of the repo's curation operators
that takes a raw (doc_id, text, source) corpus to a filtered,
deduplicated, decontaminated, mix-scheduled training corpus.

    raw ──► quality filter (Gopher repetition rules; zero-shuffle map)
        ──► exact dedup   (md5 group keep-min; drop set bounded by dups)
        ──► near dedup    (MinHash-LSH pairs → connected components →
                           one canonical doc per cluster)
        ──► decontaminate (n-gram overlap vs an eval set; optional)
        ──► mix schedule  (deterministic weighted source interleave,
                           joined back through the budget-tiered
                           auto_join: gather-broadcast, or a hash join
                           past ``broadcast_budget``)

Every stage is an already-tested operator with its own oracle; the
pipeline adds only composition and a stage-count summary. 100 TB
shape notes per stage live in the operator modules — nothing here
materializes the corpus: the only driver-side state is the bounded
drop/keep sets (duplicates, near-dup clusters, contaminated ids), the
mix rank table when it fits ``broadcast_budget``, and the per-stage
counts in the summary.

``counts=True`` executes one ``count()`` per stage boundary for the
summary — each count runs that stage's plan once (lazy datasets
re-execute), so production runs at scale pass ``counts=False`` and
read the stage deltas from the final dataset's lineage instead.
"""

from __future__ import annotations

from ocr_service_ray.ops.pool import bcast_stage

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _staged_pin(ds, name: str, staging_path: str | None, resume: bool, phases: list):
    """Pin a multi-consumer stage boundary. Without ``staging_path``:
    object store (materialize). With it: an ATOMIC staged phase —
    data written to ``<path>.tmp`` and renamed, then a
    ``<path>.manifest.json`` (rows / bytes / wall / lineage) staged
    and renamed as the phase commit point. A killed run leaves either
    a committed phase (manifest parses) or an ignorable torn ``.tmp``;
    ``resume=True`` reads committed phases back instead of recomputing
    them — the curation analogue of ``stages/checkpoint.py``'s
    per-partition commit (north_rule: resumable from checkpoints with
    per-phase lineage + metrics).

    ``ds`` may be a zero-arg THUNK returning the dataset: it is only
    invoked when the phase actually recomputes, so a resumed phase
    skips not just the Ray execution but the driver-side plan/state
    construction feeding it (dup-group pulls, bloom builds,
    component fixpoints)."""
    if staging_path is None:
        return (ds() if callable(ds) else ds).materialize()

    import json
    import os
    import shutil
    import time

    import pyarrow.parquet as pq

    from ocr_service_ray.sources.readers import read_parquet_clean

    path = os.path.join(staging_path, name)
    mf_path = path + ".manifest.json"
    if resume:
        try:
            with open(mf_path, encoding="utf-8") as f:
                manifest = json.load(f)
            if os.path.isdir(path):
                phases.append({**manifest, "resumed": True})
                return read_parquet_clean(path)
        except (OSError, ValueError):
            pass  # missing or torn manifest → recompute the phase
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.remove(mf_path)
    except OSError:
        pass
    os.makedirs(staging_path, exist_ok=True)
    t0 = time.perf_counter()
    if callable(ds):
        ds = ds()
    from ocr_service_ray.sources.sinks import write_parquet_sized

    write_parquet_sized(ds, tmp)
    rows = nbytes = 0
    for fn in os.listdir(tmp):  # footer metadata only, no data re-read
        if fn.endswith(".parquet"):
            fp = os.path.join(tmp, fn)
            rows += pq.read_metadata(fp).num_rows
            nbytes += os.path.getsize(fp)
    os.rename(tmp, path)  # data in place; not yet committed
    manifest = {
        "phase": name,
        "index": len(phases),
        "upstream": phases[-1]["phase"] if phases else "input",
        "rows": rows,
        "bytes": nbytes,
        "t_wall_sec": round(time.perf_counter() - t0, 4),
        "resumed": False,
    }
    mf_tmp = mf_path + ".tmp"
    with open(mf_tmp, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
    os.rename(mf_tmp, mf_path)  # phase COMMIT point
    phases.append(manifest)
    return read_parquet_clean(path)


def curate_corpus(
    docs_ds,
    eval_ds=None,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    source_col: str = "source",
    mix_weights: dict[str, int] | None = None,
    near_dup_threshold: float = 0.5,
    decontam_ngram: int = 8,
    counts: bool = True,
    staging_path: str | None = None,
    resume: bool = False,
    minhash_hash: str = "oracle",
    exact_keep: str = "broadcast",
    broadcast_budget: int = 1_000_000,
):
    """Returns ``(curated_ds, summary dict)``. ``curated_ds`` carries
    the surviving rows (original columns + ``rank`` / ``mix_key`` when
    ``mix_weights`` is given); the summary maps stage → surviving row
    count (None when ``counts=False``).

    ``exact_keep`` selects the exact-dedup keep-filter strategy:

    - ``"broadcast"``: pull the {text_hash → keep_id} table for
      DUPLICATED groups to the driver once and ship it to every
      filter actor. Right when duplicate-group count is
      dimension-sized (clean corpora, bench scale).
    - ``"join"``: the 100 TB path for dup-heavy corpora (30–50%
      duplicate rates are normal on web crawls, so the duplicated-
      group table is O(corpus) and neither the driver pull nor the
      per-actor broadcast survives). The dup-group table stays a
      Dataset; a Bloom bitmap (fixed-size regardless of key count,
      built with the per-block OR combiner in ops/bloom.py) routes
      each row: bloom-negative rows are PROVABLY not in any
      duplicated group (no false negatives) and pass through with
      zero shuffle; bloom-positive rows take a key-partitioned
      left-outer hash join against the dup-group table, surviving
      when they are a false positive (null keep_id) or the group's
      keeper. Both paths are exact — the result equals the
      broadcast strategy bit for bit (pytest-asserted).
    - ``"auto"``: the production default shape — computes the
      dup-group table as a pinned Dataset (never an unbounded driver
      pull), COUNTS it, and picks: empty → pass-through; ≤
      ``broadcast_budget`` rows → pull the pinned table and run the
      zero-shuffle broadcast filter; above the budget → the join
      machinery. The driver pull is bounded by the budget by
      construction, so "auto" is scale-safe at any duplicate rate
      while keeping small/clean corpora on the cheap path.

    ``broadcast_budget`` bounds both driver pulls of the pipeline: the
    dup-group table above (``exact_keep="auto"``) and the mix rank
    table (one row per survivor, when ``mix_weights`` is given), which
    ``relational.auto_join`` pulls and gathers per batch at or under
    the budget (and under its 128 MiB byte budget) and hash-joins above
    it.
    """
    import ray

    from ocr_service_ray.ops.dedup import exact_dedup, minhash_lsh_candidates
    from ocr_service_ray.ops.graph import keep_canonical
    from ocr_service_ray.ops.mix import interleave_by_weight
    from ocr_service_ray.ops.quality_rules import repetition_stats

    summary: dict[str, int | None] = {}

    def stage_count(ds):
        return int(ds.count()) if counts else None

    phases: list[dict] = []
    summary["phases"] = phases

    def pin(ds, name: str):
        """Pin a stage boundary that MULTIPLE consumers read — lazy
        lineage re-executes the whole upstream chain once per
        consumer otherwise (measured 5× the pipeline cost). Object
        store at bench scale; ``staging_path`` commits the boundary
        atomically as a parquet phase with a lineage manifest, and
        ``resume=True`` skips recomputation of committed phases (the
        real 100 TB pattern — see ``_staged_pin``)."""
        return _staged_pin(ds, name, staging_path, resume, phases)

    summary["input"] = stage_count(docs_ds)

    # 1 — quality filter (streaming, zero shuffle)
    flagged = repetition_stats(docs_ds, text_col, id_col, append=True)

    def keep_quality(b: pa.Table) -> pa.Table:
        keep = pc.and_(b["keep_top_word"], b["keep_dup_bigram"])
        kept = b.filter(keep)
        drop = [
            "n_words", "n_distinct_words", "top_word_count",
            "n_bigrams", "n_distinct_bigrams", "keep_top_word",
            "keep_dup_bigram",
        ]
        return kept.drop_columns(drop)

    quality = flagged.map_batches(keep_quality, batch_format="pyarrow")
    summary["after_quality"] = stage_count(quality)

    # 2 — exact dedup: drop every row of a duplicated-text group except
    # the group's min-id keeper. Two strategies (docstring).
    import numpy as np

    from ocr_service_ray.ops.dedup import content_hash

    # which tier actually ran — recorded in the summary so job logs
    # show whether "auto" resolved to broadcast or join (stays
    # "resumed" when a committed phase made build_exact a no-op)
    tier_ran = {"exact": "resumed"}

    def build_exact():
        # evaluated ONLY when the "exact" phase recomputes — a
        # resumed run skips the dup-group pull / bloom build /
        # join plan entirely (thunk contract of _staged_pin)
        if exact_keep not in ("broadcast", "join", "auto"):
            raise ValueError(f"unknown exact_keep strategy: {exact_keep!r}")
        q = quality

        def broadcast_filter(groups: pd.DataFrame):
            """Keep-filter with the {text_hash → keep_id} table shipped
            once via ray.put — groups is bounded by DUPLICATED-group
            count (caller-enforced: dimension-sized corpora, or the
            auto budget)."""
            dup_groups = groups.sort_values("text_hash")
            dup_hashes = dup_groups["text_hash"].to_numpy(dtype="U32")
            dup_keep = dup_groups["keep_id"].to_numpy()
            keep_ref = ray.put((dup_hashes, dup_keep))

            class ExactKeep:
                def __init__(self):
                    self.hashes, self.keep = ray.get(keep_ref)

                def __call__(self, b: pa.Table) -> pa.Table:
                    # vectorized: row survives unless its hash is a
                    # duplicated group AND its id is not the keeper
                    hashed = content_hash(b, text_col)
                    hs = hashed["text_hash"].to_numpy(zero_copy_only=False).astype("U32")
                    ids = b[id_col].to_numpy(zero_copy_only=False)
                    idx = np.searchsorted(self.hashes, hs)
                    idx_c = np.minimum(idx, max(len(self.hashes) - 1, 0))
                    in_dup = (
                        (self.hashes[idx_c] == hs) if len(self.hashes) else np.zeros(len(hs), bool)
                    )
                    mask = ~in_dup | (
                        (self.keep[idx_c] == ids) if len(self.hashes) else True
                    )
                    return b.filter(pa.array(mask))

            return bcast_stage(
                q, ExactKeep, dup_hashes.nbytes + dup_keep.nbytes
            )

        if exact_keep == "broadcast":
            # filter dups > 1 INSIDE the dataset — the driver pull must be
            # bounded by DUPLICATED groups, not by |distinct texts| ≈ corpus
            # (pull-then-filter was the 100-TB violation)
            dup_only = exact_dedup(q, text_col, id_col).map_batches(
                lambda b: b.filter(pc.greater(b["dups"], 1)), batch_format="pyarrow"
            )
            groups = dup_only.to_pandas()
            if groups.empty:  # zero-row to_pandas drops columns
                groups = pd.DataFrame({"text_hash": [], "keep_id": [], "dups": []})
            tier_ran["exact"] = "broadcast"
            return broadcast_filter(groups)

        # "join" and "auto": the dup-group table stays a Dataset,
        # pinned (consumed by the bloom build AND the join probe; a
        # parquet staging tier via staging_path is the real 100 TB
        # boundary). Quality-pin ordering depends on the tier:
        # with staging_path (the real corpus-scale pattern) quality is
        # STAGED FIRST — one corpus compute, written once, and every
        # later consumer (dup-group scan, bloom tag, the exact pin)
        # reads the staged parquet instead of recomputing; without
        # staging (in-memory bench) quality stays lazy here and is
        # materialized only when the join machinery actually engages —
        # a dup-free corpus then pays one exact_dedup shuffle over
        # the streamed scan and no extra object-store boundary
        # (measured +28% when pinned eagerly at bench scale).
        from ocr_service_ray.ops.bloom import bloom_membership, build_bloom
        from ocr_service_ray.ops.relational import hash_join

        if staging_path is not None:
            q = pin(q, "quality")
        dup_only = pin(
            exact_dedup(q, text_col, id_col).map_batches(
                lambda b: b.filter(pc.greater(b["dups"], 1)).select(
                    ["text_hash", "keep_id"]
                ),
                batch_format="pyarrow",
            ),
            "dup_groups",
        )
        n_dup = dup_only.count()  # metadata-cheap on the pinned table
        if n_dup == 0:
            # no duplicated group anywhere: every row survives, and the
            # join MUST be skipped — an all-empty left side has no
            # schema-bearing block to broadcast, so the acero join
            # cannot even learn its key field (hash_join LANDMINE).
            # Note the converse below: dup_only non-empty ⇒ suspect
            # non-empty (a bloom filter has no false negatives, so
            # every duplicated row is bloom-positive).
            tier_ran["exact"] = "pass-through"
            return q
        if exact_keep == "auto" and n_dup <= broadcast_budget:
            # the dup-group table fits the broadcast budget: pull the
            # PINNED (already-computed) table and take the zero-shuffle
            # path — the pull is ≤ broadcast_budget rows by this guard,
            # never O(corpus)
            tier_ran["exact"] = "broadcast"
            return broadcast_filter(dup_only.to_pandas())

        # the join machinery: bloom-route every row, key-partitioned
        # left-outer join for bloom positives only. 2 consumers of
        # quality from here (bloom tag + the outer "exact" pin); in
        # the in-memory tier quality was left lazy above, so pin it
        # now — one extra quality-plan pass vs pinning before
        # dup_groups, the right trade because the dup-heavy case pays
        # it once while the dup-free/auto-broadcast cases skip the
        # boundary. (Staged runs pinned quality before dup_groups —
        # do not double-pin.)
        if staging_path is None:
            q = pin(q, "quality")
        base_schema = q.schema()
        base_names = list(base_schema.names)
        bloom = build_bloom(dup_only, "text_hash")
        bloom_nbytes = bloom.nbytes
        bloom_ref = ray.put(bloom)
        del bloom

        class BloomTag:
            def __init__(self):
                self.bloom = ray.get(bloom_ref)

            def __call__(self, b: pa.Table) -> pa.Table:
                hashed = content_hash(b, text_col)
                member = bloom_membership(hashed["text_hash"], self.bloom)
                return hashed.append_column("_bloom", pa.array(member))

        # pinned: the clean and suspect branches both read it —
        # without the pin each branch re-executes the tag pass
        # (and at 100 TB the full upstream chain)
        tagged = pin(
            bcast_stage(q, BloomTag, bloom_nbytes),
            "bloom_tagged",
        )

        def take_clean(b: pa.Table) -> pa.Table:
            # bloom-negative → provably not duplicated (no false
            # negatives); survives with zero shuffle
            return b.filter(pc.invert(b["_bloom"])).select(base_names)

        def take_suspect(b: pa.Table) -> pa.Table:
            return b.filter(b["_bloom"]).drop_columns(["_bloom"])

        clean = tagged.map_batches(take_clean, batch_format="pyarrow")
        # repartition: bloom-negative-only batches filter to zero-row
        # blocks, which map_batches re-normalizes to SCHEMA-LESS
        # blocks the acero join rejects ("no match for key field
        # text_hash") — a real exchange rebuilds them with the
        # unified schema (hash_join LANDMINE note). Partition count
        # derives from the PINNED quality table's size (free — it is
        # materialized/staged), not a literal: suspect is bounded by
        # quality, and a fixed count either under-parallelizes the
        # join at corpus scale or over-partitions tiny inputs.
        from ocr_service_ray.ops.relational import join_partitions_for

        n_parts = join_partitions_for(q, dup_only, lo=8)
        suspect = tagged.map_batches(
            take_suspect, batch_format="pyarrow"
        ).repartition(n_parts)
        joined = hash_join(
            suspect, dup_only, on="text_hash", join_type="left_outer",
            num_partitions=n_parts,
        )

        def keep_rows(b: pa.Table) -> pa.Table:
            # empty join partitions emit zero-column blocks (see
            # ops/relational.hash_join LANDMINE note) — normalize
            # to the base schema instead of KeyError-ing
            if b.num_rows == 0 or "keep_id" not in b.column_names:
                return base_schema.empty_table()
            survive = pc.or_kleene(
                pc.is_null(b["keep_id"]),  # bloom false positive
                pc.equal(b["keep_id"], b[id_col]),  # group's keeper
            )
            return b.filter(pc.fill_null(survive, False)).select(base_names)

        kept = joined.map_batches(keep_rows, batch_format="pyarrow")
        tier_ran["exact"] = "join"
        return clean.union(kept)

    exact = pin(build_exact, "exact")
    summary["after_exact_dedup"] = stage_count(exact)
    summary["exact_keep_tier"] = tier_ran["exact"]

    # 3 — near dedup: LSH candidate pairs → components → one canonical
    # doc per cluster (drop set bounded by near-duplicates). The pair
    # table re-reads `exact` (lazy); at corpus scale pass
    # signature_path so the signature table persists instead.
    def build_near():
        # thunk: LSH signature materialization and the component
        # fixpoint only run when the "near" phase recomputes
        pairs = minhash_lsh_candidates(
            exact, text_col, id_col, threshold=near_dup_threshold, hash=minhash_hash
        )
        return keep_canonical(exact, pairs, id_col)

    # pinned: read by the decontamination probe and the mix join
    near = pin(build_near, "near")
    summary["after_near_dedup"] = stage_count(near)

    # 4 — decontamination (optional): drop docs sharing an n-gram with
    # the eval set.
    if eval_ds is not None:
        from ocr_service_ray.ops.decontam import decontaminate

        near = decontaminate(
            near, eval_ds, n=decontam_ngram, text_col=text_col, id_col=id_col
        )
        summary["after_decontam"] = stage_count(near)

    # 5 — mix schedule (optional): deterministic interleave key.
    if mix_weights:
        # auto_join reads `near` twice: once to compute the rank table
        # and once as the probe. Without the pin the decontamination
        # plan (with its actor pools) runs once per read; `near` alone
        # is already pinned above.
        if eval_ds is not None:
            near = pin(near, "decontaminated")
        ranked = interleave_by_weight(
            near.select_columns([id_col, source_col]),
            mix_weights,
            source_col=source_col,
            order_col=id_col,
        )
        from ocr_service_ray.ops.relational import auto_join

        # one row per survivor, three int64 columns: within the budget
        # it is pulled once and gathered per batch with no exchange;
        # past it, the key-partitioned hash join takes it
        near = auto_join(
            near,
            ranked.select_columns([id_col, "rank", "mix_key"]),
            on=id_col,
            budget=broadcast_budget,
        )
        summary["final"] = stage_count(near)
    else:
        summary["final"] = summary.get(
            "after_decontam", summary["after_near_dedup"]
        )

    return near, summary


def prune_corpus(
    docs_ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    source_col: str = "source",
    cap_per_source: int = 50,
    sep: str = "\n",
    counts: bool = True,
    staging_path: str | None = None,
    resume: bool = False,
):
    """The PRUNING half of corpus curation — size reduction rather
    than content filtering:

        raw ──► paragraph dedup   (global first-occurrence line dedup,
                                   in-order reassembly; empty docs drop)
            ──► source re-attach  (hash join on id — paragraph dedup
                                   moves only id/pos/text)
            ──► per-source cap    (first ``cap_per_source`` docs per
                                   source, block-local head(k) combiner)
            ──► temperature mix   (alpha=0.5: floor(sqrt(n)) docs per
                                   source by integer systematic ticks)

    Returns ``(pruned_ds, summary)``; the result carries
    ``{id_col, source_col, n_kept}`` (``n_kept`` = surviving paragraph
    count from the dedup stage). Lineage note: the capped stage is
    pinned (object store, or ``staging_path`` parquet) because
    ``temperature_sample`` consumes it twice (count pass + tick pass) —
    the same multi-consumer rule as ``curate_corpus``. The re-attach
    join's sides share only the source READ (no actor pools), so it
    needs no pin.
    """
    from ocr_service_ray.ops.dedup import paragraph_dedup
    from ocr_service_ray.ops.mix import temperature_sample
    from ocr_service_ray.ops.relational import grouped_topk, hash_join

    summary: dict[str, int | None] = {}

    def stage_count(ds):
        return int(ds.count()) if counts else None

    phases: list[dict] = []
    summary["phases"] = phases

    def pin(ds, name: str):
        return _staged_pin(ds, name, staging_path, resume, phases)

    summary["input"] = stage_count(docs_ds)

    deduped = paragraph_dedup(docs_ds, id_col, text_col, sep)
    summary["after_paragraph_dedup"] = stage_count(deduped)

    with_source = hash_join(
        deduped.select_columns([id_col, "n_kept"]),
        docs_ds.select_columns([id_col, source_col]),
        on=id_col,
    )

    capped = pin(
        grouped_topk(with_source, [source_col], [id_col], cap_per_source, [False]),
        "capped",
    )
    summary["after_cap"] = stage_count(capped)

    pruned = temperature_sample(capped, source_col, id_col)
    summary["final"] = stage_count(pruned)
    return pruned, summary
