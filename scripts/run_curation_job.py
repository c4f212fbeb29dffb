"""Corpus curation job — the end-to-end training-data pipelines as a
submittable entrypoint (`ray job submit -- python
scripts/run_curation_job.py ...`).

    python scripts/run_curation_job.py --input /root/testdata/sf0.01 \\
        --out-dir /tmp/curated --pipeline curate \\
        [--eval-split-mod 20] [--mix src0=5,src1=3] \\
        [--staging-path /tmp/curation_stages] [--minhash-hash fast]

    python scripts/run_curation_job.py --input ... --pipeline prune \\
        [--cap-per-source 1000] [--paragraph-sep $'\\n']

Writes the curated/pruned corpus as partitioned parquet under
--out-dir plus a JSON summary line (per-stage survivor counts and
per-phase lineage manifests) on stdout. --staging-path pins stage
boundaries to storage as ATOMIC committed phases (data dir renamed
into place, then a .manifest.json staged and renamed — the commit
point); --resume skips recomputation of committed phases AND the
final output when its manifest exists, so a run killed at any point
resumes from the last committed phase and produces byte-identical
output (pytest-asserted in tests/test_curation_resume.py). Guarded
ray.init (never inside library code).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", required=True, help="dir containing documents.parquet")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--pipeline", choices=["curate", "prune"], default="curate")
    ap.add_argument("--eval-split-mod", type=int, default=0,
                    help="decontaminate vs docs with doc_id %% MOD == 0 (0 = off)")
    ap.add_argument("--mix", default="",
                    help="source weights, e.g. src0=5,src1=3 (curate only)")
    ap.add_argument("--near-dup-threshold", type=float, default=0.5)
    ap.add_argument("--minhash-hash", choices=["oracle", "fast"], default="fast")
    ap.add_argument("--cap-per-source", type=int, default=1000)
    ap.add_argument("--paragraph-sep", default="\n")
    ap.add_argument("--staging-path", default=None)
    ap.add_argument("--resume", action="store_true",
                    help="skip committed phases under --staging-path and a "
                         "committed final output under --out-dir")
    ap.add_argument("--no-counts", dest="counts", action="store_false",
                    help="skip per-stage survivor counts in the summary — "
                         "the PRODUCTION default at scale (each count "
                         "re-executes that stage's plan; see "
                         "pipelines/curate.py docstring)")
    ap.add_argument("--exact-keep", choices=["broadcast", "join", "auto"],
                    default="auto",
                    help="exact-dedup keep-filter tier (curate only); "
                         "'auto' picks by --broadcast-budget")
    ap.add_argument("--broadcast-budget", type=int, default=1_000_000,
                    help="max rows pulled to the driver before the "
                         "exact keep-filter (dup groups) and the mix join "
                         "(rank table) switch to their join tiers")
    args = ap.parse_args()

    # resume fast path: the whole job already committed — nothing to do
    out_mf = os.path.join(args.out_dir, "_job_manifest.json")
    if args.resume and os.path.isfile(out_mf):
        try:
            with open(out_mf, encoding="utf-8") as f:
                prev = json.load(f)
            print(json.dumps({**prev, "resumed": True}))
            return
        except ValueError:
            pass  # torn manifest → rerun

    import ray

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"), include_dashboard=False)
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import pyarrow as pa

    from ocr_service_ray.sources.readers import read_parquet_clean

    docs = read_parquet_clean(
        f"{args.input}/documents.parquet", columns=["doc_id", "text", "source"]
    )

    if args.pipeline == "curate":
        from ocr_service_ray.pipelines.curate import curate_corpus

        eval_ds = None
        if args.eval_split_mod > 1:
            mod = args.eval_split_mod

            def split(want_eval: bool):
                def f(b: pa.Table) -> pa.Table:
                    ids = b["doc_id"].to_numpy(zero_copy_only=False)
                    m = (ids % mod == 0) if want_eval else (ids % mod != 0)
                    return b.filter(pa.array(m))

                return docs.map_batches(f, batch_format="pyarrow")

            eval_ds, docs = split(True), split(False)
        weights = None
        if args.mix:
            weights = {
                k: int(v) for k, v in (p.split("=") for p in args.mix.split(","))
            }
        out, summary = curate_corpus(
            docs,
            eval_ds,
            mix_weights=weights,
            near_dup_threshold=args.near_dup_threshold,
            counts=args.counts,
            staging_path=args.staging_path,
            resume=args.resume,
            minhash_hash=args.minhash_hash,
            exact_keep=args.exact_keep,
            broadcast_budget=args.broadcast_budget,
        )
        summary.setdefault("exact_keep", args.exact_keep)
    else:
        from ocr_service_ray.pipelines.curate import prune_corpus

        out, summary = prune_corpus(
            docs,
            cap_per_source=args.cap_per_source,
            sep=args.paragraph_sep,
            counts=args.counts,
            staging_path=args.staging_path,
            resume=args.resume,
        )

    # atomic final commit: data to .tmp → rename → job manifest staged
    # and renamed LAST (same discipline as the staged phases); a kill
    # at any point leaves a resumable state, never a half-read output
    import shutil

    tmp = args.out_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    out.write_parquet(tmp)
    shutil.rmtree(args.out_dir, ignore_errors=True)
    os.rename(tmp, args.out_dir)
    result = {"pipeline": args.pipeline, "out": args.out_dir, **summary}
    mf_tmp = out_mf + ".tmp"
    with open(mf_tmp, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2)
    os.rename(mf_tmp, out_mf)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
