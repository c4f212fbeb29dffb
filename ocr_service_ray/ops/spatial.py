"""Cell-blocked spatial self-join over integer plane coordinates.

The 100-TB shape: a point can be within L-infinity ``eps`` of another
only if their grid cells (side = ``eps``) differ by <= 1 per axis, so
each point is replicated to FOUR cells — its home cell and the three
lower-left neighbours ``(cx-dx, cy-dy)``, dx,dy in {0,1} — and pair
generation runs per cell via ONE bucketed key shuffle
(`ops/agg.bucketed_map_groups`). An eps-close pair's cells differ by
at most one per axis, hence the pair's MIN-cell
``(min(cx_a,cx_b), min(cy_a,cy_b))`` is in both points' replica sets;
emitting a pair only from the bucket that IS its min-cell yields each
pair exactly once with no global dedup pass (the spatial analogue of
the LSH-cell blocking in `ops/dedup.py` / `ops/similarity.py`).

Replication is a constant 4x on (id, x, y, cell) int64 quintuples —
never on payloads; per-cell work is quadratic in LOCAL density only
(cell side = eps), the standard grid-join contract — pick ``eps`` (or
pre-partition skewed hot cells) so a cell's point count fits a worker.
Coordinates must already be integers (micro-quantize floats upstream)
so the verify predicate is integer-exact and SQL-replayable: the
blocking is LOSSLESS — the result equals the naive quadratic join.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ocr_service_ray.ops.agg import bucketed_map_groups


def linf_self_join(
    ds,
    id_col: str,
    x_col: str,
    y_col: str,
    eps: int,
):
    """All pairs (id_a < id_b) with |dx| <= eps AND |dy| <= eps.

    ``ds``: Dataset with integer columns ``id_col, x_col, y_col``.
    Returns a Dataset of (id_a, id_b, linf) int64 rows, each pair
    exactly once. Floor-division cells handle negative coordinates.
    """
    eps = int(eps)
    if eps <= 0:
        raise ValueError("eps must be a positive integer")

    def replicate(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        x = b[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = b[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cx = x // eps  # floor division: correct grid for negatives
        cy = y // eps
        bcx = np.concatenate([cx, cx - 1, cx, cx - 1])
        bcy = np.concatenate([cy, cy, cy - 1, cy - 1])
        return pa.table(
            {
                "bcx": pa.array(bcx),
                "bcy": pa.array(bcy),
                "_id": pa.array(np.tile(ids, 4)),
                "_x": pa.array(np.tile(x, 4)),
                "_y": pa.array(np.tile(y, 4)),
                "_cx": pa.array(np.tile(cx, 4)),
                "_cy": pa.array(np.tile(cy, 4)),
            }
        )

    def pairs(g: pd.DataFrame):
        n = len(g)
        if n < 2:
            return None
        g = g.sort_values("_id")
        ids = g["_id"].to_numpy()
        x = g["_x"].to_numpy()
        y = g["_y"].to_numpy()
        cx = g["_cx"].to_numpy()
        cy = g["_cy"].to_numpy()
        bcx = int(g["bcx"].iloc[0])
        bcy = int(g["bcy"].iloc[0])
        iu, ju = np.triu_indices(n, k=1)
        dx = np.abs(x[iu] - x[ju])
        dy = np.abs(y[iu] - y[ju])
        # min-cell ownership: emit the pair from exactly one bucket
        keep = (
            (dx <= eps)
            & (dy <= eps)
            & (np.minimum(cx[iu], cx[ju]) == bcx)
            & (np.minimum(cy[iu], cy[ju]) == bcy)
        )
        if not keep.any():
            return None
        return pd.DataFrame(
            {
                "id_a": ids[iu[keep]],
                "id_b": ids[ju[keep]],
                "linf": np.maximum(dx[keep], dy[keep]),
            }
        ).astype("int64")

    return bucketed_map_groups(
        ds.map_batches(replicate, batch_format="pyarrow"),
        ["bcx", "bcy"],
        pairs,
    )
