"""Last-writer-wins: ``winner_index``, the engine's one "which row
wins for a key" kernel (``replay.direct_write``, ``key_history``,
``merge.resolve_chain_tables``, ``merge.lww_reduce``, the time-series
resample and ``lww_latest`` each build their own group codes and
orders and call it), and ``lww_latest``, the latest-row operator over
any keyed, ordered Dataset.

``lww_latest`` is a two-level reduce (no full-row shuffle of
already-dominated rows):
1. per-batch partial: keep only each key's max-(order) row inside the
   batch (one ``take`` of the winners; the payload columns are never
   sorted or copied per row),
2. bucket the survivors by key hash, one shuffle, per-bucket final
   reduce with the same kernel.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.grouping import group_codes


def winner_index(group: np.ndarray, *orders: np.ndarray) -> np.ndarray:
    """For each distinct ``group`` value, the index of its
    max-``orders`` row (int64 arrays, most significant order first),
    ties going to the LATER position: a stable sort by (group, orders)
    keeping each group's last row. One index per group, ascending by
    group value (``direct_write`` slices its pieces in that order).

    A stable ``np.lexsort``, not a hash-style ``np.maximum.at`` per
    group: that was 2-3x faster on shuffled rows, but a chain arrives
    mostly sorted (its base's codes, its epochs and seqs ascending),
    where lexsort was 1.7-2.3x faster unless the deltas outnumbered
    the base, and below ~500 rows its fixed cost is a third of the
    hash-style one."""
    if len(group) == 0:
        return np.empty(0, np.int64)
    perm = np.lexsort((*reversed(orders), group))
    g = group[perm]
    return perm[np.flatnonzero(np.append(g[1:] != g[:-1], True))]


def order_rank(col) -> np.ndarray:
    """An order column of ANY type as int64 ranks for ``winner_index``:
    equal values share a rank, nulls rank last (pandas' default)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pc.rank(col, sort_keys="ascending", null_placement="at_end",
                   tiebreaker="min").to_numpy(zero_copy_only=False).astype(np.int64)


def _winner_take(tbl: pa.Table, key_cols: list[str], order_cols: list[str]) -> pa.Table:
    """One row per key: the max-(order_cols) row by ``winner_index``."""
    if tbl.num_rows == 0:
        return tbl
    # collision-free composite codes (per-column dictionary encode with
    # null-as-own-code: no string-join separator ambiguity, and
    # (NULL, 'a') != (NULL, 'b'))
    codes, _, _ = group_codes(tbl, key_cols)
    idx = winner_index(codes, *(order_rank(tbl[c]) for c in order_cols))
    return tbl.take(pa.array(idx))  # the ONE payload gather


def lww_latest(
    ds,
    key_cols: Sequence[str] | str,
    order_cols: Sequence[str] | str,
    num_buckets: int = 32,
    batch_size: int = 65536,
):
    """Dataset of the max-(order_cols) row per key group."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    order_cols = [order_cols] if isinstance(order_cols, str) else list(order_cols)

    def partial(t: pa.Table) -> pa.Table:
        from .joins import _bucket_expr  # ONE routing definition engine-wide

        out = _winner_take(t, key_cols, order_cols)
        return out.append_column(
            "__bucket__", _bucket_expr(out[key_cols[0]], num_buckets)
        )

    def final(t: pa.Table) -> pa.Table:
        return _winner_take(t, key_cols, order_cols).drop_columns(["__bucket__"])

    return (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=batch_size)
        .groupby("__bucket__")
        .map_groups(final, batch_format="pyarrow")
    )
