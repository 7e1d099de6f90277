"""Partitioned analytic window functions: ROW_NUMBER / LAG / LEAD /
running SUM over ``PARTITION BY key ORDER BY order_cols``.

The reference reconciler has no window functions, but its LWW "latest
row per key" (SURVEY §2.6, `service/ReconciliationService.java:151`
match-ordinal bookkeeping) is a degenerate ROW_NUMBER; this stage
generalizes that to the full analytic family a training-data pipeline
needs (sessionized sequence features, per-user deltas, running totals).

Scale shape (identical to `queries.q_rolling_user_values`):

- ONE key-hash shuffle (``shuffle.keyed_shuffle``): rows are grouped
  by the hash BUCKET of the key, not the raw key — thousands of
  groups instead of millions, so the shuffle produces large dense
  blocks and `map_groups` runs a vectorized kernel per bucket rather
  than per key.
- Inside a bucket every function is a segmented numpy kernel over the
  (key, order)-sorted block: no per-row Python, no per-key loop.
- Per-BUCKET memory, not per-key: a bucket must fit a worker's heap.
  At 100 TB raise ``num_buckets`` so (rows × row_width / buckets) is a
  few hundred MB; skewed single keys are bounded by the key's own row
  count (a window function is inherently per-key sequential state —
  the same bound any engine has).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa

from .shuffle import keyed_shuffle


def _segment_starts(keys: np.ndarray) -> np.ndarray:
    """Start index of each key-run in a key-sorted array. Null keys
    (NaN/NaT after a numeric/timestamp column's to_numpy) form ONE run
    like any other key — a raw != comparison would fragment them into a
    segment PER ROW (NaN != NaN is True), giving every null-keyed row
    rn=1/n=1 instead of SQL's single PARTITION BY NULL group (string
    keys already behave: None == None under numpy object compare)."""
    if len(keys) == 0:
        return np.zeros(0, dtype=np.int64)
    neq = keys[1:] != keys[:-1]
    if keys.dtype.kind == "f":
        neq &= ~(np.isnan(keys[1:]) & np.isnan(keys[:-1]))
    elif keys.dtype.kind in "mM":
        neq &= ~(np.isnat(keys[1:]) & np.isnat(keys[:-1]))
    return np.concatenate([[0], np.flatnonzero(neq) + 1]).astype(np.int64)


def window_functions(
    ds,
    key: str,
    order_by: Sequence[str],
    row_number: str | None = None,
    rank: str | None = None,
    dense_rank: str | None = None,
    cume_dist: str | None = None,
    percent_rank: str | None = None,
    ntile: tuple[str, int] | None = None,
    lag: dict[str, str] | None = None,
    lead: dict[str, str] | None = None,
    cumsum: dict[str, str] | None = None,
    first_value: dict[str, str] | None = None,
    last_value: dict[str, str] | None = None,
    group_min: dict[str, str] | None = None,
    group_max: dict[str, str] | None = None,
    group_sum: dict[str, str] | None = None,
    group_count: str | None = None,
    num_buckets: int = 16,
    keep: Sequence[str] | None = None,
):
    """Compute analytic functions over ``PARTITION BY key ORDER BY
    order_by`` in one key-hash shuffle.

    ``row_number``: output name for the 1-based ordinal (only
    deterministic when ``order_by`` is a total order within each key).
    ``rank`` / ``dense_rank``: SQL RANK/DENSE_RANK over the order tuple
    (ties share a rank; deterministic even when the order tuple ties,
    since they depend only on order VALUES, not sort stability).
    ``cume_dist`` / ``percent_rank``: SQL CUME_DIST (rows ≤ current
    peer group / partition rows) and PERCENT_RANK ((rank-1)/(rows-1),
    0 for single-row partitions) — like rank, they depend only on
    order VALUES, so they are deterministic under ties.
    ``ntile``: ``(output, k)`` — SQL NTILE(k): the partition's rows in
    order split into k groups whose sizes differ by at most one, the
    larger groups first (deterministic under the same total-order
    caveat as ``row_number``).
    ``lag`` / ``lead``: {output: source_col} shifted by 1 within the
    partition (null at the partition edge).
    ``cumsum``: {output: source_col} running sum (int64 sources — pass
    pre-scaled integer columns so the running sum is exact and
    bit-identical to any SQL engine; see queries "cents" convention).
    ``first_value`` / ``last_value``: {output: source_col} — the
    source value at the partition's first/last row in ``order_by``
    order, i.e. SQL FIRST_VALUE / LAST_VALUE with an explicit
    ``ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING``
    frame (the default SQL frame makes LAST_VALUE the current row —
    never what anyone wants; we implement the whole-partition frame).
    Deterministic only when ``order_by`` totally orders each key.
    ``group_min`` / ``group_max``: {output: source_col} — SQL
    ``MIN/MAX(src) OVER (PARTITION BY key)`` (whole-partition frame,
    order-independent). Source must be a null-free numeric column
    (segmented numpy reduceat; SQL's null-skipping is not replicated).
    ``group_sum``: {output: source_col} — SQL ``SUM(src) OVER
    (PARTITION BY key)``; same int64 contract as cumsum (pass
    pre-scaled integer columns for exactness; nulls are ignored,
    matching SQL SUM).
    ``group_count``: output name for SQL ``COUNT(*) OVER (PARTITION
    BY key)`` (partition row count, order-independent).
    ``keep``: passthrough columns (default: key + order_by).
    """
    lag = dict(lag or {})
    lead = dict(lead or {})
    cumsum = dict(cumsum or {})
    first_value = dict(first_value or {})
    last_value = dict(last_value or {})
    group_min = dict(group_min or {})
    group_max = dict(group_max or {})
    group_sum = dict(group_sum or {})
    keep = list(keep if keep is not None else [key, *order_by])
    sort_spec = [(key, "ascending")] + [(c, "ascending") for c in order_by]

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.sort_by(sort_spec)
        n = t.num_rows
        k = t[key].to_numpy(zero_copy_only=False)
        starts = _segment_starts(k)
        is_start = np.zeros(n, dtype=bool)
        is_start[starts] = True
        cols: dict[str, pa.Array | pa.ChunkedArray] = {c: t[c] for c in keep}
        seg_of = np.cumsum(is_start) - 1
        # per-segment sizes, shared by every branch that needs them
        sizes = np.diff(np.concatenate([starts, [n]])).astype(np.int64)
        if row_number:
            # ordinal = global index - start index of the row's segment
            rn = np.arange(n, dtype=np.int64) - starts[seg_of] + 1
            cols[row_number] = pa.array(rn, pa.int64())
        if rank or dense_rank or cume_dist or percent_rank:
            # a tie-run starts where the (key, order_by) tuple changes
            new_run = is_start.copy()
            for c in order_by:
                v = t[c].to_numpy(zero_copy_only=False)
                if n > 1:
                    neq = v[1:] != v[:-1]
                    if v.dtype.kind == "f":
                        # nulls arrive as NaN; SQL ranks NULLs as peers,
                        # so two consecutive NaNs must NOT start a run
                        neq &= ~(np.isnan(v[1:]) & np.isnan(v[:-1]))
                    elif v.dtype.kind in "mM":
                        # timestamp nulls arrive as NaT — same peer rule
                        neq &= ~(np.isnat(v[1:]) & np.isnat(v[:-1]))
                    new_run[1:] |= neq
            idx = np.arange(n, dtype=np.int64)
            run_start = np.maximum.accumulate(np.where(new_run, idx, 0))
            if rank:
                cols[rank] = pa.array(run_start - starts[seg_of] + 1, pa.int64())
            if dense_rank:
                runs = np.cumsum(new_run)  # 1-based run ordinal
                cols[dense_rank] = pa.array(runs - runs[starts[seg_of]] + 1, pa.int64())
            if cume_dist or percent_rank:
                m = sizes[seg_of]
                if cume_dist:
                    # last index of each tie run, broadcast to its rows
                    run_id = np.cumsum(new_run)  # 1-based
                    run_starts_idx = np.flatnonzero(new_run)
                    run_ends = np.append(run_starts_idx[1:], n) - 1
                    last_peer = run_ends[run_id - 1]
                    cols[cume_dist] = pa.array(
                        (last_peer - starts[seg_of] + 1) / m, pa.float64()
                    )
                if percent_rank:
                    rk = run_start - starts[seg_of]  # rank - 1
                    denom = np.maximum(m - 1, 1)
                    cols[percent_rank] = pa.array(
                        np.where(m > 1, rk / denom, 0.0), pa.float64()
                    )
        if ntile:
            nt_out, nt_k = ntile
            m = sizes[seg_of]
            r = np.arange(n, dtype=np.int64) - starts[seg_of]  # 0-based in-partition
            q, rem = m // nt_k, m % nt_k
            big = rem * (q + 1)  # rows covered by the (q+1)-sized leading tiles
            tile = np.where(
                r < big,
                r // np.maximum(q + 1, 1),
                rem + (r - big) // np.maximum(q, 1),
            )
            cols[nt_out] = pa.array(tile + 1, pa.int64())
        for out, src in lag.items():
            shifted = t[src].combine_chunks().slice(0, max(n - 1, 0))
            arr = pa.concat_arrays([pa.nulls(1, t.schema.field(src).type), shifted]) \
                if n else pa.nulls(0, t.schema.field(src).type)
            # null out partition starts (previous row belongs to another key)
            mask = pa.array(is_start)
            cols[out] = pa.compute.if_else(mask, pa.nulls(n, arr.type), arr)
        for out, src in lead.items():
            shifted = t[src].combine_chunks().slice(1)
            arr = pa.concat_arrays([shifted, pa.nulls(1, t.schema.field(src).type)]) \
                if n else pa.nulls(0, t.schema.field(src).type)
            is_end = np.zeros(n, dtype=bool)
            if n:
                is_end[np.concatenate([starts[1:] - 1, [n - 1]])] = True
            cols[out] = pa.compute.if_else(pa.array(is_end), pa.nulls(n, arr.type), arr)
        if first_value or last_value:
            seg_first = starts[seg_of]
            seg_last = seg_first + sizes[seg_of] - 1
            for out, src in first_value.items():
                cols[out] = t[src].take(pa.array(seg_first))
            for out, src in last_value.items():
                cols[out] = t[src].take(pa.array(seg_last))
        for agg_map, ufunc in ((group_min, np.minimum), (group_max, np.maximum)):
            for out, src in agg_map.items():
                v = t[src].to_numpy(zero_copy_only=False)
                red = ufunc.reduceat(v, starts)
                cols[out] = pa.array(red[seg_of], pa.from_numpy_dtype(v.dtype))
        if group_sum or group_count:
            for out, src in group_sum.items():
                # same null discipline as cumsum below: SQL SUM ignores
                # NULLs, and an int64 column with nulls round-trips
                # through float NaN whose .astype(int64) is INT64_MIN
                v = (
                    pa.compute.fill_null(pa.compute.cast(t[src], pa.int64()), 0)
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64)
                )
                red = np.add.reduceat(v, starts) if n else np.array([], np.int64)
                cols[out] = pa.array(red[seg_of], pa.int64())
            if group_count:
                cols[group_count] = pa.array(sizes[seg_of], pa.int64())
        for out, src in cumsum.items():
            # SQL SUM ignores NULLs: fill before leaving Arrow so an
            # int64 column with nulls never round-trips through float
            # NaN (which .astype(int64) would turn into INT64_MIN)
            v = (
                pa.compute.fill_null(pa.compute.cast(t[src], pa.int64()), 0)
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            cs = np.cumsum(v)
            # subtract the running total just before each segment start
            base = np.concatenate([[0], cs])[starts[seg_of]]
            cols[out] = pa.array(cs - base, pa.int64())
        return pa.table(cols)

    return keyed_shuffle(ds, key, num_buckets, per_bucket)
