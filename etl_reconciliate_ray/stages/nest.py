"""Parent/child nesting: materialize a ``list<struct<...>>`` child
column per parent key — the reference's N1 nested DTO assembly
(``LoadSwiftMessagesTasklet.java:43-53`` builds a parent object holding
a list of child rows via N+1 point queries; here it is ONE hash
shuffle + vectorized offset slicing).

Scale shape: children are hash-bucketed on the parent key (one
all-to-all of the child table, the minimum possible — nesting is a
co-location problem), then each bucket builds its ListArray in a single
vectorized pass: sort by (parent, order), run-length boundaries via
numpy, ``pa.ListArray.from_arrays(offsets, struct)``. No per-group
Python, no per-parent task — a bucket of millions of children nests in
one Arrow call.

The nested column then flows through ``map_batches`` like any other;
consumers use ``pc.list_value_length`` / ``pc.list_flatten`` /
``pc.struct_field`` (all zero-copy views) rather than exploding rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .shuffle import keyed_shuffle


def nest_table(
    child: pa.Table,
    parent_key: str,
    order_col: str | None = None,
    list_col: str = "children",
) -> pa.Table:
    """Nest one in-memory child table: one output row per distinct
    ``parent_key`` holding ``list<struct>`` of the remaining columns
    (ordered by ``order_col`` when given). Vectorized: sort + run-length
    offsets + ``ListArray.from_arrays``."""
    sort_keys = [(parent_key, "ascending")]
    if order_col:
        sort_keys.append((order_col, "ascending"))
    child = child.sort_by(sort_keys)
    keys = child[parent_key].combine_chunks()
    n = child.num_rows
    if n == 0:
        empty = pa.list_(pa.struct([
            pa.field(c, child.schema.field(c).type)
            for c in child.column_names if c != parent_key
        ]))
        return pa.table({parent_key: keys, list_col: pa.array([], empty)})
    # run-length boundaries of the sorted parent keys -> list offsets.
    # NULL-SAFE: equal() is null when either side is null and unary ~
    # on the resulting object array raises TypeError; a null parent key
    # is ONE group like any other (sorted nulls are contiguous), so
    # consecutive nulls must not break
    a, b = keys.slice(1), keys.slice(0, n - 1)
    same = pc.or_(
        pc.fill_null(pc.equal(a, b), False),
        pc.and_(pc.is_null(a), pc.is_null(b)),
    ).to_numpy(zero_copy_only=False)
    brk = np.flatnonzero(~same) + 1
    offsets = np.concatenate([[0], brk, [n]]).astype(np.int32)
    payload_cols = [c for c in child.column_names if c != parent_key]
    struct = pa.StructArray.from_arrays(
        [child[c].combine_chunks() for c in payload_cols], names=payload_cols
    )
    lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), struct)
    parents = keys.take(pa.array(offsets[:-1].astype(np.int64)))
    return pa.table({parent_key: parents, list_col: lists})


def unnest_table(t: pa.Table, list_col: str, parent_cols: list[str] | None = None) -> pa.Table:
    """Inverse of ``nest_table``: explode ``list<struct>`` back to one
    row per child, repeating the parent columns — zero-copy where Arrow
    allows (``list_flatten`` is a view; parents gather once via the
    repeat index)."""
    parent_cols = parent_cols or [c for c in t.column_names if c != list_col]
    lst = t[list_col].combine_chunks()
    # a NULL list entry unnests to zero rows (list_flatten skips nulls,
    # so the repeat counts must agree or parents would misalign; the
    # null length would otherwise cast to INT64_MIN)
    lengths = (
        pc.fill_null(pc.list_value_length(lst), 0)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    idx = pa.array(np.repeat(np.arange(len(t), dtype=np.int64), lengths))
    flat = pc.list_flatten(lst)
    cols: dict[str, pa.Array | pa.ChunkedArray] = {
        c: t[c].combine_chunks().take(idx) for c in parent_cols
    }
    for f in flat.type:
        cols[f.name] = pc.struct_field(flat, f.name)
    return pa.table(cols)


def unnest(ds, list_col: str, parent_cols: list[str] | None = None):
    """Dataset-level explode of a ``list<struct>`` column (map-only)."""

    def fn(t: pa.Table) -> pa.Table:
        return unnest_table(t, list_col, parent_cols)

    return ds.map_batches(fn, batch_format="pyarrow")


def nest_children(
    child_ds,
    parent_key: str,
    order_col: str | None = None,
    list_col: str = "children",
    num_buckets: int = 32,
):
    """Distributed nest: hash-bucket children on ``parent_key`` (all
    rows of one parent land in one bucket), then nest each bucket
    vectorized. Returns a Dataset of (parent_key, list<struct>) rows."""

    return keyed_shuffle(
        child_ds, parent_key, num_buckets,
        lambda t: nest_table(t, parent_key, order_col, list_col),
    )


def melt(
    ds,
    id_cols: list[str],
    value_cols: list[str],
    var_name: str = "metric",
    value_name: str = "val",
):
    """Wide→long unpivot (the inverse of the conditional-aggregation
    pivot in ``queries.q_pivot_user_events``): each input row emits one
    output row per entry of ``value_cols``, tagged with the source
    column name. Map-only (no shuffle), vertical concat per batch —
    streams at any scale. All ``value_cols`` must share one Arrow type
    (the long column's type)."""

    def per_batch(t: pa.Table) -> pa.Table:
        parts = []
        for c in value_cols:
            cols: dict[str, pa.Array | pa.ChunkedArray] = {k: t[k] for k in id_cols}
            cols[var_name] = pa.array([c] * t.num_rows, pa.string())
            cols[value_name] = t[c]
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return ds.map_batches(per_batch, batch_format="pyarrow")
