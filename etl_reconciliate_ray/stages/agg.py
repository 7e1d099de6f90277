"""Aggregation helpers: partial (combiner-style) pre-aggregation before
the global shuffle.

Maps the reference's SQL aggregates (A1 per-message SUM at
``AsMonitoringMessagesDAOImpl.java:37,44-48``; A2 per-batch SUM at
``BpBatchDAOImpl.java:38-42``) to the scale-correct Ray Data pattern:
a bare ``groupby().aggregate()`` shuffles every row, so we first
collapse each batch to one row per key inside ``map_batches`` (pyarrow
hash aggregation, zero-copy) and only shuffle the partials —
orders-of-magnitude less exchange volume when keys repeat within
batches (ray_guide.md "Aggregation at scale").
"""

from __future__ import annotations

from typing import Mapping, Sequence

import pyarrow as pa
import pyarrow.compute as pc


def preagg_groupby(
    ds,
    keys: Sequence[str],
    sums: Mapping[str, str] | None = None,
    count_alias: str | None = None,
    batch_size: int = 65536,
):
    """sum/count groupby with per-batch partial aggregation.

    ``sums``: {output_name: input_column}; ``count_alias``: name for the
    row count. Returns a Dataset with columns keys + outputs.
    """
    from ray.data.aggregate import Sum

    keys = list(keys)
    sums = dict(sums or {})

    def partial(batch: pa.Table) -> pa.Table:
        aggs = [(c, "sum") for c in sums.values()]
        if count_alias:
            batch = batch.append_column(
                "__ones__", pa.array([1] * batch.num_rows, pa.int64())
            )
            aggs.append(("__ones__", "sum"))
        red = batch.group_by(keys, use_threads=False).aggregate(aggs)
        cols: dict[str, pa.ChunkedArray | pa.Array] = {k: red[k] for k in keys}
        for out, src in sums.items():
            cols[out] = red[f"{src}_sum"]
        if count_alias:
            cols[count_alias] = red["__ones___sum"]
        return pa.table(cols)

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=batch_size)
    aggs = [Sum(on=out, alias_name=out) for out in sums]
    if count_alias:
        aggs.append(Sum(on=count_alias, alias_name=count_alias))
    return partials.groupby(keys).aggregate(*aggs)


def grouping_sets_groupby(
    ds,
    keys: Sequence[str],
    sets: Sequence[Sequence[str]],
    sums: Mapping[str, str] | None = None,
    count_alias: str | None = None,
    all_label: str = "ALL",
):
    """SQL ``GROUP BY GROUPING SETS(...)``: one result row-set per
    requested key subset, with collapsed key columns labelled
    ``all_label`` (COALESCE-style — unambiguous when real key values
    never equal the label, which the caller must ensure). Every set
    must be a subset of ``keys``. Key columns are emitted as STRINGS
    in every level (non-string keys are cast), so the labelled union
    has one uniform schema instead of a mixed value/label object
    column no engine could sort or write.

    Scale shape: the DATA is aggregated exactly once at the finest
    level (the union of all requested keys: partial pre-aggregation +
    one shuffle, same as ``preagg_groupby``); every grouping set is an
    aggregate OF the finest aggregate, which is key-cardinality-sized,
    so additional sets add only sketch-sized work no matter how many
    rows flowed in. The finest result is materialized once and fanned
    out to the subset legs — O(distinct key combos), never O(rows).
    """
    keys = list(keys)
    sets = [list(s) for s in sets]
    for s in sets:
        if not set(s) <= set(keys):
            raise ValueError(f"grouping set {s} is not a subset of keys {keys}")
    sums = dict(sums or {})
    outs = list(sums) + ([count_alias] if count_alias else [])
    resum = {o: o for o in outs}

    finest = preagg_groupby(ds, keys=keys, sums=sums, count_alias=count_alias)
    finest = finest.materialize()  # aggregate-sized; reused by every set

    def finish(sub: Sequence[str]):
        """Project to the uniform (keys + outs) schema, labelling the
        collapsed key columns."""

        def fn(t: pa.Table) -> pa.Table:
            cols: dict[str, pa.Array | pa.ChunkedArray] = {}
            for k in keys:
                cols[k] = (
                    pc.cast(t[k], pa.string())
                    if k in sub
                    else pa.array([all_label] * t.num_rows, pa.string())
                )
            for o in outs:
                cols[o] = t[o]
            return pa.table(cols)

        return fn

    levels = []
    for sub in sets:
        if set(sub) == set(keys):
            lvl = finest
        elif sub:
            lvl = preagg_groupby(finest, keys=sub, sums=resum)
        else:
            # grand total: constant-key groupby, then drop the key
            tagged = finest.map_batches(
                lambda t: t.append_column(
                    "__all__", pa.array([0] * t.num_rows, pa.int64())
                ),
                batch_format="pyarrow",
            )
            lvl = preagg_groupby(tagged, keys=["__all__"], sums=resum).drop_columns(
                ["__all__"]
            )
        levels.append(lvl.map_batches(finish(sub), batch_format="pyarrow"))
    out = levels[0]
    for lvl in levels[1:]:
        out = out.union(lvl)
    return out


def group_by_rollup(
    ds,
    keys: Sequence[str],
    sums: Mapping[str, str] | None = None,
    count_alias: str | None = None,
    all_label: str = "ALL",
):
    """SQL ``GROUP BY ROLLUP(keys...)``: the finest grouping plus every
    key-prefix subtotal and the grand total — the prefix-chain special
    case of ``grouping_sets_groupby`` (same aggregate-once scale
    shape)."""
    keys = list(keys)
    sets = [keys[:i] for i in range(len(keys), -1, -1)]
    return grouping_sets_groupby(
        ds, keys, sets, sums=sums, count_alias=count_alias, all_label=all_label
    )


def cube_groupby(
    ds,
    keys: Sequence[str],
    sums: Mapping[str, str] | None = None,
    count_alias: str | None = None,
    all_label: str = "ALL",
):
    """SQL ``GROUP BY CUBE(keys...)``: every subset of ``keys`` (the
    full power set) via ``grouping_sets_groupby`` — data aggregated
    once, 2^k aggregate-sized subset rollups."""
    keys = list(keys)
    sets: list[list[str]] = []
    for mask in range((1 << len(keys)) - 1, -1, -1):
        sets.append([k for i, k in enumerate(keys) if mask & (1 << i)])
    return grouping_sets_groupby(
        ds, keys, sets, sums=sums, count_alias=count_alias, all_label=all_label
    )
