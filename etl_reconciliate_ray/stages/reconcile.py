"""Distributed two-source reconciliation — sort-merge cogroup with
match/discrepancy statuses.

Reimplements the reference's ``ReconciliationService`` per-message
cogroup (J4-J8, ``service/ReconciliationService.java:107-171``) as a
distributed hash-cogroup: both sides are bucketed on the salted key
hash, unioned with a side tag, shuffled ONCE by bucket, and each bucket
is reconciled vectorized by one Arrow kernel, ``reconcile_pair_pdf``:
dense key codes (``functions.grouping.group_codes``), one stable sort
of the right rows, and statuses read off the per-key run boundaries —
no per-key Python loop; the reference's per-message
``Map<DTO,Boolean>`` "used" flags at ``:113-114`` become a boolean
matched mask.

Status taxonomy (north_star) and its reference lineage:

- ``MATCHED``          <- ``"OK"`` (``ReconciliationService.java:23``)
- ``MISSING_RIGHT``    <- ``"NO EN JPAT"`` left-without-right (``:96-105,130-135``)
- ``MISSING_LEFT``     <- ``"NO EN SWIFT"`` unused right rows (``:154-171``)
- ``DUP_RIGHT_n``      <- ``"TRANSACCION DUPLICADA JPAT n"`` one left row
                          matching k>1 right rows emits k ordinal rows
                          (``:137-144``; ordinals made deterministic here
                          by sorting right rows on (value, tiebreaks) —
                          the reference relied on JDBC arrival order,
                          SURVEY.md §7 hard part 2)
- ``VALUE_DIFF``       <- ``"DIFERENCIA EN VALOR"`` (``:199``; row-level
                          here per the north rule: key matches, value
                          hash differs)

Equality semantics: the reference's two BigDecimal equalities
(scale-insensitive ``compareTo`` at ``:151`` vs scale-sensitive
``equals`` at ``:199``) both collapse to string equality on the
``value_col`` (content sha256 in the graft payload) — SURVEY.md §2.4.

Assumption (documented per the partitioning contract): the LEFT side is
key-unique (a replayed lake is, by construction of LWW merge); the
right side may hold duplicates and they are reported, never collapsed
(SURVEY.md §2.6).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.grouping import group_codes
from ..functions.hashing import bucket_of

STATUS_MATCHED = "MATCHED"
STATUS_MISSING_LEFT = "MISSING_LEFT"
STATUS_MISSING_RIGHT = "MISSING_RIGHT"
STATUS_VALUE_DIFF = "VALUE_DIFF"
STATUS_DUP_PREFIX = "DUP_RIGHT_"


def reconcile_pair_pdf(
    left: pa.Table,
    right: pa.Table,
    key_cols: Sequence[str],
    value_col: str = "content_sha256",
    attr_cols: Sequence[str] = (),
) -> pa.Table:
    """Reconcile two keyed sides (all their keys at once, vectorized):
    the one keyed outer diff behind the engine's cogroup tasks, the
    catalog's ``reconcile_datasets`` and ``lake_changelog``.

    Output is full-outer-join-shaped (reference
    ``ReconciliationTransactionResult``,
    ``dto/ReconciliationTransactionResult.java:10-21``): the key
    columns, ``{c}_l`` and ``{c}_r`` for the value and attr columns,
    and ``status``. Null keys group together; null values never match.
    ``left`` must be key-unique (``ValueError`` otherwise). Sides whose
    types differ only in width (``string`` vs ``large_string``) are cast
    to their common type first."""
    key_cols = list(key_cols)
    vals = [value_col] + list(attr_cols)
    left, right = left.select(key_cols + vals), right.select(key_cols + vals)
    schema = pa.unify_schemas([left.schema, right.schema], promote_options="permissive")
    left, right = left.cast(schema), right.cast(schema)
    nl, nr = left.num_rows, right.num_rows
    codes, _, g = group_codes(pa.concat_tables([left, right]), key_cols)
    lc, rc = codes[:nl], codes[nl:]
    if nl and np.bincount(lc).max() > 1:
        raise ValueError("reconcile: the left side holds a duplicate key")
    left_of = np.full(g, -1, np.int64)
    left_of[lc] = np.arange(nl)

    # right rows ordered by (key, value, attrs): deterministic ordinals,
    # and each key's rows form one run
    order = pc.sort_indices(
        right.append_column("_code", pa.array(rc, pa.int64())),
        sort_keys=[("_code", "ascending")] + [(c, "ascending") for c in vals],
        null_placement="at_end",
    ).to_numpy().astype(np.int64)
    code = rc[order]
    lrow = left_of[code]
    has_left = lrow >= 0
    lidx = pa.array(lrow, mask=~has_left)
    match = pc.fill_null(
        pc.equal(left[value_col].take(lidx), right[value_col].take(order)), False
    ).to_numpy(zero_copy_only=False)
    start = np.ones(nr, bool)
    start[1:] = code[1:] != code[:-1]
    run = np.cumsum(start) - 1
    cum = np.cumsum(match)
    match_ord = cum - (cum - match)[start][run]  # 1-based, among the key's matches
    n_match = np.bincount(code[match], minlength=g)[code]
    dup = match & (n_match > 1)

    # status codes index `labels`; DUP_RIGHT_i is code 3 + i
    labels = [STATUS_MATCHED, STATUS_MISSING_LEFT, STATUS_MISSING_RIGHT, STATUS_VALUE_DIFF] + [
        f"{STATUS_DUP_PREFIX}{i}" for i in range(1, int(match_ord[dup].max(initial=0)) + 1)
    ]
    # an unused right row, or one with no left key, is MISSING_LEFT
    # (reference: unused rights -> "NO EN SWIFT", :154-171)
    status = np.ones(nr, np.int64)
    status[match & (n_match == 1)] = 0
    status[dup] = 3 + match_ord[dup]
    # key matched, value differs: the key's first right row carries
    # VALUE_DIFF when none of its rows matched
    status[has_left & (n_match == 0) & start] = 3
    lonly = np.flatnonzero(np.bincount(rc, minlength=g)[lc] == 0)

    lt = left.take(pa.array(np.concatenate([lrow, lonly]),
                            mask=np.concatenate([~has_left, np.zeros(len(lonly), bool)])))
    rt = right.take(pa.array(np.concatenate([order, np.zeros(len(lonly), np.int64)]),
                             mask=np.arange(nr + len(lonly)) >= nr))
    keys = pa.concat_tables([right.select(key_cols).take(order),
                             left.select(key_cols).take(lonly)])
    out = {c: keys[c] for c in key_cols}
    out.update({f"{c}_l": lt[c] for c in vals})
    out.update({f"{c}_r": rt[c] for c in vals})
    out["status"] = pa.array(labels, pa.string()).take(
        np.concatenate([status, np.full(len(lonly), 2, np.int64)])
    )
    return pa.table(out)


def bucket_tag(batch: pa.Table, key_cols: Sequence[str], num_buckets: int,
               salt_for_repo: dict[str, int] | None = None) -> pa.Array:
    """The reconcile partition id for each row — THE one bucketing both
    sides (and any pre-tagged producer) must share."""
    key_cols = list(key_cols)
    if len(key_cols) >= 2:
        return bucket_of(batch[key_cols[0]], batch[key_cols[1]], num_buckets, salt_for_repo)
    if salt_for_repo:
        # salted splitting needs bucket_of's repo-keyed salt routing
        return bucket_of(batch[key_cols[0]], batch[key_cols[0]], num_buckets, salt_for_repo)
    # single high-cardinality key (orderkey reconciles): hash-mod
    # directly (integers hashed too, so strided ids still spread) —
    # bucket_of's dictionary-encode is tuned for a low-cardinality repo
    # column and would build a full per-batch hash table of a
    # near-unique key
    from .joins import _bucket_expr

    return _bucket_expr(batch[key_cols[0]], num_buckets)


def reconcile_datasets(
    left_ds,
    right_ds,
    key_cols: Sequence[str],
    value_col: str = "content_sha256",
    attr_cols: Sequence[str] = (),
    num_buckets: int = 32,
    salt_for_repo: dict[str, int] | None = None,
    tagged_ds=None,
):
    """Distributed reconcile: tag sides, bucket, single shuffle, per-
    bucket vectorized cogroup. Returns the detail Dataset (left cols +
    right cols + status).

    Partitioning contract: ``key_cols[0]`` is the partition key (repo);
    the full ``key_cols`` is the merge key — strictly finer, so salted
    bucketing preserves correctness (SURVEY.md §4).

    ``tagged_ds``: a pre-built union carrying ``side`` ("L"/"R") and a
    ``bucket`` column from :func:`bucket_tag` — the fused fast path for
    callers whose two sides DERIVE from one source (one read instead of
    two + no union barrier); ``left_ds``/``right_ds`` are ignored.
    """
    key_cols = list(key_cols)

    if tagged_ds is not None:
        tagged = tagged_ds
    else:
        def tag(side: str):
            def fn(batch: pa.Table) -> pa.Table:
                cols = key_cols + [value_col] + list(attr_cols)
                batch = batch.select([c for c in cols if c in batch.column_names])
                batch = batch.append_column(
                    "side", pa.array([side] * batch.num_rows, pa.string())
                )
                return batch.append_column(
                    "bucket", bucket_tag(batch, key_cols, num_buckets, salt_for_repo)
                )

            return fn

        tagged = left_ds.map_batches(tag("L"), batch_format="pyarrow").union(
            right_ds.map_batches(tag("R"), batch_format="pyarrow")
        )
    def reconcile_bucket(t: pa.Table) -> pa.Table:
        is_left = pc.equal(t["side"], "L")
        return reconcile_pair_pdf(
            t.filter(is_left), t.filter(pc.invert(is_left)), key_cols, value_col, attr_cols
        )

    return tagged.groupby("bucket").map_groups(reconcile_bucket, batch_format="pyarrow")
