"""Distributed two-source reconciliation — sort-merge cogroup with
match/discrepancy statuses.

Reimplements the reference's ``ReconciliationService`` per-message
cogroup (J4-J8, ``service/ReconciliationService.java:107-171``) as a
distributed hash-cogroup: both sides are bucketed on the salted key
hash, unioned with a side tag, shuffled ONCE by bucket, and each bucket
is reconciled vectorized (pandas merge + groupby transforms — no
per-key Python loop; the reference's per-message ``Map<DTO,Boolean>``
"used" flags at ``:113-114`` become a boolean matched mask).

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
import pandas as pd
import pyarrow as pa

from ..functions.hashing import bucket_of

STATUS_MATCHED = "MATCHED"
STATUS_MISSING_LEFT = "MISSING_LEFT"
STATUS_MISSING_RIGHT = "MISSING_RIGHT"
STATUS_VALUE_DIFF = "VALUE_DIFF"
STATUS_DUP_PREFIX = "DUP_RIGHT_"


def reconcile_group_pdf(
    df: pd.DataFrame,
    key_cols: Sequence[str],
    value_col: str = "content_sha256",
    attr_cols: Sequence[str] = (),
) -> pd.DataFrame:
    """Reconcile one bucket (all its keys at once, vectorized).

    ``df`` holds both sides with a ``side`` column ("L"/"R"). Output is
    full-outer-join-shaped (reference ``ReconciliationTransactionResult``
    ``dto/ReconciliationTransactionResult.java:10-21``: left cols +
    right cols + status).
    """
    key_cols = list(key_cols)
    keep = key_cols + [value_col] + [c for c in attr_cols]
    left = df.loc[df["side"] == "L", keep]
    right = df.loc[df["side"] == "R", keep]
    return reconcile_pair_pdf(left, right, key_cols, value_col, attr_cols)


def reconcile_pair_pdf(
    left: pd.DataFrame,
    right: pd.DataFrame,
    key_cols: Sequence[str],
    value_col: str = "content_sha256",
    attr_cols: Sequence[str] = (),
) -> pd.DataFrame:
    """Core of ``reconcile_group_pdf`` taking the two sides directly —
    callers that already hold left/right separately (the bucket cogroup
    tasks) skip the tag-concat-split round trip."""
    key_cols = list(key_cols)
    keep = key_cols + [value_col] + [c for c in attr_cols]
    left = left[keep]
    right = right[keep]
    m = left.merge(right, on=key_cols, how="outer", suffixes=("_l", "_r"), indicator=True)
    # deterministic right-row order inside each key group -> stable ordinals
    sort_cols = key_cols + [f"{value_col}_r"] + [f"{c}_r" for c in attr_cols]
    m = m.sort_values(sort_cols, kind="stable", na_position="last").reset_index(drop=True)

    both = m["_merge"] == "both"
    matched = both & (m[f"{value_col}_l"] == m[f"{value_col}_r"])
    n_match = matched.groupby([m[c] for c in key_cols], dropna=False).transform("sum")
    # ordinal among *matching* right rows of a key (1-based)
    match_ord = matched.groupby([m[c] for c in key_cols], dropna=False).cumsum()
    # ordinal among non-matching "both" rows of a key (to pick the VALUE_DIFF carrier)
    nonmatch = both & ~matched
    nonmatch_ord = nonmatch.groupby([m[c] for c in key_cols], dropna=False).cumsum()

    status = np.full(len(m), "", dtype=object)
    status[(m["_merge"] == "left_only").to_numpy()] = STATUS_MISSING_RIGHT
    status[(m["_merge"] == "right_only").to_numpy()] = STATUS_MISSING_LEFT
    one = (matched & (n_match == 1)).to_numpy()
    status[one] = STATUS_MATCHED
    dupm = (matched & (n_match > 1)).to_numpy()
    if dupm.any():
        ords = match_ord.to_numpy()[dupm]
        status[dupm] = [f"{STATUS_DUP_PREFIX}{int(o)}" for o in ords]
    # key matched, value differs: first non-matching right row carries
    # VALUE_DIFF when nothing matched; all other unused right rows are
    # MISSING_LEFT (reference: unused rights -> "NO EN SWIFT", :154-171)
    vd = (nonmatch & (n_match == 0) & (nonmatch_ord == 1)).to_numpy()
    status[vd] = STATUS_VALUE_DIFF
    rest = (nonmatch.to_numpy()) & (status == "")
    status[rest] = STATUS_MISSING_LEFT

    out = m.drop(columns=["_merge"])
    out["status"] = status
    return out


def make_reconcile_bucket_fn(
    key_cols: Sequence[str], value_col: str, attr_cols: Sequence[str] = ()
):
    """map_groups fn over the bucketed union of both sides."""
    key_cols, attr_cols = list(key_cols), list(attr_cols)

    def reconcile_bucket(df: pd.DataFrame) -> pd.DataFrame:
        out = reconcile_group_pdf(df, key_cols, value_col, attr_cols)
        return out.drop(columns=[c for c in ("bucket",) if c in out.columns])

    return reconcile_bucket


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
    return tagged.groupby("bucket").map_groups(
        make_reconcile_bucket_fn(key_cols, value_col, attr_cols), batch_format="pandas"
    )
