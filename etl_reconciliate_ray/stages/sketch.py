"""Heavy hitters via the Misra-Gries frequent-items sketch (Misra &
Gries 1982; merge rule from Agarwal et al., "Mergeable Summaries",
PODS 2012).

The reference's count diagnostics (SURVEY §2 A4,
``ReconciliationService.java`` matched/unmatched tallies) enumerate a
handful of fixed statuses; finding the most frequent values of an
UNBOUNDED-cardinality column (hot repos, dominant event types, spam
domains in a crawl) at 100 TB with an exact groupby shuffles every
distinct key. Misra-Gries replaces that with a fixed-size mergeable
summary:

- per batch: a value-counts partial trimmed MG-style — subtract the
  (capacity+1)-th largest count from all counters, keep the positive
  ones (≤ ``capacity`` rows per batch, whatever the batch holds);
- global: one tiny groupby-sum of the partial counters (exchange
  volume O(capacity × batches), independent of row count), then one
  final MG trim of that sketch-sized set.

Guarantees (standard MG, preserved by the merge): reported counts are
LOWER bounds; every item with true frequency > n/(capacity+1) is
present; per-item undercount ≤ n/(capacity+1). When ``capacity`` ≥ the
column's distinct count no trim ever fires and the counts are exact —
which is what the oracle-checked query exercises; the approximation
regime is covered by a property test.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _mg_trim_idx(counts: np.ndarray, capacity: int):
    """Misra-Gries decrement on COUNTS only: keep ≤ capacity counters
    by subtracting the (capacity+1)-th largest count from all and
    dropping ≤ 0. Returns (surviving indices, decremented counts) so
    callers gather items from the ORIGINAL (Arrow) array — item values
    never round-trip through numpy (see heavy_hitters)."""
    if len(counts) <= capacity:
        return np.arange(len(counts), dtype=np.int64), counts
    order = np.argsort(counts)[::-1]
    dec = counts[order[capacity]]
    keep = order[:capacity]
    kept_counts = counts[keep] - dec
    pos = kept_counts > 0
    return keep[pos].astype(np.int64), kept_counts[pos]


def heavy_hitters(ds, col: str, capacity: int, alias: str = "n") -> pd.DataFrame:
    """Top frequent values of ``col`` as (item, count-lower-bound),
    descending by count (ties broken by item for determinism).

    Returns a pandas DataFrame — the result is sketch-sized (≤
    ``capacity`` rows) by construction. The only driver-side work is
    the final trim of the merged partials, which is O(capacity ×
    batches) rows — bounded by the sketch, never by the data.
    """
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        # items stay ARROW end to end: a numpy round-trip of an int64
        # column with any null yields float64 (ids past 2^53 corrupt,
        # and null- vs null-free batches emit conflicting partial
        # schemas); count_all counts the null group's rows too (the
        # valid-only count reported a null-heavy column as 0)
        red = t.select([col]).group_by([col], use_threads=False).aggregate(
            [([], "count_all")]
        )
        counts = red["count_all"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep_idx, kept = _mg_trim_idx(counts, capacity)
        return pa.table({
            "item": red[col].take(pa.array(keep_idx, pa.int64())),
            alias: pa.array(kept, pa.int64()),
        })

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("item")
        .aggregate(Sum(on=alias, alias_name=alias))
    )
    batches = list(agg.iter_batches(batch_format="pyarrow"))
    if not batches:
        return pd.DataFrame({"item": pd.Series([], dtype=object),
                             alias: pd.Series([], dtype="int64")})
    mt = pa.concat_tables(batches, promote_options="default")
    counts = mt[alias].to_numpy(zero_copy_only=False).astype(np.int64)
    keep_idx, kept = _mg_trim_idx(counts, capacity)
    from .joins import _NULLABLE_PD  # nullable ints: no float degrade

    out = pa.table({
        "item": mt["item"].take(pa.array(keep_idx, pa.int64())),
        alias: pa.array(kept, pa.int64()),
    }).to_pandas(types_mapper=_NULLABLE_PD.get)
    return out.sort_values([alias, "item"], ascending=[False, True]).reset_index(
        drop=True
    )
