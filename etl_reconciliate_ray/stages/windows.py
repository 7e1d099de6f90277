"""Streaming-shaped windowed aggregation over an ordered event log.

The reference is pure batch (SURVEY.md §2.8); the graft adds stream
semantics. Ray Data has no event-time windows, so tumbling windows are
expressed as: assign ``window_start = floor(ts, width)`` per batch
(vectorized Arrow temporal kernel), partial-aggregate per batch, then
one small ``groupby(keys + window)`` over partials (agg.preagg_groupby
pattern). Ordering assumption: none needed for tumbling count/sum —
window assignment is a pure row function; late data simply lands in
its own window (the CDC replay path handles true per-key ordering via
``seq``, not this stage).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .agg import preagg_groupby


def tumbling_window_agg(
    events_ds,
    ts_col: str = "ts",
    keys: list[str] | None = None,
    width: str = "hour",
    sums: dict[str, str] | None = None,
    count_alias: str = "n",
):
    """Count/sum per (keys..., window_start). ``width``: an Arrow
    ``floor_temporal`` unit ("minute", "hour", "day", ...)."""
    keys = list(keys or [])

    def assign(batch: pa.Table) -> pa.Table:
        w = pc.floor_temporal(batch[ts_col], unit=width)
        return batch.append_column("window_start", w)

    with_w = events_ds.map_batches(assign, batch_format="pyarrow")
    return preagg_groupby(
        with_w, keys + ["window_start"], sums=sums, count_alias=count_alias
    )


def hopping_window_agg(
    events_ds,
    ts_col: str = "ts",
    keys: list[str] | None = None,
    width_minutes: int = 60,
    hop_minutes: int = 30,
    sums: dict[str, str] | None = None,
    count_alias: str = "n",
):
    """Overlapping (hopping) windows: each event lands in
    ``width/hop`` windows. Expressed as a vectorized per-batch
    window-replication (Arrow temporal floor + duration shifts) followed
    by the same partial-aggregate + small-groupby as tumbling — the
    replication multiplies PARTIAL rows, never the shuffled volume."""
    if width_minutes % hop_minutes:
        raise ValueError("width must be a multiple of hop")
    k = width_minutes // hop_minutes
    keys = list(keys or [])

    def assign(batch: pa.Table) -> pa.Table:
        base = pc.floor_temporal(batch[ts_col], multiple=hop_minutes, unit="minute")
        out = []
        for i in range(k):
            shift = pa.scalar(i * hop_minutes * 60 * 1_000_000, pa.duration("us"))
            rep = batch.append_column("window_start", pc.subtract(base, shift))
            if i > 0:
                # a null-ts event lands in window_start=NULL for EVERY
                # shift and the null groups merge — it would count k
                # times where tumbling counts it once; keep only the
                # shift-0 copy so the two window shapes agree
                rep = rep.filter(pc.is_valid(rep[ts_col]))
            out.append(rep)
        return pa.concat_tables(out)

    with_w = events_ds.map_batches(assign, batch_format="pyarrow")
    return preagg_groupby(
        with_w, keys + ["window_start"], sums=sums, count_alias=count_alias
    )


def session_window_agg(
    events_ds,
    ts_col: str = "ts",
    key: str = "user_id",
    order_tiebreak: str = "event_id",
    gap_minutes: int = 30,
    value_col: str | None = None,
    num_buckets: int = 16,
):
    """Gap-based session windows per key: a new session starts when the
    time since the previous event of the same key exceeds ``gap``.
    Sessionization needs each key's full ordered history in one place
    -> ONE shuffle on hash(key), then a vectorized per-bucket pandas
    pass (sort + diff + cumsum; no per-row Python). Emits one row per
    session: (key, session_start, n_events[, sum])."""
    import pandas as pd

    from .shuffle import keyed_shuffle

    gap = pd.Timedelta(minutes=gap_minutes)

    def sessions(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, ts_col, order_tiebreak], kind="stable")
        cur, prev = df[key], df[key].shift()
        # null-safe: NaN.eq(NaN) is False, which would break EVERY
        # null-keyed row into its own 1-row session; a null key is one
        # partition like any other (group_codes / _segment_starts rule)
        same_key = cur.eq(prev) | (cur.isna() & prev.isna())
        brk = (~same_key) | (df[ts_col] - df[ts_col].shift() > gap)
        sid = brk.cumsum()
        g = df.groupby(sid)
        out = pd.DataFrame(
            {
                key: g[key].first(),
                "session_start": g[ts_col].min(),
                "n_events": g.size().astype("int64"),
            }
        )
        if value_col is not None:
            out["sum_value_f"] = g[value_col].sum()
        return out.reset_index(drop=True)

    return keyed_shuffle(events_ds, key, num_buckets, sessions, "pandas")
