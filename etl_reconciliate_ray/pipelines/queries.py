"""Driver-facing query catalog: one entry per operator family from
SURVEY.md §2 (+ the training-data extensions), each over the driver's
sf parquet tables, each paired (where SQL-expressible) with an ANSI-SQL
oracle in ``oracle_sql()`` run by DuckDB on the same files.

Numeric-comparison convention: every money/float AGGREGATE is emitted
as an integer at a fixed scale (cents / 1e-4 units) on BOTH sides —
`CAST(ROUND(SUM(x) * scale) AS BIGINT)` — because the true sums lie on
a fixed decimal grid, so scaling to integers removes all float
round-half ambiguity between numpy and DuckDB. Raw column passthroughs
(no arithmetic) stay double: both engines read identical bits from the
same parquet.

Ray is initialised by the driver — NOTHING here calls ray.init().
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.catalog import read_table, read_table_pandas, table_path
from ..stages.agg import preagg_groupby
from ..stages.dedup import exact_dedup, lsh_candidate_pairs, minhash_clusters, SimHashStage
from ..stages.joins import broadcast_anti_join, broadcast_join, hash_join
from ..stages.lww import lww_latest
from ..stages.multimodal import payload_meta_stage
from ..stages.reconcile import reconcile_datasets
from ..stages.similarity import ann_lsh_topk, knn_cosine
from ..stages.textstage import LangId, QualityScore, TokenStats, sha256_stage


def _cents(tbl: pa.Table, src: str, dst: str, scale: int) -> pa.Table:
    vals = np.round(np.asarray(tbl[src].to_pylist(), dtype=np.float64) * scale).astype(np.int64)
    return tbl.drop_columns([src]).append_column(dst, pa.array(vals, pa.int64()))


# ---------------------------------------------------------------- S2/M1-M5
def q_filter_project(sf_dir: str):
    """Filter + projection (reference S2: status filter + aliased
    projection, AsMonitoringPaymentsDAOImpl.java:34-51). The filter is
    PUSHED TO THE PARQUET SCAN (row-group stats pruning + scan-level
    filtering — at 100 TB the difference between reading 5% and 100%
    of the lake); only the projected columns are materialized."""
    import pyarrow.dataset as pads

    return read_table(
        sf_dir, "events",
        columns=["event_id", "user_id", "value"],
        filter=(pads.field("event_type") == "click"),
    )


# ---------------------------------------------------------------- A1/A2
def q_groupby_sum(sf_dir: str):
    """Grouped sums with partial pre-aggregation (reference A1,
    AsMonitoringMessagesDAOImpl.java:37,44-48)."""
    ds = read_table(
        sf_dir, "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def derive(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return t.append_column("disc_price", rev)

    agg = preagg_groupby(
        ds.map_batches(derive, batch_format="pyarrow"),
        keys=["l_returnflag", "l_linestatus"],
        sums={"sum_qty_f": "l_quantity", "sum_base_f": "l_extendedprice", "sum_disc_f": "disc_price"},
        count_alias="n",
    )

    def scale(t: pa.Table) -> pa.Table:
        t = _cents(t, "sum_qty_f", "sum_qty", 1)
        t = _cents(t, "sum_base_f", "sum_base_cents", 100)
        return _cents(t, "sum_disc_f", "sum_disc_e4", 10000)

    return agg.map_batches(scale, batch_format="pyarrow")


# ---------------------------------------------------------------- J1 broadcast
def q_join_customer_nation(sf_dir: str):
    """Broadcast dimension join + grouped agg (reference J1 lookup-join
    shape, LoadSwiftMessagesTasklet.java:44, done without a shuffle)."""
    nation = read_table_pandas(sf_dir, "nation", columns=["n_nationkey", "n_name"]).rename(
        columns={"n_nationkey": "c_nationkey"}
    )
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey", "c_acctbal"])
    joined = broadcast_join(cust, nation, on="c_nationkey")
    agg = preagg_groupby(
        joined, keys=["n_name"], sums={"sum_acctbal_f": "c_acctbal"}, count_alias="n_customers"
    )
    return agg.map_batches(
        lambda t: _cents(t, "sum_acctbal_f", "sum_acctbal_cents", 100), batch_format="pyarrow"
    )


# ---------------------------------------------------------------- J2 hash join
def q_join_orders_lineitem(sf_dir: str):
    """Partitioned hash join, both sides large (reference J2 composite
    lookup join, LoadJpatBatchesTasklet.java:91-106, as ONE shuffle
    instead of a per-message point query)."""
    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def derive(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"o_orderkey": t["l_orderkey"], "revenue": rev})

    li = li.map_batches(derive, batch_format="pyarrow")
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    joined = hash_join(li, orders, on="o_orderkey", num_buckets=16)
    agg = preagg_groupby(
        joined, keys=["o_orderpriority"], sums={"sum_revenue_f": "revenue"}, count_alias="n_items"
    )
    return agg.map_batches(
        lambda t: _cents(t, "sum_revenue_f", "sum_revenue_e4", 10000), batch_format="pyarrow"
    )


# ---------------------------------------------------------------- J4-J8 cogroup
def _reconcile_sides_tagged(sf_dir: str, num_buckets: int = 16):
    """Derive deterministic L/R sides from orders exercising every
    status class — keys %10==9 right-only, %10==7 left-only, %10==3
    value-mutated, %10==5 duplicated on the right — FUSED: both sides
    derive from the same orders scan, so one map_batches emits the
    tagged union (side + bucket) directly: ONE read instead of two and
    no union barrier (reconcile_datasets' ``tagged_ds`` fast path)."""
    from ..stages.reconcile import bucket_tag

    base = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def both(t: pa.Table) -> pa.Table:
        k = np.asarray(t["o_orderkey"].to_numpy(zero_copy_only=False), dtype=np.int64)
        val = np.round(
            np.asarray(t["o_totalprice"].to_numpy(zero_copy_only=False), dtype=np.float64)
            * 100
        ).astype(np.int64)
        lk, lv = k[(k % 10) != 9], val[(k % 10) != 9]
        keep = (k % 10) != 7
        rk1, rv1 = k[keep], val[keep] + ((k[keep] % 10) == 3).astype(np.int64)
        dup = (k % 10) == 5
        rk2, rv2 = k[dup], val[dup]
        out = pa.table({
            "orderkey": pa.array(np.concatenate([lk, rk1, rk2]), pa.int64()),
            "val_cents": pa.array(np.concatenate([lv, rv1, rv2]), pa.int64()),
            "side": pa.array(["L"] * len(lk) + ["R"] * (len(rk1) + len(rk2))),
        })
        return out.append_column(
            "bucket", bucket_tag(out, ["orderkey"], num_buckets)
        )

    return base.map_batches(both, batch_format="pyarrow")


_RECONCILE_ORACLE_CTE = """
WITH base AS (
  SELECT o_orderkey AS okey, CAST(ROUND(o_totalprice * 100) AS BIGINT) AS val FROM orders),
l AS (SELECT * FROM base WHERE okey % 10 <> 9),
r AS (
  SELECT okey, val + CASE WHEN okey % 10 = 3 THEN 1 ELSE 0 END AS val
  FROM base WHERE okey % 10 <> 7
  UNION ALL SELECT okey, val FROM base WHERE okey % 10 = 5),
joined AS (
  SELECT l.okey AS lkey, r.okey AS rkey, l.val AS lval, r.val AS rval,
         CASE WHEN l.val = r.val THEN 1 ELSE 0 END AS is_match
  FROM l FULL OUTER JOIN r ON l.okey = r.okey),
scored AS (
  SELECT *,
    SUM(is_match) OVER (PARTITION BY COALESCE(lkey, rkey)) AS n_match,
    ROW_NUMBER() OVER (PARTITION BY COALESCE(lkey, rkey), is_match ORDER BY rval) AS ord
  FROM joined),
labeled AS (
  SELECT COALESCE(lkey, rkey) AS orderkey,
    CASE
      WHEN lkey IS NULL THEN 'MISSING_LEFT'
      WHEN rkey IS NULL THEN 'MISSING_RIGHT'
      WHEN is_match = 1 AND n_match = 1 THEN 'MATCHED'
      WHEN is_match = 1 THEN 'DUP_RIGHT_' || CAST(ord AS VARCHAR)
      WHEN n_match = 0 AND ord = 1 THEN 'VALUE_DIFF'
      ELSE 'MISSING_LEFT'
    END AS status
  FROM scored)
"""


def _reconcile_detail(sf_dir: str):
    return reconcile_datasets(
        None, None, key_cols=["orderkey"], value_col="val_cents", num_buckets=16,
        tagged_ds=_reconcile_sides_tagged(sf_dir, num_buckets=16),
    )


def _reconcile_partials(sf_dir: str) -> pa.Table:
    """(grp, status, n) partial counts of the reconcile detail, with
    ``grp = orderkey % 97``: each detail batch collapses to them
    map-side, and only those small tables reach the driver."""

    def count(t: pa.Table) -> pa.Table:
        grp = pa.array(t["orderkey"].to_numpy(zero_copy_only=False) % 97, pa.int64())
        g = pa.table({"grp": grp, "status": t["status"]}).group_by(["grp", "status"]).aggregate(
            [([], "count_all")]
        )
        return pa.table({"grp": g["grp"], "status": g["status"], "n": g["count_all"]})

    rows = _reconcile_detail(sf_dir).map_batches(count, batch_format="pyarrow").take_all()
    return pa.Table.from_pylist(rows, schema=pa.schema(
        [("grp", pa.int64()), ("status", pa.string()), ("n", pa.int64())]
    ))


def q_reconcile_statuses(sf_dir: str):
    """The central cogroup reconcile (J4-J8) over derived sides;
    detail rows (key + status)."""
    return _reconcile_detail(sf_dir).select_columns(["orderkey", "status"])


def q_reconcile_counts(sf_dir: str):
    """Exact per-status report counts (north rule exactness gate),
    summed from the map-side partial counts."""
    from ..pipelines.reconcile_run import status_counts

    return status_counts(_reconcile_partials(sf_dir))


# ---------------------------------------------------------------- CDC LWW
def q_cdc_lww_events(sf_dir: str):
    """Last-writer-wins latest row per key (the CDC upsert semantics of
    SURVEY.md §2.6 applied to the events stream)."""
    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type", "value"])
    latest = lww_latest(ds, key_cols="user_id", order_cols=["ts", "event_id"], num_buckets=16)
    return latest.map_batches(
        lambda df: df[["user_id", "event_id", "event_type", "value"]], batch_format="pandas"
    )


def _claimed_cache_dir(sf_dir: str, tag: str, build) -> str:
    """Shared /tmp cache for replayed-lake fixtures (the driver invokes
    registry entries repeatedly; rebuilding + leaking a fresh mkdtemp
    lake per call would re-pay the replay each time and accumulate in
    /tmp). The commit log records absolute file paths, so the lake must
    be built IN its final directory: claim it atomically with mkdir,
    publish with a _DONE marker; a racing second builder waits for the
    marker and only falls back to a private build dir if the claimer
    appears crashed (rare; correct, just uncached). Keyed on the
    RESOLVED events path AND a fingerprint of the source file
    (size + mtime): two sf_dirs sharing a basename must not collide,
    and a regenerated fixture at the same path must invalidate
    (ADVICE r3) — stale lakes silently corrupt the correctness
    surface otherwise."""
    import tempfile

    src = table_path(sf_dir, "events")
    st = os.stat(src)
    fp = hashlib.sha256(
        f"{os.path.realpath(src)}|{st.st_size}|{int(st.st_mtime_ns)}".encode()
    ).hexdigest()[:16]
    cache_key = f"{os.path.basename(os.path.normpath(sf_dir)) or 'sf'}_{fp}"
    work = os.path.join(tempfile.gettempdir(), f"etl_rec_{tag}_cache_{cache_key}")
    if not os.path.exists(os.path.join(work, "_DONE")):
        try:
            os.mkdir(work)  # atomic claim
            build(work)
            with open(os.path.join(work, "_DONE"), "w") as fh:
                fh.write("ok\n")
        except FileExistsError:
            import time as _time

            for _ in range(1200):  # wait for the claimer's publish
                if os.path.exists(os.path.join(work, "_DONE")):
                    break
                _time.sleep(0.1)
            else:  # claimer crashed: build privately, uncached
                work = tempfile.mkdtemp(prefix=f"etl_rec_{tag}_")
                build(work)
    return work


def _schema_evo_lake(sf_dir: str) -> str:
    """Build (cached) the two-epoch evolving lake both
    ``schema_evolution_replay`` and ``lake_keyed_lookup`` read: epoch 0
    (even event_ids) carries the base payload schema, epoch 1 (odd)
    ADDS ``size_bytes`` mid-stream; keys are (user_id%7, event_id%211).
    Returns the lake root."""
    import pyarrow.parquet as _pq

    from ..pipelines.replay import ReplayConfig, replay_stream

    ev = _pq.read_table(
        table_path(sf_dir, "events"), columns=["event_id", "user_id", "event_type"]
    )
    ev = ev.filter(
        pc.and_(pc.is_valid(ev["user_id"]), pc.is_valid(ev["event_type"]))
    )
    eid = ev["event_id"].to_numpy(zero_copy_only=False)
    uid = ev["user_id"].to_numpy(zero_copy_only=False)

    def _build(work_dir: str) -> None:
        base = pa.table({
            "seq": pa.array(eid, pa.int64()),
            "op": pa.array(["I"] * len(eid)),
            "repo": pc.cast(pa.array(uid % 7), pa.string()),
            "path": pc.cast(pa.array(eid % 211), pa.string()),
            "content": ev["event_type"],
        })
        odd = (eid % 2) == 1
        binlog = os.path.join(work_dir, "binlog")
        os.makedirs(binlog, exist_ok=True)
        _pq.write_table(base.filter(pa.array(~odd)), os.path.join(binlog, "epoch=00000.parquet"))
        _pq.write_table(
            base.filter(pa.array(odd)).append_column(
                "size_bytes", pa.array(uid[odd], pa.int64())
            ),
            os.path.join(binlog, "epoch=00001.parquet"),
        )
        replay_stream(
            binlog, ReplayConfig(lake_root=os.path.join(work_dir, "lake"), num_buckets=8)
        )

    work = _claimed_cache_dir(sf_dir, "schema_evo", _build)
    return os.path.join(work, "lake")


def q_schema_evolution_replay(sf_dir: str):
    """Additive-column schema evolution end-to-end through the REAL
    binlog-tail replay (north rule; graft-added vs the reference —
    SURVEY.md §1.1): epoch 0 (even event_ids) carries the base payload
    schema, epoch 1 (odd event_ids) ADDS ``size_bytes`` mid-stream.
    The union-schema scan (_binlog_scan_schema) must null-fill the
    pre-evolution rows and LWW must keep each winner's own payload —
    an epoch-0 winner surfaces size_bytes = NULL even though later
    files carry the column. The two epoch files are derived
    deterministically from the ``events`` table (driver-side build is
    bounded: this is a correctness-surface query, not a bench path —
    the replay itself is the distributed engine)."""
    from ..pipelines.replay import ReplayConfig, lake_dataset

    cfg = ReplayConfig(lake_root=_schema_evo_lake(sf_dir), num_buckets=8)

    def project(t: pa.Table) -> pa.Table:
        sz = t["size_bytes"] if "size_bytes" in t.column_names else pa.nulls(
            t.num_rows, pa.int64()
        )
        return pa.table({
            "repo": t["repo"],
            "path": t["path"],
            "content": t["content"],
            "content_sha256": t["content_sha256"],
            # -1 sentinel keeps the column int64 on both sides (a
            # nullable-int column degrades to float through pandas)
            "size_bytes": pc.fill_null(pc.cast(sz, pa.int64()), -1),
            "evolved": pc.is_valid(sz),
        })

    return lake_dataset(cfg.lake_root).map_batches(project, batch_format="pyarrow")


def q_lake_keyed_lookup(sf_dir: str):
    """Pruned keyed reads over a replayed lake (``lake_lookup`` /
    ``lake_dataset(repos=...)``): a whole-repo lookup of repo '3' (a
    layout-pruned scan touching only its candidate buckets) plus two
    point lookups — the engine's answer to the reference's per-key JDBC
    SELECT (LoadJpatBatchesTasklet.java:91), O(1 bucket) instead of
    O(lake). Runs over the same cached two-epoch evolving lake as
    ``schema_evolution_replay``; the oracle recomputes the LWW winners
    in DuckDB and applies the identical key predicate, so the driver
    hash certifies the pruned read == the full-state filter."""
    from ..pipelines.replay import lake_lookup

    root = _schema_evo_lake(sf_dir)
    cols = ["repo", "path", "content", "content_sha256"]
    parts = [lake_lookup(root, "3", columns=cols)]
    for repo, path in (("1", "7"), ("5", "100")):
        t = lake_lookup(root, repo, path, columns=cols)
        if t.num_rows:
            parts.append(t)
    parts = [t for t in parts if t.num_rows]
    if not parts:
        return pa.table({c: pa.array([], pa.string()) for c in cols})
    return pa.concat_tables(parts, promote_options="default")


def _ivm_lake(sf_dir: str) -> str:
    """Build (cached) the 3-epoch I/U/D lake both ``ivm_repo_stats``
    and ``key_history_lake`` read: binlog derived deterministically
    from ``events`` — epoch = contiguous event_id third (so seq order
    == epoch order and the LWW winner is simply max seq), repo =
    user_id%5, path = event_id % (id_range/2) (a key space epoch 1
    only half-covers at EVERY scale ⇒ the feed deterministically
    carries genuine 'I' rows alongside 'U' collisions and 'D'
    tombstones); epoch-2 rows with user_id%11==3 are 'D' tombstones.
    Returns the lake root."""
    import pyarrow.parquet as _pq

    from ..pipelines.replay import ReplayConfig, replay_stream

    ev = _pq.read_table(
        table_path(sf_dir, "events"), columns=["event_id", "user_id", "event_type"]
    )
    ev = ev.filter(
        pc.and_(pc.is_valid(ev["user_id"]), pc.is_valid(ev["event_type"]))
    )
    eid = ev["event_id"].to_numpy(zero_copy_only=False)
    uid = ev["user_id"].to_numpy(zero_copy_only=False)
    hi = int(eid.max()) + 1
    pmod = max(hi // 2, 1)  # key space ~half the id range: every scale
    # leaves epoch 1 covering ~49% of keys, so the 1->3 feed carries a
    # healthy mix of I (new keys), U (collisions) and D (tombstoned
    # existing keys) deterministically

    def _build(work_dir: str) -> None:
        epoch = (eid * 3) // hi
        op = np.where((epoch == 2) & (uid % 11 == 3), "D", "I")
        base = pa.table({
            "seq": pa.array(eid, pa.int64()),
            "op": pa.array(op),
            "repo": pc.cast(pa.array(uid % 5), pa.string()),
            "path": pc.cast(pa.array(eid % pmod), pa.string()),
            "content": ev["event_type"],
        })
        binlog = os.path.join(work_dir, "binlog")
        os.makedirs(binlog, exist_ok=True)
        for e in range(3):
            _pq.write_table(
                base.filter(pa.array(epoch == e)),
                os.path.join(binlog, f"epoch={e:05d}.parquet"),
            )
        replay_stream(
            binlog, ReplayConfig(lake_root=os.path.join(work_dir, "lake"), num_buckets=8)
        )

    work = _claimed_cache_dir(sf_dir, "ivm", _build)
    return os.path.join(work, "lake")


def _replica_lake(sf_dir: str) -> str:
    """Build (cached) a lake-to-lake REPLICATION of the 3-epoch I/U/D
    derivation: the source lake replays epochs 0-1, exports a
    full-fidelity snapshot segment (``image_cols="all"``), replays
    epoch 2 (with an ADDED ``size_hint`` column — the feed spans a
    mid-stream schema evolution), exports the delta segment, and
    ``replicate_feed`` applies both into a replica lake with a
    DIFFERENT bucket layout (4 vs 8 — replication is logical, not a
    file copy). Returns the replica root."""
    import pyarrow.parquet as _pq

    from ..pipelines.replay import (
        ReplayConfig,
        export_changelog,
        replay_stream,
        replicate_feed,
    )

    ev = _pq.read_table(
        table_path(sf_dir, "events"), columns=["event_id", "user_id", "event_type"]
    )
    ev = ev.filter(
        pc.and_(pc.is_valid(ev["user_id"]), pc.is_valid(ev["event_type"]))
    )
    eid = ev["event_id"].to_numpy(zero_copy_only=False)
    uid = ev["user_id"].to_numpy(zero_copy_only=False)
    hi = int(eid.max()) + 1
    pmod = max(hi // 2, 1)

    def _build(work_dir: str) -> None:
        epoch = (eid * 3) // hi
        op = np.where((epoch == 2) & (uid % 11 == 3), "D", "I")
        base = pa.table({
            "seq": pa.array(eid, pa.int64()),
            "op": pa.array(op),
            "repo": pc.cast(pa.array(uid % 5), pa.string()),
            "path": pc.cast(pa.array(eid % pmod), pa.string()),
            "content": ev["event_type"],
        })
        binlog = os.path.join(work_dir, "binlog")
        os.makedirs(binlog, exist_ok=True)
        src = ReplayConfig(
            lake_root=os.path.join(work_dir, "src_lake"), num_buckets=8
        )
        feed = os.path.join(work_dir, "feed")
        for e in range(2):
            _pq.write_table(
                base.filter(pa.array(epoch == e)),
                os.path.join(binlog, f"epoch={e:05d}.parquet"),
            )
        replay_stream(binlog, src)
        export_changelog(src.lake_root, feed, image_cols="all")  # snapshot
        m2 = epoch == 2
        _pq.write_table(
            base.filter(pa.array(m2)).append_column(
                "size_hint", pa.array(uid[m2], pa.int64())
            ),
            os.path.join(binlog, "epoch=00002.parquet"),
        )
        replay_stream(binlog, src)
        export_changelog(src.lake_root, feed, image_cols="all")  # delta
        rep = ReplayConfig(
            lake_root=os.path.join(work_dir, "replica"), num_buckets=4
        )
        replicate_feed(feed, rep)

    work = _claimed_cache_dir(sf_dir, "replica", _build)
    return os.path.join(work, "replica")


def q_replica_state(sf_dir: str):
    """Lake-to-lake CDC replication end-to-end (graft-added — the
    reference's downstream is a human report; a 100 TB deployment's
    downstream is another lake): snapshot + delta feed segments,
    spanning a mid-stream schema evolution, applied through the normal
    replay engine into a replica with a different bucket layout
    (``replicate_feed``). Returns the REPLICA's full state; the oracle
    recomputes the source's LWW winners straight from the shared
    derivation, so one driver hash certifies export fidelity + replay
    application + evolution handling + layout independence."""
    from ..pipelines.replay import lake_dataset

    root = _replica_lake(sf_dir)

    def project(t: pa.Table) -> pa.Table:
        sz = t["size_hint"] if "size_hint" in t.column_names else pa.nulls(
            t.num_rows, pa.int64()
        )
        return pa.table({
            "repo": t["repo"],
            "path": t["path"],
            "content": t["content"],
            "content_sha256": t["content_sha256"],
            # -1 sentinel keeps int64 through the pandas compare
            "size_hint": pc.fill_null(pc.cast(sz, pa.int64()), -1),
        })

    return lake_dataset(root).map_batches(project, batch_format="pyarrow")


def q_ivm_repo_stats(sf_dir: str):
    """Incremental view maintenance over the lake's own CDC feed
    (graft-added — the reference only INGESTS change feeds; this
    completes the loop by EMITTING one and keeping a downstream
    aggregate view current from it, Debezium/Materialize-style).

    Fixture: the shared 3-epoch I/U/D lake (``_ivm_lake``).
    The query aggregates the EPOCH-1 lake state per repo (count of
    live paths + total content length), then MAINTAINS that view to
    epoch 3 purely from ``lake_changelog(1, 3,
    image_cols=['content'])`` signed deltas (``stages/ivm.py``) —
    never rescanning the later state. The oracle recomputes the final
    state directly in DuckDB, certifying base + deltas == recompute
    including U-value moves and groups deleted down to zero."""
    from ..pipelines.replay import lake_changelog, lake_dataset
    from ..stages.ivm import maintain_aggregate

    root = _ivm_lake(sf_dir)

    def base_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "repo": t["repo"],
            "n_paths": pa.array([1] * t.num_rows, pa.int64()),
            "content_len": pc.cast(pc.utf8_length(t["content"]), pa.int64()),
        })

    base = lake_dataset(root, columns=["repo", "content"], as_of_epoch=1).map_batches(
        base_rows, batch_format="pyarrow"
    )
    feed = lake_changelog(root, from_epoch=1, to_epoch=3, image_cols=["content"])
    return maintain_aggregate(
        base, feed, keys=["repo"], count_name="n_paths",
        sums={"content_len": ("content", "utf8_length")},
    )


def q_key_history_lake(sf_dir: str):
    """Key-level audit history (``replay.key_history``): the full
    per-epoch change record of sampled keys over the shared 3-epoch
    I/U/D lake — each call walks ONE bucket's surviving log entries
    with row-group-pruned key-filtered reads, O(key's writes) driver
    work on a lake of any size (the audit/debug read every CDC store
    grows; the reference's closest analogue is its per-key JDBC SELECT,
    LoadJpatBatchesTasklet.java:91, which only sees the CURRENT row).
    Keys: paths '1'..'20' across all 5 repos (the derived key space is
    ~half the id range, so each sampled path has O(1) events at every
    scale — the result stays driver-sized). The oracle recomputes each
    epoch's LWW winner for the same keys straight from the derived
    binlog, certifying attribution (epoch), op and payload."""
    from ..pipelines.replay import key_history

    root = _ivm_lake(sf_dir)
    parts = []
    for repo in ("0", "1", "2", "3", "4"):
        for path in [str(i) for i in range(1, 21)]:
            t = key_history(root, repo, path, columns=["content"])
            if t.num_rows:
                parts.append(t)
    if not parts:
        return pa.table({
            "epoch": pa.array([], pa.int64()), "op": pa.array([], pa.string()),
            "repo": pa.array([], pa.string()), "path": pa.array([], pa.string()),
            "content": pa.array([], pa.string()),
        })
    return pa.concat_tables(parts, promote_options="default")


def _txn_lakes(sf_dir: str) -> tuple[str, str, str]:
    """Build (cached) TWO lakes fed by one MULTIPLEXED 3-epoch binlog
    through ``replay_multiplexed`` — per-epoch cross-table atomic
    commits via the txn coordinator. Same keyed derivation as
    ``_ivm_lake`` (so the LWW/tombstone structure is shared); table
    'a' carries the raw content, table 'b' the 'B:'-prefixed content.
    Returns (root_a, root_b, coordinator_root)."""
    import pyarrow.parquet as _pq

    from ..pipelines.replay import ReplayConfig, replay_multiplexed

    ev = _pq.read_table(
        table_path(sf_dir, "events"), columns=["event_id", "user_id", "event_type"]
    )
    ev = ev.filter(
        pc.and_(pc.is_valid(ev["user_id"]), pc.is_valid(ev["event_type"]))
    )
    eid = ev["event_id"].to_numpy(zero_copy_only=False)
    uid = ev["user_id"].to_numpy(zero_copy_only=False)
    hi = int(eid.max()) + 1
    pmod = max(hi // 2, 1)

    def _build(work_dir: str) -> None:
        epoch = (eid * 3) // hi
        op = np.where((epoch == 2) & (uid % 11 == 3), "D", "I")
        base = pa.table({
            "seq": pa.array(eid, pa.int64()),
            "op": pa.array(op),
            "repo": pc.cast(pa.array(uid % 5), pa.string()),
            "path": pc.cast(pa.array(eid % pmod), pa.string()),
            "content": ev["event_type"],
        })
        b_content = pc.binary_join_element_wise(
            pa.array(["B:"] * len(eid)), pc.fill_null(base["content"], ""), ""
        )
        binlog = os.path.join(work_dir, "binlog")
        os.makedirs(binlog, exist_ok=True)
        for e in range(3):
            m = pa.array(epoch == e)
            a = base.filter(m).append_column("tbl", pa.array(["a"] * int((epoch == e).sum())))
            b = base.set_column(
                base.column_names.index("content"), "content", b_content
            ).filter(m).append_column("tbl", pa.array(["b"] * int((epoch == e).sum())))
            both = pa.concat_tables([a, b]).sort_by(
                [("tbl", "ascending"), ("seq", "ascending")]
            )
            _pq.write_table(
                both, os.path.join(binlog, f"epoch={e:05d}.parquet"),
                row_group_size=max(a.num_rows, 1),
            )
        replay_multiplexed(
            binlog,
            {
                "a": ReplayConfig(lake_root=os.path.join(work_dir, "lake_a"), num_buckets=8),
                "b": ReplayConfig(lake_root=os.path.join(work_dir, "lake_b"), num_buckets=8),
            },
            os.path.join(work_dir, "txn"),
        )

    work = _claimed_cache_dir(sf_dir, "txnmux", _build)
    return (
        os.path.join(work, "lake_a"),
        os.path.join(work, "lake_b"),
        os.path.join(work, "txn"),
    )


def q_txn_snapshot_join(sf_dir: str):
    """Cross-table consistent read over the transactionally-ingested
    lakes: the coordinator's committed cut pins BOTH lakes' epochs
    (``state.txn.read_snapshot``), the two pinned states hash-join on
    (repo, path), and the result aggregates per repo. Because every
    epoch committed atomically across the two tables, the join is
    loss-free by construction — the oracle recomputes both final LWW
    states from the shared derivation and certifies counts and summed
    content lengths."""
    from ..stages.joins import hash_join
    from ..state.txn import TxnCoordinator, read_snapshot

    root_a, root_b, txn_root = _txn_lakes(sf_dir)
    co = TxnCoordinator.open(txn_root)
    snaps = read_snapshot(co, columns={"a": ["repo", "path", "content"],
                                       "b": ["repo", "path", "content"]})
    joined = hash_join(snaps["a"], snaps["b"], on=["repo", "path"],
                       how="inner", num_buckets=8)

    def agg(t: pa.Table) -> pa.Table:
        return pa.table({
            "repo": t["repo"],
            "n_keys": pa.array([1] * t.num_rows, pa.int64()),
            "len_a": pc.cast(pc.utf8_length(t["content_l"]), pa.int64()),
            "len_b": pc.cast(pc.utf8_length(t["content_r"]), pa.int64()),
        })

    from ..stages.agg import preagg_groupby

    return preagg_groupby(
        joined.map_batches(agg, batch_format="pyarrow"),
        keys=["repo"],
        sums={"n_keys": "n_keys", "len_a": "len_a", "len_b": "len_b"},
    )


def q_lm_quality_docs(sf_dir: str):
    """CCNet/KenLM-style perplexity quality filter
    (``stages/textstage.trigram_lm_scores``): each document's mean
    negative log-likelihood under the corpus's own char-trigram LM
    (add-1 smoothing), e4-rounded. Distributed counts → one tiny
    groupby → broadcast model → map-only scoring. The DuckDB oracle
    enumerates the identical trigrams with substr + generate_series and
    recomputes the same smoothed averages."""
    from ..stages.textstage import trigram_lm_scores

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return trigram_lm_scores(ds)


def q_schema_history_lake(sf_dir: str):
    """Schema-evolution audit (``replay.lake_schema_history``): which
    epoch introduced which column, read from commit-log entries' parquet
    footers only — O(files) metadata reads, no data. Over the shared
    two-epoch evolving lake: epoch 1 carries the base payload schema,
    epoch 2 adds ``size_bytes`` mid-stream. The oracle is the fixture's
    deterministic construction itself (scale-invariant by design), so
    the driver hash certifies the footer walk attributes every column
    to the right epoch with the right Arrow type."""
    from ..pipelines.replay import lake_schema_history

    return lake_schema_history(_schema_evo_lake(sf_dir))


# ---------------------------------------------------------------- sort/limit
def q_topk_orders(sf_dir: str):
    """Top-k by sort with deterministic tie-break (SURVEY.md §2.6:
    positional 'first' made deterministic)."""
    ds = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(10)


# ---------------------------------------------------------------- dedup
def q_dedup_exact_docs(sf_dir: str):
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return exact_dedup(ds)


def q_minhash_clusters(sf_dir: str):
    """MinHash+LSH near-dup clusters (rows-only check: connected
    components are not ANSI-SQL-expressible)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return minhash_clusters(ds, threshold=0.8)


def q_incremental_dedup_docs(sf_dir: str):
    """Incremental (per-epoch) dedup: an incoming batch — every 10th
    corpus doc, id-shifted past the corpus id range and tail-perturbed
    (planted Jaccard ≈0.9, LSH miss probability ~1e-4/pair) — matched
    against the existing corpus WITHOUT corpus self-pairs
    (stages/dedup.incremental_dup_check). Rows-only (LSH+verify is not
    ANSI-SQL); the planted construction doubles as the falsifiable
    check: incoming docs must match their sources."""
    from ..stages.dedup import incremental_dup_check

    corpus = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    # offset past the real id range so the two sides stay disjoint at
    # any SF (incremental_dup_check precondition); >= 1e6 keeps the
    # planted ids recognizable
    offset = max(1_000_000, int(corpus.max("doc_id")) + 1)

    def derive_new(df: pd.DataFrame) -> pd.DataFrame:
        m = (df["doc_id"].to_numpy() % 10 == 0) & df["text"].notna().to_numpy()
        return pd.DataFrame({
            "doc_id": df.loc[m, "doc_id"].astype("int64") + offset,
            "text": df.loc[m, "text"].astype(str) + " tail",
        })

    new = corpus.map_batches(derive_new, batch_format="pandas")
    return incremental_dup_check(new, corpus, threshold=0.8)


def q_dedup_plan_docs(sf_dir: str):
    """End-to-end near-dup governance plan: every document labeled with
    its MinHash/LSH cluster and a keep/drop decision (keep = longest
    text, ties to the smallest doc_id) — the artifact a training-data
    curation run actually consumes. Composition of minhash_clusters
    (distributed CC) ∘ doc-length map ∘ doc-hash join ∘ per-cluster
    representative pick; rows-only (CC is not ANSI-SQL) with a planted
    3-dup unit test."""
    from ..stages.dedup import minhash_clusters

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    clusters = minhash_clusters(ds, threshold=0.8)
    lens = ds.map_batches(
        lambda t: pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "text_len": pc.cast(
                pc.fill_null(pc.utf8_length(t["text"]), 0), pa.int64()
            ),
        }),
        batch_format="pyarrow",
    )
    j = hash_join(clusters, lens, on="doc_id", num_buckets=16)

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["text_len", "doc_id"], ascending=[False, True], kind="stable"
        ).reset_index(drop=True)
        keep = np.zeros(len(g), dtype=np.int64)
        keep[0] = 1
        return pd.DataFrame({
            "doc_id": g["doc_id"].astype("int64"),
            "cluster_id": g["cluster_id"].astype("int64"),
            "text_len": g["text_len"].astype("int64"),
            "keep": keep,
        })

    return j.groupby("cluster_id").map_groups(pick, batch_format="pandas")


def q_simhash_docs(sf_dir: str):
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(SimHashStage, batch_format="pandas", batch_size=1024, concurrency=(1, 4))


def q_ngram_jaccard_pairs(sf_dir: str):
    """LSH candidate pairs with exact shingle-Jaccard >= 0.8, verified
    DISTRIBUTED (pairs enriched with texts via two hash joins; no
    corpus-sized driver materialization)."""
    from ..stages.dedup import verify_pairs_distributed

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = lsh_candidate_pairs(ds)
    return verify_pairs_distributed(pairs, ds, threshold=0.8)


def q_pagerank_docs(sf_dir: str):
    """PageRank over the LSH near-dup candidate graph (stages/graph):
    ranks the most central document of each duplicate neighborhood —
    the canonical-representative pick. Iterated join + groupby-sum
    rounds, nothing corpus-sized on the driver; rows-only (iterative,
    not ANSI-SQL-expressible) with star/cycle/numpy-reference property
    tests."""
    from ..stages.dedup import lsh_candidate_pairs
    from ..stages.graph import pagerank

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    nodes = ds.map_batches(
        lambda t: pa.table({"node": pc.cast(t["doc_id"], pa.int64())}),
        batch_format="pyarrow",
    )
    edges = lsh_candidate_pairs(ds)
    return pagerank(nodes, edges, damping=0.85, iters=8)


# ---------------------------------------------------------------- similarity
def _query_vectors(sf_dir: str) -> pd.DataFrame:
    df = read_table_pandas(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return df[df["vec_id"] < 5].reset_index(drop=True)


def q_knn_cosine(sf_dir: str):
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return knn_cosine(ds, _query_vectors(sf_dir), k=5)


def q_ann_lsh(sf_dir: str):
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ann_lsh_topk(ds, _query_vectors(sf_dir), k=5, num_planes=4)


def q_ann_ivf(sf_dir: str):
    """IVF approximate top-k (rows-only: recall-traded approximation;
    exactness asserted separately via a recall unit test vs knn)."""
    from ..stages.similarity import ivf_topk

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    train = read_table_pandas(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ivf_topk(ds, _query_vectors(sf_dir), k=5, num_lists=8, nprobe=4, train_sample=train)


def q_ann_pq(sf_dir: str):
    """Product-quantization ADC top-k (rows-only: recall-traded
    compression; recall asserted vs exact knn in a unit test). The
    32×-compressed m-byte codes are what a 100 TB corpus keeps hot."""
    from ..stages.similarity import pq_topk

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    train = read_table_pandas(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return pq_topk(ds, _query_vectors(sf_dir), k=5, m=8, kcodes=32, train_sample=train)


def q_semantic_clusters(sf_dir: str):
    """Rows-only: seeded k-means topic assignment over the embedding
    corpus (stages/similarity.kmeans_assign — the SemDeDup cluster-
    then-dedup / stratified-sampling primitive). Not SQL-expressible
    (iterative centroid training); falsifiable tests pin planted-
    cluster recovery and seed determinism."""
    from ..stages.similarity import kmeans_assign

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    train = read_table_pandas(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return kmeans_assign(ds, k=8, train_sample=train)


def q_semantic_dedup(sf_dir: str):
    """Rows-only: the full SemDeDup composition (Abbas et al. 2023) —
    k-means semantic clusters, then within-cluster cosine near-dup
    groups keep only their lowest id (stages/similarity.semantic_dedup).
    Runs over the planted-dup derived table (`_plant_dup_rows` — the
    raw corpus has no >=0.99 pairs, so the raw table proves nothing):
    every planted clone shares its original's direction, lands in its
    cluster, and must NOT be kept. Not SQL-expressible (iterative
    training + transitive grouping); falsifiable tests pin planted
    family recovery, keep/rep contract and determinism."""
    from ..stages.similarity import semantic_dedup

    train = _plant_dup_rows(
        read_table_pandas(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    )
    return semantic_dedup(_dup_embeddings(sf_dir), train, k=8, threshold=0.99)


# ---------------------------------------------------------------- text
def q_token_stats(sf_dir: str):
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(TokenStats, batch_format="pandas", batch_size=2048, concurrency=(1, 4))


def q_quality_docs(sf_dir: str):
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(QualityScore, batch_format="pandas", batch_size=2048, concurrency=(1, 4))

    def fmt(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_tokens": df["n_tokens"],
                "stop_ratio": df["stop_ratio"].round(6),
            }
        )

    return out.map_batches(fmt, batch_format="pandas")


def q_langid_docs(sf_dir: str):
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(LangId, batch_format="pandas", batch_size=2048, concurrency=(1, 4))


def q_sha256_docs(sf_dir: str):
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(sha256_stage, batch_format="pyarrow")


# ---------------------------------------------------------------- windows
def q_session_window_events(sf_dir: str):
    """Gap-based session windows per user (30-minute gap): one shuffle
    on the key, vectorized sessionization per bucket."""
    from ..stages.windows import session_window_agg

    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])
    out = session_window_agg(
        ds, ts_col="ts", key="user_id", gap_minutes=30, value_col="value"
    )

    def fmt(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "session_start": df["session_start"],
                "n_events": df["n_events"].astype("int64"),
                "sum_value_cents": (df["sum_value_f"] * 100).round().astype("int64"),
            }
        )

    return out.map_batches(fmt, batch_format="pandas")


def q_watermark_window_events(sf_dir: str):
    """Event-time tumbling windows under WATERMARK discipline with
    allowed lateness (stages/streamwin — Flink/Dataflow semantics,
    graft-added streaming surface): arrival epochs are the event_id
    quartiles, event time is ``ts`` pulled back 24 h for user_id%5==4
    rows (deterministic planted stragglers at every scale), windows are
    4 h wide with 1 h allowed lateness. A window whose end the
    epoch-granularity watermark passed before a straggler arrives
    counts it in ``n_late`` and keeps it OUT of the aggregate;
    ``closed`` reports each window's state under the final watermark.
    All arithmetic is integer µs / integer cents, so the DuckDB oracle
    (identical watermark recursion as window functions) hash-matches
    exactly."""
    from ..stages.streamwin import watermark_window_agg

    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])
    m = read_table(sf_dir, "events", columns=["event_id"]).max("event_id") + 1
    day_us = 24 * 3600 * 1_000_000

    def derive(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.is_valid(t["ts"]), pc.is_valid(t["user_id"])))
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts_us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        disp = (uid % 5 == 4).astype(np.int64) * day_us
        cents = np.round(
            pc.fill_null(t["value"], 0.0).to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table({
            "epoch": pa.array((eid * 4) // m, pa.int64()),
            "ts_eff": pa.array(ts_us - disp, pa.int64()).cast(pa.timestamp("us")),
            "cents": pa.array(cents, pa.int64()),
        })

    out = watermark_window_agg(
        ds.map_batches(derive, batch_format="pyarrow"),
        epoch_col="epoch", ts_col="ts_eff",
        width_sec=4 * 3600, lateness_sec=3600,
        keys=[], value_col="cents",
    )

    def fmt(t: pa.Table) -> pa.Table:
        return pa.table({
            "window_start": t["window_start"],
            "n": t["n"],
            "n_late": t["n_late"],
            # cents ride the float64 partial sums exactly (integers
            # well under 2^53), so the cast back is lossless
            "sum_cents": pc.cast(t["sum_value"], pa.int64()),
            "closed": t["closed"],
        })

    return out.map_batches(fmt, batch_format="pyarrow")


# ---------------------------------------------------------------- set ops
def q_distinct_event_types(sf_dir: str):
    ds = read_table(sf_dir, "events", columns=["event_type"])
    return ds.groupby("event_type").count().select_columns(["event_type"])


def q_anti_join_customers(sf_dir: str):
    """Customers who never produced an event (reference J7 anti-join
    leg, ReconciliationService.java:154-171, via broadcast key set).
    The events/customer key domains genuinely diverge at every sf, so
    the result is non-empty — an empty-vs-empty oracle match would
    prove nothing.

    The broadcast key set is built DISTRIBUTED (per-batch distinct →
    one distinct-keys shuffle) and only the distinct ids — bounded by
    the customer-key domain, not the event count — are collected for
    the broadcast; pulling the raw fact-table column to the driver
    would be O(events) memory at 100 TB."""
    ev = read_table(sf_dir, "events", columns=["user_id"])
    distinct = ev.groupby("user_id").count().select_columns(["user_id"])
    ukeys = distinct.to_pandas().rename(columns={"user_id": "c_custkey"})
    cust = read_table(sf_dir, "customer", columns=["c_custkey"])
    return broadcast_anti_join(cust, ukeys, on="c_custkey")


# ---------------------------------------------------------------- multimodal
def q_payload_meta(sf_dir: str):
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(payload_meta_stage, batch_format="pyarrow")


def _media_table(sf_dir: str):
    """Synthetic opaque-media table derived from documents: payload =
    utf-8 bytes, duration keyed off doc_id (deterministic)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def to_media(t: pa.Table) -> pa.Table:
        payload = pa.array([x.encode() for x in t["text"].to_pylist()], pa.large_binary())
        k = np.asarray(t["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
        return pa.table({
            "media_id": t["doc_id"],
            "media_type": pa.array(["video"] * t.num_rows),
            "payload": payload,
            "meta_duration_ms": pa.array((k % 5) * 700 + 100, pa.int32()),
        })

    return ds.map_batches(to_media, batch_format="pyarrow")


def q_frame_sample(sf_dir: str):
    """Video frame sampling: one row per sampled frame (fan-out
    ceil(duration/interval) per input). The frame count per media_id is
    SQL-expressible from the metadata, so this one carries an oracle:
    per-media frame counts."""
    from ..stages.multimodal import frame_sample

    frames = frame_sample(_media_table(sf_dir), interval_ms=1000)
    return preagg_groupby(frames, keys=["media_id"], count_alias="n_frames")


# ---------------------------------------------------------------- asof join
def q_asof_join_events(sf_dir: str):
    """Backward as-of join: each click paired with the user's most
    recent prior-or-simultaneous purchase (custom operator — Ray Data
    has none; stages/joins.asof_join)."""
    import pyarrow.dataset as pads

    from ..stages.joins import asof_join

    cols = ["event_id", "ts", "user_id", "value"]
    # per-side predicate pushed to the parquet scan: only each side's
    # rows leave storage (never the full events table twice)
    clicks = read_table(
        sf_dir, "events", columns=cols, filter=(pads.field("event_type") == "click")
    )
    purchases = read_table(
        sf_dir, "events", columns=cols, filter=(pads.field("event_type") == "purchase")
    )
    out = asof_join(
        clicks, purchases, on="ts", by="user_id",
        right_cols={"event_id": "purchase_event_id", "value": "purchase_value"},
    )

    def fmt(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64"),
                "user_id": df["user_id"].astype("int64"),
                "purchase_event_id": df["purchase_event_id"].fillna(-1).astype("int64"),
                "purchase_value_cents": (df["purchase_value"] * 100).round().fillna(-1).astype("int64"),
            }
        )

    return out.map_batches(fmt, batch_format="pandas")


def q_asof_forward_events(sf_dir: str):
    """FORWARD as-of join: each click paired with the user's first
    purchase at-or-after it (conversion attribution). Same one-shuffle
    bucket-cogroup plan as the backward variant — only the per-bucket
    merge direction flips (stages/joins.asof_join direction param)."""
    import pyarrow.dataset as pads

    from ..stages.joins import asof_join

    cols = ["event_id", "ts", "user_id", "value"]
    clicks = read_table(
        sf_dir, "events", columns=cols, filter=(pads.field("event_type") == "click")
    )
    purchases = read_table(
        sf_dir, "events", columns=cols, filter=(pads.field("event_type") == "purchase")
    )
    out = asof_join(
        clicks, purchases, on="ts", by="user_id",
        right_cols={"event_id": "next_purchase_id", "value": "next_value"},
        direction="forward",
    )

    def fmt(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64"),
                "user_id": df["user_id"].astype("int64"),
                "next_purchase_id": df["next_purchase_id"].fillna(-1).astype("int64"),
                "next_value_cents": (df["next_value"] * 100).round().fillna(-1).astype("int64"),
            }
        )

    return out.map_batches(fmt, batch_format="pandas")


def q_weighted_sample_docs(sf_dir: str):
    """Deterministic weighted Bernoulli sampling (the quality-weighted
    subsampling step of a training-data mix): keep each document with
    probability min(999, n_chars/2)/1000, decided by a Knuth
    multiplicative hash of its id — exact integer arithmetic on both
    sides, so unlike ``ds.random_sample`` the draw is reproducible at
    any parallelism AND oracle-checkable. Map-only, no shuffle."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def pick(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        w = np.minimum(999, t["n_chars"].to_numpy(zero_copy_only=False) // 2)
        u = (did * 2654435761) % 4294967296 % 1000
        return t.filter(pa.array(u < w))

    return ds.map_batches(pick, batch_format="pyarrow")


def q_embdup_clusters(sf_dir: str):
    """Embedding near-dup CLUSTERS: the IVF-bucketed candidate pairs
    fed through the same distributed min-label connected components as
    MinHash dedup (stages/dedup.connected_components_min_label) —
    nothing corpus-sized touches the driver. Rows-only (CC is not
    ANSI-SQL-expressible); the planted-clone structure is asserted in
    tests."""
    from ..stages.dedup import connected_components_min_label

    pairs = q_embdup_pairs_ivf(sf_dir).map_batches(
        lambda t: pa.table({"doc_a": t["id_a"], "doc_b": t["id_b"]}),
        batch_format="pyarrow",
    )
    nodes = _dup_embeddings(sf_dir).map_batches(
        lambda t: pa.table({"node": pc.cast(t["vec_id"], pa.int64())}),
        batch_format="pyarrow",
    )
    cc = connected_components_min_label(nodes, pairs)
    return cc.map_batches(
        lambda t: pa.table({"vec_id": t["node"], "cluster": t["label"]}),
        batch_format="pyarrow",
    )


def q_compression_ratio_docs(sf_dir: str):
    """zlib redundancy signal per document (rows-only: zlib is not
    SQL-expressible; property tests pin the semantics)."""
    from ..stages.textstage import compression_ratio

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(compression_ratio, batch_format="pyarrow")


def q_bpe_token_counts(sf_dir: str):
    """GPT-2-style pre-tokenizer token counts: the byte-level BPE
    pre-split regex (contractions | letter runs | digit runs |
    punctuation runs | whitespace), restricted to RE2 syntax (no
    lookahead) so Arrow's count_substring_regex and DuckDB's
    regexp_extract_all run the IDENTICAL engine — the count a training
    pipeline budgets sequence packing with, map-only."""
    pat = r"'(?:[sdmt]|ll|ve|re)| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+"
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def count(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "n_bpe_pieces": pc.cast(pc.count_substring_regex(t["text"], pat), pa.int64()),
        })

    return ds.map_batches(count, batch_format="pyarrow")


def q_user_journeys(sf_dir: str):
    """Behavioral sequence extraction (the input a sequence model
    trains on): each user's full event-type journey as an ordered
    comma-joined string, plus its length. Ordered string_agg at KEY
    scale (thousands of groups, unlike the 5-group dimension variant):
    one key-hash shuffle, then a per-bucket pandas groupby-join —
    per-key work is the key's own sequence, the bound any engine has."""
    from ..functions.hashing import hash64

    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "event_id", "event_type"])

    def tag(t: pa.Table) -> pa.Table:
        b = (hash64(t["user_id"]) % np.uint64(32)).astype(np.int32)
        return t.append_column("__b", pa.array(b))

    def join_skip_null(s: pd.Series):
        # string_agg semantics: NULL elements are skipped; an all-NULL
        # group aggregates to NULL, not "".
        vals = [x for x in s if isinstance(x, str)]
        return ",".join(vals) if vals else None

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        # dropna=False: SQL GROUP BY keeps the NULL-user group.
        g = df.groupby("user_id", sort=True, dropna=False)["event_type"]
        sz = g.size()
        return pd.DataFrame({
            "user_id": pd.array(sz.index, dtype="Int64"),
            "n_events": sz.astype("int64").values,
            "journey": g.agg(join_skip_null).values,
        })

    return rd_groupby_bucket(ds.map_batches(tag, batch_format="pyarrow"), per_bucket)


def q_lexical_diversity_docs(sf_dir: str):
    """Lexical diversity per document: distinct bigrams / total bigrams
    (exact integer pair, ratio left to the consumer — the repetition
    signal n-gram-based quality filters threshold on). Map-only: each
    document is one row, so its bigram multiset never leaves the
    batch."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def stats(t: pa.Table) -> pa.Table:
        lists = pc.split_pattern_regex(pc.utf8_lower(t["text"]), r"\s+")
        flat = pc.list_flatten(lists)
        parent = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False)
        words = flat.to_numpy(zero_copy_only=False)
        keep = words != ""
        words, parent = words[keep], parent[keep]
        n_tot = np.zeros(t.num_rows, dtype=np.int64)
        n_dis = np.zeros(t.num_rows, dtype=np.int64)
        if len(words) > 1:
            same_doc = parent[1:] == parent[:-1]
            big_doc = parent[1:][same_doc]
            pairs = np.char.add(
                np.char.add(words[:-1][same_doc].astype(str), "\x1f"),
                words[1:][same_doc].astype(str),
            )
            np.add.at(n_tot, big_doc, 1)
            # distinct within doc: unique (doc, pair) combos
            order = np.lexsort((pairs, big_doc))
            bd, pr = big_doc[order], pairs[order]
            first = np.ones(len(bd), dtype=bool)
            first[1:] = (bd[1:] != bd[:-1]) | (pr[1:] != pr[:-1])
            np.add.at(n_dis, bd[first], 1)
        # Oracle semantics on NULL text (verified in DuckDB): n_bigrams
        # is 0 (GREATEST ignores NULLs) but the CASE falls through
        # NULL<2 to ELSE and yields NULL — mask only the distinct count.
        null_text = pc.is_null(t["text"]).to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_bigrams": pa.array(n_tot, pa.int64()),
            "n_distinct_bigrams": pa.array(n_dis, pa.int64(), mask=null_text),
        })

    return ds.map_batches(stats, batch_format="pyarrow")


def q_mad_events(sf_dir: str):
    """Robust per-group dispersion: MEDIAN and MAD (median absolute
    deviation) of each user's event values — the outlier-insensitive
    spread a quality filter cuts on where stddev is skew-poisoned.
    Both medians are emitted DOUBLED (2x a median of ints is always an
    exact integer under linear interpolation), killing float-rounding
    ambiguity. Per bucket: two vectorized sort+gather passes over the
    whole block (no per-user loop) — per-segment medians are index
    arithmetic over segment starts/sizes."""
    from ..functions.hashing import hash64
    from ..stages.windowfns import _segment_starts

    ds = read_table(sf_dir, "events", columns=["user_id", "value"])

    def tag(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t["value"]))
        cents = pc.cast(pc.round(pc.multiply(t["value"], pa.scalar(100.0))), pa.int64())
        b = (hash64(t["user_id"]) % np.uint64(32)).astype(np.int32)
        return pa.table({
            "user_id": t["user_id"], "cents": cents, "__b": pa.array(b)
        })

    def seg_median2(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(user_at_start, 2*median per segment, sizes) for v sorted
        within each u-segment: median = mean of the two middle order
        statistics, gathered by index arithmetic."""
        n = len(u)
        starts = _segment_starts(u)
        sizes = np.diff(np.concatenate([starts, [n]]))
        lo = starts + (sizes - 1) // 2
        hi = starts + sizes // 2
        return u[starts], v[lo] + v[hi], sizes

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["user_id", "cents"], kind="stable")
        u = d["user_id"].to_numpy()
        v = d["cents"].to_numpy()
        users, med2, sizes = seg_median2(u, v)
        # 2*|x - med| = |2x - 2*med| stays integer-exact
        dev2 = np.abs(2 * v - np.repeat(med2, sizes))
        d2 = pd.DataFrame({"u": u, "dev2": dev2}).sort_values(["u", "dev2"], kind="stable")
        users2, mad4, _ = seg_median2(d2["u"].to_numpy(), d2["dev2"].to_numpy())
        assert (users == users2).all()
        return pd.DataFrame({
            "user_id": users.astype("int64"),
            "med2_cents": med2.astype("int64"),
            # mad4 = 2*median(dev2) = 4*MAD; emit as the exact integer
            "mad4_cents": mad4.astype("int64"),
        })

    return (
        rd_groupby_bucket(ds.map_batches(tag, batch_format="pyarrow"), per_bucket)
    )


def q_scd2_user_state(sf_dir: str):
    """SCD Type 2 dimension build from the event changelog: each
    user's event_type history collapsed to distinct consecutive
    versions with [valid_from, valid_to) validity intervals, a version
    ordinal, and an is_current flag — the standard warehouse derivation
    of the same changelog the LWW lake keeps only the tip of
    (reference keeps final state only, ReconciliationService.java:129).
    One key-hash shuffle, vectorized per-bucket kernels."""
    from ..functions.hashing import hash64
    from ..stages.scd import scd2_intervals

    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "event_id", "event_type"])

    def tag(t: pa.Table) -> pa.Table:
        b = (hash64(t["user_id"]) % np.uint64(32)).astype(np.int32)
        return t.append_column("__b", pa.array(b))

    return rd_groupby_bucket(
        ds.map_batches(tag, batch_format="pyarrow"),
        lambda df: scd2_intervals(df, key="user_id", attr="event_type", order=["ts", "event_id"]),
    )


def q_event_transitions(sf_dir: str):
    """Markov transition counts over per-user event sequences (the
    edge weights a next-event model or funnel analysis trains on):
    count (previous event_type → event_type) pairs within each user's
    ts-ordered stream. Per-bucket partial counts mean only
    (src, dst, n) rows — bounded by the event-type alphabet squared —
    leave the shuffle; the global sum is a tiny groupby."""
    from ..functions.hashing import hash64
    from ..stages.scd import transition_partial_counts

    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "event_id", "event_type"])

    def tag(t: pa.Table) -> pa.Table:
        b = (hash64(t["user_id"]) % np.uint64(32)).astype(np.int32)
        return t.append_column("__b", pa.array(b))

    partials = rd_groupby_bucket(
        ds.map_batches(tag, batch_format="pyarrow"),
        lambda df: transition_partial_counts(
            df, key="user_id", attr="event_type", order=["ts", "event_id"]
        ),
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(["src", "dst"], sort=False, as_index=False)["n"].sum()
        # un-encode the null sentinel planted by the partial stage
        for c in ("src", "dst"):
            out[c] = out[c].mask(out[c] == "\x00N", None)
        out["n"] = out["n"].astype("int64")
        return out

    return (
        partials.groupby(["src", "dst"])
        .map_groups(finish, batch_format="pandas")
    )


def q_fk_integrity(sf_dir: str):
    """Referential-integrity audit across the star schema: orphan
    count for every foreign key (rows whose FK value has no match in
    the parent table; NULL FKs count as orphans, matching NOT EXISTS
    on an equality predicate). Each check is a broadcast key set +
    map-side partial counts — one int per block moves, at any scale;
    big-big pairs would swap in the bloom prefilter
    (stages/joins.bloom_semi)."""
    from ..stages.scd import fk_orphan_count

    checks = [
        ("lineitem->orders", "lineitem", "l_orderkey", "orders", "o_orderkey"),
        ("orders->customer", "orders", "o_custkey", "customer", "c_custkey"),
        ("customer->nation", "customer", "c_nationkey", "nation", "n_nationkey"),
        ("supplier->nation", "supplier", "s_nationkey", "nation", "n_nationkey"),
        ("nation->region", "nation", "n_regionkey", "region", "r_regionkey"),
    ]
    rows = []
    for name, child, fk, parent, pk in checks:
        keys = (
            read_table(sf_dir, parent, columns=[pk])
            .unique(pk)
        )
        child_ds = read_table(sf_dir, child, columns=[fk])
        rows.append({"fk": name, "orphans": fk_orphan_count(child_ds, fk, np.asarray(keys))})
    return pa.table({
        "fk": pa.array([r["fk"] for r in rows]),
        "orphans": pa.array([r["orphans"] for r in rows], pa.int64()),
    })


def q_anomaly_events(sf_dir: str):
    """Per-group z-score outlier flags with an EXACT integer contract:
    an event is an outlier when (x - mean)² > 9·var_pop within its
    user's values — evaluated as (n·x − s)² > 9·(n·q − s²) in scaled
    integer cents (s = Σx, q = Σx²), so both engines compare the same
    integers and no float boundary can flip a flag. Valid while
    n·max|cents| < 3·10⁹ per group (int64 headroom); beyond that,
    promote to HUGEINT/object — documented, not silently wrong.
    One key-hash shuffle via window_functions group_sum/group_count."""
    from ..stages.windowfns import window_functions

    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "value"])

    def derive(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t["value"]))
        cents = pc.cast(pc.round(pc.multiply(t["value"], pa.scalar(100.0))), pa.int64())
        return pa.table({
            "event_id": t["event_id"],
            "user_id": t["user_id"],
            "cents": cents,
            "cents_sq": pc.multiply(cents, cents),
        })

    win = window_functions(
        ds.map_batches(derive, batch_format="pyarrow"),
        key="user_id",
        order_by=["event_id"],
        group_sum={"s": "cents", "q": "cents_sq"},
        group_count="n",
        keep=["event_id", "user_id", "cents"],
    )

    def flag(t: pa.Table) -> pa.Table:
        c = t["cents"].to_numpy(zero_copy_only=False)
        s = t["s"].to_numpy(zero_copy_only=False)
        q = t["q"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        dev = n * c - s
        out = (n >= 2) & (dev * dev > 9 * (n * q - s * s))
        return pa.table({
            "event_id": t["event_id"],
            "user_id": t["user_id"],
            "cents": t["cents"],
            "is_outlier": pa.array(out.astype(np.int64), pa.int64()),
        })

    return win.map_batches(flag, batch_format="pyarrow")


FUNNEL_STEPS = ["view", "click", "purchase"]


def q_funnel_events(sf_dir: str):
    """Ordered-step funnel: users reaching view → click → purchase
    under the min-time cascade (step i+1 counts only events at-or-after
    the user's step-i reach time). Per-bucket partials are exact (each
    user's history is bucket-local); only (step, n) rows — 3 per
    bucket — leave the shuffle."""
    from ..functions.hashing import hash64
    from ..stages.funnel import funnel_partial

    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "event_type"])

    def tag(t: pa.Table) -> pa.Table:
        b = (hash64(t["user_id"]) % np.uint64(32)).astype(np.int32)
        return t.append_column("__b", pa.array(b))

    partials = rd_groupby_bucket(
        ds.map_batches(tag, batch_format="pyarrow"),
        lambda df: funnel_partial(df, FUNNEL_STEPS),
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("step", as_index=False)["n_users"].sum()
        out["n_users"] = out["n_users"].astype("int64")
        return out

    return partials.groupby("step").map_groups(finish, batch_format="pandas")


def q_cohort_retention(sf_dir: str):
    """Cohort-retention matrix: users grouped by the calendar day of
    their first event, counted per (cohort_day, days_since active)
    cell. Distinct (user, day) pairs collapse inside each bucket, so
    the global combine sums a result bounded by span-in-days², not by
    the event count."""
    from ..functions.hashing import hash64
    from ..stages.funnel import cohort_partial

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def tag(t: pa.Table) -> pa.Table:
        b = (hash64(t["user_id"]) % np.uint64(32)).astype(np.int32)
        return t.append_column("__b", pa.array(b))

    partials = rd_groupby_bucket(
        ds.map_batches(tag, batch_format="pyarrow"), cohort_partial
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(["cohort_day", "days_since"], as_index=False)["n_users"].sum()
        out["n_users"] = out["n_users"].astype("int64")
        return out

    return partials.groupby(["cohort_day", "days_since"]).map_groups(
        finish, batch_format="pandas"
    )


def rd_groupby_bucket(tagged_ds, fn):
    """groupby('__b').map_groups(pandas fn dropping __b) — the shared
    tail of every bucket-kernel query."""
    return tagged_ds.groupby("__b").map_groups(
        lambda df: fn(df.drop(columns=["__b"])), batch_format="pandas"
    )


def q_profile_lineitem(sf_dir: str):
    """Single-pass data profiling (the schema-audit step run before
    pointing a pipeline at a new table): per numeric column, row count,
    null count, min and max — each batch collapses to one tiny partial
    row per column, then an O(columns) reduce. The raw min/max pass
    through as the same parquet doubles both engines read."""
    from ray.data.aggregate import Max, Min, Sum

    cols = ["l_quantity", "l_extendedprice", "l_discount"]
    ds = read_table(sf_dir, "lineitem", columns=cols)

    def partial(t: pa.Table) -> pa.Table:
        rows = []
        for c in cols:
            v = t[c]
            rows.append({
                "col_name": c,
                "n_rows": t.num_rows,
                "n_null": v.null_count,
                "min_v": pc.min(v).as_py(),
                "max_v": pc.max(v).as_py(),
            })
        return pa.Table.from_pylist(rows)

    red = ds.map_batches(partial, batch_format="pyarrow").groupby("col_name").aggregate(
        Sum(on="n_rows", alias_name="n_rows"),
        Sum(on="n_null", alias_name="n_null"),
        Min(on="min_v", alias_name="min_v"),
        Max(on="max_v", alias_name="max_v"),
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "col_name": t["col_name"],
            "n_rows": pc.cast(t["n_rows"], pa.int64()),
            "n_null": pc.cast(t["n_null"], pa.int64()),
            "min_v": pc.cast(t["min_v"], pa.float64()),
            "max_v": pc.cast(t["max_v"], pa.float64()),
        })

    return red.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------- A3 rollup
def q_reconcile_rollup(sf_dir: str):
    """Group-level rollup with the reference's A3 priority cascade
    (ReconciliationService.java:194-201) over the reconcile detail,
    grouped on a coarser key than the match key (rollups re-aggregate
    across finer partitions, SURVEY.md §4). Each detail batch collapses
    to (grp, status, n) counts map-side; the cascade is the engine's
    own ``rollup_from_partials``."""
    from ..pipelines.reconcile_run import rollup_from_partials

    return rollup_from_partials(_reconcile_partials(sf_dir), "grp")


# ---------------------------------------------------------------- interval join
def q_interval_join_events(sf_dir: str):
    """Range join (multi-match): every click within one hour AFTER any
    purchase by the same user — the interval generalization of the
    as-of join (stages/joins.interval_join)."""
    import pyarrow.dataset as pads

    from ..stages.joins import interval_join

    cols = ["event_id", "user_id", "ts"]
    clicks = read_table(
        sf_dir, "events", columns=cols, filter=(pads.field("event_type") == "click")
    )
    purchases = read_table(
        sf_dir, "events", columns=cols, filter=(pads.field("event_type") == "purchase")
    )

    def to_interval(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": df["user_id"],
            "purchase_event_id": df["event_id"],
            "lo": df["ts"],
            "hi": df["ts"] + pd.Timedelta(hours=1),
        })

    out = interval_join(
        clicks, purchases.map_batches(to_interval, batch_format="pandas"),
        by="user_id", on="ts", right_lower="lo", right_upper="hi",
        left_cols={"event_id": "click_event_id"},
        right_cols={"purchase_event_id": "purchase_event_id"},
    )
    return out.map_batches(
        lambda df: df.astype({"click_event_id": "int64", "purchase_event_id": "int64"}),
        batch_format="pandas",
    )


# ---------------------------------------------------------------- pivot / rolling
def q_pivot_user_events(sf_dir: str):
    """Pivot: per-user event-type counts as columns (conditional
    aggregation — the Arrow-native pivot; no row explosion, map-side
    partials then one tiny shuffle)."""
    ds = read_table(sf_dir, "events", columns=["user_id", "event_type"])
    types = ["click", "view", "purchase"]

    def widen(t: pa.Table) -> pa.Table:
        cols: dict[str, pa.Array] = {"user_id": t["user_id"]}
        for ty in types:
            cols[f"n_{ty}"] = pc.cast(pc.equal(t["event_type"], ty), pa.int64())
        return pa.table(cols)

    return preagg_groupby(
        ds.map_batches(widen, batch_format="pyarrow"),
        keys=["user_id"], sums={f"n_{ty}": f"n_{ty}" for ty in types},
    )


def q_rolling_user_values(sf_dir: str):
    """Per-key ordered rolling aggregate: each user's 3-event moving
    sum of value (cents), ordered by (ts, event_id). One key-hash
    shuffle co-locates a user's events; the rolling sum inside each
    group is a vectorized cumsum difference — no per-row Python."""
    from ..functions.hashing import hash64

    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    def tag(t: pa.Table) -> pa.Table:
        b = (hash64(t["user_id"]) % np.uint64(16)).astype(np.int32)
        return t.append_column("__b", pa.array(b))

    def roll(t: pa.Table) -> pa.Table:
        t = t.sort_by([("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")])
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.round(
            t["value"].to_numpy(zero_copy_only=False).astype(np.float64) * 100
        ).astype(np.int64)
        n = len(uid)
        starts = np.concatenate([[0], np.flatnonzero(uid[1:] != uid[:-1]) + 1]).astype(np.int64)
        lengths = np.diff(np.concatenate([starts, [n]]))
        cs = np.concatenate([[0], np.cumsum(cents)])
        # window floor per row: max(its group's start, i-2)
        lo = np.maximum(np.arange(n, dtype=np.int64) - 2, np.repeat(starts, lengths))
        rolling = cs[np.arange(n) + 1] - cs[lo]
        return pa.table({
            "event_id": t["event_id"],
            "user_id": t["user_id"],
            "rolling3_cents": pa.array(rolling, pa.int64()),
        })

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(lambda t: roll(t.drop_columns(["__b"])), batch_format="pyarrow")
    )


def q_window_fns_events(sf_dir: str):
    """Analytic window functions (ROW_NUMBER / LAG / running SUM) per
    user ordered by (ts, event_id) — one key-hash shuffle, segmented
    numpy kernels per bucket (stages/windowfns.py). The running sum is
    taken over pre-scaled integer cents so it is exact and
    order-of-accumulation-independent (SQL engines use segment trees
    for windowed float SUM; integers make both sides bit-identical)."""
    from ..stages.windowfns import window_functions

    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    def derive(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t["value"], pa.scalar(100.0))), pa.int64())
        return t.append_column("val_cents", cents)

    return window_functions(
        ds.map_batches(derive, batch_format="pyarrow"),
        key="user_id",
        order_by=["ts", "event_id"],
        row_number="rn",
        lag={"prev_value": "value"},
        cumsum={"cum_value_cents": "val_cents"},
        keep=["event_id", "user_id"],
    )


def q_session_gaps_events(sf_dir: str):
    """Per-user inactivity-gap diagnostics (the LAG-based streaming
    sessionization check a CDC/event pipeline runs to validate window
    boundaries): for each user, the number of inter-event gaps longer
    than 30 minutes and the widest gap, exact in integer microseconds.
    One key-hash shuffle; inside each bucket the gaps AND the per-user
    aggregate are computed by segmented numpy reduceat kernels, so only
    one tiny row per user ever leaves the bucket — no second shuffle."""
    from ..functions.hashing import hash64

    gap_us = 1_800_000_000  # 30 min
    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "event_id"])

    def tag(t: pa.Table) -> pa.Table:
        b = (hash64(t["user_id"]) % np.uint64(32)).astype(np.int32)
        return t.append_column("__b", pa.array(b))

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["__b"]).sort_by(
            [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")]
        )
        n = t.num_rows
        if n == 0:
            return pa.table({
                "user_id": pa.array([], pa.int64()),
                "n_events": pa.array([], pa.int64()),
                "n_gaps": pa.array([], pa.int64()),
                "max_gap_us": pa.array([], pa.int64()),
            })
        from ..stages.windowfns import _segment_starts

        u = t["user_id"].to_numpy(zero_copy_only=False)
        ts = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        starts = _segment_starts(u)
        gap = np.empty(n, dtype=np.int64)
        gap[0] = 0
        gap[1:] = ts[1:] - ts[:-1]
        gap[starts] = 0  # first event of a user has no predecessor
        return pa.table({
            "user_id": pa.array(u[starts], pa.int64()),
            "n_events": pa.array(
                np.diff(np.concatenate([starts, [n]])), pa.int64()
            ),
            "n_gaps": pa.array(
                np.add.reduceat((gap > gap_us).astype(np.int64), starts), pa.int64()
            ),
            "max_gap_us": pa.array(np.maximum.reduceat(gap, starts), pa.int64()),
        })

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def q_session_ids_events(sf_dir: str):
    """Sessionization with PER-EVENT session ordinals (the row-level
    companion of session_window_events' aggregate): an event starts a
    new session when >30 min passed since its user's previous event;
    each event is labelled with its user's 1-based session ordinal.
    SQL expresses it the same decomposed way (boundary flag -> running
    sum). One key-hash shuffle, segmented numpy kernel."""
    from ..functions.hashing import hash64
    from ..stages.windowfns import _segment_starts

    gap_us = 1_800_000_000
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def tag(t: pa.Table) -> pa.Table:
        b = (hash64(t["user_id"]) % np.uint64(32)).astype(np.int32)
        return t.append_column("__b", pa.array(b))

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["__b"]).sort_by(
            [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")]
        )
        n = t.num_rows
        if n == 0:
            return pa.table({
                "event_id": pa.array([], pa.int64()),
                "user_id": pa.array([], pa.int64()),
                "session_ord": pa.array([], pa.int64()),
            })
        u = t["user_id"].to_numpy(zero_copy_only=False)
        ts = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        starts = _segment_starts(u)
        new_sess = np.zeros(n, dtype=np.int64)
        new_sess[1:] = (ts[1:] - ts[:-1] > gap_us).astype(np.int64)
        new_sess[starts] = 1  # a user's first event opens session 1
        sid = np.cumsum(new_sess)
        base = np.concatenate([[0], sid])[starts]  # sessions before my segment
        is_start = np.zeros(n, dtype=bool)
        is_start[starts] = True
        seg_of = np.cumsum(is_start) - 1
        return pa.table({
            "event_id": t["event_id"],
            "user_id": t["user_id"],
            "session_ord": pa.array(sid - base[seg_of], pa.int64()),
        })

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def q_sliding_count_events(sf_dir: str):
    """Time-range sliding window (SQL RANGE BETWEEN INTERVAL 1 HOUR
    PRECEDING AND CURRENT ROW): for each event, how many events its
    user produced in the trailing hour — including ts-peers, matching
    SQL's RANGE peer semantics. Per bucket this is two vectorized
    searchsorted passes over the (user, ts)-sorted block (no per-row
    loop, no quadratic window re-scan)."""
    from ..functions.hashing import hash64
    from ..stages.windowfns import _segment_starts

    win_us = 3_600_000_000
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def tag(t: pa.Table) -> pa.Table:
        b = (hash64(t["user_id"]) % np.uint64(32)).astype(np.int32)
        return t.append_column("__b", pa.array(b))

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["__b"]).sort_by(
            [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")]
        )
        n = t.num_rows
        if n == 0:
            return pa.table({
                "event_id": pa.array([], pa.int64()),
                "user_id": pa.array([], pa.int64()),
                "n_last_hour": pa.array([], pa.int64()),
            })
        u = t["user_id"].to_numpy(zero_copy_only=False)
        ts = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        starts = _segment_starts(u)
        # ts is sorted only WITHIN a segment (the block sort is
        # (user, ts)), so the binary searches run per segment: one
        # vectorized searchsorted pair per USER, never per row — the
        # same per-key bound any engine's RANGE frame has
        lo = np.empty(n, dtype=np.int64)
        hi = np.empty(n, dtype=np.int64)
        for s, e in zip(starts, np.concatenate([starts[1:], [n]])):
            seg = ts[s:e]
            lo[s:e] = s + np.searchsorted(seg, seg - win_us, side="left")
            hi[s:e] = s + np.searchsorted(seg, seg, side="right")
        return pa.table({
            "event_id": t["event_id"],
            "user_id": t["user_id"],
            "n_last_hour": pa.array(hi - lo, pa.int64()),
        })

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def q_first_last_orders(sf_dir: str):
    """FIRST_VALUE / LAST_VALUE over the whole partition frame
    (ROWS UNBOUNDED PRECEDING..UNBOUNDED FOLLOWING): each order
    annotated with its customer's first and most recent order key in
    (o_orderdate, o_orderkey) order. Same one-shuffle segmented-kernel
    plan as window_fns_events — the partition edges are two `take`
    gathers, no per-key loop."""
    from ..stages.windowfns import window_functions

    ds = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"])
    return window_functions(
        ds,
        key="o_custkey",
        order_by=["o_orderdate", "o_orderkey"],
        row_number="rn",
        first_value={"first_key": "o_orderkey"},
        last_value={"last_key": "o_orderkey"},
        keep=["o_orderkey", "o_custkey"],
    )


def q_full_outer_activity(sf_dir: str):
    """FULL OUTER JOIN (both dangling legs of the reference's
    reconciliation in one relational op — J6 left-outer plus J7
    right-anti, `service/ReconciliationService.java:142-199`): per-user
    event counts against per-customer finished-order counts. Both
    inputs are pre-aggregated map-side (combiner) so only one
    aggregate-sized row per key enters the single join shuffle; the
    unmatched legs are coalesced to 0 so the output is typed int64
    with no engine-dependent null-float coercion."""
    import pyarrow.dataset as pads

    ev = read_table(sf_dir, "events", columns=["user_id"])
    ev = ev.map_batches(
        lambda t: pa.table({"k": t["user_id"]}), batch_format="pyarrow"
    )
    orders = read_table(
        sf_dir,
        "orders",
        columns=["o_custkey"],
        filter=(pads.field("o_orderstatus") == "F"),
    )
    orders = orders.map_batches(
        lambda t: pa.table({"k": t["o_custkey"]}), batch_format="pyarrow"
    )
    left = preagg_groupby(ev, keys=["k"], count_alias="n_events")
    right = preagg_groupby(orders, keys=["k"], count_alias="n_orders")
    joined = hash_join(left, right, on="k", how="outer")

    def finish(t: pa.Table) -> pa.Table:
        def as_int(c):
            v = pc.if_else(pc.is_null(t[c], nan_is_null=True), pa.scalar(0.0), pc.cast(t[c], pa.float64()))
            return pc.cast(pc.round(v), pa.int64())

        return pa.table({
            "user_id": pc.cast(t["k"], pa.int64()),
            "n_events": as_int("n_events"),
            "n_orders": as_int("n_orders"),
        })

    return joined.map_batches(finish, batch_format="pyarrow")


def q_redact_docs(sf_dir: str):
    """Regex PII scrubbing over the corpus with an audit hit count —
    rule chain applied in order (second rule rewrites the first rule's
    output). Map-only, RE2 over Arrow buffers on both the engine and
    the DuckDB oracle, so the comparison is regex-engine-exact."""
    from ..stages.textstage import make_redactor

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    rules = [
        (r"\b(customer|user)\b", "<PII>"),
        (r"<PII>( <PII>)+", "<PII>+"),
    ]
    return ds.map_batches(make_redactor(rules), batch_format="pyarrow")


def q_mode_event_type(sf_dir: str):
    """Grouped MODE (most frequent value per key, ties broken by the
    smallest value — made deterministic where SQL's MODE() is not):
    each user's dominant event type. Two-level: per-batch pyarrow hash
    count combiner, then top-1 per key — only O(keys x types) rows
    shuffle."""
    from ..stages.topk import topk_per_group

    ev = read_table(sf_dir, "events", columns=["user_id", "event_type"])
    counts = preagg_groupby(ev, keys=["user_id", "event_type"], count_alias="n")
    top = topk_per_group(
        counts, group_key="user_id", order_col="n", k=1,
        tiebreak="event_type", descending=True,
    )
    return top.map_batches(
        lambda t: t.select(["user_id", "event_type", "n"]), batch_format="pyarrow"
    )


def q_best_doc_per_source(sf_dir: str):
    """Keep-best dedup (the training-data cousin of the reference's J9
    first-candidate selection, ReconciliationService.java:129-147):
    one representative document per source, preferring the longest
    text, ties to the smallest doc_id. Map-side top-1 combiner —
    one candidate row per (batch, source) shuffles."""
    from ..stages.topk import topk_per_group

    ds = read_table(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])
    top = topk_per_group(
        ds, group_key="source", order_col="n_chars", k=1,
        tiebreak="doc_id", descending=True,
    )
    return top.map_batches(
        lambda t: t.select(["doc_id", "source", "n_chars"]), batch_format="pyarrow"
    )


def q_cross_region_nation(sf_dir: str):
    """CROSS JOIN of two dimension tables (the only join shape the
    engine implements by broadcast-expansion rather than hashing):
    the 5x25 region x nation label grid. The provably-tiny side is
    read once on the driver and expanded against each streaming batch
    with repeat/tile — no shuffle, no per-row Python."""
    region = read_table_pandas(sf_dir, "region", columns=["r_name"])
    r_names = region["r_name"].to_numpy()

    nation = read_table(sf_dir, "nation", columns=["n_name"])

    def expand(t: pa.Table) -> pa.Table:
        n = t["n_name"].to_numpy(zero_copy_only=False)
        return pa.table({
            "r_name": pa.array(np.tile(r_names, len(n)), pa.string()),
            "n_name": pa.array(np.repeat(n, len(r_names)), pa.string()),
        })

    return nation.map_batches(expand, batch_format="pyarrow")


def q_histogram_values(sf_dir: str):
    """Equi-width histogram of a numeric column (the profiling step
    before choosing quantile-sketch bins): bin = floor(value / 50),
    count per bin. Map-side binning + partial-count combiner — only
    O(bins) rows per batch shuffle."""
    ds = read_table(sf_dir, "events", columns=["value"])

    def binify(t: pa.Table) -> pa.Table:
        b = pc.cast(pc.floor(pc.divide(t["value"], pa.scalar(50.0))), pa.int64())
        return pa.table({"bin": b})

    return preagg_groupby(
        ds.map_batches(binify, batch_format="pyarrow"), keys=["bin"], count_alias="n"
    )


def q_ratio_to_report(sf_dir: str):
    """RATIO_TO_REPORT / percent-of-total: each event type's share of
    all events, in exact integer parts-per-million (floor division on
    both sides — no float rounding-mode ambiguity between engines).
    The grand total is derived from the aggregate itself, which is
    key-cardinality-sized, so pulling it to the driver is O(types),
    never O(rows)."""
    import ray.data as rd

    ds = read_table(sf_dir, "events", columns=["event_type"])
    counts = preagg_groupby(ds, keys=["event_type"], count_alias="n")
    t = pa.Table.from_pandas(counts.to_pandas(), preserve_index=False)
    n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    total = int(n.sum())
    # re-wrapped as a Dataset: QUERIES entries are composable lazy
    # datasets everywhere else — returning a bare pa.Table would break
    # any consumer that chains .map_batches/.union on the result
    return rd.from_arrow(pa.table({
        "event_type": t["event_type"],
        "n": pa.array(n, pa.int64()),
        "total": pa.array(np.full(len(n), total), pa.int64()),
        "share_ppm": pa.array(n * 1_000_000 // total, pa.int64()),
    }))


def q_union_users(sf_dir: str):
    """UNION DISTINCT across two key domains (completing the set-op
    family next to except_users / intersect_users): all keys active as
    either an event user or an order customer. Per-batch distinct
    combiner, then one distinct shuffle over the already-collapsed
    keys."""
    ev = read_table(sf_dir, "events", columns=["user_id"]).map_batches(
        lambda t: pa.table({"k": t["user_id"]}), batch_format="pyarrow"
    )
    oc = read_table(sf_dir, "orders", columns=["o_custkey"]).map_batches(
        lambda t: pa.table({"k": t["o_custkey"]}), batch_format="pyarrow"
    )
    distinct = (
        ev.union(oc)
        .map_batches(
            lambda t: t.group_by(["k"], use_threads=False).aggregate([]),
            batch_format="pyarrow",
        )
        .groupby("k")
        .count()
        .select_columns(["k"])
    )
    return distinct.map_batches(
        lambda t: pa.table({"user_id": t["k"]}), batch_format="pyarrow"
    )


def _event_user_keys(sf_dir: str):
    """Distinct event user ids projected onto the customer key name."""
    ds = read_table(sf_dir, "events", columns=["user_id"])
    return ds.map_batches(
        lambda t: pa.table({"c_custkey": t["user_id"]}), batch_format="pyarrow"
    )


def q_except_users(sf_dir: str):
    """EXCEPT DISTINCT (reference J7 right-anti set difference,
    ReconciliationService.java:142-199, as a relational set op):
    customer keys with no event activity. The two key domains diverge
    at every sf (result non-empty — an empty-vs-empty match would
    prove nothing); only distinct (key, side) partials shuffle."""
    from ..stages.setops import except_distinct

    cust = read_table(sf_dir, "customer", columns=["c_custkey"])
    return except_distinct(cust, _event_user_keys(sf_dir), ["c_custkey"])


def q_intersect_users(sf_dir: str):
    """INTERSECT DISTINCT (reference J5 matched-leg set semantics):
    customer keys that are also event users. Same one-shuffle
    presence-flag plan as except_users."""
    from ..stages.setops import intersect_distinct

    cust = read_table(sf_dir, "customer", columns=["c_custkey"])
    return intersect_distinct(cust, _event_user_keys(sf_dir), ["c_custkey"])


def q_setops_users(sf_dir: str):
    """The relational set-op family — UNION / INTERSECT / EXCEPT
    DISTINCT — as ONE tagged result (registry consolidation: three
    near-duplicate entries parametrized by the op tag; each engine
    path — union-distinct combiner, presence-flag intersect, anti-leg
    except — still runs)."""
    def tag(ds, op: str, col: str):
        return ds.map_batches(
            lambda t, op=op, col=col: pa.table({
                "op": pa.array([op] * t.num_rows),
                "user_id": pc.cast(t[col], pa.int64()),
            }),
            batch_format="pyarrow",
        )

    return tag(q_union_users(sf_dir), "union", "user_id").union(
        tag(q_intersect_users(sf_dir), "intersect", "c_custkey"),
        tag(q_except_users(sf_dir), "except", "c_custkey"),
    )


def q_grouping_sets_lineitem(sf_dir: str):
    """ROLLUP and CUBE over the same keys in ONE tagged result
    (registry consolidation of rollup_lineitem/cube_lineitem — both
    grouping-sets cascades over stages/agg; the tag keeps the two
    level-lattices distinguishable)."""
    def tag(ds, op: str):
        return ds.map_batches(
            lambda t, op=op: t.append_column("op", pa.array([op] * t.num_rows)),
            batch_format="pyarrow",
        )

    return tag(q_rollup_lineitem(sf_dir), "rollup").union(
        tag(q_cube_lineitem(sf_dir), "cube")
    )


def q_asof_events(sf_dir: str):
    """Backward AND forward as-of join in ONE tagged result (registry
    consolidation of asof_join_events/asof_forward_events — the same
    one-shuffle bucket-cogroup plan, direction parametrized;
    stages/joins.asof_join)."""
    def tag(ds, direction: str, id_col: str, val_col: str):
        return ds.map_batches(
            lambda df, d=direction, i=id_col, v=val_col: pd.DataFrame({
                "direction": d,
                "event_id": df["event_id"],
                "user_id": df["user_id"],
                "matched_event_id": df[i],
                "matched_value_cents": df[v],
            }),
            batch_format="pandas",
        )

    return tag(
        q_asof_join_events(sf_dir), "backward", "purchase_event_id", "purchase_value_cents"
    ).union(
        tag(q_asof_forward_events(sf_dir), "forward", "next_purchase_id", "next_value_cents")
    )


def q_media_pipeline(sf_dir: str):
    """Composed multimodal pipeline: decode → resize → feature-extract
    over the opaque binary media table (registry consolidation of
    media_resize/media_features — the composition exercises BOTH
    actor-pool stages plus the schema handoff between them). Rows-only:
    the pixel kernels are the documented deterministic fakes."""
    from ..stages.multimodal import media_features, media_resize

    resized = media_resize(_media_table(sf_dir))

    def as_media(t: pa.Table) -> pa.Table:
        return pa.table({
            "media_id": t["media_id"],
            "media_type": pa.array(["image"] * t.num_rows),
            "payload": t["payload"],
        })

    return media_features(resized.map_batches(as_media, batch_format="pyarrow"))


def q_rank_fns_orders(sf_dir: str):
    """RANK / DENSE_RANK / CUME_DIST / PERCENT_RANK per priority over
    floor(price) in ONE window pass (registry consolidation of
    rank_orders_per_priority + cume_dist_orders — same partition key,
    same tie-bearing order column, one bucket shuffle instead of two).
    All four outputs depend only on order VALUES, so they are
    deterministic and oracle-exact; dollars are FLOORed because Arrow
    rounds half-to-even while SQL rounds half-away."""
    from ..stages.windowfns import window_functions

    ds = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_orderpriority", "o_totalprice"]
    )

    def derive(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "o_orderpriority": t["o_orderpriority"],
            "tp": pc.cast(pc.floor(t["o_totalprice"]), pa.int64()),
        })

    return window_functions(
        ds.map_batches(derive, batch_format="pyarrow"),
        key="o_orderpriority",
        order_by=["tp"],
        rank="rnk",
        dense_rank="drnk",
        cume_dist="cd",
        percent_rank="pr",
        keep=["o_orderkey", "o_orderpriority"],
    )


def q_time_windows_events(sf_dir: str):
    """Tumbling (1 h) AND hopping (60 m width / 30 m hop) window
    aggregation as ONE tagged result from ONE scan (registry
    consolidation of window_events + hopping_window_events): a single
    map pass assigns every event its tumbling window plus both hopping
    windows (3 tagged rows per event, all map-side), then ONE
    (kind, key, window) partial-sum shuffle. Halves the fact-table
    scans and merges two shuffles vs running the legs separately."""
    ds = read_table(sf_dir, "events", columns=["ts", "event_type", "value"])
    HOP = 30 * 60 * 1_000_000  # 30 min in us

    def assign(t: pa.Table) -> pa.Table:
        hour = pc.cast(pc.floor_temporal(t["ts"], unit="hour"), pa.timestamp("us"))
        half = pc.cast(pc.floor_temporal(t["ts"], multiple=30, unit="minute"),
                       pa.timestamp("us"))
        prev = pc.cast(pc.subtract(pc.cast(half, pa.int64()), HOP), pa.timestamp("us"))
        n = t.num_rows

        def leg(kind: str, ws) -> pa.Table:
            # explicit string type: an EMPTY batch would otherwise
            # infer null-typed 'kind' and break schema unification
            return pa.table({
                "kind": pa.array([kind] * n, pa.string()),
                "event_type": t["event_type"],
                "window_start": ws,
                "value": t["value"],
            })

        return pa.concat_tables(
            [leg("tumbling", hour), leg("hopping", half), leg("hopping", prev)]
        )

    agg = preagg_groupby(
        ds.map_batches(assign, batch_format="pyarrow"),
        keys=["kind", "event_type", "window_start"],
        sums={"sum_value_f": "value"},
        count_alias="n",
    )
    return agg.map_batches(
        lambda t: _cents(t, "sum_value_f", "sum_value_cents", 100), batch_format="pyarrow"
    )


def q_ann_variants(sf_dir: str):
    """The three approximate-nearest-neighbor variants — LSH
    hyperplane buckets, IVF coarse quantization, PQ ADC+re-rank — as
    ONE tagged result (registry consolidation; each path keeps its own
    recall-vs-exact unit test). Rows-only: recall-traded
    approximations have no ANSI-SQL oracle; knn_cosine is the
    oracle-checked exact baseline.

    The three legs run SEQUENTIALLY and concat their O(queries × k)
    results driver-side: a lazy three-way union would co-schedule ~5
    actor-pool operators whose min-1 reservations deadlock the
    streaming executor on small CPU budgets (observed at num_cpus=4),
    and each leg's output is tiny by construction."""
    legs = [
        ("lsh", q_ann_lsh), ("ivf", q_ann_ivf), ("pq", q_ann_pq),
    ]
    return pd.concat(
        [fn(sf_dir).to_pandas().assign(method=m) for m, fn in legs],
        ignore_index=True,
    )


def q_samples_tagged(sf_dir: str):
    """The three deterministic sampling mechanisms — systematic
    key-residue (orders), stratified top-N per stratum by keyed digest
    (events), weighted Bernoulli by Knuth hash threshold (documents) —
    as ONE tagged (method, id) result (registry consolidation; every
    mechanism is reproducible at any parallelism level and in SQL)."""
    def tag(ds, method: str, col: str):
        return ds.map_batches(
            lambda t, m=method, c=col: pa.table({
                "method": pa.array([m] * t.num_rows),
                "id": pc.cast(t[c], pa.int64()),
            }),
            batch_format="pyarrow",
        )

    return tag(q_sample_orders(sf_dir), "systematic", "o_orderkey").union(
        tag(q_stratified_sample_events(sf_dir), "stratified", "event_id"),
        tag(q_weighted_sample_docs(sf_dir), "weighted", "doc_id"),
    )


def q_grouped_means_lineitem(sf_dir: str):
    """Geometric mean and exact-integer weighted average per return
    flag in one result (registry consolidation of geomean_lineitem +
    weighted_avg_lineitem). Both legs are map-side partial sums with
    one tiny shuffle each; the merge joins two AGGREGATE-sized tables
    (O(groups) rows) driver-side, never the fact table."""
    geo = q_geomean_lineitem(sf_dir).to_pandas().rename(columns={"n": "n_geo"})
    wav = q_weighted_avg_lineitem(sf_dir).to_pandas().rename(columns={"n": "n_w"})
    out = geo.merge(wav, on="l_returnflag", how="inner")
    return out[["l_returnflag", "n_geo", "geomean_e6", "n_w", "sum_wx_e4", "sum_w_e2"]]


def q_stats_regr_lineitem(sf_dir: str):
    """Grouped variance / correlation / least-squares trend in ONE
    mergeable-moments pass (stages/stats.py, Chan et al. 1983; slope =
    Cxy/M2x matches SQL REGR_SLOPE) — registry consolidation of the
    former stats_lineitem + regr_lineitem, which ran the SAME sketch
    twice. Rows with either side null are excluded map-side (SQL's
    pairwise REGR semantics). Outputs are scaled ints (cents / e2 /
    e6) per the module numeric convention; zero-variance groups emit
    NULL slope/intercept exactly like REGR_SLOPE."""
    from ..stages.stats import grouped_stats

    ds = read_table(
        sf_dir, "lineitem", columns=["l_returnflag", "l_extendedprice", "l_quantity"]
    )

    def both_valid(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.and_(pc.is_valid(t["l_quantity"]), pc.is_valid(t["l_extendedprice"]))
        )

    st = grouped_stats(
        ds.map_batches(both_valid, batch_format="pyarrow"),
        keys=["l_returnflag"], x="l_quantity", y="l_extendedprice",
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        # std/corr/slope/icept are NaN for single-row or zero-variance
        # groups — emit nullable Int64 NULLs exactly like SQL's
        # STDDEV_SAMP/CORR/REGR_* (a plain int64 cast would crash);
        # mean is always finite (a group exists only with >=1 pairwise-
        # valid row after the map-side filter)
        return pd.DataFrame({
            "l_returnflag": df["l_returnflag"],
            "n": df["n"].astype("int64"),
            "mean_price_cents": np.round(df["mean_y"] * 100).astype("int64"),
            "std_price_e2": pd.array(np.round(np.sqrt(df["var_y"]) * 100), dtype="Int64"),
            "corr_e6": pd.array(np.round(df["corr_xy"] * 1e6), dtype="Int64"),
            "slope_e6": pd.array(np.round(df["slope_xy"] * 1e6), dtype="Int64"),
            "icept_cents": pd.array(np.round(df["icept_xy"] * 100), dtype="Int64"),
        })

    return st.map_batches(finish, batch_format="pandas")


def q_mom_revenue(sf_dir: str):
    """Month-over-month revenue delta: the calendar aggregate (already
    aggregate-sized — one row per month) LAG-diffed in a single
    map_groups over the whole tiny result. The windowing runs on the
    AGGREGATE, never the fact table, so the single-partition step is
    O(months)."""
    ds = read_table(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def derive(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t["o_orderdate"]))
        month = pc.cast(
            pc.floor_temporal(t["o_orderdate"], unit="month"), pa.timestamp("us")
        )
        cents = pc.cast(pc.round(pc.multiply(t["o_totalprice"], 100.0)), pa.int64())
        return pa.table({"month": month, "cents": cents})

    agg = preagg_groupby(
        ds.map_batches(derive, batch_format="pyarrow"),
        keys=["month"],
        sums={"revenue_c": "cents"},
        count_alias="n",
    )

    def diff(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("month", kind="stable").reset_index(drop=True)
        prev = df["revenue_c"].shift(1)
        return pd.DataFrame({
            "month": df["month"].astype("datetime64[us]"),
            "revenue_c": df["revenue_c"].astype("int64"),
            # float64 with NaN for the first month: the SQL LAG NULL
            # arrives as NaN-float through fetchdf, so both sides share
            # one dtype (a nullable-int column breaks integer hashing)
            "delta_c": (df["revenue_c"] - prev).astype("float64"),
        })

    def one_group(t: pa.Table) -> pa.Table:
        t = t.append_column("__g", pa.array(np.zeros(t.num_rows, np.int8)))
        return t

    return (
        agg.map_batches(one_group, batch_format="pyarrow")
        .groupby("__g")
        .map_groups(
            lambda df: diff(df.drop(columns=["__g"])), batch_format="pandas"
        )
    )


def q_topk_orders_with_ties(sf_dir: str):
    """Top-k WITH TIES by value threshold: every order whose price is
    among the 10 largest DISTINCT prices (SQL's dense top-k). The
    threshold is found by two-level distinct-value top-k partials
    (O(batches × k) rows to the driver), broadcast into a map-side
    filter — no global sort of the fact table."""
    ds = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def top_values(t: pa.Table) -> pa.Table:
        v = np.unique(t["o_totalprice"].to_numpy(zero_copy_only=False))
        v = v[~np.isnan(v)]
        return pa.table({"v": pa.array(np.sort(v)[-10:][::-1])})

    tops = ds.map_batches(top_values, batch_format="pyarrow").take_all()
    vals = sorted({float(r["v"]) for r in tops}, reverse=True)[:10]
    if not vals:  # empty table / all-NULL prices: empty result, like the SQL
        import ray.data as _rd

        return _rd.from_arrow(
            pa.table({
                "o_orderkey": pa.array([], pa.int64()),
                "price_cents": pa.array([], pa.int64()),
            })
        )
    thr = vals[-1]

    def flt(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["o_totalprice"], pa.scalar(thr)))
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "price_cents": pc.cast(
                pc.round(pc.multiply(t["o_totalprice"], 100.0)), pa.int64()
            ),
        })

    return ds.map_batches(flt, batch_format="pyarrow")


def q_entropy_users(sf_dir: str):
    """Per-user Shannon entropy of the event-type distribution — the
    behavioral-diversity feature (0 for single-type users). Two-level
    aggregate: map-side (user, type) partial counts, one shuffle, then
    the per-user entropy over its ≤|alphabet| rows; e6-integer
    contract absorbs float-sum order."""
    ds = read_table(sf_dir, "events", columns=["user_id", "event_type"])

    def ok(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.and_(pc.is_valid(t["user_id"]), pc.is_valid(t["event_type"]))
        )

    counts = preagg_groupby(
        ds.map_batches(ok, batch_format="pyarrow"),
        keys=["user_id", "event_type"],
        count_alias="n",
    )

    def entropy(g: pd.DataFrame) -> pd.DataFrame:
        n = g["n"].to_numpy(dtype=np.float64)
        p = n / n.sum()
        h = float(-(p * np.log(p)).sum())
        return pd.DataFrame({
            "user_id": [int(g["user_id"].iloc[0])],
            "n_events": [int(n.sum())],
            "entropy_e6": [int(round(h * 1e6))],
        })

    return counts.groupby("user_id").map_groups(entropy, batch_format="pandas")


def q_events_by_hour(sf_dir: str):
    """Diurnal load profile: event count + value sum by hour-of-day —
    the date-PART extraction family (EXTRACT(hour)), complementing the
    date_trunc calendar aggregations. Arrow's ``pc.hour`` kernel
    map-side; only 24 partial rows shuffle per block."""
    ds = read_table(sf_dir, "events", columns=["ts", "value"])

    def derive(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t["ts"]))
        cents = pc.cast(
            pc.round(pc.multiply(pc.fill_null(t["value"], 0.0), 100.0)), pa.int64()
        )
        return pa.table({
            "hour": pc.cast(pc.hour(t["ts"]), pa.int64()),
            "cents": cents,
        })

    return preagg_groupby(
        ds.map_batches(derive, batch_format="pyarrow"),
        keys=["hour"],
        sums={"sum_value_cents": "cents"},
        count_alias="n",
    )


def q_geomean_lineitem(sf_dir: str):
    """Grouped geometric mean (exp of the mean log): the
    multiplicative-scale average for skewed positive metrics. Log
    transform map-side, one partial-sum shuffle, e6-integer contract
    (float-sum order differs between engines by ulps; e6 rounding of
    the exp absorbs it)."""
    ds = read_table(sf_dir, "lineitem", columns=["l_returnflag", "l_extendedprice"])

    def derive(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(pc.is_valid(t["l_extendedprice"]),
                    pc.greater(t["l_extendedprice"], 0.0))
        )
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "lnp": pc.ln(pc.cast(t["l_extendedprice"], pa.float64())),
        })

    agg = preagg_groupby(
        ds.map_batches(derive, batch_format="pyarrow"),
        keys=["l_returnflag"],
        sums={"sum_ln": "lnp"},
        count_alias="n",
    )

    def finish(t: pa.Table) -> pa.Table:
        s = t["sum_ln"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        g = np.exp(s / n)
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "n": pc.cast(t["n"], pa.int64()),
            "geomean_e6": pa.array(np.round(g * 1e6).astype(np.int64), pa.int64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


def q_weighted_avg_lineitem(sf_dir: str):
    """Grouped weighted average (Σw·x / Σw) with the EXACT-integer
    contract: numerator and denominator are emitted as separate scaled
    integer sums (quantity-weighted price), so the comparison needs no
    float division on either side. Map-side partial sums, one tiny
    shuffle."""
    ds = read_table(
        sf_dir, "lineitem", columns=["l_returnflag", "l_quantity", "l_extendedprice"]
    )

    def derive(t: pa.Table) -> pa.Table:
        ok = pc.and_(pc.is_valid(t["l_quantity"]), pc.is_valid(t["l_extendedprice"]))
        t = t.filter(ok)
        q100 = pc.cast(pc.round(pc.multiply(t["l_quantity"], 100.0)), pa.int64())
        p100 = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100.0)), pa.int64())
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "wx_e4": pc.multiply(q100, p100),
            "w_e2": q100,
        })

    return preagg_groupby(
        ds.map_batches(derive, batch_format="pyarrow"),
        keys=["l_returnflag"],
        sums={"sum_wx_e4": "wx_e4", "sum_w_e2": "w_e2"},
        count_alias="n",
    )


def q_distinct_users_by_type(sf_dir: str):
    """Exact grouped COUNT(DISTINCT): map-side distinct partials, one
    (key, value) shuffle, tiny per-key count (stages/distinctcount.py).
    Exchange volume is O(distinct pairs), never O(rows)."""
    from ..stages.distinctcount import count_distinct

    ds = read_table(sf_dir, "events", columns=["event_type", "user_id"])
    return count_distinct(ds, keys=["event_type"], col="user_id", alias="n_users")


def q_hll_users_by_type(sf_dir: str):
    """Approximate grouped COUNT(DISTINCT) via a mergeable HyperLogLog
    sketch (p=12, ~1.6% stderr): one 4 KiB register row per (key,
    batch) crosses the wire regardless of row count — the 100 TB path
    when the distinct set itself is too large to shuffle. Rows-only in
    the driver; tests/test_queries_oracle.py bounds its error against
    the exact count."""
    from ..stages.distinctcount import hll_count_distinct

    ds = read_table(sf_dir, "events", columns=["event_type", "user_id"])
    return hll_count_distinct(ds, keys=["event_type"], col="user_id", alias="n_users_approx")


def q_melt_lineitem(sf_dir: str):
    """Wide→long unpivot (stages/nest.py melt — inverse of the pivot):
    each lineitem row emits one (metric, val) row per measure column.
    Map-only, no shuffle; values are raw double passthrough (identical
    parquet bits on both sides)."""
    from ..stages.nest import melt

    ds = read_table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice", "l_discount"],
    )
    return melt(
        ds,
        id_cols=["l_orderkey", "l_linenumber"],
        value_cols=["l_quantity", "l_extendedprice", "l_discount"],
        var_name="metric",
        value_name="val",
    )


def q_nations_per_region(sf_dir: str):
    """Ordered string aggregation per group (collect-list family):
    comma-joined sorted nation names per region. Broadcast dim join,
    then per-group collect inside ``map_groups`` — a collect is
    inherently O(group) memory; bounded here by nations-per-region
    (the general contract: group payload must fit a worker)."""
    region = read_table_pandas(sf_dir, "region", columns=["r_regionkey", "r_name"]).rename(
        columns={"r_regionkey": "n_regionkey"}
    )
    nation = read_table(sf_dir, "nation", columns=["n_name", "n_regionkey"])
    joined = broadcast_join(nation, region, on="n_regionkey")

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "r_name": [df["r_name"].iloc[0]],
            "nations": [",".join(sorted(df["n_name"]))],
        })

    return joined.groupby("r_name").map_groups(agg, batch_format="pandas")


def q_revenue_by_nation(sf_dir: str):
    """Multi-way join chain (reference J1+J2 composed, the TPC-H Q5/Q10
    shape): returned lineitems ⋈ orders ⋈ customer ⋈ nation → revenue
    per nation. Two partitioned hash joins (orderkey, then custkey) +
    one broadcast dim join; revenue derived map-side before the first
    shuffle so only (key, revenue) pairs move."""
    import pyarrow.dataset as pads

    li = read_table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=(pads.field("l_returnflag") == "R"),
    )

    def derive(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"o_orderkey": t["l_orderkey"], "revenue": rev})

    li = li.map_batches(derive, batch_format="pyarrow")
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    j1 = hash_join(li, orders, on="o_orderkey", num_buckets=16)
    # customer takes the orders' key name, so j1 (which carries its
    # schema) feeds the second join as it is, neither run nor pinned
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    j2 = hash_join(j1, cust.rename_columns({"c_custkey": "o_custkey"}), on="o_custkey",
                   num_buckets=16)
    nation = read_table_pandas(sf_dir, "nation", columns=["n_nationkey", "n_name"]).rename(
        columns={"n_nationkey": "c_nationkey"}
    )
    j3 = broadcast_join(j2, nation, on="c_nationkey")
    agg = preagg_groupby(
        j3, keys=["n_name"], sums={"sum_revenue_f": "revenue"}, count_alias="n_items"
    )
    return agg.map_batches(
        lambda t: _cents(t, "sum_revenue_f", "sum_revenue_e4", 10000), batch_format="pyarrow"
    )


def q_term_stats(sf_dir: str):
    """Corpus vocabulary tf/df (stages/textstage.term_stats): Arrow
    explode + distinct-pair partials, one (term, doc) shuffle."""
    from ..stages.textstage import term_stats

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return term_stats(ds)


def q_fuzzy_part_names(sf_dir: str):
    """Edit-distance self-join over distinct part names (stages/fuzzy):
    prefix-filtered q-gram candidates + banded DP verify — EXACT vs
    the DuckDB levenshtein oracle, not a recall check."""
    from ..stages.fuzzy import fuzzy_self_join

    ds = read_table(sf_dir, "part", columns=["p_name"])
    return fuzzy_self_join(ds, "p_name", k=2, q=2)


FUZZY_CANON = ["red widget", "blue bolt", "small ring", "hot gear"]


def q_fuzzy_lookup_parts(sf_dir: str):
    """Fuzzy dimension lookup (stages/fuzzy.fuzzy_lookup): every
    distinct part name assigned to its nearest canonical name by exact
    Levenshtein (ties to the smaller canonical) — routing dirty keys
    onto a reference vocabulary, the reconcile-adjacent cousin of the
    self-join."""
    from ..stages.fuzzy import fuzzy_lookup

    ds = read_table(sf_dir, "part", columns=["p_name"])
    return fuzzy_lookup(ds, "p_name", FUZZY_CANON)


def q_resample_locf_events(sf_dir: str):
    """Daily resample + LOCF gap-fill per user (stages/timeseries):
    map-side (key, day) partials, one key-hash shuffle, per-key
    calendar expansion bounded by the activity span."""
    from ..stages.timeseries import resample_locf

    ds = read_table(
        sf_dir, "events", columns=["event_id", "user_id", "ts", "value"]
    )
    return resample_locf(ds, key="user_id", unit="day")


BM25_QUERY_TERMS = ["merge", "window", "customer"]


def q_bm25_docs(sf_dir: str):
    """BM25 ranked retrieval (stages/textstage.bm25_topk): top-10 docs
    for a fixed query-term bag; ranking on the e4-rounded integer
    score so the float-sum order is engine-exact vs the oracle."""
    from ..stages.textstage import bm25_topk

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return bm25_topk(ds, BM25_QUERY_TERMS, k=10)


def q_cum_distinct_events(sf_dir: str):
    """Running distinct count (cumulative cardinality): after each
    event, how many DISTINCT event types its user has produced so far —
    the sessionized novelty feature SQL cannot express directly
    (COUNT(DISTINCT) OVER is unsupported in most engines; both sides
    decompose it into first-occurrence flags + a running sum). One
    key-hash shuffle, vectorized per bucket."""
    from ..functions.hashing import hash64

    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"])

    def tag(t: pa.Table) -> pa.Table:
        b = (hash64(t["user_id"]) % np.uint64(32)).astype(np.int32)
        return t.append_column("__b", pa.array(b))

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        first = ~df.duplicated(["user_id", "event_type"])
        cum = first.astype("int64").groupby(df["user_id"]).cumsum()
        return pd.DataFrame({
            "event_id": df["event_id"].astype("int64"),
            "user_id": df["user_id"].astype("int64"),
            "n_types_seen": cum.astype("int64"),
        })

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(
            lambda df: per_bucket(df.drop(columns=["__b"])), batch_format="pandas"
        )
    )


def q_ewma_events(sf_dir: str):
    """Per-user exponentially-weighted moving average of event values
    (alpha=0.3, adjust=False recursion e_i = a·v_i + (1-a)·e_{i-1}) —
    the classic streaming-feature smoother. Sequential per key but
    embarrassingly parallel across keys: one user-hash shuffle, then
    pandas' C-speed ewm per bucket. Not ANSI-SQL-expressible without
    either a recursive CTE or an overflow-prone pow(1-a, -rn) prefix
    trick, so rows-only for the driver; exactness is unit-tested
    against the recursion definition and across repartitionings
    (tests/test_analytics_ops.py)."""
    from ..functions.hashing import hash64

    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    def tag(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.is_valid(t["user_id"]), pc.is_valid(t["value"])))
        b = (hash64(t["user_id"]) % np.uint64(32)).astype(np.int32)
        return t.append_column("__b", pa.array(b))

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        e = df.groupby("user_id", sort=False)["value"].transform(
            lambda s: s.ewm(alpha=0.3, adjust=False).mean()
        )
        return pd.DataFrame({
            "event_id": df["event_id"].astype("int64"),
            "user_id": df["user_id"].astype("int64"),
            "ewma_e6": np.round(e * 1e6).astype("int64"),
        })

    return rd_groupby_bucket(
        ds.map_batches(tag, batch_format="pyarrow"), per_bucket
    )


def q_minmax_norm_events(sf_dir: str):
    """Per-group min-max feature normalization (the ML-prep scaling
    step): each event's value rescaled to [0, 1e6] within its user's
    range, exact integer floor arithmetic on both sides (ppm), constant
    0 for single-valued groups. One key-hash shuffle; the partition
    MIN/MAX are segmented reduceat kernels (stages/windowfns
    group_min/group_max), the rescale is a map over the same bucket."""
    from ..stages.windowfns import window_functions

    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "value"])

    def derive(t: pa.Table) -> pa.Table:
        # the query is defined over non-null values (oracle filters the
        # same) — group_min/group_max run null-free reduceat kernels and
        # a NaN would silently poison a whole partition's min/max
        t = t.filter(pc.is_valid(t["value"]))
        cents = pc.cast(pc.round(pc.multiply(t["value"], pa.scalar(100.0))), pa.int64())
        return pa.table({
            "event_id": t["event_id"], "user_id": t["user_id"], "cents": cents
        })

    win = window_functions(
        ds.map_batches(derive, batch_format="pyarrow"),
        key="user_id",
        order_by=["event_id"],
        group_min={"mn": "cents"},
        group_max={"mx": "cents"},
        keep=["event_id", "user_id", "cents"],
    )

    def norm(t: pa.Table) -> pa.Table:
        c = t["cents"].to_numpy(zero_copy_only=False)
        mn = t["mn"].to_numpy(zero_copy_only=False)
        mx = t["mx"].to_numpy(zero_copy_only=False)
        span = mx - mn
        out = np.where(span == 0, 0, (c - mn) * 1_000_000 // np.where(span == 0, 1, span))
        return pa.table({
            "event_id": t["event_id"],
            "user_id": t["user_id"],
            "norm_ppm": pa.array(out, pa.int64()),
        })

    return win.map_batches(norm, batch_format="pyarrow")


def q_postings_terms(sf_dir: str):
    """Inverted-index build (term -> document frequency + sorted
    posting list): the retrieval artifact an IR/dedup pipeline
    materializes from a corpus. Reuses the doc_term_counts explode
    (distinct (term, doc) pairs leave each batch, never raw tokens),
    then ONE term-hash shuffle; postings are emitted as a sorted
    comma-joined string so the artifact is schema-stable and
    oracle-comparable. Per-bucket work is bounded by the bucket's
    vocabulary slice, not the corpus."""
    from ..functions.hashing import hash64
    from ..stages.textstage import doc_term_counts

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = doc_term_counts(ds)  # term, doc_id, c

    def tag(t: pa.Table) -> pa.Table:
        b = (hash64(t["term"]) % np.uint64(32)).astype(np.int32)
        return t.append_column("__b", pa.array(b))

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["term", "doc_id"])
        g = df.groupby("term", sort=True)["doc_id"]
        return pd.DataFrame({
            "term": g.size().index,
            "df": g.size().astype("int64").values,
            "postings": g.agg(lambda s: ",".join(str(i) for i in s)).values,
        })

    return (
        pairs.map_batches(tag, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(per_bucket, batch_format="pandas")
    )


def q_rollup_lineitem(sf_dir: str):
    """GROUP BY ROLLUP (grouping-sets cascade, stages/agg.group_by_rollup):
    the reference's A3 rollup cascade (`ReconciliationService.java`
    per-status → per-class → grand-total tallies) generalized to the
    SQL ROLLUP shape. Data is aggregated once; subtotal levels
    re-aggregate the aggregate. Quantities use the cents convention so
    every level is an exact integer sum on both sides."""
    from ..stages.agg import group_by_rollup

    ds = read_table(
        sf_dir, "lineitem", columns=["l_returnflag", "l_linestatus", "l_quantity"]
    )

    def to_cents(t: pa.Table) -> pa.Table:
        q = pc.cast(pc.round(pc.multiply(t["l_quantity"], 100.0)), pa.int64())
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "qty_c": q,
        })

    return group_by_rollup(
        ds.map_batches(to_cents, batch_format="pyarrow"),
        keys=["l_returnflag", "l_linestatus"],
        sums={"sum_qty_c": "qty_c"},
        count_alias="n",
    )


def q_bigram_counts(sf_dir: str):
    """Top-20 corpus bigram collocations
    (stages/textstage.bigram_counts): pair-level Arrow explode +
    per-batch combiner, one (bigram) shuffle of partial counts, global
    deterministic top-n."""
    from ..stages.textstage import bigram_counts

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return bigram_counts(ds, top_n=20)


def q_chunk_docs(sf_dir: str):
    """Overlapping document chunking (stages/textstage.make_chunker):
    120-char windows at stride 100 — map-only fan-out, zero shuffle."""
    from ..stages.textstage import make_chunker

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(make_chunker(120, 100), batch_format="pandas", batch_size=2048)


def q_semi_join_lineitem(sf_dir: str):
    """Partitioned BIG-BIG semi join (stages/joins.hash_semi_join):
    lineitem rows of high-value orders — right side distinct-collapsed
    before the single key shuffle, so duplicate right keys can't fan
    out and only deduplicated keys move."""
    from ..stages.joins import hash_semi_join

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber"])
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def high(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["o_totalprice"], 200000.0))
        return pa.table({"l_orderkey": t["o_orderkey"]})

    return hash_semi_join(
        li, orders.map_batches(high, batch_format="pyarrow"), on="l_orderkey"
    )


def q_salted_join_events(sf_dir: str):
    """Skew-safe join (stages/joins.salted_hash_join): events ⋈ customer
    with a declared hot-key set split over 4 salts — the north-star
    "salted-key splitting for skewed monorepos" generalized from the
    replay partitioner to an ad-hoc join operator. Result is
    row-identical to the plain partitioned hash join (the oracle is the
    plain SQL join)."""
    from ..stages.joins import salted_hash_join

    ev = read_table(sf_dir, "events", columns=["event_id", "user_id"])
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])

    def rn(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t["c_custkey"], "c_mktsegment": t["c_mktsegment"]})

    return salted_hash_join(
        ev,
        cust.map_batches(rn, batch_format="pyarrow"),
        on="user_id",
        hot_keys={1, 2, 3},  # declared-hot demo set; measure via heavy_hitters
        num_salts=4,
        how="inner",
    )


def q_ntile_events(sf_dir: str):
    """NTILE(4) quartile assignment per user over event time
    (stages/windowfns.window_functions): one key-hash bucket shuffle,
    segmented numpy kernel per bucket. (ts, event_id) is a total order
    within each user, so tiles are deterministic on both engines."""
    from ..stages.windowfns import window_functions

    ds = read_table(sf_dir, "events", columns=["user_id", "event_id", "ts"])
    return window_functions(
        ds,
        key="user_id",
        order_by=["ts", "event_id"],
        ntile=("quartile", 4),
        keep=["user_id", "event_id"],
    )


def q_top_terms_per_doc(sf_dir: str):
    """Per-document top distinctive terms (tf-ranked): composition of
    the exploded term counts (stages/textstage.doc_term_counts, Arrow
    explode + per-batch hash agg) with the two-level top-k-per-group
    combiner (stages/topk.topk_per_group) — only O(docs × k) rows
    shuffle. Ties broken by term text, so the selection is a total
    order and oracle-exact."""
    from ..stages.textstage import doc_term_counts
    from ..stages.topk import topk_per_group

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = doc_term_counts(ds)
    return topk_per_group(
        pairs, group_key="doc_id", order_col="c", k=3, tiebreak="term",
        descending=True,
    )


def q_tfidf_terms(sf_dir: str):
    """Per-document top-3 terms by TF-IDF (tf · ln(N/df)) — the IR
    weighting that separates distinctive terms from corpus boilerplate
    (top_terms_per_doc's raw-tf ranking can't). Composition of existing
    scale-safe stages: doc_term_counts explode → vocab-sized df
    aggregate → term-hash join → e6-integer scoring (ranking on the
    ROUNDED score so float ulps can't flip the order vs the oracle) →
    two-level top-k-per-group combiner."""
    from ..stages.textstage import doc_term_counts
    from ..stages.topk import topk_per_group

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    n_docs = int(
        ds.map_batches(
            lambda t: pa.table({
                "n": pa.array(
                    [t.filter(pc.is_valid(t["text"])).num_rows], pa.int64()
                )
            }),
            batch_format="pyarrow",
        ).sum("n")
    )
    from ray.data.aggregate import Count

    pairs = doc_term_counts(ds)  # (term, doc_id, c): globally distinct pairs
    df = pairs.groupby("term").aggregate(Count(alias_name="df"))
    j = hash_join(pairs, df, on="term", num_buckets=32)

    def score(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        dfv = t["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        e6 = np.round(c * np.log(n_docs / dfv) * 1e6).astype(np.int64)
        return pa.table({
            "doc_id": t["doc_id"], "term": t["term"],
            "tfidf_e6": pa.array(e6, pa.int64()),
        })

    return topk_per_group(
        j.map_batches(score, batch_format="pyarrow"),
        group_key="doc_id", order_col="tfidf_e6", k=3, tiebreak="term",
        descending=True,
    )


def q_cube_lineitem(sf_dir: str):
    """GROUP BY CUBE (stages/agg.cube_groupby): every subset of the
    grouping keys from ONE pass over the data — the finest aggregate is
    computed once (partial pre-agg + one shuffle) and each of the 2^k
    subset levels re-aggregates that aggregate-sized result. Extends
    rollup_lineitem (prefix chain) to the full power set; quantities
    use the cents convention so every level is an exact integer sum on
    both sides."""
    from ..stages.agg import cube_groupby

    ds = read_table(
        sf_dir, "lineitem", columns=["l_returnflag", "l_linestatus", "l_quantity"]
    )

    def to_cents(t: pa.Table) -> pa.Table:
        q = pc.cast(pc.round(pc.multiply(t["l_quantity"], 100.0)), pa.int64())
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "qty_c": q,
        })

    return cube_groupby(
        ds.map_batches(to_cents, batch_format="pyarrow"),
        keys=["l_returnflag", "l_linestatus"],
        sums={"sum_qty_c": "qty_c"},
        count_alias="n",
    )


def q_repetition_docs(sf_dir: str):
    """Gopher-style repetition quality filter signals
    (stages/textstage.word_repetition_stats): per document, total /
    distinct / most-frequent word counts over a literal-space split.
    Map-only (each doc is one row), zero shuffle at any corpus size."""
    from ..stages.textstage import word_repetition_stats

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(word_repetition_stats, batch_format="pyarrow")


def q_span_dedup_docs(sf_dir: str):
    """Cross-document repeated-span removal (the paragraph-dedup step
    of public training-data pipelines, generalized to 20-word
    windows): every span whose exact content occurs in >1 document is
    dropped from ALL documents; per doc the kept text plus span/drop
    counts. Two passes: distributed dup-span discovery (one hash
    shuffle, only the duplicated tail reaches the driver), broadcast
    probe + reassembly map-side (stages/textstage.span_dedup)."""
    from ..stages.textstage import span_dedup

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return span_dedup(ds, width=20)


def q_decontam_docs(sf_dir: str):
    """Benchmark decontamination (stages/textstage.DecontamCount): the
    held-out docs (doc_id % 97 == 0 plays the benchmark/test set) are
    reduced to their distinct word 4-grams ONCE — distributed distinct,
    driver-collected because eval sets are bounded by definition — then
    broadcast via ray.put and probed per corpus batch in an actor pool.
    Output: every non-benchmark doc with its count of distinct grams
    shared with the benchmark (hits > 0 ⇒ contaminated, drop before
    training). The corpus side streams; nothing corpus-sized is ever
    collected or shuffled."""
    import ray

    from ..stages.textstage import DecontamCount, collect_ngram_set

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def is_bench(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["doc_id"] % 97 == 0]

    def not_bench(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["doc_id"] % 97 != 0]

    grams = collect_ngram_set(
        docs.map_batches(is_bench, batch_format="pandas"), n=4
    )
    ref = ray.put(grams)
    return docs.map_batches(not_bench, batch_format="pandas").map_batches(
        DecontamCount,
        fn_constructor_kwargs={"gram_ref": ref, "n": 4},
        batch_format="pandas",
        batch_size=2048,
        concurrency=(1, 4),
    )


def q_heavy_hitters_events(sf_dir: str):
    """Frequent-items sketch (stages/sketch.heavy_hitters, Misra-Gries):
    top event types by count via fixed-size mergeable partials — the
    scale path for "most frequent values" when an exact distinct-key
    groupby would shuffle unbounded cardinality. Capacity exceeds the
    column's distinct count here, so the sketch is provably exact and
    oracle-checkable; the approximation regime has its own property
    test (tests/test_analytics_ops.py)."""
    from ..stages.sketch import heavy_hitters

    ds = read_table(sf_dir, "events", columns=["event_type"])
    return heavy_hitters(ds, col="event_type", capacity=32)


def q_orders_above_cust_avg(sf_dir: str):
    """Correlated-aggregate join (the SQL "rows above their group's
    average" subquery shape): per-customer average order price via
    partial pre-aggregation, one partitioned hash join back to the
    orders stream, then a map-side comparison filter. A 20% margin
    keeps the float predicate far from any cross-engine ulp boundary."""
    ords = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )
    sums = preagg_groupby(
        ords, keys=["o_custkey"], sums={"s": "o_totalprice"}, count_alias="c"
    )
    avg = sums.map_batches(
        lambda t: pa.table({
            "o_custkey": t["o_custkey"],
            "avg_price": pc.divide(t["s"], pc.cast(t["c"], pa.float64())),
        }),
        batch_format="pyarrow",
    )
    j = hash_join(ords, avg, on="o_custkey", num_buckets=16)

    def finish(t: pa.Table) -> pa.Table:
        keep = pc.greater(t["o_totalprice"], pc.multiply(t["avg_price"], 1.2))
        t = t.filter(keep)
        price_c = pc.cast(pc.round(pc.multiply(t["o_totalprice"], 100.0)), pa.int64())
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "o_custkey": t["o_custkey"],
            "price_c": price_c,
        })

    return j.map_batches(finish, batch_format="pyarrow")


def q_json_extract_props(sf_dir: str):
    """Semi-structured extraction: pull the integer ``k`` field out of
    the JSON ``props`` column with one vectorized Arrow
    ``extract_regex`` pass (no per-row JSON parser in the hot path —
    the schema-on-read fast path for flat JSON payloads), then
    aggregate per extracted value. Unparseable rows surface as a NULL
    group rather than vanishing."""
    ds = read_table(sf_dir, "events", columns=["props"])

    def extract(t: pa.Table) -> pa.Table:
        m = pc.extract_regex(t["props"], r'"k":\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        return pa.table({"k": k})

    return preagg_groupby(
        ds.map_batches(extract, batch_format="pyarrow"), keys=["k"], count_alias="n"
    )


def q_bloom_semi_orders(sf_dir: str):
    """Bloom-prefiltered semi join (functions/bloom.py): the broadcast
    key SET is replaced by a ~10-bits/key Bloom filter that prunes the
    probe stream before the exact semi join — the scale path when the
    build-side key set outgrows an actor's heap. Exactness is restored
    by the downstream exact join (Bloom passes a superset), so the
    result is oracle-checkable."""
    from ..functions.bloom import build_bloom, bloom_prefilter
    from ..stages.joins import broadcast_semi_join

    cust = read_table_pandas(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    sel = cust[cust["c_nationkey"] < 5][["c_custkey"]].rename(
        columns={"c_custkey": "o_custkey"}
    )
    bloom = build_bloom(pa.array(sel["o_custkey"].to_numpy(), pa.int64()))
    ords = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    pref = bloom_prefilter(ords, bloom, on="o_custkey")
    return broadcast_semi_join(pref, sel, on="o_custkey")


def q_stratified_sample_events(sf_dir: str):
    """Deterministic stratified sampling: 20 events per event_type,
    chosen by ranking on sha256(type|id) — a keyed uniform draw that is
    identical at any parallelism level and reproducible in SQL (both
    sides order by the same digest). One key-hash shuffle."""
    from ..functions.hashing import sha256_hex_array
    from ..stages.windowfns import window_functions

    ds = read_table(sf_dir, "events", columns=["event_id", "event_type"])

    def key(t: pa.Table) -> pa.Table:
        s = pc.binary_join_element_wise(
            t["event_type"], pc.cast(t["event_id"], pa.string()), "|"
        )
        return t.append_column("s", sha256_hex_array(s))

    ranked = window_functions(
        ds.map_batches(key, batch_format="pyarrow"),
        key="event_type",
        order_by=["s", "event_id"],
        row_number="rn",
        keep=["event_id", "event_type"],
    )
    return ranked.map_batches(
        lambda t: t.filter(pc.less_equal(t["rn"], 20)).select(["event_id", "event_type"]),
        batch_format="pyarrow",
    )


def q_left_join_customer_events(sf_dir: str):
    """LEFT OUTER hash join (unmatched left rows survive with null →
    zero counts): per-customer event count including the customers with
    no events at all. The events side is pre-aggregated map-side so the
    join's right side is one row per user."""
    ev = read_table(sf_dir, "events", columns=["user_id"])
    ev_counts = preagg_groupby(ev, keys=["user_id"], count_alias="n")
    ev_counts = ev_counts.map_batches(
        lambda t: pa.table({"c_custkey": t["user_id"], "n": t["n"]}),
        batch_format="pyarrow",
    )
    cust = read_table(sf_dir, "customer", columns=["c_custkey"])
    j = hash_join(cust, ev_counts, on="c_custkey", how="left", num_buckets=16)

    def finish(t: pa.Table) -> pa.Table:
        n = pc.fill_null(pc.cast(t["n"], pa.int64()), 0)
        return pa.table({"c_custkey": t["c_custkey"], "n_events": n})

    return j.map_batches(finish, batch_format="pyarrow")


def q_moments_events(sf_dir: str):
    """Grouped skewness + excess kurtosis via mergeable M3/M4 central
    moments (stages/stats.grouped_higher_moments, Pébay 2008): the
    distribution-shape drift monitor, single pass, partial-row
    shuffle only."""
    from ..stages.stats import grouped_higher_moments

    ds = read_table(sf_dir, "events", columns=["event_type", "value"])
    return grouped_higher_moments(ds, keys=["event_type"], x="value")


def q_custdist_orders(sf_dir: str):
    """Degree distribution (TPC-H Q13 shape): orders-per-customer
    histogram including zero-order customers. Orders pre-aggregate to
    one row per customer map-side, LEFT join keeps the no-order
    customers, and the distribution is a second tiny groupby over
    counts — both shuffles carry aggregates, never raw rows."""
    ord_ = read_table(sf_dir, "orders", columns=["o_custkey"])
    ord_counts = preagg_groupby(ord_, keys=["o_custkey"], count_alias="n")
    ord_counts = ord_counts.map_batches(
        lambda t: pa.table({"c_custkey": t["o_custkey"], "n": t["n"]}),
        batch_format="pyarrow",
    )
    cust = read_table(sf_dir, "customer", columns=["c_custkey"])
    j = hash_join(cust, ord_counts, on="c_custkey", how="left", num_buckets=16)

    def to_count(t: pa.Table) -> pa.Table:
        return pa.table(
            {"c_count": pc.fill_null(pc.cast(t["n"], pa.int64()), 0)}
        )

    return preagg_groupby(
        j.map_batches(to_count, batch_format="pyarrow"),
        keys=["c_count"],
        count_alias="custdist",
    )


def q_quarantine_docs(sf_dir: str):
    """Dead-letter split (stages/quarantine.py): documents failing
    ordered validity rules (tiny_text, then oversize) are routed to a
    durable quarantine side-channel task-side; the clean stream flows
    on. Output: per-disposition counts (clean + each reason), proving
    the split is lossless and first-match-deterministic.

    The quarantine dir is a fresh per-run tempdir so concurrent runs
    (parallel pytest, overlapping bench invocations) can't clobber
    each other's dead letters; in a real multi-node deployment it
    would be a run-scoped directory under the shared lake root (the
    writes are task-side — see stages/quarantine.py)."""
    import shutil
    import tempfile

    from ..stages.quarantine import quarantine_split, read_quarantine

    qdir = tempfile.mkdtemp(prefix="etl_rec_dlq_")
    try:
        ds = read_table(sf_dir, "documents", columns=["doc_id", "text", "n_chars"])
        clean = quarantine_split(
            ds,
            checks=[
                ("tiny_text", lambda t: pc.less(t["n_chars"], 60)),
                ("oversize", lambda t: pc.greater(t["n_chars"], 400)),
            ],
            quarantine_dir=qdir,
        )
        n_clean = clean.count()  # consumes the stream -> quarantine written
        dlq = read_quarantine(qdir).to_pandas()
    finally:
        shutil.rmtree(qdir, ignore_errors=True)
    rows = [{"reason": "clean", "n": int(n_clean)}]
    if len(dlq):
        for r, g in dlq.groupby("reason"):
            rows.append({"reason": r, "n": int(len(g))})
    out = pd.DataFrame(rows).sort_values("reason").reset_index(drop=True)
    out["n"] = out["n"].astype("int64")
    return out


# ---------------------------------------------------------------- training-set assembly
def q_split_docs(sf_dir: str):
    """Deterministic 90/5/5 train/val/test split by doc_id residue —
    key-derived, identical at any parallelism level; rollup per split
    (n docs, total whitespace tokens)."""
    from ..functions import text as T
    from ..stages.packing import split_assign

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        lab = split_assign(
            pa.array(df["doc_id"].to_numpy(), pa.int64()),
            {"train": 90, "val": 5, "test": 5},
        )
        return pd.DataFrame({
            "split": lab.to_pandas(),
            "n_tokens": df["text"].map(T.whitespace_token_count).astype("int64"),
        })

    return preagg_groupby(
        ds.map_batches(assign, batch_format="pandas"),
        keys=["split"], sums={"sum_tokens": "n_tokens"}, count_alias="n_docs",
    )


def q_pack_docs(sf_dir: str):
    """Sequence packing: greedy first-fit of documents into 2048-token
    bins within each batch (LLM pre-training sample assembly). Not
    SQL-expressible (stateful greedy); invariants are property-tested:
    every doc packed exactly once, no bin over budget unless a single
    doc exceeds it alone."""
    from ..functions import text as T
    from ..stages.packing import pack_documents

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def toks(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "n_tokens": df["text"].map(T.whitespace_token_count).astype("int64"),
        })

    packed = pack_documents(
        ds.map_batches(toks, batch_format="pandas"),
        id_col="doc_id", ntok_col="n_tokens", budget=2048,
    )
    return packed.map_batches(
        lambda t: t.drop_columns(["doc_ids"]), batch_format="pyarrow"
    )


# ---------------------------------------------------------------- order stats
def q_topk_orders_per_priority(sf_dir: str):
    """Top-5 orders by totalprice per priority class — the J9
    best-candidate selection (ReconciliationService.java:129-147)
    generalized to k per key; map-side combiner keeps the shuffle at
    O(groups x k) rows per batch."""
    from ..stages.topk import topk_per_group

    ds = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority", "o_totalprice"])
    return topk_per_group(
        ds, group_key="o_orderpriority", order_col="o_totalprice", k=5,
        tiebreak="o_orderkey", descending=True,
    )


def q_approx_quantiles_events(sf_dir: str):
    """Mergeable histogram-sketch quantiles (the high-cardinality scale
    path; error bounded by one bin width, property-tested). Rows-only:
    the sketch is deliberately approximate."""
    from ..stages.topk import histogram_quantiles

    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    def cents(t: pa.Table) -> pa.Table:
        # SQL aggregate semantics: null values are ignored, not counted
        # (a NaN would otherwise astype() to INT_MIN and poison bin 0)
        t = t.filter(pc.is_valid(t["value"]))
        v = np.round(
            np.asarray(t["value"].to_numpy(zero_copy_only=False), dtype=np.float64) * 100
        ).astype(np.int64)
        return pa.table({"event_type": t["event_type"], "cents": pa.array(v, pa.int64())})

    return histogram_quantiles(
        ds.map_batches(cents, batch_format="pyarrow"),
        group_key="event_type", value_col="cents",
        quantiles={"median_cents": 0.5, "p95_cents": 0.95},
        lo=0, hi=200_000, num_bins=2048,
    )


def q_event_value_quantiles(sf_dir: str):
    """Exact per-event-type value quantiles (median / p95) by explicit
    rank semantics — value at sorted index floor(q*(n-1)) — so both
    engines index the same multiset element (no interpolation-mode
    ambiguity)."""
    from ..stages.topk import grouped_quantiles

    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    def cents(t: pa.Table) -> pa.Table:
        # SQL aggregate semantics: null values are ignored, not counted
        t = t.filter(pc.is_valid(t["value"]))
        v = np.round(
            np.asarray(t["value"].to_numpy(zero_copy_only=False), dtype=np.float64) * 100
        ).astype(np.int64)
        return pa.table({"event_type": t["event_type"], "cents": pa.array(v, pa.int64())})

    return grouped_quantiles(
        ds.map_batches(cents, batch_format="pyarrow"),
        group_key="event_type", value_col="cents",
        quantiles={"median_cents": 0.5, "p95_cents": 0.95},
    )


# ---------------------------------------------------------------- N1 nesting
def q_nested_order_lines(sf_dir: str):
    """Parent/child ``list<struct>`` materialization (reference N1,
    LoadSwiftMessagesTasklet.java:43-53) and its consumption: lineitems
    nest under their order as one vectorized bucket pass (stages/nest),
    then the nested column is consumed with zero-copy list kernels
    (length / first element / segmented sum) — never exploded back to
    rows, never touched by per-row Python."""
    from ..stages.nest import nest_children

    li = read_table(
        sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber", "l_extendedprice"]
    )

    def prep(t: pa.Table) -> pa.Table:
        cents = np.round(
            np.asarray(t["l_extendedprice"].to_numpy(zero_copy_only=False), dtype=np.float64)
            * 100
        ).astype(np.int64)
        return pa.table({
            "l_orderkey": t["l_orderkey"],
            "l_linenumber": t["l_linenumber"],
            "cents": pa.array(cents, pa.int64()),
        })

    nested = nest_children(
        li.map_batches(prep, batch_format="pyarrow"),
        parent_key="l_orderkey", order_col="l_linenumber", list_col="lines",
    )

    def consume(t: pa.Table) -> pa.Table:
        lst = t["lines"].combine_chunks()
        lengths = pc.list_value_length(lst).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(lst)
        vals = pc.struct_field(flat, "cents").to_numpy(zero_copy_only=False)
        cs = np.concatenate([[0], np.cumsum(vals)])
        offs = np.concatenate([[0], np.cumsum(lengths)])
        first = pc.struct_field(pc.list_element(lst, 0), "l_linenumber")
        return pa.table({
            "orderkey": t["l_orderkey"],
            "n_lines": pa.array(lengths, pa.int64()),
            "first_linenumber": first,
            "sum_cents": pa.array(cs[offs[1:]] - cs[offs[:-1]], pa.int64()),
        })

    return nested.map_batches(consume, batch_format="pyarrow")


def q_unnest_roundtrip(sf_dir: str):
    """nest -> unnest round trip: lineitems nested under their order
    then exploded back — one row per lineitem with the parent key
    repeated (reference N1's parent(list(child)) consumed the way the
    reconcile loop does at ReconciliationService.java:109-111)."""
    from ..stages.nest import nest_children, unnest

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber"])
    nested = nest_children(
        li, parent_key="l_orderkey", order_col="l_linenumber", list_col="lines"
    )
    return unnest(nested, "lines")


def q_normalize_text(sf_dir: str):
    """Text normalization (lowercase + whitespace collapse + trim): the
    standard cleanup pass before dedup/tokenization, as vectorized
    Arrow kernels (utf8_lower + regex replace — compiled once in the
    kernel, C speed)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def norm(t: pa.Table) -> pa.Table:
        x = pc.utf8_lower(t["text"])
        x = pc.replace_substring_regex(x, pattern=r"\s+", replacement=" ")
        x = pc.utf8_trim_whitespace(x)
        return pa.table({"doc_id": t["doc_id"], "norm_text": x})

    return ds.map_batches(norm, batch_format="pyarrow")


# ---------------------------------------------------------------- decimal money
def q_money_dual_eq(sf_dir: str):
    """Decimal128 dual-equality reconciliation (reference's BigDecimal
    compareTo at ``ReconciliationService.java:151`` vs equals at
    ``:199``): ledger amounts at decimal(18,2) against a wire-side
    re-quote at decimal(19,4) with a per-row declared scale —
    MATCHED_STRICT (value+scale), MATCHED_CMP (value only, ``1.50 ==
    1.5000``), VALUE_DIFF (a 0.0001 sub-cent discrepancy an
    integer-cents engine would miss). Map-only: streams at 100 TB."""
    from ..stages.money import classify_money_batch

    ds = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    return ds.map_batches(classify_money_batch, batch_format="pyarrow").map_batches(
        lambda t: t.drop_columns(["wire_e4"]), batch_format="pyarrow"
    )


def q_money_rollup(sf_dir: str):
    """Scale-sensitive money rollup over the dual-equality detail: the
    per-status count plus the EXACT decimal sum of wire amounts in
    0.0001 units (decimal → int64 is lossless, so the rollup equality
    is exact where a float sum would drift). Partial pre-agg inside
    map_batches; only (status, n, sum) partials shuffle."""
    from ..stages.money import classify_money_batch

    ds = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    detail = ds.map_batches(classify_money_batch, batch_format="pyarrow")
    return preagg_groupby(
        detail, keys=["status"], sums={"sum_wire_e4": "wire_e4"}, count_alias="n"
    )


# ---------------------------------------------------------------- sampling
def q_sample_orders(sf_dir: str):
    """Deterministic systematic sample (1-in-20 by key residue) —
    sampling must be reproducible across parallelism levels, so it
    keys on the data, never on task-local RNG."""
    ds = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])

    def keep(t: pa.Table) -> pa.Table:
        k = np.asarray(t["o_orderkey"].to_pylist(), dtype=np.int64)
        return t.filter(pa.array(k % 20 == 3))

    return ds.map_batches(keep, batch_format="pyarrow")


# ---------------------------------------------------------------- fingerprints
def q_fingerprint_docs(sf_dir: str):
    """Winnowed rolling-hash document fingerprints (rows-only: set
    semantics aren't ANSI-SQL-expressible)."""
    from ..stages.textstage import RollingFingerprint

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(RollingFingerprint, batch_format="pandas", batch_size=2048, concurrency=(1, 4))


# ---------------------------------------------------------------- emb near-dup
def _plant_dup_rows(df: pd.DataFrame) -> pd.DataFrame:
    """Deterministic planted near-dups: every vec_id % 37 == 0 vector
    gets a clone at id+1000000 scaled by 2 (same direction, cosine
    exactly 1) — the derived query exercises REAL pairs (the raw table
    has max pairwise cosine ~0.51, so a 0.99-threshold query over it
    proves nothing)."""
    keep = df[df["vec_id"] % 37 == 0]
    clones = pd.DataFrame(
        {
            "vec_id": (keep["vec_id"] + 1_000_000).astype("int64"),
            "embedding": [np.asarray(e, dtype=np.float64) * 2.0 for e in keep["embedding"]],
        }
    )
    return pd.concat([df, clones], ignore_index=True)


def _dup_embeddings(sf_dir: str):
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ds.map_batches(_plant_dup_rows, batch_format="pandas")


def q_embdup_pairs(sf_dir: str):
    """Embedding-cosine near-duplicate pairs (cos >= 0.99) over the
    planted-dup derived table: brute-force per-batch matmul against the
    broadcast matrix — the oracle-checked baseline; embdup_pairs_ivf is
    the bucketed scale path."""
    from ..stages.similarity import cosine_dup_pairs

    all_df = _plant_dup_rows(
        read_table_pandas(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    )
    return cosine_dup_pairs(_dup_embeddings(sf_dir), all_df, threshold=0.99)


def q_embdup_pairs_ivf(sf_dir: str):
    """Same pairs through the IVF-bucketed scale path (no corpus
    broadcast: map-side list assignment + within-list scoring; recall
    vs brute force asserted in tests). The quantizer trains on a
    BOUNDED deterministic sample (first 4096 ids, predicate pushed to
    the scan) — an 8-centroid k-means never needs the corpus, and
    pulling it to the driver would reintroduce the exact O(corpus)
    materialization this path exists to avoid."""
    import pyarrow.dataset as pads

    from ..stages.similarity import ivf_dup_pairs

    train = _plant_dup_rows(
        read_table(
            sf_dir, "embeddings", columns=["vec_id", "embedding"],
            filter=(pads.field("vec_id") < 4096),
        ).to_pandas()
    )
    return ivf_dup_pairs(
        _dup_embeddings(sf_dir), threshold=0.99, num_lists=8, assign_probes=2,
        train_sample=train,
    )


def q_cc_orders(sf_dir: str):
    """Connected components over the order-chain graph: consecutive
    orders of the same customer placed <= 7 calendar days apart are
    linked (burst/repeat-purchase linkage — the entity-resolution shape
    of CC, vs the near-dup-cluster shape minhash_clusters exercises).
    Edge derivation is one hash partition by customer + a vectorized
    sort/shift per bucket (stages/graph.chain_edges); labeling is the
    shared distributed min-label CC primitive. The chain graph is
    sparse (edges << rows), so the budgeted union-find fast path
    engages; the iterated distributed path is forced in tests. This is
    the rare graph operator with an EXACT SQL oracle — a recursive-CTE
    reachability closure in DuckDB."""
    from ..stages.dedup import connected_components_min_label
    from ..stages.graph import chain_edges

    ds = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )
    # chain_edges' non-null contract: rows missing customer or date can
    # anchor no edge (matching the oracle, where lag-over-NULL-partition
    # and date_diff(NULL) derive none); they stay in the graph as
    # singleton NODES below
    linkable = ds.map_batches(
        lambda t: t.filter(pc.and_(
            pc.is_valid(t["o_orderkey"]),
            pc.and_(
                pc.is_valid(t["o_custkey"]), pc.is_valid(t["o_orderdate"])
            ),
        )),
        batch_format="pyarrow",
    )
    edges = chain_edges(
        linkable, part_col="o_custkey", node_col="o_orderkey",
        ts_col="o_orderdate", max_gap_days=7,
    )
    nodes = ds.map_batches(
        lambda t: pa.table({
            "node": pc.cast(t["o_orderkey"], pa.int64()).drop_null()
        }),
        batch_format="pyarrow",
    )
    labels = connected_components_min_label(nodes, edges)
    return labels.map_batches(
        lambda t: pa.table({
            "o_orderkey": pc.cast(t["node"], pa.int64()),
            "component": pc.cast(t["label"], pa.int64()),
        }),
        batch_format="pyarrow",
    )


def q_triangles_users(sf_dir: str):
    """Per-user triangle participation over the co-activity graph
    (users active in the same (event_type, hour) are pairwise linked —
    the cohesion-graph construction): the clustering-coefficient
    numerator community detection and spam/bot analysis start from.
    Clique expansion per (type, hour) group + one distinct pass builds
    the edges (stages/graph.cooccurrence_edges); counting is the
    node-iterator algorithm as two partitioned hash joins
    (stages/graph.triangle_counts). Exact SQL oracle: a three-way
    self-join in DuckDB."""
    from ..stages.graph import cooccurrence_edges, triangle_counts

    ds = read_table(sf_dir, "events", columns=["ts", "user_id", "event_type"])

    def keyed(t: pa.Table) -> pa.Table:
        # cooccurrence_edges' non-null contract; the oracle's equi-join
        # on (event_type, h) and user_id < user_id likewise derives no
        # edge from null-bearing rows
        t = t.filter(pc.and_(
            pc.is_valid(t["user_id"]),
            pc.and_(pc.is_valid(t["ts"]), pc.is_valid(t["event_type"])),
        ))
        h = pc.cast(pc.floor_temporal(t["ts"], unit="hour"), pa.int64())
        return pa.table({
            "event_type": t["event_type"],
            "h": h,
            "user_id": pc.cast(t["user_id"], pa.int64()),
        })

    edges = cooccurrence_edges(
        ds.map_batches(keyed, batch_format="pyarrow"),
        group_cols=["event_type", "h"],
        node_col="user_id",
    )
    from ray.data.aggregate import Count

    nodes = (
        read_table(sf_dir, "events", columns=["user_id"])
        .map_batches(
            lambda t: pa.table({
                "node": pc.unique(
                    pc.cast(t["user_id"], pa.int64())
                ).drop_null()
            }),
            batch_format="pyarrow",
        )
        .groupby("node")
        .aggregate(Count(alias_name="__n"))
        .drop_columns(["__n"])
    )
    counts = triangle_counts(nodes, edges)
    return counts.map_batches(
        lambda t: pa.table({
            "user_id": pc.cast(t["node"], pa.int64()),
            "n_triangles": pc.cast(t["n_triangles"], pa.int64()),
        }),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------- CDC envelope ingest
def _envelope_lake(sf_dir: str) -> str:
    """Build (cached) a lake ingested through the Debezium-style JSONL
    envelope path (``sources/cdc_envelope.py``): epoch 0 (even
    event_ids) arrives as ``c`` creates, epoch 1 (odd) as ``u`` updates
    that ADD ``size_bytes`` to the after image mid-stream, with
    ``user_id%13==2`` rows arriving as keyed ``d`` tombstones. The
    JSONL is derived deterministically from ``events`` (driver-side
    build is bounded: correctness-surface query, not a bench path);
    conversion and replay are the real distributed engine stages."""
    import json as _json

    import pyarrow.parquet as _pq

    from ..pipelines.replay import ReplayConfig, replay_stream
    from ..sources.cdc_envelope import convert_envelope_dir

    ev = _pq.read_table(
        table_path(sf_dir, "events"), columns=["event_id", "user_id", "event_type"]
    )
    ev = ev.filter(
        pc.and_(pc.is_valid(ev["user_id"]), pc.is_valid(ev["event_type"]))
    )
    eid = ev["event_id"].to_numpy(zero_copy_only=False)
    uid = ev["user_id"].to_numpy(zero_copy_only=False)
    etype = ev["event_type"].to_pylist()

    def _build(work_dir: str) -> None:
        env = os.path.join(work_dir, "env")
        os.makedirs(env, exist_ok=True)
        handles = {
            e: open(os.path.join(env, f"epoch=0000{e}.jsonl"), "w")
            for e in (0, 1)
        }
        for i in range(len(eid)):
            seq, u = int(eid[i]), int(uid[i])
            repo, path = str(u % 7), str(seq % 211)
            epoch = seq % 2
            if epoch == 1 and u % 13 == 2:
                rec = {"op": "d", "before": {"repo": repo, "path": path},
                       "after": None, "source": {"seq": seq}}
            else:
                after = {"repo": repo, "path": path, "content": etype[i]}
                if epoch == 1:
                    after["size_bytes"] = u
                rec = {"op": "c" if epoch == 0 else "u", "before": None,
                       "after": after, "source": {"seq": seq}}
            handles[epoch].write(_json.dumps(rec) + "\n")
        for fh in handles.values():
            fh.close()
        binlog = os.path.join(work_dir, "binlog")
        convert_envelope_dir(env, binlog)
        replay_stream(
            binlog, ReplayConfig(lake_root=os.path.join(work_dir, "lake"), num_buckets=8)
        )

    work = _claimed_cache_dir(sf_dir, "envelope", _build)
    return os.path.join(work, "lake")


def q_envelope_replay(sf_dir: str):
    """End-to-end Debezium-envelope ingest (north rule "tails a
    binlog/WAL stream" — the public CDC wire format): JSONL change
    envelopes -> vectorized envelope_to_binlog conversion ->
    discovery-based replay with LWW, keyed tombstones and additive
    mid-stream schema evolution. The oracle recomputes the LWW winners
    (deletes excluded) in SQL, so the driver hash certifies the whole
    envelope ingest chain. Winner order is the engine's delta-chain
    contract — (epoch, seq) arrival order (``resolve_chain_tables``,
    stages/merge.py:154) — which the oracle expresses as
    ``ORDER BY seq % 2 DESC, seq DESC`` (epoch == seq parity here)."""
    from ..pipelines.replay import lake_dataset

    root = _envelope_lake(sf_dir)

    def project(t: pa.Table) -> pa.Table:
        sz = t["size_bytes"] if "size_bytes" in t.column_names else pa.nulls(
            t.num_rows, pa.int64()
        )
        return pa.table({
            "repo": t["repo"],
            "path": t["path"],
            "content": t["content"],
            # -1 sentinel keeps the column int64 through pandas
            "size_bytes": pc.fill_null(pc.cast(sz, pa.int64()), -1),
        })

    return lake_dataset(root).map_batches(project, batch_format="pyarrow")


QUERIES = {
    # ORDER MATTERS for driver correctness coverage: the driver checks
    # the FIRST 50 keys each round. Round-4 window = the two round-1
    # sentinels + ALL 27 keys that have never had a driver row of any
    # kind (17 oracle-backed + 10 rows-only) + the new r4
    # ivm_repo_stats and lake_keyed_lookup + refill keys whose most
    # recent driver evidence is oldest (fingerprint_docs from r01, the
    # rest last seen in r02); the final two slots carry the late-r4
    # graph additions (cc_orders, triangles_users). After this round
    # every registry key has independent driver evidence at least
    # once. The in-repo pytest oracle covers ALL entries every run.
    #
    # ROUND-5 WINDOW (this is the round-5 rotation the r4 comment
    # planned): the two keys that still lacked any driver row after r4
    # — `envelope_replay` (oracle-backed, landed past the r4 window)
    # and `semantic_clusters` (rows-only) — take slots 3-4, evicting
    # `mad_events`/`user_journeys` (both driver-green in r4). The rest
    # of the r4 window stays put, so r5 both completes the evidence
    # matrix (every registry key driver-checked at least once;
    # 110/110 oracle-backed keys green) AND re-confirms the r4 set.
    # Late-r5 add: `semantic_dedup_docs` (rows-only, the SemDeDup
    # composition) takes slot 5 so the NEW key gets driver evidence in
    # its landing round; it evicts `triangles_users`, which is already
    # driver-green (rows+schema+hash) from r4 — cumulative coverage
    # stays complete.
    # The in-repo pytest oracle covers ALL entries every run.
    "reconcile_detail": q_reconcile_statuses,
    "cdc_lww_events": q_cdc_lww_events,
    "envelope_replay": q_envelope_replay,
    "semantic_clusters": q_semantic_clusters,
    "semantic_dedup_docs": q_semantic_dedup,
    "ann_variants": q_ann_variants,
    "media_pipeline": q_media_pipeline,
    "hll_users_by_type": q_hll_users_by_type,
    "dedup_plan_docs": q_dedup_plan_docs,
    "incremental_dedup_docs": q_incremental_dedup_docs,
    "pagerank_docs": q_pagerank_docs,
    "pack_docs": q_pack_docs,
    "approx_quantiles_events": q_approx_quantiles_events,
    "embdup_clusters": q_embdup_clusters,
    "compression_ratio_docs": q_compression_ratio_docs,
    "lexical_diversity_docs": q_lexical_diversity_docs,
    "salted_join_events": q_salted_join_events,
    "chunk_docs": q_chunk_docs,
    "bigram_counts": q_bigram_counts,
    "semi_join_lineitem": q_semi_join_lineitem,
    "top_terms_per_doc": q_top_terms_per_doc,
    "repetition_docs": q_repetition_docs,
    "orders_above_cust_avg": q_orders_above_cust_avg,
    "json_extract_props": q_json_extract_props,
    "bloom_semi_orders": q_bloom_semi_orders,
    "event_transitions": q_event_transitions,
    "fk_integrity": q_fk_integrity,
    "funnel_events": q_funnel_events,
    "cohort_retention": q_cohort_retention,
    "anomaly_events": q_anomaly_events,
    "fingerprint_docs": q_fingerprint_docs,
    "ivm_repo_stats": q_ivm_repo_stats,
    "lake_keyed_lookup": q_lake_keyed_lookup,
    "key_history_lake": q_key_history_lake,
    "schema_history_lake": q_schema_history_lake,
    "txn_snapshot_join": q_txn_snapshot_join,
    "replica_state": q_replica_state,
    "lm_quality_docs": q_lm_quality_docs,
    "watermark_window_events": q_watermark_window_events,
    "filter_project": q_filter_project,
    "groupby_sum": q_groupby_sum,
    "join_customer_nation": q_join_customer_nation,
    "join_orders_lineitem": q_join_orders_lineitem,
    "reconcile_counts": q_reconcile_counts,
    "topk_orders": q_topk_orders,
    "dedup_exact_docs": q_dedup_exact_docs,
    "minhash_clusters": q_minhash_clusters,
    "simhash_docs": q_simhash_docs,
    "ngram_jaccard_pairs": q_ngram_jaccard_pairs,
    # the two r4 graph additions take the last two window slots so they
    # get first-time driver evidence this round; the evicted refill
    # keys (knn_cosine, token_stats) already have driver-green rows
    # from earlier rounds
    "cc_orders": q_cc_orders,
    "triangles_users": q_triangles_users,
    # --- end of the 50-slot driver window ---
    "mad_events": q_mad_events,
    "user_journeys": q_user_journeys,
    "knn_cosine": q_knn_cosine,
    "token_stats": q_token_stats,
    "quality_docs": q_quality_docs,
    "sha256_docs": q_sha256_docs,
    "distinct_event_types": q_distinct_event_types,
    "anti_join_customers": q_anti_join_customers,
    "payload_meta": q_payload_meta,
    "frame_sample": q_frame_sample,
    "session_window_events": q_session_window_events,
    "reconcile_rollup": q_reconcile_rollup,
    "schema_evolution_replay": q_schema_evolution_replay,
    "ewma_events": q_ewma_events,
    "setops_users": q_setops_users,
    "grouping_sets_lineitem": q_grouping_sets_lineitem,
    "asof_events": q_asof_events,
    "rank_fns_orders": q_rank_fns_orders,
    "time_windows_events": q_time_windows_events,
    "samples_tagged": q_samples_tagged,
    "grouped_means_lineitem": q_grouped_means_lineitem,
    "stats_regr_lineitem": q_stats_regr_lineitem,
    "money_dual_eq": q_money_dual_eq,
    "money_rollup": q_money_rollup,
    "nested_order_lines": q_nested_order_lines,
    "unnest_roundtrip": q_unnest_roundtrip,
    "scd2_user_state": q_scd2_user_state,
    "revenue_by_nation": q_revenue_by_nation,
    "bm25_docs": q_bm25_docs,
    "fuzzy_part_names": q_fuzzy_part_names,
    "fuzzy_lookup_parts": q_fuzzy_lookup_parts,
    "moments_events": q_moments_events,
    "ntile_events": q_ntile_events,
    "topk_orders_per_priority": q_topk_orders_per_priority,
    "topk_orders_with_ties": q_topk_orders_with_ties,
    "mom_revenue": q_mom_revenue,
    "events_by_hour": q_events_by_hour,
    "entropy_users": q_entropy_users,
    "resample_locf_events": q_resample_locf_events,
    "custdist_orders": q_custdist_orders,
    "postings_terms": q_postings_terms,
    "minmax_norm_events": q_minmax_norm_events,
    "cum_distinct_events": q_cum_distinct_events,
    "left_join_customer_events": q_left_join_customer_events,
    "quarantine_docs": q_quarantine_docs,
    "nations_per_region": q_nations_per_region,
    "split_docs": q_split_docs,
    "event_value_quantiles": q_event_value_quantiles,
    "normalize_text": q_normalize_text,
    "term_stats": q_term_stats,
    "tfidf_terms": q_tfidf_terms,
    "melt_lineitem": q_melt_lineitem,
    "distinct_users_by_type": q_distinct_users_by_type,
    "decontam_docs": q_decontam_docs,
    "heavy_hitters_events": q_heavy_hitters_events,
    "embdup_pairs": q_embdup_pairs,
    "bpe_token_counts": q_bpe_token_counts,
    "profile_lineitem": q_profile_lineitem,
    "span_dedup_docs": q_span_dedup_docs,
    "langid_docs": q_langid_docs,
    "interval_join_events": q_interval_join_events,
    "pivot_user_events": q_pivot_user_events,
    "rolling_user_values": q_rolling_user_values,
    "window_fns_events": q_window_fns_events,
    "session_gaps_events": q_session_gaps_events,
    "session_ids_events": q_session_ids_events,
    "sliding_count_events": q_sliding_count_events,
    "first_last_orders": q_first_last_orders,
    "full_outer_activity": q_full_outer_activity,
    "histogram_values": q_histogram_values,
    "ratio_to_report": q_ratio_to_report,
    "redact_docs": q_redact_docs,
    "mode_event_type": q_mode_event_type,
    "best_doc_per_source": q_best_doc_per_source,
    "cross_region_nation": q_cross_region_nation,
}


ORACLE_SQL = {
    "filter_project": (
        "SELECT event_id, user_id, value FROM events WHERE event_type = 'click'"
    ),
    "groupby_sum": (
        "SELECT l_returnflag, l_linestatus, COUNT(*) AS n, "
        "CAST(ROUND(SUM(l_quantity)) AS BIGINT) AS sum_qty, "
        "CAST(ROUND(SUM(l_extendedprice) * 100) AS BIGINT) AS sum_base_cents, "
        "CAST(ROUND(SUM(l_extendedprice * (1 - l_discount)) * 10000) AS BIGINT) AS sum_disc_e4 "
        "FROM lineitem GROUP BY l_returnflag, l_linestatus"
    ),
    "join_customer_nation": (
        "SELECT n_name, COUNT(*) AS n_customers, "
        "CAST(ROUND(SUM(c_acctbal) * 100) AS BIGINT) AS sum_acctbal_cents "
        "FROM customer JOIN nation ON c_nationkey = n_nationkey GROUP BY n_name"
    ),
    "join_orders_lineitem": (
        "SELECT o_orderpriority, COUNT(*) AS n_items, "
        "CAST(ROUND(SUM(l_extendedprice * (1 - l_discount)) * 10000) AS BIGINT) AS sum_revenue_e4 "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey GROUP BY o_orderpriority"
    ),
    "reconcile_detail": _RECONCILE_ORACLE_CTE + "SELECT orderkey, status FROM labeled",
    "reconcile_counts": _RECONCILE_ORACLE_CTE
    + "SELECT status, COUNT(*) AS n FROM labeled GROUP BY status",
    "cdc_lww_events": (
        "SELECT user_id, event_id, event_type, value FROM ("
        "SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) rn "
        "FROM events) WHERE rn = 1"
    ),
    "topk_orders": (
        "SELECT o_orderkey, o_totalprice FROM orders "
        "ORDER BY o_totalprice DESC, o_orderkey LIMIT 10"
    ),
    "dedup_exact_docs": (
        "SELECT MIN(doc_id) AS doc_id, sha256(text) AS content_sha256 "
        "FROM documents GROUP BY sha256(text)"
    ),
    "knn_cosine": (
        "WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id < 5) "
        "SELECT qid AS query_id, vec_id AS neighbor_id, rank FROM ("
        "SELECT q.qid, e.vec_id, ROW_NUMBER() OVER (PARTITION BY q.qid "
        "ORDER BY list_cosine_similarity(q.qe, e.embedding) DESC, e.vec_id) AS rank "
        "FROM q CROSS JOIN embeddings e WHERE e.vec_id <> q.qid) WHERE rank <= 5"
    ),
    "token_stats": (
        "SELECT doc_id, CASE WHEN trim(text) = '' THEN 0 ELSE "
        "length(regexp_split_to_array(trim(text), '\\s+')) END AS n_tokens, "
        "length(text) AS n_chars FROM documents"
    ),
    "quality_docs": (
        # trim-empty guard matches the engine: zero tokens, ratio 0.0
        # (regexp_split_to_array('', ...) would yield [''] -> 1 token)
        "SELECT doc_id, CASE WHEN trim(text) = '' THEN 0 ELSE "
        "length(regexp_split_to_array(trim(text), '\\s+')) END AS n_tokens, "
        "CASE WHEN trim(text) = '' THEN 0.0 ELSE "
        "ROUND(CAST(list_aggregate(list_transform(regexp_split_to_array(lower(trim(text)), '\\s+'), "
        "x -> CASE WHEN x IN ('the','a','and','of','to','in','is','it','that','for') "
        "THEN 1 ELSE 0 END), 'sum') AS DOUBLE) / "
        "length(regexp_split_to_array(trim(text), '\\s+')), 6) END AS stop_ratio FROM documents"
    ),
    "sha256_docs": "SELECT doc_id, sha256(text) AS content_sha256 FROM documents",
    "distinct_event_types": "SELECT DISTINCT event_type FROM events",
    "anti_join_customers": (
        "SELECT c_custkey FROM customer WHERE NOT EXISTS "
        "(SELECT 1 FROM events WHERE user_id = c_custkey)"
    ),
    "payload_meta": "SELECT doc_id, strlen(text) AS payload_bytes FROM documents",
    "session_window_events": (
        "WITH x AS (SELECT user_id, ts, event_id, value, "
        "CASE WHEN LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) IS NULL "
        "OR ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) > INTERVAL '30 minutes' "
        "THEN 1 ELSE 0 END AS brk FROM events), "
        "s AS (SELECT *, SUM(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id "
        "ROWS UNBOUNDED PRECEDING) AS sid FROM x) "
        "SELECT user_id, MIN(ts) AS session_start, COUNT(*) AS n_events, "
        "CAST(ROUND(SUM(value) * 100) AS BIGINT) AS sum_value_cents "
        "FROM s GROUP BY user_id, sid"
    ),
    "reconcile_rollup": _RECONCILE_ORACLE_CTE + (
        "SELECT grp, CAST(COUNT(*) AS BIGINT) AS n_rows, "
        "CAST(SUM(CASE WHEN status = 'MATCHED' THEN 1 ELSE 0 END) AS BIGINT) AS n_matched, "
        "CASE WHEN SUM(CASE WHEN status <> 'MISSING_RIGHT' THEN 1 ELSE 0 END) = 0 THEN 'ERROR' "
        "WHEN SUM(CASE WHEN status LIKE 'DUP_RIGHT_%' THEN 1 ELSE 0 END) > 0 THEN 'DUP_IN_RIGHT' "
        "WHEN SUM(CASE WHEN status <> 'MATCHED' THEN 1 ELSE 0 END) > 0 THEN 'ROWS_WITH_ERRORS' "
        "ELSE 'OK' END AS rollup_status "
        "FROM (SELECT orderkey % 97 AS grp, status FROM labeled) GROUP BY grp"
    ),
    "interval_join_events": (
        "SELECT c.event_id AS click_event_id, p.event_id AS purchase_event_id "
        "FROM events c JOIN events p ON c.user_id = p.user_id "
        "AND c.event_type = 'click' AND p.event_type = 'purchase' "
        "AND p.ts <= c.ts AND c.ts < p.ts + INTERVAL '1 hour'"
    ),
    "pivot_user_events": (
        "SELECT user_id, "
        "CAST(SUM(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT) AS n_click, "
        "CAST(SUM(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT) AS n_view, "
        "CAST(SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS n_purchase "
        "FROM events GROUP BY user_id"
    ),
    "rolling_user_values": (
        "SELECT event_id, user_id, CAST(SUM(cents) OVER ("
        "PARTITION BY user_id ORDER BY ts, event_id "
        "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS BIGINT) AS rolling3_cents "
        "FROM (SELECT event_id, user_id, ts, CAST(ROUND(value * 100) AS BIGINT) AS cents "
        "FROM events)"
    ),
    "window_fns_events": (
        "SELECT event_id, user_id, "
        "CAST(ROW_NUMBER() OVER w AS BIGINT) AS rn, "
        "LAG(value) OVER w AS prev_value, "
        "CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER ("
        "PARTITION BY user_id ORDER BY ts, event_id "
        "ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_value_cents "
        "FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)"
    ),
    "first_last_orders": (
        "SELECT o_orderkey, o_custkey, "
        "CAST(ROW_NUMBER() OVER w AS BIGINT) AS rn, "
        "FIRST_VALUE(o_orderkey) OVER w AS first_key, "
        "LAST_VALUE(o_orderkey) OVER ("
        "PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) AS last_key "
        "FROM orders WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey)"
    ),
    "histogram_values": (
        "SELECT CAST(FLOOR(value / 50.0) AS BIGINT) AS bin, "
        "CAST(COUNT(*) AS BIGINT) AS n FROM events GROUP BY 1"
    ),
    "ratio_to_report": (
        "WITH c AS (SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n "
        "FROM events GROUP BY 1) "
        "SELECT event_type, n, CAST(SUM(n) OVER () AS BIGINT) AS total, "
        "CAST(n * 1000000 // SUM(n) OVER () AS BIGINT) AS share_ppm FROM c"
    ),
    "redact_docs": (
        "WITH r1 AS (SELECT doc_id, "
        "regexp_replace(text, '\\b(customer|user)\\b', '<PII>', 'g') AS t1, "
        "length(regexp_extract_all(text, '\\b(customer|user)\\b')) AS h1 "
        "FROM documents) "
        "SELECT doc_id, "
        "regexp_replace(t1, '<PII>( <PII>)+', '<PII>+', 'g') AS redacted, "
        "CAST(h1 + length(regexp_extract_all(t1, '<PII>( <PII>)+')) AS BIGINT) AS n_hits "
        "FROM r1"
    ),
    "mode_event_type": (
        "SELECT user_id, event_type, n FROM ("
        "SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS n, "
        "ROW_NUMBER() OVER (PARTITION BY user_id "
        "ORDER BY COUNT(*) DESC, event_type) AS rn "
        "FROM events GROUP BY user_id, event_type) WHERE rn = 1"
    ),
    "best_doc_per_source": (
        "SELECT doc_id, source, n_chars FROM ("
        "SELECT doc_id, source, n_chars, ROW_NUMBER() OVER ("
        "PARTITION BY source ORDER BY n_chars DESC, doc_id) AS rn "
        "FROM documents) WHERE rn = 1"
    ),
    "cross_region_nation": (
        "SELECT r_name, n_name FROM region CROSS JOIN nation"
    ),
    "session_ids_events": (
        "WITH f AS (SELECT event_id, user_id, ts, "
        "CASE WHEN LAG(epoch_us(ts)) OVER w IS NULL "
        "OR epoch_us(ts) - LAG(epoch_us(ts)) OVER w > 1800000000 "
        "THEN 1 ELSE 0 END AS brk FROM events "
        "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)) "
        "SELECT event_id, user_id, "
        "CAST(SUM(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id "
        "ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_ord FROM f"
    ),
    "sliding_count_events": (
        "SELECT event_id, user_id, "
        "CAST(COUNT(*) OVER (PARTITION BY user_id ORDER BY ts "
        "RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW) AS BIGINT) "
        "AS n_last_hour FROM events"
    ),
    "session_gaps_events": (
        "WITH d AS (SELECT user_id, "
        "epoch_us(ts) - LAG(epoch_us(ts)) OVER ("
        "PARTITION BY user_id ORDER BY ts, event_id) AS gap "
        "FROM events) "
        "SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events, "
        "CAST(COALESCE(SUM(CASE WHEN gap > 1800000000 THEN 1 ELSE 0 END), 0) AS BIGINT) AS n_gaps, "
        "CAST(COALESCE(MAX(gap), 0) AS BIGINT) AS max_gap_us "
        "FROM d GROUP BY user_id"
    ),
    "full_outer_activity": (
        "WITH e AS (SELECT user_id AS k, CAST(COUNT(*) AS BIGINT) AS n_events "
        "FROM events GROUP BY 1), "
        "o AS (SELECT o_custkey AS k, CAST(COUNT(*) AS BIGINT) AS n_orders "
        "FROM orders WHERE o_orderstatus = 'F' GROUP BY 1) "
        "SELECT k AS user_id, COALESCE(n_events, 0) AS n_events, "
        "COALESCE(n_orders, 0) AS n_orders "
        "FROM e FULL OUTER JOIN o USING (k)"
    ),
    "distinct_users_by_type": (
        "SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users "
        "FROM events GROUP BY event_type"
    ),
    "quarantine_docs": (
        "SELECT CASE WHEN n_chars < 60 THEN 'tiny_text' "
        "WHEN n_chars > 400 THEN 'oversize' ELSE 'clean' END AS reason, "
        "CAST(COUNT(*) AS BIGINT) AS n FROM documents GROUP BY 1 ORDER BY 1"
    ),
    "left_join_customer_events": (
        "SELECT c_custkey, CAST(COALESCE(n, 0) AS BIGINT) AS n_events "
        "FROM customer LEFT JOIN ("
        "SELECT user_id, COUNT(*) AS n FROM events GROUP BY user_id) e "
        "ON c_custkey = e.user_id"
    ),
    "term_stats": (
        "SELECT term, CAST(SUM(c) AS BIGINT) AS tf, CAST(COUNT(*) AS BIGINT) AS df "
        "FROM (SELECT term, doc_id, COUNT(*) AS c FROM ("
        "SELECT doc_id, unnest(regexp_split_to_array(lower(text), '\\s+')) AS term "
        "FROM documents) WHERE term <> '' GROUP BY term, doc_id) GROUP BY term"
    ),
    "moments_events": (
        "SELECT event_type, CAST(COUNT(value) AS BIGINT) AS n, "
        "CAST(ROUND(skewness(value) * 1000000) AS BIGINT) AS skew_e6, "
        "CAST(ROUND(kurtosis(value) * 1000000) AS BIGINT) AS kurt_e6 "
        "FROM events GROUP BY event_type"
    ),
    "custdist_orders": (
        "SELECT c_count, CAST(COUNT(*) AS BIGINT) AS custdist FROM ("
        "SELECT c_custkey, CAST(COALESCE(n, 0) AS BIGINT) AS c_count "
        "FROM customer LEFT JOIN (SELECT o_custkey, COUNT(*) AS n "
        "FROM orders GROUP BY o_custkey) o ON c_custkey = o_custkey) "
        "GROUP BY c_count"
    ),
    "mom_revenue": (
        "WITH m AS (SELECT CAST(date_trunc('month', o_orderdate) AS TIMESTAMP) "
        "AS month, CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT) "
        "AS revenue_c FROM orders WHERE o_orderdate IS NOT NULL GROUP BY 1) "
        "SELECT month, revenue_c, CAST(revenue_c - LAG(revenue_c) OVER ("
        "ORDER BY month) AS BIGINT) AS delta_c FROM m"
    ),
    "topk_orders_with_ties": (
        "SELECT o_orderkey, CAST(ROUND(o_totalprice * 100) AS BIGINT) "
        "AS price_cents FROM orders WHERE o_totalprice >= ("
        "SELECT MIN(v) FROM (SELECT DISTINCT o_totalprice AS v FROM orders "
        "WHERE o_totalprice IS NOT NULL ORDER BY v DESC LIMIT 10))"
    ),
    "entropy_users": (
        "WITH c AS (SELECT user_id, event_type, COUNT(*) AS n FROM events "
        "WHERE user_id IS NOT NULL AND event_type IS NOT NULL "
        "GROUP BY user_id, event_type) "
        "SELECT user_id, CAST(SUM(n) AS BIGINT) AS n_events, "
        "CAST(ROUND(-SUM((n * 1.0 / tot) * LN(n * 1.0 / tot)) * 1000000) "
        "AS BIGINT) AS entropy_e6 FROM ("
        "SELECT user_id, n, SUM(n) OVER (PARTITION BY user_id) AS tot FROM c) "
        "GROUP BY user_id"
    ),
    "events_by_hour": (
        "SELECT CAST(EXTRACT(hour FROM ts) AS BIGINT) AS hour, "
        "CAST(SUM(CAST(ROUND(COALESCE(value, 0) * 100) AS BIGINT)) AS BIGINT) "
        "AS sum_value_cents, CAST(COUNT(*) AS BIGINT) AS n "
        "FROM events WHERE ts IS NOT NULL GROUP BY 1"
    ),
    "fuzzy_lookup_parts": (
        "WITH n AS (SELECT DISTINCT p_name AS value FROM part "
        "WHERE p_name IS NOT NULL), "
        "c(canon) AS (VALUES ('red widget'), ('blue bolt'), "
        "('small ring'), ('hot gear')), "
        "d AS (SELECT value, canon, "
        "CAST(levenshtein(value, canon) AS BIGINT) AS dist, "
        "ROW_NUMBER() OVER (PARTITION BY value "
        "ORDER BY levenshtein(value, canon), canon) AS rn FROM n CROSS JOIN c) "
        "SELECT value, canon, dist FROM d WHERE rn = 1"
    ),
    "fuzzy_part_names": (
        "WITH n AS (SELECT DISTINCT p_name FROM part WHERE p_name IS NOT NULL) "
        "SELECT a.p_name AS name_a, b.p_name AS name_b, "
        "CAST(levenshtein(a.p_name, b.p_name) AS BIGINT) AS dist "
        "FROM n a JOIN n b ON a.p_name < b.p_name "
        "WHERE levenshtein(a.p_name, b.p_name) <= 2"
    ),
    "tfidf_terms": (
        "WITH tf AS (SELECT doc_id, term, COUNT(*) AS c FROM ("
        "SELECT doc_id, unnest(regexp_split_to_array(lower(text), '\\s+')) AS term "
        "FROM documents) WHERE term <> '' GROUP BY doc_id, term), "
        "df AS (SELECT term, COUNT(*) AS df FROM tf GROUP BY term), "
        "n AS (SELECT COUNT(*) AS n_docs FROM documents WHERE text IS NOT NULL), "
        "s AS (SELECT tf.doc_id, tf.term, "
        "CAST(ROUND(tf.c * ln(n.n_docs * 1.0 / df.df) * 1000000) AS BIGINT) "
        "AS tfidf_e6 FROM tf JOIN df USING (term) CROSS JOIN n) "
        "SELECT doc_id, term, tfidf_e6, CAST(rn AS BIGINT) AS rank FROM ("
        "SELECT *, ROW_NUMBER() OVER (PARTITION BY doc_id "
        "ORDER BY tfidf_e6 DESC, term) AS rn FROM s) WHERE rn <= 3"
    ),
    "resample_locf_events": (
        "WITH e AS (SELECT user_id, "
        "CAST(date_trunc('day', ts) AS TIMESTAMP) AS day, ts, event_id, "
        "CAST(ROUND(value * 100) AS BIGINT) AS cents FROM events "
        "WHERE user_id IS NOT NULL AND ts IS NOT NULL), "
        "b AS (SELECT user_id, day, COUNT(*) AS n FROM e GROUP BY 1, 2), "
        "lv AS (SELECT user_id, day, "
        "FIRST(cents ORDER BY ts DESC, event_id DESC) AS last_cents "
        "FROM e WHERE cents IS NOT NULL GROUP BY 1, 2), "
        "span AS (SELECT user_id, MIN(day) AS mn, MAX(day) AS mx FROM b GROUP BY 1), "
        "cal AS (SELECT user_id, "
        "unnest(generate_series(mn, mx, INTERVAL 1 DAY)) AS day FROM span), "
        "j AS (SELECT cal.user_id, cal.day, COALESCE(b.n, 0) AS n, lv.last_cents "
        "FROM cal LEFT JOIN b ON cal.user_id = b.user_id AND cal.day = b.day "
        "LEFT JOIN lv ON cal.user_id = lv.user_id AND cal.day = lv.day) "
        "SELECT user_id, day, CAST(n AS BIGINT) AS n_events, "
        "CAST(COALESCE(last_value(last_cents IGNORE NULLS) OVER ("
        "PARTITION BY user_id ORDER BY day "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), 0) AS BIGINT) "
        "AS locf_cents FROM j"
    ),
    "bm25_docs": (
        "WITH dl AS (SELECT doc_id, len(list_filter("
        "regexp_split_to_array(lower(text), '\\s+'), x -> x <> '')) AS dl "
        "FROM documents WHERE text IS NOT NULL), "
        "st AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n_docs, AVG(dl) AS avgdl FROM dl), "
        "tf AS (SELECT doc_id, term, CAST(COUNT(*) AS DOUBLE) AS tf FROM ("
        "SELECT doc_id, unnest(regexp_split_to_array(lower(text), '\\s+')) AS term "
        "FROM documents) WHERE term IN ('merge', 'window', 'customer') "
        "GROUP BY doc_id, term), "
        "idf AS (SELECT term, CAST(COUNT(*) AS DOUBLE) AS df FROM tf GROUP BY term), "
        "sc AS (SELECT tf.doc_id, SUM("
        "ln((st.n_docs - idf.df + 0.5) / (idf.df + 0.5) + 1) * tf.tf * 2.2 / "
        "(tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / st.avgdl))) AS score "
        "FROM tf JOIN idf USING (term) JOIN dl USING (doc_id) CROSS JOIN st "
        "GROUP BY tf.doc_id) "
        "SELECT doc_id, CAST(ROUND(score * 10000) AS BIGINT) AS score_e4 "
        "FROM sc ORDER BY score_e4 DESC, doc_id LIMIT 10"
    ),
    "cum_distinct_events": (
        "WITH f AS (SELECT event_id, user_id, ts, "
        "CASE WHEN ROW_NUMBER() OVER ("
        "PARTITION BY user_id, event_type ORDER BY ts, event_id) = 1 "
        "THEN 1 ELSE 0 END AS fo FROM events) "
        "SELECT event_id, user_id, "
        "CAST(SUM(fo) OVER (PARTITION BY user_id ORDER BY ts, event_id "
        "ROWS UNBOUNDED PRECEDING) AS BIGINT) AS n_types_seen FROM f"
    ),
    "minmax_norm_events": (
        "WITH c AS (SELECT event_id, user_id, "
        "CAST(ROUND(value * 100) AS BIGINT) AS cents FROM events "
        "WHERE value IS NOT NULL) "
        "SELECT event_id, user_id, "
        "CAST(CASE WHEN mx = mn THEN 0 "
        "ELSE (cents - mn) * 1000000 // (mx - mn) END AS BIGINT) AS norm_ppm "
        "FROM (SELECT event_id, user_id, cents, "
        "MIN(cents) OVER w AS mn, MAX(cents) OVER w AS mx "
        "FROM c WINDOW w AS (PARTITION BY user_id))"
    ),
    "user_journeys": (
        "SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events, "
        "string_agg(event_type, ',' ORDER BY ts, event_id) AS journey "
        "FROM events GROUP BY user_id"
    ),
    "lexical_diversity_docs": (
        "WITH w AS (SELECT doc_id, list_filter("
        "regexp_split_to_array(lower(text), '\\s+'), x -> x <> '') AS arr "
        "FROM documents) "
        "SELECT doc_id, CAST(GREATEST(len(arr) - 1, 0) AS BIGINT) AS n_bigrams, "
        "CAST(CASE WHEN len(arr) < 2 THEN 0 ELSE len(list_distinct("
        "[arr[i] || chr(31) || arr[i + 1] for i in generate_series(1, len(arr) - 1)]"
        ")) END AS BIGINT) AS n_distinct_bigrams FROM w"
    ),
    "mad_events": (
        "WITH c AS (SELECT user_id, CAST(ROUND(value * 100) AS BIGINT) AS cents "
        "FROM events WHERE value IS NOT NULL), "
        "m AS (SELECT user_id, CAST(ROUND(2 * MEDIAN(cents)) AS BIGINT) AS med2_cents "
        "FROM c GROUP BY user_id) "
        "SELECT c.user_id, m.med2_cents, "
        "CAST(ROUND(2 * MEDIAN(ABS(2 * c.cents - m.med2_cents))) AS BIGINT) AS mad4_cents "
        "FROM c JOIN m ON c.user_id = m.user_id GROUP BY c.user_id, m.med2_cents"
    ),
    "profile_lineitem": (
        "SELECT 'l_quantity' AS col_name, CAST(COUNT(*) AS BIGINT) AS n_rows, "
        "CAST(COUNT(*) - COUNT(l_quantity) AS BIGINT) AS n_null, "
        "CAST(MIN(l_quantity) AS DOUBLE) AS min_v, CAST(MAX(l_quantity) AS DOUBLE) AS max_v "
        "FROM lineitem UNION ALL "
        "SELECT 'l_extendedprice', CAST(COUNT(*) AS BIGINT), "
        "CAST(COUNT(*) - COUNT(l_extendedprice) AS BIGINT), "
        "CAST(MIN(l_extendedprice) AS DOUBLE), CAST(MAX(l_extendedprice) AS DOUBLE) "
        "FROM lineitem UNION ALL "
        "SELECT 'l_discount', CAST(COUNT(*) AS BIGINT), "
        "CAST(COUNT(*) - COUNT(l_discount) AS BIGINT), "
        "CAST(MIN(l_discount) AS DOUBLE), CAST(MAX(l_discount) AS DOUBLE) FROM lineitem"
    ),
    "bpe_token_counts": (
        "SELECT doc_id, CAST(length(regexp_extract_all(text, "
        "'''(?:[sdmt]|ll|ve|re)| ?\\p{L}+| ?\\p{N}+| ?[^\\s\\p{L}\\p{N}]+|\\s+'"
        ")) AS BIGINT) AS n_bpe_pieces FROM documents"
    ),
    "postings_terms": (
        "SELECT term, CAST(COUNT(*) AS BIGINT) AS df, "
        "string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings "
        "FROM (SELECT DISTINCT term, doc_id FROM ("
        "SELECT doc_id, unnest(regexp_split_to_array(lower(text), '\\s+')) AS term "
        "FROM documents) WHERE term <> '') GROUP BY term"
    ),
    "melt_lineitem": (
        "SELECT l_orderkey, l_linenumber, 'l_quantity' AS metric, l_quantity AS val FROM lineitem "
        "UNION ALL SELECT l_orderkey, l_linenumber, 'l_extendedprice', l_extendedprice FROM lineitem "
        "UNION ALL SELECT l_orderkey, l_linenumber, 'l_discount', l_discount FROM lineitem"
    ),
    "nations_per_region": (
        "SELECT r_name, string_agg(n_name, ',' ORDER BY n_name) AS nations "
        "FROM nation JOIN region ON n_regionkey = r_regionkey GROUP BY r_name"
    ),
    "revenue_by_nation": (
        "SELECT n_name, COUNT(*) AS n_items, "
        "CAST(ROUND(SUM(l_extendedprice * (1 - l_discount)) * 10000) AS BIGINT) AS sum_revenue_e4 "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        "JOIN customer ON o_custkey = c_custkey "
        "JOIN nation ON c_nationkey = n_nationkey "
        "WHERE l_returnflag = 'R' GROUP BY n_name"
    ),
    "frame_sample": (
        "SELECT doc_id AS media_id, "
        "CAST(CEIL(((doc_id % 5) * 700 + 100) / 1000.0) AS BIGINT) AS n_frames "
        "FROM documents"
    ),
    "split_docs": (
        "SELECT CASE WHEN doc_id % 100 < 90 THEN 'train' "
        "WHEN doc_id % 100 < 95 THEN 'val' ELSE 'test' END AS split, "
        "CAST(COUNT(*) AS BIGINT) AS n_docs, "
        "CAST(SUM(CASE WHEN trim(text) = '' THEN 0 ELSE "
        "length(regexp_split_to_array(trim(text), '\\s+')) END) AS BIGINT) AS sum_tokens "
        "FROM documents GROUP BY 1"
    ),
    "topk_orders_per_priority": (
        "SELECT o_orderkey, o_orderpriority, o_totalprice, rank FROM ("
        "SELECT o_orderkey, o_orderpriority, o_totalprice, "
        "CAST(ROW_NUMBER() OVER (PARTITION BY o_orderpriority "
        "ORDER BY o_totalprice DESC, o_orderkey) AS BIGINT) AS rank "
        "FROM orders) WHERE rank <= 5"
    ),
    "event_value_quantiles": (
        "WITH v AS (SELECT event_type, CAST(ROUND(value * 100) AS BIGINT) AS cents FROM events), "
        "r AS (SELECT event_type, cents, "
        "ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY cents) - 1 AS rn, "
        "COUNT(*) OVER (PARTITION BY event_type) AS n FROM v) "
        "SELECT event_type, CAST(MAX(n) AS BIGINT) AS n, "
        "CAST(MAX(CASE WHEN rn = (n - 1) // 2 THEN cents END) AS BIGINT) AS median_cents, "
        "CAST(MAX(CASE WHEN rn = CAST(floor(0.95 * (n - 1)) AS BIGINT) THEN cents END) AS BIGINT) "
        "AS p95_cents FROM r GROUP BY event_type"
    ),
    "unnest_roundtrip": (
        "SELECT l_orderkey, l_linenumber FROM lineitem"
    ),
    "normalize_text": (
        "SELECT doc_id, trim(regexp_replace(lower(text), '\\s+', ' ', 'g')) AS norm_text "
        "FROM documents"
    ),
    "nested_order_lines": (
        "SELECT l_orderkey AS orderkey, CAST(COUNT(*) AS BIGINT) AS n_lines, "
        "MIN(l_linenumber) AS first_linenumber, "
        "CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_cents "
        "FROM lineitem GROUP BY l_orderkey"
    ),
    "money_dual_eq": (
        "WITH m AS (SELECT o_orderkey AS orderkey, "
        "CAST(o_totalprice AS DECIMAL(18,2)) AS led, "
        "CAST(CAST(o_totalprice AS DECIMAL(18,2)) AS DECIMAL(19,4)) "
        "+ CASE WHEN o_orderkey % 7 = 0 THEN CAST(0.0001 AS DECIMAL(5,4)) ELSE CAST(0 AS DECIMAL(5,4)) END AS wire, "
        "CAST(CASE WHEN o_orderkey % 2 = 0 THEN 4 ELSE 2 END AS INTEGER) AS wire_scale "
        "FROM orders) "
        "SELECT orderkey, CAST(led AS VARCHAR) AS amt_ledger, "
        "CAST(CAST(wire AS DECIMAL(19,4)) AS VARCHAR) AS amt_wire, wire_scale, "
        "CASE WHEN led = wire AND wire_scale = 2 THEN 'MATCHED_STRICT' "
        "WHEN led = wire THEN 'MATCHED_CMP' ELSE 'VALUE_DIFF' END AS status FROM m"
    ),
    "money_rollup": (
        "WITH m AS (SELECT o_orderkey AS orderkey, "
        "CAST(o_totalprice AS DECIMAL(18,2)) AS led, "
        "CAST(CAST(o_totalprice AS DECIMAL(18,2)) AS DECIMAL(19,4)) "
        "+ CASE WHEN o_orderkey % 7 = 0 THEN CAST(0.0001 AS DECIMAL(5,4)) ELSE CAST(0 AS DECIMAL(5,4)) END AS wire, "
        "CASE WHEN o_orderkey % 2 = 0 THEN 4 ELSE 2 END AS wire_scale "
        "FROM orders) "
        "SELECT status, CAST(SUM(wire_e4) AS BIGINT) AS sum_wire_e4, "
        "CAST(COUNT(*) AS BIGINT) AS n FROM ("
        "SELECT CASE WHEN led = wire AND wire_scale = 2 THEN 'MATCHED_STRICT' "
        "WHEN led = wire THEN 'MATCHED_CMP' ELSE 'VALUE_DIFF' END AS status, "
        "CAST(wire * 10000 AS BIGINT) AS wire_e4 FROM m) GROUP BY status"
    ),
    "embdup_pairs": (
        "WITH planted AS (SELECT vec_id + 1000000 AS vec_id, "
        "list_transform(embedding, x -> x * 2.0) AS embedding "
        "FROM embeddings WHERE vec_id % 37 = 0), "
        "e AS (SELECT vec_id, embedding FROM embeddings UNION ALL SELECT * FROM planted) "
        "SELECT a.vec_id AS id_a, b.vec_id AS id_b FROM e a JOIN e b ON a.vec_id < b.vec_id "
        "WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.99"
        # threshold sits in a wide margin: planted clones have cosine 1,
        # the raw table's max pairwise cosine is ~0.51 — no float-boundary
        # fragility between numpy and DuckDB
    ),
    "salted_join_events": (
        "SELECT e.user_id, e.event_id, c.c_mktsegment FROM events e "
        "JOIN customer c ON e.user_id = c.c_custkey"
    ),
    "chunk_docs": (
        "SELECT doc_id, CAST(i AS BIGINT) AS chunk_start, "
        "substr(text, i, 120) AS chunk_text "
        "FROM documents, UNNEST(generate_series(1, len(text), 100)) AS t(i)"
    ),
    "bigram_counts": (
        # engine tokenization: lowercase, split on whitespace runs,
        # empty tokens dropped BEFORE pairing (so pairs can span a
        # doc's leading/trailing whitespace but never cross docs)
        "SELECT bigram, CAST(COUNT(*) AS BIGINT) AS n FROM ("
        "SELECT w[i] || ' ' || w[i+1] AS bigram FROM ("
        "SELECT list_filter(regexp_split_to_array(lower(text), '\\s+'), "
        "x -> x <> '') AS w FROM documents), "
        "UNNEST(generate_series(1, len(w)-1)) AS t(i)) "
        "GROUP BY bigram ORDER BY n DESC, bigram LIMIT 20"
    ),
    "semi_join_lineitem": (
        "SELECT l_orderkey, l_linenumber FROM lineitem WHERE l_orderkey IN "
        "(SELECT o_orderkey FROM orders WHERE o_totalprice > 200000)"
    ),
    "ntile_events": (
        "SELECT user_id, event_id, NTILE(4) OVER ("
        "PARTITION BY user_id ORDER BY ts, event_id) AS quartile FROM events"
    ),
    "top_terms_per_doc": (
        "SELECT doc_id, term, CAST(c AS BIGINT) AS c, CAST(rn AS BIGINT) AS rank "
        "FROM (SELECT doc_id, term, c, ROW_NUMBER() OVER ("
        "PARTITION BY doc_id ORDER BY c DESC, term) AS rn "
        "FROM (SELECT term, doc_id, COUNT(*) AS c FROM ("
        "SELECT doc_id, unnest(regexp_split_to_array(lower(text), '\\s+')) AS term "
        "FROM documents) WHERE term <> '' GROUP BY term, doc_id)) WHERE rn <= 3"
    ),
    "repetition_docs": (
        "WITH wc AS (SELECT doc_id, w, COUNT(*) AS c FROM "
        "(SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents) "
        "GROUP BY doc_id, w) "
        "SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_words, "
        "CAST(COUNT(*) AS BIGINT) AS n_distinct_words, "
        "CAST(MAX(c) AS BIGINT) AS top_word_count FROM wc GROUP BY doc_id"
    ),
    "decontam_docs": (
        "WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents), "
        "g AS (SELECT doc_id, array_to_string(ws[i:i+3], ' ') AS gram "
        "FROM w, UNNEST(generate_series(1, len(ws)-3)) AS t(i) WHERE len(ws) >= 4), "
        "b AS (SELECT DISTINCT gram FROM g WHERE doc_id % 97 = 0), "
        "c AS (SELECT DISTINCT doc_id, gram FROM g WHERE doc_id % 97 <> 0) "
        "SELECT d.doc_id, CAST(COALESCE(h.cnt, 0) AS BIGINT) AS n_contam_grams "
        "FROM (SELECT doc_id FROM documents WHERE doc_id % 97 <> 0) d "
        "LEFT JOIN (SELECT c.doc_id, COUNT(*) AS cnt FROM c JOIN b USING (gram) "
        "GROUP BY c.doc_id) h ON d.doc_id = h.doc_id"
    ),
    "heavy_hitters_events": (
        # capacity (32) > distinct event types: the MG sketch is exact
        "SELECT event_type AS item, CAST(COUNT(*) AS BIGINT) AS n "
        "FROM events GROUP BY event_type"
    ),
    "orders_above_cust_avg": (
        "SELECT o.o_orderkey, o.o_custkey, "
        "CAST(ROUND(o.o_totalprice * 100) AS BIGINT) AS price_c "
        "FROM orders o JOIN (SELECT o_custkey AS ck, AVG(o_totalprice) AS av "
        "FROM orders GROUP BY o_custkey) a ON o.o_custkey = a.ck "
        "WHERE o.o_totalprice > 1.2 * a.av"
    ),
    "json_extract_props": (
        "SELECT CAST(json_extract_string(props, '$.k') AS BIGINT) AS k, "
        "CAST(COUNT(*) AS BIGINT) AS n FROM events GROUP BY 1"
    ),
    "bloom_semi_orders": (
        "SELECT o_orderkey, o_custkey FROM orders WHERE o_custkey IN "
        "(SELECT c_custkey FROM customer WHERE c_nationkey < 5)"
    ),
    "scd2_user_state": (
        "WITH o AS (SELECT user_id, ts, event_id, event_type, "
        "LAG(event_type) OVER w AS prev, ROW_NUMBER() OVER w AS rn "
        "FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)), "
        "c AS (SELECT user_id, ts, event_id, event_type FROM o "
        "WHERE rn = 1 OR prev IS DISTINCT FROM event_type) "
        "SELECT user_id, event_type, ts AS valid_from, "
        "LEAD(ts) OVER w2 AS valid_to, "
        "CAST(ROW_NUMBER() OVER w2 AS BIGINT) AS version, "
        "CAST(CASE WHEN LEAD(ts) OVER w2 IS NULL THEN 1 ELSE 0 END AS BIGINT) AS is_current "
        "FROM c WINDOW w2 AS (PARTITION BY user_id ORDER BY ts, event_id)"
    ),
    "event_transitions": (
        "WITH o AS (SELECT event_type, "
        "LAG(event_type) OVER w AS prev, ROW_NUMBER() OVER w AS rn "
        "FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)) "
        "SELECT prev AS src, event_type AS dst, CAST(COUNT(*) AS BIGINT) AS n "
        "FROM o WHERE rn > 1 GROUP BY prev, event_type"
    ),
    "anomaly_events": (
        "WITH c AS (SELECT event_id, user_id, "
        "CAST(ROUND(value * 100) AS BIGINT) AS cents "
        "FROM events WHERE value IS NOT NULL), "
        "w AS (SELECT event_id, user_id, cents, "
        "CAST(COUNT(*) OVER p AS BIGINT) AS n, "
        "CAST(SUM(cents) OVER p AS BIGINT) AS s, "
        "CAST(SUM(cents * cents) OVER p AS BIGINT) AS q "
        "FROM c WINDOW p AS (PARTITION BY user_id)) "
        "SELECT event_id, user_id, cents, "
        "CAST(CASE WHEN n >= 2 AND (n * cents - s) * (n * cents - s) "
        "> 9 * (n * q - s * s) THEN 1 ELSE 0 END AS BIGINT) AS is_outlier FROM w"
    ),
    "funnel_events": (
        "WITH e AS (SELECT user_id, ts, event_type FROM events WHERE user_id IS NOT NULL), "
        "s1 AS (SELECT user_id, MIN(ts) AS t FROM e WHERE event_type = 'view' GROUP BY user_id), "
        "s2 AS (SELECT e.user_id, MIN(e.ts) AS t FROM e JOIN s1 ON e.user_id = s1.user_id "
        "AND e.ts >= s1.t WHERE e.event_type = 'click' GROUP BY e.user_id), "
        "s3 AS (SELECT e.user_id, MIN(e.ts) AS t FROM e JOIN s2 ON e.user_id = s2.user_id "
        "AND e.ts >= s2.t WHERE e.event_type = 'purchase' GROUP BY e.user_id) "
        "SELECT '1:view' AS step, CAST(COUNT(*) AS BIGINT) AS n_users FROM s1 "
        "UNION ALL SELECT '2:click', CAST(COUNT(*) AS BIGINT) FROM s2 "
        "UNION ALL SELECT '3:purchase', CAST(COUNT(*) AS BIGINT) FROM s3"
    ),
    "cohort_retention": (
        "WITH e2 AS (SELECT user_id, CAST(date_trunc('day', ts) AS TIMESTAMP) AS d "
        "FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL), "
        "f AS (SELECT user_id, MIN(d) AS d0 FROM e2 GROUP BY user_id), "
        "a AS (SELECT DISTINCT e2.user_id, f.d0, e2.d FROM e2 JOIN f ON e2.user_id = f.user_id) "
        "SELECT d0 AS cohort_day, CAST(datediff('day', d0, d) AS BIGINT) AS days_since, "
        "CAST(COUNT(*) AS BIGINT) AS n_users FROM a GROUP BY 1, 2"
    ),
    "fk_integrity": (
        "SELECT 'lineitem->orders' AS fk, CAST(COUNT(*) AS BIGINT) AS orphans "
        "FROM lineitem l WHERE NOT EXISTS "
        "(SELECT 1 FROM orders o WHERE o.o_orderkey = l.l_orderkey) "
        "UNION ALL SELECT 'orders->customer', CAST(COUNT(*) AS BIGINT) "
        "FROM orders o WHERE NOT EXISTS "
        "(SELECT 1 FROM customer c WHERE c.c_custkey = o.o_custkey) "
        "UNION ALL SELECT 'customer->nation', CAST(COUNT(*) AS BIGINT) "
        "FROM customer c WHERE NOT EXISTS "
        "(SELECT 1 FROM nation n WHERE n.n_nationkey = c.c_nationkey) "
        "UNION ALL SELECT 'supplier->nation', CAST(COUNT(*) AS BIGINT) "
        "FROM supplier s WHERE NOT EXISTS "
        "(SELECT 1 FROM nation n WHERE n.n_nationkey = s.s_nationkey) "
        "UNION ALL SELECT 'nation->region', CAST(COUNT(*) AS BIGINT) "
        "FROM nation n WHERE NOT EXISTS "
        "(SELECT 1 FROM region r WHERE r.r_regionkey = n.n_regionkey)"
    ),
    # rows-only (non-SQL-expressible or float-boundary-fragile):
    # minhash_clusters, simhash_docs, ngram_jaccard_pairs,
    # ann_variants, media_pipeline, hll_users_by_type, dedup_plan_docs,
    # incremental_dedup_docs, pagerank_docs, pack_docs,
    # approx_quantiles_events, fingerprint_docs, embdup_clusters,
    # compression_ratio_docs (recall-traded approximations / set or
    # iterative semantics; each carries a falsifiable recall/property/
    # invariant unit test instead)
    "envelope_replay": (
        "WITH ev AS (SELECT event_id AS seq, "
        "CAST(user_id % 7 AS VARCHAR) AS repo, "
        "CAST(event_id % 211 AS VARCHAR) AS path, "
        "event_type AS content, "
        "CASE WHEN event_id % 2 = 1 AND user_id % 13 = 2 THEN 'D' "
        "WHEN event_id % 2 = 1 THEN 'U' ELSE 'I' END AS op, "
        "CASE WHEN event_id % 2 = 1 AND user_id % 13 <> 2 "
        "THEN user_id ELSE NULL END AS size_bytes "
        "FROM events WHERE user_id IS NOT NULL AND event_type IS NOT NULL), "
        "w AS (SELECT *, ROW_NUMBER() OVER "
        "(PARTITION BY repo, path ORDER BY seq % 2 DESC, seq DESC) AS rn FROM ev) "
        "SELECT repo, path, content, "
        "CAST(COALESCE(size_bytes, -1) AS BIGINT) AS size_bytes "
        "FROM w WHERE rn = 1 AND op <> 'D'"
    ),
}


def _langid_oracle_sql() -> str:
    """The LangId heuristic (functions/text.py langid) as ANSI SQL:
    score per language = how many of its stopwords appear among the
    \\w+ tokens of the lowercased text; highest score wins with ties
    broken by sorted language order; all-zero scores -> 'und'. The
    driver documents are pure ASCII, so RE2's ASCII \\w matches
    Python's unicode \\w tokenization."""
    from ..functions.text import STOPWORDS

    langs = sorted(STOPWORDS)  # de, en, es, fr — the engine's tie order
    scores = ", ".join(
        "("
        + " + ".join(
            f"CAST(list_contains(t, '{w}') AS INT)" for w in sorted(STOPWORDS[lang])
        )
        + f") AS s_{lang}"
        for lang in langs
    )
    # first language (in tie order) whose score equals the positive max
    case = "CASE WHEN GREATEST(" + ", ".join(f"s_{l}" for l in langs) + ") = 0 THEN 'und' "
    for i, lang in enumerate(langs):
        rest = langs[i + 1 :]
        if rest:
            cond = " AND ".join(f"s_{lang} >= s_{r}" for r in rest)
            case += f"WHEN {cond} THEN '{lang}' "
        else:
            case += f"ELSE '{lang}' END"
    return (
        "WITH toks AS (SELECT doc_id, regexp_extract_all(lower(text), '\\w+') AS t "
        "FROM documents), s AS (SELECT doc_id, " + scores + " FROM toks) "
        "SELECT doc_id, " + case + " AS pred_lang FROM s"
    )


ORACLE_SQL["langid_docs"] = _langid_oracle_sql()

ORACLE_SQL["setops_users"] = (
    "SELECT 'union' AS op, user_id FROM "
    "(SELECT user_id FROM events UNION SELECT o_custkey AS user_id FROM orders) "
    "UNION ALL SELECT 'intersect' AS op, c_custkey AS user_id FROM "
    "(SELECT c_custkey FROM customer INTERSECT SELECT user_id FROM events) "
    "UNION ALL SELECT 'except' AS op, c_custkey AS user_id FROM "
    "(SELECT c_custkey FROM customer EXCEPT SELECT user_id FROM events)"
)

ORACLE_SQL["grouping_sets_lineitem"] = (
    "SELECT 'rollup' AS op, COALESCE(l_returnflag, 'ALL') AS l_returnflag, "
    "COALESCE(l_linestatus, 'ALL') AS l_linestatus, "
    "CAST(SUM(CAST(ROUND(l_quantity * 100) AS BIGINT)) AS BIGINT) AS sum_qty_c, "
    "CAST(COUNT(*) AS BIGINT) AS n "
    "FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus) "
    "UNION ALL "
    "SELECT 'cube' AS op, COALESCE(l_returnflag, 'ALL') AS l_returnflag, "
    "COALESCE(l_linestatus, 'ALL') AS l_linestatus, "
    "CAST(SUM(CAST(ROUND(l_quantity * 100) AS BIGINT)) AS BIGINT) AS sum_qty_c, "
    "CAST(COUNT(*) AS BIGINT) AS n "
    "FROM lineitem GROUP BY CUBE(l_returnflag, l_linestatus)"
)

ORACLE_SQL["asof_events"] = (
    "WITH p AS (SELECT user_id, ts, event_id, value FROM ("
    "SELECT user_id, ts, event_id, value, "
    "ROW_NUMBER() OVER (PARTITION BY user_id, ts ORDER BY event_id DESC) rn "
    "FROM events WHERE event_type = 'purchase') WHERE rn = 1), "
    "c AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'click') "
    "SELECT 'backward' AS direction, c.event_id, c.user_id, "
    "COALESCE(p.event_id, -1) AS matched_event_id, "
    "COALESCE(CAST(ROUND(p.value * 100) AS BIGINT), -1) AS matched_value_cents "
    "FROM c ASOF LEFT JOIN p ON c.user_id = p.user_id AND c.ts >= p.ts "
    "UNION ALL "
    "SELECT 'forward' AS direction, c.event_id, c.user_id, "
    "COALESCE(p.event_id, -1) AS matched_event_id, "
    "COALESCE(CAST(ROUND(p.value * 100) AS BIGINT), -1) AS matched_value_cents "
    "FROM c ASOF LEFT JOIN p ON c.user_id = p.user_id AND c.ts <= p.ts"
)

ORACLE_SQL["span_dedup_docs"] = (
    "WITH words AS (SELECT doc_id, unnest(string_split(text, ' ')) AS word, "
    "generate_subscripts(string_split(text, ' '), 1) AS ord "
    "FROM documents WHERE text IS NOT NULL), "
    "seg AS (SELECT doc_id, (ord - 1) // 20 AS seg_idx, "
    "string_agg(word, ' ' ORDER BY ord) AS seg "
    "FROM words GROUP BY doc_id, (ord - 1) // 20), "
    "dup AS (SELECT seg FROM seg GROUP BY seg HAVING COUNT(DISTINCT doc_id) > 1) "
    "SELECT s.doc_id, "
    "COALESCE(string_agg(s.seg, ' ' ORDER BY s.seg_idx) "
    "FILTER (WHERE s.seg NOT IN (SELECT seg FROM dup)), '') AS text, "
    "CAST(COUNT(*) AS BIGINT) AS n_spans, "
    "CAST(COUNT(*) FILTER (WHERE s.seg IN (SELECT seg FROM dup)) AS BIGINT) AS n_dropped "
    "FROM seg s GROUP BY s.doc_id"
)

ORACLE_SQL["rank_fns_orders"] = (
    "SELECT o_orderkey, o_orderpriority, "
    "CAST(RANK() OVER w AS BIGINT) AS rnk, "
    "CAST(DENSE_RANK() OVER w AS BIGINT) AS drnk, "
    "CUME_DIST() OVER w AS cd, PERCENT_RANK() OVER w AS pr "
    "FROM (SELECT o_orderkey, o_orderpriority, "
    "CAST(FLOOR(o_totalprice) AS BIGINT) AS tp FROM orders) "
    "WINDOW w AS (PARTITION BY o_orderpriority ORDER BY tp)"
)

ORACLE_SQL["time_windows_events"] = (
    "SELECT 'tumbling' AS kind, event_type, date_trunc('hour', ts) AS window_start, "
    "COUNT(*) AS n, CAST(ROUND(SUM(value) * 100) AS BIGINT) AS sum_value_cents "
    "FROM events GROUP BY event_type, date_trunc('hour', ts) "
    "UNION ALL "
    "SELECT 'hopping' AS kind, event_type, ws AS window_start, COUNT(*) AS n, "
    "CAST(ROUND(SUM(value) * 100) AS BIGINT) AS sum_value_cents FROM "
    "(SELECT event_type, value, time_bucket(INTERVAL '30 minutes', ts) AS ws "
    "FROM events UNION ALL SELECT event_type, value, "
    "time_bucket(INTERVAL '30 minutes', ts) - INTERVAL '30 minutes' FROM events) "
    "GROUP BY event_type, ws"
)

ORACLE_SQL["samples_tagged"] = (
    "SELECT 'systematic' AS method, o_orderkey AS id FROM orders "
    "WHERE o_orderkey % 20 = 3 "
    "UNION ALL SELECT 'stratified' AS method, event_id AS id FROM "
    "(SELECT event_id, ROW_NUMBER() OVER (PARTITION BY event_type "
    "ORDER BY sha256(event_type || '|' || CAST(event_id AS VARCHAR)), event_id) AS rn "
    "FROM events) WHERE rn <= 20 "
    "UNION ALL SELECT 'weighted' AS method, doc_id AS id FROM documents "
    "WHERE (doc_id * 2654435761) % 4294967296 % 1000 < LEAST(999, n_chars // 2)"
)

ORACLE_SQL["grouped_means_lineitem"] = (
    "WITH g AS (SELECT l_returnflag, CAST(COUNT(*) AS BIGINT) AS n_geo, "
    "CAST(ROUND(EXP(AVG(LN(l_extendedprice))) * 1000000) AS BIGINT) AS geomean_e6 "
    "FROM lineitem WHERE l_extendedprice IS NOT NULL AND l_extendedprice > 0 "
    "GROUP BY l_returnflag), "
    "w AS (SELECT l_returnflag, CAST(COUNT(*) AS BIGINT) AS n_w, "
    "CAST(SUM(CAST(ROUND(l_quantity * 100) AS BIGINT) * "
    "CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_wx_e4, "
    "CAST(SUM(CAST(ROUND(l_quantity * 100) AS BIGINT)) AS BIGINT) AS sum_w_e2 "
    "FROM lineitem WHERE l_quantity IS NOT NULL AND l_extendedprice IS NOT NULL "
    "GROUP BY l_returnflag) "
    "SELECT g.l_returnflag, g.n_geo, g.geomean_e6, w.n_w, w.sum_wx_e4, w.sum_w_e2 "
    "FROM g JOIN w ON g.l_returnflag = w.l_returnflag"
)

ORACLE_SQL["stats_regr_lineitem"] = (
    "SELECT l_returnflag, CAST(COUNT(*) AS BIGINT) AS n, "
    "CAST(ROUND(AVG(l_extendedprice) * 100) AS BIGINT) AS mean_price_cents, "
    "CAST(ROUND(STDDEV_SAMP(l_extendedprice) * 100) AS BIGINT) AS std_price_e2, "
    "CAST(ROUND(CORR(l_extendedprice, l_quantity) * 1000000) AS BIGINT) AS corr_e6, "
    "CAST(ROUND(REGR_SLOPE(l_extendedprice, l_quantity) * 1000000) AS BIGINT) AS slope_e6, "
    "CAST(ROUND(REGR_INTERCEPT(l_extendedprice, l_quantity) * 100) AS BIGINT) AS icept_cents "
    "FROM lineitem WHERE l_quantity IS NOT NULL AND l_extendedprice IS NOT NULL "
    "GROUP BY l_returnflag"
)

# The replayed lake state after the two evolving epochs == LWW winner
# per (repo, path) over the derived event stream; epoch-0 winners (even
# event_id) carry no size_bytes (-1 sentinel keeps int64 on both sides).
ORACLE_SQL["schema_evolution_replay"] = (
    "WITH ev AS ("
    "SELECT event_id AS seq, CAST(user_id % 7 AS VARCHAR) AS repo, "
    "CAST(event_id % 211 AS VARCHAR) AS path, event_type AS content, "
    "CASE WHEN event_id % 2 = 1 THEN user_id END AS size_bytes "
    "FROM events WHERE user_id IS NOT NULL AND event_type IS NOT NULL"
    "), w AS ("
    "SELECT *, ROW_NUMBER() OVER (PARTITION BY repo, path "
    "ORDER BY seq % 2 DESC, seq DESC) AS rn "  # epoch first: LWW is (epoch, seq)
    "FROM ev) "
    "SELECT repo, path, content, sha256(content) AS content_sha256, "
    "COALESCE(size_bytes, -1) AS size_bytes, "
    "size_bytes IS NOT NULL AS evolved "
    "FROM w WHERE rn = 1"
)

# Pruned keyed lookup: the Ray side reads ONLY the candidate bucket
# chains for the probed keys (lake_lookup over the layout fence); the
# oracle recomputes the full LWW winner state and applies the same key
# predicate — a hash match certifies pruned read == full-state filter.
ORACLE_SQL["lake_keyed_lookup"] = (
    "WITH ev AS ("
    "SELECT event_id AS seq, CAST(user_id % 7 AS VARCHAR) AS repo, "
    "CAST(event_id % 211 AS VARCHAR) AS path, event_type AS content "
    "FROM events WHERE user_id IS NOT NULL AND event_type IS NOT NULL"
    "), w AS ("
    "SELECT *, ROW_NUMBER() OVER (PARTITION BY repo, path "
    "ORDER BY seq % 2 DESC, seq DESC) AS rn "  # epoch first: LWW is (epoch, seq)
    "FROM ev) "
    "SELECT repo, path, content, sha256(content) AS content_sha256 "
    "FROM w WHERE rn = 1 AND (repo = '3' "
    "OR (repo = '1' AND path = '7') OR (repo = '5' AND path = '100'))"
)

# Key history: the oracle re-derives the 3-epoch I/U/D binlog from
# events (same construction as _ivm_lake) and picks each (key, epoch)'s
# LWW winner — exactly the row a delta entry stores — certifying the
# engine's bucket-pruned per-entry walk: attribution epoch, op, payload.
ORACLE_SQL["key_history_lake"] = (
    "WITH ev AS ("
    "SELECT event_id, user_id, event_type FROM events "
    "WHERE user_id IS NOT NULL AND event_type IS NOT NULL"
    "), hi AS (SELECT CAST(MAX(event_id)+1 AS BIGINT) AS hi FROM ev"
    "), b AS ("
    "SELECT CAST(event_id AS BIGINT) AS seq, "
    "CAST((event_id*3)//hi.hi AS BIGINT)+1 AS epoch, "
    "CASE WHEN (event_id*3)//hi.hi = 2 AND user_id%11 = 3 "
    "THEN 'D' ELSE 'I' END AS op, "
    "CAST(user_id%5 AS VARCHAR) AS repo, "
    "CAST(event_id % GREATEST(hi.hi//2, 1) AS VARCHAR) AS path, "
    "event_type AS content FROM ev, hi"
    "), w AS ("
    "SELECT *, ROW_NUMBER() OVER (PARTITION BY repo, path, epoch "
    "ORDER BY seq DESC) AS rn FROM b) "
    "SELECT epoch, op, repo, path, content FROM w "
    "WHERE rn = 1 AND path IN "
    "('1','2','3','4','5','6','7','8','9','10','11','12','13','14',"
    "'15','16','17','18','19','20')"
)

# Trigram LM quality: the oracle enumerates the IDENTICAL character
# trigrams (substr over generate_series positions) and recomputes the
# same add-1-smoothed mean NLL; e4 rounding absorbs the float-sum-order
# difference between numpy and DuckDB (the BM25 contract).
ORACLE_SQL["lm_quality_docs"] = (
    "WITH docs AS (SELECT doc_id, text FROM documents "
    "WHERE text IS NOT NULL AND length(text) >= 3"
    "), tri AS ("
    "SELECT doc_id, substr(text, CAST(i AS INT), 3) AS t3, "
    "substr(text, CAST(i AS INT), 2) AS p2 "
    "FROM docs, LATERAL (SELECT unnest(generate_series(1, length(text)-2)) AS i) g"
    "), c3 AS (SELECT t3, CAST(COUNT(*) AS DOUBLE) AS n3 FROM tri GROUP BY t3"
    "), c2 AS (SELECT p2, CAST(COUNT(*) AS DOUBLE) AS n2 FROM tri GROUP BY p2"
    "), sc AS ("
    "SELECT tri.doc_id, AVG(-ln((n3 + 1) / (n2 + 256))) AS nll "
    "FROM tri JOIN c3 USING (t3) JOIN c2 USING (p2) GROUP BY tri.doc_id) "
    "SELECT doc_id, CAST(ROUND(nll * 10000) AS BIGINT) AS nll_e4 FROM sc"
)

# Txn snapshot join: both lakes derive from the SAME keyed event stream
# (table b = 'B:'-prefixed content), so the oracle recomputes one final
# LWW state (tombstones excluded) and aggregates both length sums from
# it — certifying the multiplexed atomic ingest, the coordinator's
# pinned cross-table cut, and the distributed hash join in one hash.
ORACLE_SQL["txn_snapshot_join"] = (
    "WITH ev AS ("
    "SELECT event_id, user_id, event_type FROM events "
    "WHERE user_id IS NOT NULL AND event_type IS NOT NULL"
    "), hi AS (SELECT MAX(event_id) + 1 AS m FROM ev"
    "), keyed AS ("
    "SELECT CAST(user_id % 5 AS VARCHAR) AS repo, "
    "CAST(event_id % GREATEST(m // 2, 1) AS VARCHAR) AS path, "
    "event_type AS content, event_id AS seq, "
    "CASE WHEN (event_id * 3) // m = 2 AND user_id % 11 = 3 "
    "THEN 'D' ELSE 'I' END AS op "
    "FROM ev, hi"
    "), w AS ("
    "SELECT repo, path, content, op FROM ("
    "SELECT *, ROW_NUMBER() OVER (PARTITION BY repo, path "
    "ORDER BY seq DESC) AS rn FROM keyed) WHERE rn = 1"
    ") SELECT repo, COUNT(*) AS n_keys, "
    "CAST(SUM(length(content)) AS BIGINT) AS len_a, "
    "CAST(SUM(length(content) + 2) AS BIGINT) AS len_b "
    "FROM w WHERE op = 'I' GROUP BY repo"
)

# Schema history: the evolving fixture's construction is deterministic
# and scale-invariant (epoch 1 = base payload columns, epoch 2 adds
# size_bytes), so the oracle IS that construction as a constant table —
# the engine side still has to walk the log's footers and attribute
# every column to its first epoch with the right Arrow type.
ORACLE_SQL["schema_history_lake"] = (
    "SELECT * FROM (VALUES "
    "(CAST(1 AS BIGINT), 'content', 'string'), "
    "(CAST(1 AS BIGINT), 'content_sha256', 'string'), "
    "(CAST(1 AS BIGINT), 'path', 'string'), "
    "(CAST(1 AS BIGINT), 'repo', 'string'), "
    "(CAST(2 AS BIGINT), 'size_bytes', 'int64')"
    ") AS t(epoch, \"column\", dtype)"
)

# Watermark windows: the oracle replays the identical epoch-granularity
# watermark recursion as window functions — per-epoch max event time,
# running max over STRICTLY EARLIER epochs minus lateness = the
# watermark each row arrives under; a row is late iff its window end
# precedes that. All µs/cents integer arithmetic: exact hash match.
ORACLE_SQL["watermark_window_events"] = (
    "WITH ev AS ("
    "SELECT event_id, epoch_us(ts) - CASE WHEN user_id % 5 = 4 "
    "THEN 86400000000 ELSE 0 END AS ts_us, "
    "CAST(ROUND(COALESCE(value, 0) * 100) AS BIGINT) AS cents "
    "FROM events WHERE ts IS NOT NULL AND user_id IS NOT NULL"
    # m from the RAW table, matching the engine's unfiltered
    # max("event_id") — deriving it post-filter would shift every
    # epoch boundary on a fixture whose max-event_id row has null
    # ts/user_id
    "), m AS (SELECT MAX(event_id) + 1 AS m FROM events"
    "), e2 AS ("
    "SELECT (event_id * 4) // m AS epoch, ts_us, cents, "
    "(ts_us // 14400000000) * 14400000000 AS ws_us FROM ev, m"
    "), wm AS (SELECT epoch, MAX(ts_us) AS mx FROM e2 GROUP BY epoch"
    "), wmb AS ("
    "SELECT epoch, MAX(mx) OVER (ORDER BY epoch "
    "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) - 3600000000 "
    "AS wm_before FROM wm"
    "), fin AS (SELECT MAX(mx) - 3600000000 AS wm_final FROM wm"
    "), tagged AS ("
    "SELECT e2.*, (wmb.wm_before IS NOT NULL AND "
    "e2.ws_us + 14400000000 <= wmb.wm_before) AS late "
    "FROM e2 JOIN wmb USING (epoch)) "
    "SELECT make_timestamp(ws_us) AS window_start, "
    "CAST(SUM(CASE WHEN late THEN 0 ELSE 1 END) AS BIGINT) AS n, "
    "CAST(SUM(CASE WHEN late THEN 1 ELSE 0 END) AS BIGINT) AS n_late, "
    "CAST(SUM(CASE WHEN late THEN 0 ELSE cents END) AS BIGINT) AS sum_cents, "
    "ws_us + 14400000000 <= (SELECT wm_final FROM fin) AS closed "
    "FROM tagged GROUP BY ws_us"
)

# IVM certification: the Ray side maintains the epoch-1 aggregate
# forward via changelog deltas; the oracle recomputes the FINAL lake
# state directly (max-seq winner per key — seq order == epoch order by
# construction — minus 'D' tombstone winners) and aggregates it. A
# match proves base + signed deltas == recompute, including U-value
# moves and groups deleted down to zero.
ORACLE_SQL["ivm_repo_stats"] = (
    "WITH ev AS ("
    "SELECT event_id, user_id, event_type FROM events "
    "WHERE user_id IS NOT NULL AND event_type IS NOT NULL"
    "), hi AS (SELECT MAX(event_id) + 1 AS m FROM ev"
    "), keyed AS ("
    "SELECT CAST(user_id % 5 AS VARCHAR) AS repo, "
    "CAST(event_id % GREATEST(m // 2, 1) AS VARCHAR) AS path, "
    "event_type AS content, event_id AS seq, "
    "CASE WHEN (event_id * 3) // m = 2 AND user_id % 11 = 3 "
    "THEN 'D' ELSE 'I' END AS op "
    "FROM ev, hi"
    "), w AS ("
    "SELECT repo, path, content, op FROM ("
    "SELECT *, ROW_NUMBER() OVER (PARTITION BY repo, path "
    "ORDER BY seq DESC) AS rn FROM keyed) WHERE rn = 1"
    ") SELECT repo, COUNT(*) AS n_paths, "
    "CAST(SUM(length(content)) AS BIGINT) AS content_len "
    "FROM w WHERE op = 'I' GROUP BY repo"
)

# Replication certification: the Ray side is the REPLICA's state after
# snapshot + delta feed segments (spanning the epoch-2 ``size_hint``
# schema evolution) applied through replicate_feed into a different
# bucket layout; the oracle recomputes the SOURCE's LWW winners straight
# from the shared derivation. A match certifies export fidelity, replay
# application, evolution handling and layout independence in one hash.
ORACLE_SQL["replica_state"] = (
    "WITH ev AS ("
    "SELECT event_id, user_id, event_type FROM events "
    "WHERE user_id IS NOT NULL AND event_type IS NOT NULL"
    "), hi AS (SELECT MAX(event_id) + 1 AS m FROM ev"
    "), keyed AS ("
    "SELECT CAST(user_id % 5 AS VARCHAR) AS repo, "
    "CAST(event_id % GREATEST(m // 2, 1) AS VARCHAR) AS path, "
    "event_type AS content, event_id AS seq, user_id, "
    "(event_id * 3) // m AS ep, "
    "CASE WHEN (event_id * 3) // m = 2 AND user_id % 11 = 3 "
    "THEN 'D' ELSE 'I' END AS op "
    "FROM ev, hi"
    "), w AS ("
    "SELECT * FROM (SELECT *, ROW_NUMBER() OVER ("
    "PARTITION BY repo, path ORDER BY seq DESC) AS rn FROM keyed) "
    "WHERE rn = 1"
    ") SELECT repo, path, content, sha256(content) AS content_sha256, "
    "CAST(CASE WHEN ep = 2 THEN user_id ELSE -1 END AS BIGINT) AS size_hint "
    "FROM w WHERE op = 'I'"
)

# EWMA recursion e_i = 0.3*v_i + 0.7*e_{i-1} per user, ordered by
# (ts, event_id) — expressed exactly via a recursive CTE stepping one
# row-number per iteration (depth = max events/user; bounded at driver
# scale). IEEE float ops match pandas' adjust=False ewm bit-for-bit
# (same recursion, commutative add), so the e6 contract hash-matches.
ORACLE_SQL["ewma_events"] = (
    "WITH RECURSIVE ordered AS ("
    "SELECT event_id, user_id, value, "
    "ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn "
    "FROM events WHERE user_id IS NOT NULL AND value IS NOT NULL"
    "), rec AS ("
    "SELECT event_id, user_id, rn, CAST(value AS DOUBLE) AS e "
    "FROM ordered WHERE rn = 1 "
    "UNION ALL "
    "SELECT o.event_id, o.user_id, o.rn, 0.3 * o.value + 0.7 * r.e "
    "FROM ordered o JOIN rec r ON o.user_id = r.user_id AND o.rn = r.rn + 1"
    ") SELECT event_id, CAST(user_id AS BIGINT) AS user_id, "
    "CAST(ROUND(e * 1e6) AS BIGINT) AS ewma_e6 FROM rec"
)


# Connected components as reachability closure: UNION-dedup'd recursive
# walk labels every node with every label that reaches it; min() per
# node = the component representative. Walk size is O(sum comp_size^2)
# — chain components here are tiny (<= a handful of orders), so the
# closure is cheap at oracle scale.
ORACLE_SQL["cc_orders"] = (
    # null semantics mirror the engine exactly: rows missing customer
    # or date anchor no edge (SQL PARTITION BY would otherwise group
    # all null customers into ONE chainable partition) but stay in the
    # graph as singleton nodes
    "WITH RECURSIVE seq AS ("
    "SELECT o_orderkey, o_custkey, o_orderdate, "
    "lag(o_orderkey) OVER w AS prev_key, "
    "lag(o_orderdate) OVER w AS prev_date "
    "FROM orders WHERE o_orderkey IS NOT NULL "
    "AND o_custkey IS NOT NULL AND o_orderdate IS NOT NULL "
    "WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey)"
    "), edges AS ("
    "SELECT prev_key AS a, o_orderkey AS b FROM seq "
    "WHERE prev_key IS NOT NULL "
    "AND date_diff('day', prev_date::DATE, o_orderdate::DATE) <= 7"
    "), sym AS ("
    "SELECT a AS s, b AS d FROM edges "
    "UNION ALL SELECT b AS s, a AS d FROM edges"
    "), walk AS ("
    "SELECT o_orderkey AS node, o_orderkey AS label FROM orders "
    "WHERE o_orderkey IS NOT NULL "
    "UNION "
    "SELECT sym.d AS node, walk.label FROM walk "
    "JOIN sym ON sym.s = walk.node"
    ") SELECT node AS o_orderkey, min(label) AS component "
    "FROM walk GROUP BY node"
)

# Triangle counts: clique edges per (event_type, hour) co-activity
# group, three-way self-join closure (a<b<c generates each triangle
# once), participation counted per corner.
ORACLE_SQL["triangles_users"] = (
    "WITH g AS ("
    "SELECT DISTINCT event_type, date_trunc('hour', ts) AS h, user_id "
    "FROM events WHERE user_id IS NOT NULL "
    "AND ts IS NOT NULL AND event_type IS NOT NULL"
    "), edges AS ("
    "SELECT DISTINCT g1.user_id AS a, g2.user_id AS b "
    "FROM g g1 JOIN g g2 "
    "ON g1.event_type = g2.event_type AND g1.h = g2.h "
    "AND g1.user_id < g2.user_id"
    "), tri AS ("
    "SELECT e1.a, e1.b, e2.b AS c "
    "FROM edges e1 "
    "JOIN edges e2 ON e2.a = e1.b "
    "JOIN edges e3 ON e3.a = e1.a AND e3.b = e2.b"
    "), pern AS ("
    "SELECT a AS user_id FROM tri "
    "UNION ALL SELECT b AS user_id FROM tri "
    "UNION ALL SELECT c AS user_id FROM tri"
    ") SELECT u.user_id, count(p.user_id) AS n_triangles "
    "FROM (SELECT DISTINCT user_id FROM events "
    "WHERE user_id IS NOT NULL) u "
    "LEFT JOIN pern p USING (user_id) GROUP BY u.user_id"
)
