"""Reconciliation phase: replayed lake <-> reference snapshot, plus the
group-level rollup and the exact per-status count report.

Mirrors the reference's two output tables
(``dto/ReconciliationResultDTO.java:6-13``: ``transactionResults``
detail + ``batchResults`` rollup) and the A3 rollup priority cascade
(``service/ReconciliationService.java:194-201``):

    reference cascade                  ->  this engine (per repo)
    batches.isEmpty()   -> "ERROR"         no snapshot rows -> "ERROR"
    size() > 1          -> "LOTE           any DUP_RIGHT_* ordinal rows
                            DUPLICADO          -> "DUP_IN_RIGHT"
                            JPAT"
    any trx status != OK-> "TRANSACCIONES  any MISSING_*/VALUE_DIFF rows
                            CON ERROR"         -> "ROWS_WITH_ERRORS"
    amounts differ      -> "DIFERENCIA     (folds into VALUE_DIFF rows —
                            EN VALOR"       sha-equality makes the group
                                            aggregate check redundant)
    else                -> "OK"            else -> "OK"

The cascade ORDER is preserved bit-for-bit because the discrepancy
class counts depend on it (SURVEY.md §7 hard part 6); it is written
once, in ``rollup_from_partials``. There is one reconcile engine,
``_reconcile``: ``reconcile_incremental`` runs it on the lake's kept
state, ``reconcile_lake_vs_snapshot`` on a cleared one.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.reconcile import STATUS_DUP_PREFIX, STATUS_MATCHED, STATUS_MISSING_RIGHT

ROLLUP_ERROR = "ERROR"
ROLLUP_DUP = "DUP_IN_RIGHT"
ROLLUP_ROWS_WITH_ERRORS = "ROWS_WITH_ERRORS"
ROLLUP_OK = "OK"

#: the (part, repo, status, n) partial counts each cogroup task returns
_PARTIALS_SCHEMA = pa.schema(
    [("part", pa.int64()), ("repo", pa.string()), ("status", pa.string()), ("n", pa.int64())]
)


def status_counts(partials: pa.Table) -> pd.DataFrame:
    """Exact per-status counts from (…, status, n) partial-count rows —
    O(keys x statuses) of them, summed on the driver: the wide detail
    rows are counted where they are produced and never move."""
    red = partials.group_by("status").aggregate([("n", "sum")]).sort_by("status")
    return pd.DataFrame({
        "status": red["status"].to_pandas(),
        "n": red["n_sum"].to_pandas().astype("int64"),
    })


def _spool_bucketed(ds, spool_dir: str, columns: list[str]) -> dict[int, list[tuple]]:
    """Spool a (already bucket-tagged) Dataset to disk partitioned by
    bucket: one file per input block, one slice per bucket — the
    direct-write layout, so cogroup tasks later read exactly their
    bucket's row groups with no shuffle. Each file is named by its
    content (``snap-<digest>.parquet``, ``publish_parquet``), so
    spooling the same snapshot again leaves the same file set, and two
    blocks with equal rows share one file that both list. Returns
    part -> [(file, rgs element)], as a lake link addresses a slice."""
    from ..stages.merge import rg_spec
    from ..stages.writer import group_spans, publish_parquet

    os.makedirs(spool_dir, exist_ok=True)

    def spool(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({})
        t = batch.select([c for c in columns + ["bucket"] if c in batch.column_names])
        t = t.sort_by([("bucket", "ascending")])
        gb = t["bucket"].to_numpy(zero_copy_only=False).astype("int64")
        starts = np.concatenate([[0], np.flatnonzero(np.diff(gb)) + 1]).astype(np.int64)
        ends = np.append(starts[1:], len(gb))
        slices = [t.slice(int(s), int(e - s)) for s, e in zip(starts, ends)]
        fname = publish_parquet(spool_dir, slices, "snap")
        spans = group_spans(slices)
        return pa.table({
            "part": pa.array(gb[starts], pa.int64()),
            "file": pa.array([fname] * len(starts), pa.string()),
            "rg": pa.array([first for first, _ in spans], pa.int64()),
            "rg_count": pa.array([count for _, count in spans], pa.int64()),
        })

    rows = ds.map_batches(spool, batch_format="pyarrow", batch_size=None).take_all()
    out: dict[int, list[tuple]] = {}
    for r in rows:
        out.setdefault(int(r["part"]), []).append(
            (r["file"], rg_spec(int(r["rg"]), int(r["rg_count"])))
        )
    return out


def _make_cogroup_fn(spill: str, cols: list[str]):
    """Per-bucket body of the one reconcile engine (``_reconcile``,
    behind both the full and the incremental reconcile): read the
    bucket's lake chain + spooled snapshot row groups, reconcile them
    with the Arrow kernel, spill the wide detail rows task-side
    (deterministic per-part file name — a retry or an incremental
    recompute overwrites its own output idempotently), and return only
    tiny (part, repo, status, n) partial-count rows."""
    from ..stages.merge import read_chain, read_slice
    from ..stages.reconcile import reconcile_pair_pdf
    from ..stages.writer import publish_parquet

    def cogroup_part(item: dict) -> pa.Table:
        part = int(item["part"])
        lake = read_chain(item["chain"], columns=cols, part=part)
        snaps = [read_slice(f, spec, cols) for f, spec in item["snap"]]
        sides = [t for t in [lake, *snaps] if t is not None]
        name = f"detail-part{part:05d}.parquet"
        fname = os.path.join(spill, name)
        if not any(t.num_rows for t in sides):
            # a recomputed part may have become empty: drop its stale
            # detail spill instead of leaving ghost rows
            if os.path.exists(fname):
                os.remove(fname)
            return _PARTIALS_SCHEMA.empty_table()
        empty = sides[0].schema.empty_table()
        right = pa.concat_tables(snaps, promote_options="permissive") if snaps else empty
        det = reconcile_pair_pdf(
            lake if lake is not None else empty, right,
            ["repo", "path"], "content_sha256", attr_cols=["commit"],
        )
        publish_parquet(spill, [det], name=name)
        # Arrow's group_by keeps a null repo as its own group, so a
        # null-repo detail row counts too, as the detail spill holds it
        p = det.group_by(["repo", "status"]).aggregate([([], "count_all")])
        return pa.table({
            "part": pa.array([part] * p.num_rows, pa.int64()),
            "repo": p["repo"], "status": p["status"], "n": p["count_all"],
        }).cast(_PARTIALS_SCHEMA)

    return cogroup_part


def rollup_from_partials(partials: pa.Table, key: str):
    """The A3 cascade (reference priority order,
    ``ReconciliationService.java:194-201``), the one definition: a
    rollup Dataset per ``key`` from a table of (key, status, n)
    partial-count rows. The cascade's any()/all() terms are all sums of
    per-status counts, so only O(keys x statuses) tiny rows are
    aggregated, on the driver — the wide detail never moves."""
    import ray.data as rd

    s, n = partials["status"], partials["n"]
    zero = pa.scalar(0, pa.int64())
    red = pa.table({
        key: partials[key],
        "n_rows": n,
        "n_matched": pc.if_else(pc.equal(s, STATUS_MATCHED), n, zero),
        "n_dup": pc.if_else(pc.starts_with(s, STATUS_DUP_PREFIX), n, zero),
        "n_right": pc.if_else(pc.not_equal(s, STATUS_MISSING_RIGHT), n, zero),
    }).group_by(key).aggregate(
        [(c, "sum") for c in ("n_rows", "n_matched", "n_dup", "n_right")]
    ).sort_by(key)

    def label(cond, yes: str, no):
        return pc.if_else(cond, pa.scalar(yes, pa.string()), no)

    status = label(
        pc.equal(red["n_right_sum"], 0), ROLLUP_ERROR,
        label(
            pc.greater(red["n_dup_sum"], 0), ROLLUP_DUP,
            label(pc.less(red["n_matched_sum"], red["n_rows_sum"]),
                  ROLLUP_ROWS_WITH_ERRORS, pa.scalar(ROLLUP_OK, pa.string())),
        ),
    )
    return rd.from_arrow(pa.table({
        key: red[key],
        "n_rows": red["n_rows_sum"],
        "n_matched": red["n_matched_sum"],
        "rollup_status": status,
    }))


def reconcile_lake_vs_snapshot(
    lake_root: str,
    snapshot_ds,
    num_buckets: int = 32,
    salt_for_repo: dict[str, int] | None = None,
):
    """Full reconciliation phase. Returns (detail_ds, rollup_ds,
    counts_df); rollup re-aggregates across salted sub-buckets by
    grouping on ``repo`` (SURVEY.md §4 'rollups re-aggregated across
    salts'); counts are the exact per-status report (north rule:
    'matching its match/discrepancy report counts exactly').

    There is one reconcile engine, and this is it run on an empty
    state: ``<lake>/_reconcile_full`` is cleared first, so the snapshot
    is always respooled and every part recomputed. That dir is not the
    incremental ``_reconcile_state``, so a full run between two
    ``reconcile_incremental`` calls costs the second one nothing."""
    import shutil

    state_dir = os.path.join(lake_root, "_reconcile_full")
    shutil.rmtree(state_dir, ignore_errors=True)
    return _reconcile(lake_root, snapshot_ds, num_buckets, salt_for_repo, state_dir, None)[:3]


def reconcile_incremental(
    lake_root: str,
    snapshot_ds,
    num_buckets: int = 32,
    salt_for_repo: dict[str, int] | None = None,
    snapshot_token: str | None = None,
):
    """Delta-aware reconciliation: recompute ONLY the buckets whose
    merge-on-read chains changed since the previous call; every clean
    bucket's detail spill and partial counts are reused verbatim.

    The CDC shape this serves: the lake advances by a few epochs
    between reconcile runs, each epoch touching a subset of buckets —
    a full reconcile re-reads O(lake + snapshot) every run, this one
    reads O(changed buckets). State lives in
    ``<lake>/_reconcile_state`` (see ``_reconcile``).

    ``snapshot_token``: any caller-chosen string identifying the
    snapshot's content/version (path + mtime, a manifest sha, ...). A
    mismatch with the stored token invalidates the spool AND all parts.
    With ``None`` the caller asserts the snapshot is unchanged.

    Returns ``(detail_ds, rollup_ds, counts_df, metrics)`` — the first
    three exactly as ``reconcile_lake_vs_snapshot`` would produce for
    the same lake + snapshot; ``metrics`` reports the reuse:
    ``{"parts_total", "parts_recomputed", "snapshot_respooled"}``."""
    state_dir = os.path.join(lake_root, "_reconcile_state")
    return _reconcile(lake_root, snapshot_ds, num_buckets, salt_for_repo, state_dir, snapshot_token)


def _reconcile(lake_root, snapshot_ds, num_buckets, salt_for_repo, state_dir, snapshot_token):
    """The reconcile engine. Shuffle-free bucket cogroup: the lake side
    is ALREADY partitioned by bucket on disk (the commit-log chains), so
    only the snapshot is spooled, once per ``snapshot_token``, into the
    same bucketed layout (an O(n) partitioned write, not an all-to-all
    sort); then the dirty buckets fan out over the cluster's CPUs
    (``replay._per_part``), each read from both sides directly,
    reconciled vectorized and its detail rows spilled task-side.

    ``state_dir`` holds the spool, the per-part detail spill and
    ``state.json``: per part, the fingerprint of its chain + spool row
    groups and its (repo, status, n) partial counts. A part recomputes
    only when its fingerprint moved; rollup and counts are built from
    the stored partials, so the detail is written once and re-read zero
    times here; the returned detail Dataset reads the spill files only
    when it is consumed (``replay._read_dataset``). Crash safety:
    state.json is republished atomically AFTER the recomputed parts'
    detail files — a crash in between just re-marks those parts dirty
    on the next call (the per-part file overwrite is idempotent)."""
    import glob as _glob
    import hashlib
    import json as _json
    import shutil

    import pyarrow.parquet as pq

    from ..functions.hashing import retag_bucket
    from ..stages.reconcile import reconcile_pair_pdf
    from ..state.commitlog import CommitLog, layout_fingerprint
    from .replay import _chains_payload, _gather, _per_part, _read_dataset

    cols = ["repo", "path", "commit", "content_sha256"]
    spool_dir = os.path.join(state_dir, "snap_spool")
    spill = os.path.join(state_dir, "detail")
    state_path = os.path.join(state_dir, "state.json")
    os.makedirs(state_dir, exist_ok=True)

    # layout fence FIRST — before any O(snapshot) work: the snapshot
    # MUST be bucketed exactly as the lake was written (same bucket
    # count, salt map, hash impl) or keys land on different sides of
    # the cogroup and every one reads as a missing/extra pair — a
    # silent total mis-reconcile. The fingerprint is the SHARED
    # definition (state.commitlog.layout_fingerprint), so writer and
    # reader can never drift apart.
    log = CommitLog.open(lake_root)
    log.check_layout(layout_fingerprint(num_buckets, salt_for_repo))

    state = {"snapshot_token": None, "snap_map": {}, "parts": {}}
    if os.path.exists(state_path):
        with open(state_path) as fh:
            state = _json.load(fh)

    respool = (
        not os.path.isdir(spool_dir)
        # snapshot_token=None means "caller asserts the snapshot is
        # unchanged" (docstring): skip the comparison rather than treat
        # None as a mismatch against the stored token — that forced a
        # full respool + all-parts recompute on every tokenless call,
        # silently negating the incremental path
        or (snapshot_token is not None
            and state.get("snapshot_token") != snapshot_token)
        # a lost state.json forgets which spool it described; an EMPTY
        # snap_map is a valid state (an empty snapshot) and must not
        # force a respool + all-parts recompute on every call
        or not os.path.exists(state_path)
    )

    if respool:
        # invalidate BEFORE destroying the spool/spill: a crash between
        # the rmtree and the new state publish must re-mark everything
        # dirty on the next call — never serve the old token's counts
        # over a deleted detail spill
        if os.path.exists(state_path):
            os.remove(state_path)
        shutil.rmtree(spool_dir, ignore_errors=True)
        shutil.rmtree(spill, ignore_errors=True)
        snap_map = _spool_bucketed(
            snapshot_ds.map_batches(
                lambda b: retag_bucket(b, num_buckets, salt_for_repo), batch_format="pyarrow"
            ),
            spool_dir, cols,
        )
        state = {
            "snapshot_token": snapshot_token,
            "snap_map": {str(p): slices for p, slices in snap_map.items()},
            "parts": {},  # snapshot changed -> everything is dirty
        }
        CommitLog._write_atomic(state_path, [state])
    snap_map = {
        int(p): [(f, tuple(spec) if isinstance(spec, list) else spec) for f, spec in slices]
        for p, slices in state["snap_map"].items()
    }

    chains = _chains_payload(log, upto_epoch=log.latest_sealed_epoch())
    parts = sorted(set(chains) | set(snap_map))

    def fp_of(part: int) -> str:
        payload = _json.dumps(
            {"chain": chains.get(part, []), "snap": snap_map.get(part, [])},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    fps = {p: fp_of(p) for p in parts}  # once: reused by scan AND store
    dirty = [
        p for p in parts if state["parts"].get(str(p), {}).get("fp") != fps[p]
    ]
    if dirty:
        items = [
            {"part": p, "chain": chains.get(p, []), "snap": snap_map.get(p, [])}
            for p in dirty
        ]
        # aggregate-sized: O(dirty parts x repos x statuses)
        fresh = _gather(_per_part(items, _make_cogroup_fn(spill, cols))).to_pylist()
        by_part = {p: [] for p in dirty}
        for r in fresh:
            by_part[int(r["part"])].append([r["repo"], r["status"], int(r["n"])])
        for p in dirty:
            state["parts"][str(p)] = {"fp": fps[p], "partials": by_part[p]}
    # Drop state AND the detail spill files of parts that vanished from
    # the lake+snapshot universe — otherwise the detail read of the spill
    # would re-surface ghost detail rows for them. Runs unconditionally (a
    # part can vanish without any surviving part turning dirty).
    live = set(parts)
    ghosts = [k for k in state["parts"] if int(k) not in live]
    for k in ghosts:
        del state["parts"][k]
        ghost_file = os.path.join(spill, f"detail-part{int(k):05d}.parquet")
        if os.path.exists(ghost_file):
            os.remove(ghost_file)
    if dirty or ghosts:
        CommitLog._write_atomic(state_path, [state])

    partials = pa.Table.from_pylist(
        [
            {"part": int(p), "repo": r, "status": s, "n": int(n)}
            for p, rec in state["parts"].items()
            for r, s, n in rec["partials"]
        ],
        schema=_PARTIALS_SCHEMA,
    )
    rollup = rollup_from_partials(partials, "repo")
    counts = status_counts(partials)
    empty = pa.schema([(c, pa.string()) for c in cols]).empty_table()
    detail = _read_dataset(
        sorted(_glob.glob(os.path.join(spill, "*.parquet"))), pq.read_table,
        reconcile_pair_pdf(empty, empty, ["repo", "path"], "content_sha256", attr_cols=["commit"]),
    )
    metrics = {
        "parts_total": len(parts),
        "parts_recomputed": len(dirty),
        "snapshot_respooled": bool(respool),
    }
    return detail, rollup, counts, metrics
