"""CDC replay pipeline: bootstrap + per-epoch upsert replay with
exactly-once commits and checkpoint-resume.

Replaces the reference's 4-step Spring Batch job lifecycle
(``config/BatchConfig.java:59-68``: load left -> load right -> reconcile
-> report, with inter-step state serialized to H2) with the target
lifecycle of SURVEY.md §3:

    for each window of up to ``pipeline_epochs`` epochs:
        plan read blocks             parquet footers only: a unified
                                     schema, and the window's (file, row
                                     group) fragments dealt to blocks
                                     sized by CPUs and bytes (``_scan``)
        read + tag + LWW + write     one Ray task per block (``_per_part``)
                                     reads its own fragments, tags bucket
                                     and epoch, hashes the LWW winners
                                     and writes its per-(epoch, bucket)
                                     pieces straight to the lake (no
                                     shuffle)
        fold long chains             parts past ``delta_threshold`` links
                                     resolve into one full base
        commit + seal, in order      commit-log append (driver, fenced)

The engine's own work — epoch windows, folds, compaction, salt
planning, erasure, the reconcile cogroup and the chain resolves behind
``lake_dataset``/``lake_changelog`` — runs as plain Ray tasks through
that one fan-out. Lake-to-lake writes (``rebucket``, a replica's
snapshot re-baseline) are epoch windows too: their read blocks are a
lake's parts (``_part_scan``). Ray Data runs only where a Dataset
crosses the API:
an epoch given as a caller's Dataset (``run_epoch``, txn staging), the
reconcile snapshot spool, and the Datasets the read surface returns.

Exactly-once needs no stateful sink: every data file is published by
the task that computed it through one helper
(``stages.writer.publish_parquet``: content-addressed, fsynced, atomic
rename; a retried task re-derives the same name) and the driver's
``(epoch, part)`` fence drops every re-delivered commit.

Resume: ``replay()`` skips epochs already sealed in the commit log —
a kill/restart mid-stream converges to the identical sha256-verified
lake state (north_star; chaos-tested in tests/test_replay_e2e.py).

Ray session ownership: these functions NEVER call ray.init/shutdown
(driver contract in __ray_entry__.py).
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import retag_bucket, sha256_hex_array, table_state_sha256
from ..stages.merge import LAKE_COLS, _file_schema, _unify_concat, key_codes, read_chain
from ..stages.normalize import bind_null_strings
from ..stages.reconcile import STATUS_MISSING_LEFT, STATUS_MISSING_RIGHT, reconcile_pair_pdf
from ..stages.writer import publish_parquet, write_piece_local
from ..state.commitlog import CommitLog, PartEntry

# input_seq marker stamped on MAINTENANCE (compaction) entries: lets a
# compact() rerun distinguish its own crashed unsealed epoch (resumable
# under the fence) from a crashed replay's (refused — sealing over it
# would silently lose that epoch's remaining events)
_MAINT_SEQ = (-2, -2)


@dataclass
class ReplayConfig:
    lake_root: str
    num_buckets: int = 32
    salt_for_repo: dict[str, int] = field(default_factory=dict)
    # accepted and ignored: epochs are written task-side, there is no
    # writer actor pool left to size (kept so existing configs and
    # callers that still pass it construct unchanged)
    writer_concurrency: int = 4
    # read blocks per binlog window, one task each. None = the engine's
    # rule (``_read_blocks``): max(ceil(bytes / target_max_block_size),
    # min(cluster CPUs, ceil(bytes / target_min_block_size))), bytes
    # from the parquet footers. A window splits only to feed CPUs that
    # exist or to cap the block size, so a small single-file epoch
    # reads as ONE block and its LWW winners land as exactly one piece
    # per (epoch, bucket) link. A number forces that many blocks: each
    # block then writes its own partial-winner piece per link, so a
    # link has up to that many pieces (same resolved state, more bytes)
    read_parallelism: int | None = None
    # merge-on-read chain bound, on every write path: an epoch writes
    # O(events) DELTAS, and before a window commits, each part whose
    # chain would exceed this many links is folded into one full base
    # at the epoch where it would, so no sealed epoch's chain exceeds
    # max(1, delta_threshold) links.
    delta_threshold: int = 8
    # binlog epochs per write (a window): each event is tagged with its
    # epoch, so per-epoch LWW stays exact while one fan-out of read
    # blocks writes the whole window with no driver barrier between
    # epochs (per-epoch barriers dominate at 10^4+ epochs). Epochs
    # commit + seal in order after each write; a crash redoes at most
    # one window (idempotent). 1 = one epoch per write.
    pipeline_epochs: int = 1
    # run a distributed compaction after the last epoch so readers see
    # chain length 1 everywhere (end-of-stream housekeeping).
    post_compact: bool = False
    # roll the commit log up into its chains snapshot every N sealed
    # epochs (0 disables). Without a cadence a long --follow stream
    # appends forever: every CommitLog.open (one per follow poll) and
    # every in-memory chain resolution pays O(total commits ever) —
    # the snapshot keeps reopen parse work at O(partitions x chain
    # length + N x partitions), independent of stream age. The
    # delta_threshold fold bounds chain length, so the two knobs
    # together bound the log regardless of epoch count.
    snapshot_every: int = 64
    # compaction splits a bucket's rewritten base into pieces of about
    # this many (in-memory Arrow) bytes — a commit-log part entry holds
    # a files TUPLE, so readers are unchanged. None = one file per
    # bucket, fine at sandbox scale; at 100 TB a 64-bucket lake would
    # otherwise write multi-TB single parquet files (unresumable,
    # unstreamable). 256 MiB is the Iceberg/Hudi-ish default target.
    compact_target_bytes: int | None = None

    def layout(self) -> dict:
        """The physical-layout fingerprint fenced by the commit log —
        resuming a lake under a different bucket routing is refused."""
        from ..state.commitlog import layout_fingerprint

        return layout_fingerprint(self.num_buckets, self.salt_for_repo)


def _commit_manifest_rows(
    log: CommitLog,
    epoch: int,
    rows: list[dict],
    input_seq: tuple[int, int] | None,
    seal: bool = True,
) -> int:
    """Driver-side commit: fold per-piece manifest rows into per-part
    entries, batch-append them under the (epoch, part) fence (ONE
    fsync), optionally seal the epoch (pipelined replay seals in epoch
    order after out-of-order commits)."""
    import hashlib

    by_part: dict[int, list[dict]] = {}
    for r in rows:
        by_part.setdefault(int(r["part"]), []).append(r)
    entries = []
    for part, pieces in sorted(by_part.items()):
        pieces.sort(key=lambda r: r["file"])
        combined = hashlib.sha256("".join(p["state_sha256"] for p in pieces).encode()).hexdigest()
        entries.append(PartEntry(
            epoch=epoch,
            part=part,
            files=tuple(p["file"] for p in pieces),
            rows=sum(int(p["rows"]) for p in pieces),
            state_sha256=combined,
            input_seq=input_seq,
            kind=pieces[0].get("kind", "full"),
            rgs=tuple(int(p.get("rg", -1)) for p in pieces),
        ))
    committed = log.commit_parts(entries)
    if seal:
        log.seal_epoch(epoch)
    return committed


def _chains_payload(log: CommitLog, upto_epoch: int) -> dict[int, list[dict]]:
    """Broadcastable merge-on-read chains: part -> [{"epoch", "kind",
    "files"}, ...] (newest full + later deltas, epoch order)."""
    return {
        part: [
            {
                "epoch": e.epoch,
                "kind": e.kind,
                "files": list(e.files),
                "rgs": list(e.rgs) if e.rgs else [-1] * len(e.files),
            }
            for e in chain
        ]
        for part, chain in log.part_chains(upto_epoch=upto_epoch).items()
    }


def _skipped(epoch: int) -> dict:
    """Metrics of an epoch that was already sealed (nothing ran)."""
    return {"epoch": epoch, "skipped": True, "parts_committed": 0, "sec": 0.0}


def run_epoch(
    events,
    epoch: int,
    cfg: ReplayConfig,
    log: CommitLog | None = None,
    input_seq: tuple[int, int] | None = None,
    seal: bool = True,
) -> dict:
    """Apply one epoch to the lake: a window of one through the shared
    epoch kernel, every event tagged with ``epoch``. ``events`` is a
    ``ray.data.Dataset`` of binlog events, executed once with the
    kernel's per-block write as its one ``map_batches`` (so it streams),
    or the engine's own read blocks (``_scan``), written by plain tasks.
    Idempotent: a sealed epoch is skipped; a partially-committed epoch
    re-runs and the (epoch, part) fence keeps its already-committed
    partitions. ``seal=False`` commits without publishing (multi-table
    txn staging)."""
    log = log or CommitLog.open(cfg.lake_root)
    log.ensure_layout(cfg.layout())
    if log.is_sealed(epoch):
        return _skipped(epoch)
    return _apply_epochs(events, {epoch: input_seq}, cfg, log, seal=seal)[0]


def _write_lineage(lake_root: str, log: CommitLog, last_metrics: dict) -> None:
    """Per-partition lineage manifest + per-epoch metrics (north_star:
    'per-partition lineage manifests and metrics')."""
    payload = {"partitions": log.lineage(), "last_epoch_metrics": last_metrics}
    tmp = os.path.join(lake_root, "lineage.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=1)
    os.replace(tmp, os.path.join(lake_root, "lineage.json"))


def _seed_as_insert(batch: pa.Table) -> pa.Table:
    """Seed-to-events transform (ONE definition for both replay paths):
    a lake-seed row becomes an all-insert event with seq=-1 so the
    bootstrap flows through the exact same replay machinery."""
    n = batch.num_rows
    return batch.append_column("seq", pa.array([-1] * n, pa.int64())).append_column(
        "op", pa.array(["I"] * n, pa.string())
    )


def bootstrap(
    lake_seed_path: str,
    cfg: ReplayConfig,
    log: CommitLog | None = None,
) -> dict:
    """Epoch 0 = initial lake load, expressed as all-insert events with
    ``seq=-1`` so it flows through the exact same replay path."""
    log = log or CommitLog.open(cfg.lake_root)
    if log.is_sealed(0):  # skip before the scan: follow polls re-enter
        return _skipped(0)
    scan = _scan([lake_seed_path], cfg, prep=_seed_as_insert)
    return run_epoch(scan, 0, cfg, log=log, input_seq=(-1, -1))


def replay(
    fixture_dir: str,
    cfg: ReplayConfig,
    stop_after_epoch: int | None = None,
) -> list[dict]:
    """Full (resumable) replay of a datagen fixture: bootstrap + all
    binlog epochs. ``stop_after_epoch`` simulates a mid-stream kill for
    the chaos tests; calling again resumes from the commit log.

    Epochs run in windows of ``cfg.pipeline_epochs``, one Dataset
    write each (an epoch's deltas read no previous state); the
    driver commits and seals each window's epochs strictly in order, so
    a crash leaves a prefix of sealed epochs + fenced partial commits
    that a restart completes idempotently."""
    with open(os.path.join(fixture_dir, "fixture.json")) as fh:
        fixture = json.load(fh)
    seed_path = os.path.join(fixture_dir, "lake_seed.parquet")
    return _replay_epoch_descs(fixture["epochs"], cfg, seed_path, stop_after_epoch)


def _discover_epochs(binlog_dir: str, stop_at_unreadable: bool = False) -> list[dict]:
    """Discover binlog epoch files in a directory WITHOUT a fixture
    manifest — the binlog/WAL-tail ingestion surface (north rule "tails
    a binlog/WAL stream"; reference trigger surface
    ``controller/ReconciliationController.java:35-42``).

    Epoch ordinal comes from ``epoch=NNNNN`` in the file name when
    present (rank order of the seq range otherwise); the seq range
    comes from the parquet FOOTER's row-group min/max statistics — a
    metadata-only read, no data pages decoded.

    Unreadable files: a one-shot replay (``stop_at_unreadable=False``)
    raises LOUDLY — silently skipping a file would seal the stream with
    an epoch missing, and rank-derived ordinals of later files would
    shift on a retry (events fenced out forever). In follow mode
    (``stop_at_unreadable=True``) an unreadable file — or an unnamed
    zero-row / stats-less one, which carries no seq range to order it
    by — is assumed to be a mid-copy arrival: discovery CUTS at the
    first one (name order), the earlier complete prefix processes, and
    the next poll retries from the cut. This is only safe under the
    documented producer contract — files land in seq order (standard
    WAL semantics), ideally published via atomic rename."""
    import glob as _g
    import re

    import pyarrow.parquet as pq

    def cut(f: str, why: str) -> None:
        import logging

        logging.getLogger(__name__).warning(
            "binlog tail: %s %s (mid-copy?) — processing the prefix before "
            "it, retrying next poll", f, why
        )

    files = sorted(_g.glob(os.path.join(binlog_dir, "*.parquet")))
    descs = []
    for f in files:
        try:
            pf = pq.ParquetFile(f)
        except Exception as e:
            if stop_at_unreadable:
                cut(f, "unreadable")
                break
            raise ValueError(
                f"unreadable binlog file {f}: {e} — refusing to replay with a "
                "gap (a skipped file would be fenced out forever once later "
                "epochs seal)"
            ) from e
        md = pf.metadata
        si = pf.schema_arrow.names.index("seq")
        los, his = [], []
        for i in range(md.num_row_groups):
            st = md.row_group(i).column(si).statistics
            if st is None or st.min is None:
                los, his = [], []  # stats disabled: no seq ordering
                break
            los.append(int(st.min))
            his.append(int(st.max))
        m = re.search(r"epoch=(\d+)", os.path.basename(f))
        epoch = int(m.group(1)) if m else None
        if not los and epoch is None:
            # a zero-row or stats-less file carries no seq range: its
            # rank-derived ordinal would be arbitrary — silently picking
            # one could fence another file's events out forever. In
            # follow mode it is most likely a file whose copy has not
            # finished, so it cuts discovery like an unreadable one
            if stop_at_unreadable:
                cut(f, "has no seq statistics and no epoch=N name")
                break
            raise ValueError(
                f"binlog file {f} has no usable seq statistics "
                f"({'empty file' if md.num_rows == 0 else 'stats disabled'}) "
                "and no epoch=N name — cannot order it; name it explicitly"
            )
        descs.append({
            "epoch": epoch,
            "file": f,
            "seq_range": [min(los), max(his) + 1] if los else None,
            "rows": md.num_rows,
        })
    # ranged files order by seq start; range-less (named, empty/stats-
    # less) files order by their explicit ordinal among them
    descs.sort(key=lambda e: (
        (0, e["seq_range"][0]) if e["seq_range"] else (1, e["epoch"])
    ))
    for rank, e in enumerate(descs):
        if e["epoch"] is None:
            e["epoch"] = rank
    by_ord: dict[int, str] = {}
    for e in descs:
        if e["epoch"] in by_ord:
            # the rank fallback can collide with an explicit epoch=N
            # name (or two files can carry the same name): both would
            # map to ONE engine epoch and the second file's events
            # would silently fence out forever
            raise ValueError(
                f"binlog files {by_ord[e['epoch']]} and {e['file']} both map "
                f"to epoch ordinal {e['epoch']} — name every file epoch=N "
                "explicitly (mixed named/unnamed sets can collide)"
            )
        by_ord[e["epoch"]] = e["file"]
    return descs


def replay_stream(
    binlog_dir: str,
    cfg: ReplayConfig,
    lake_seed: str | None = None,
    stop_after_epoch: int | None = None,
) -> list[dict]:
    """Tail-a-growing-binlog ingestion: replay every epoch file
    currently in ``binlog_dir`` (discovered by naming + footer seq
    stats — no ``fixture.json``), resumable via the commit log. Call
    again after new epoch files land and only the new ones run; a
    converged stream replay is sha256-identical to the one-shot batch
    replay (tested). ``lake_seed``: optional bootstrap parquet applied
    as epoch 0 on first call."""
    return _replay_epoch_descs(_discover_epochs(binlog_dir), cfg, lake_seed, stop_after_epoch)


def _replay_epoch_descs(
    epoch_descs: list[dict],
    cfg: ReplayConfig,
    seed_path: str | None,
    stop_after_epoch: int | None = None,
) -> list[dict]:
    """Shared replay core over epoch descriptors ``{"epoch", "file",
    "seq_range"}`` (from a fixture manifest or directory discovery)."""
    import itertools

    log = CommitLog.open(cfg.lake_root)
    log.ensure_layout(cfg.layout())

    todo = []
    for ep in epoch_descs:
        engine_epoch = ep["epoch"] + 1  # epoch 0 is the bootstrap
        if stop_after_epoch is not None and engine_epoch > stop_after_epoch:
            break
        todo.append((engine_epoch, ep))

    out: list[dict] = []
    if seed_path is not None:
        out.append(bootstrap(seed_path, cfg, log=log))
    step = max(1, cfg.pipeline_epochs)
    for i in range(0, len(todo), step):
        window = todo[i : i + step]
        # skip sealed epochs BEFORE building any scan: a long-lived
        # follow stream would otherwise pay O(stream-age) parquet footer
        # reads per poll just to no-op
        out.extend(_skipped(e) for e, _ in window if log.is_sealed(e))
        chunk = [t for t in window if not log.is_sealed(t[0])]
        # a range-less desc (zero-row / stats-less named epoch) has no
        # seqs to tag by: it runs alone, between the ranged runs around
        # it, so epochs still commit and seal in order
        for ranged, run in itertools.groupby(chunk, key=lambda t: bool(t[1].get("seq_range"))):
            if ranged:
                out.extend(_run_epoch_batch(list(run), cfg, log))
            else:
                out.extend(
                    run_epoch(_scan([ep["file"]], cfg), e, cfg, log=log) for e, ep in run
                )
        # log-growth bound: roll the log into its chains snapshot once
        # snapshot_every sealed epochs sit in the TAIL file. Keyed on
        # the log's DURABLE tail-seal count, not a local counter —
        # follow mode reopens the log every poll, so an in-process
        # counter would reset each poll and a slow 1-epoch-per-poll
        # stream would never snapshot
        if chunk and 0 < cfg.snapshot_every <= log.seals_since_snapshot:
            log.write_snapshot()

    if cfg.post_compact:
        out.append(compact(cfg, log=log))
    return out


def replay_multiplexed(
    binlog_dir: str,
    tables: dict[str, ReplayConfig],
    coordinator_root: str,
    table_col: str = "tbl",
    stop_mid_epoch: int | None = None,
    stop_at_unreadable: bool = False,
) -> list[dict]:
    """Ingest a MULTIPLEXED CDC stream — one binlog carrying N logical
    tables (the shape a Debezium/WAL feed actually has) — into N
    independent lakes with per-epoch CROSS-TABLE atomic visibility via
    the transaction coordinator (``state/txn.py``).

    Per epoch file: each table's slice stages UNSEALED through the
    normal replay engine (the engine's own scan with a pushed-down
    ``table_col == name`` filter — a table-sorted epoch file prunes at
    row-group granularity, so N tables do not mean N full scans), then
    ONE coordinator COMMIT flips all N lakes together. A reader joining
    orders to order_lines therefore never sees epoch k of one table
    against epoch k-1 of the other — the consistency the reference gets
    free from its single metadata store (springbatch-schema.sql:1-76).

    Resumable at every crash point: completed epochs skip via the
    per-lake seals; an in-doubt txn (PREPARE without COMMIT) rolls
    forward through ``recover()``/``resume_in_doubt`` (staging is
    deterministic); un-prepared leftovers resume through the
    (epoch, part) fence (``stage(resume=True)``).

    ``stop_mid_epoch``: chaos hook — crash after staging (and
    preparing) epoch k's tables but before the COMMIT mark.
    ``stop_at_unreadable``: tail mode (set by ``follow_multiplexed``) —
    a half-copied epoch file cuts discovery at the readable prefix
    instead of raising, so a poll that races the producer's copy still
    ingests every complete earlier file.
    """
    import pyarrow.dataset as pads

    from ..state.txn import TxnCoordinator

    co = TxnCoordinator.open(coordinator_root)
    rep = co.recover()
    for txn_id in rep["in_doubt"]:
        co.resume_in_doubt(txn_id).commit()  # staging finished => roll forward

    out: list[dict] = []
    # one log open per table per CALL, not per epoch: each open parses
    # the snapshot + tail from disk, and a 10^4-epoch stream would pay
    # O(epochs x tables) redundant parses. Safe because epochs sealed
    # within this loop are strictly below every later iteration's check
    # (the sealed set only matters for the fresh-open state).
    logs = {name: CommitLog.open(cfg.lake_root) for name, cfg in tables.items()}
    for ep in _discover_epochs(binlog_dir, stop_at_unreadable=stop_at_unreadable):
        engine_epoch = ep["epoch"] + 1  # 0 is reserved for bootstrap
        todo = {
            name: cfg for name, cfg in tables.items()
            if not logs[name].is_sealed(engine_epoch)
        }
        if not todo:
            out.append({"epoch": engine_epoch, "skipped": True})
            continue
        txn = co.begin()
        for name in sorted(todo):
            cfg = todo[name]
            rows = _scan(
                [ep["file"]], cfg, filter=pads.field(table_col) == name,
                prep=lambda t: t.drop_columns([table_col]),
            )
            txn.stage(
                name, cfg, rows, epoch=engine_epoch,
                input_seq=tuple(ep["seq_range"]) if ep.get("seq_range") else None,
                resume=True,  # un-prepared crash leftovers: fence skips them
            )
        txn.prepare()
        if stop_mid_epoch is not None and engine_epoch >= stop_mid_epoch:
            return out  # chaos: in-doubt txn left behind
        res = txn.commit()
        out.append({"epoch": engine_epoch, "skipped": False, "tables": res["tables"]})
    return out


def follow_stream(
    binlog_dir: str,
    cfg: ReplayConfig,
    lake_seed: str | None = None,
    poll_sec: float = 1.0,
    idle_polls: int = 5,
    on_batch=None,
    poll_hook=None,
) -> list[dict]:
    """Continuous-tail mode (the reference's cron/trigger surface,
    ``ReconciliationController.java:41-42``): poll ``binlog_dir`` for
    new epoch files, replay each batch as it lands, stop when an
    ``_EOS`` marker file appears or ``idle_polls`` consecutive polls
    find nothing new. Polling is control-plane only — the data path
    stays deterministic (epoch content + commit log define the state,
    never the wall clock).

    ``on_batch(cfg)``: called after each fresh batch is replayed and
    sealed — the downstream-consumer hook (advance a ``MaintainedView``,
    spool ``export_changelog``); exceptions propagate (the lake state
    is already committed, so a crashed hook resumes cleanly).

    ``poll_hook()``: called at the top of every poll, BEFORE epoch
    discovery — the upstream-adapter hook (e.g. convert newly landed
    CDC envelope JSONL into binlog epochs, forward an upstream ``_EOS``
    marker); exceptions propagate."""

    def run(descs: list[dict]) -> list[dict]:
        out = _replay_epoch_descs(descs, cfg, lake_seed)
        if on_batch is not None:
            on_batch(cfg)
        return out

    return _poll_loop(binlog_dir, run, poll_sec, idle_polls, poll_hook)


def follow_multiplexed(
    binlog_dir: str,
    tables: dict[str, ReplayConfig],
    coordinator_root: str,
    table_col: str = "tbl",
    poll_sec: float = 1.0,
    idle_polls: int = 5,
    on_batch=None,
) -> list[dict]:
    """Continuous-tail mode for a MULTIPLEXED stream: poll for new
    epoch files and land each batch through ``replay_multiplexed`` —
    per-epoch cross-table atomic commits, resumable at every crash
    point (replay_multiplexed re-derives everything from the seals, the
    coordinator log and the fences, so each poll is just a re-entry).
    Stops on ``_EOS`` (after draining) or ``idle_polls`` empty polls.

    ``on_batch(tables)``: downstream hook after each fresh atomic batch
    (advance views, spool feeds); exceptions propagate — the commits
    are already durable, so a crashed hook resumes cleanly."""

    def run(descs: list[dict]) -> list[dict]:
        out = replay_multiplexed(
            binlog_dir, tables, coordinator_root, table_col=table_col,
            stop_at_unreadable=True,
        )
        if on_batch is not None:
            on_batch(tables)
        return out

    return _poll_loop(binlog_dir, run, poll_sec, idle_polls)


def _poll_loop(binlog_dir: str, run, poll_sec: float, idle_polls: int,
               poll_hook=None) -> list[dict]:
    """The tail loop both follow modes share: each poll discovers the
    epoch files (lenient: a mid-copy file cuts discovery) and hands the
    descs to ``run`` when any file is new; stops on ``_EOS`` once a
    strict discovery finds nothing unseen, or after ``idle_polls``
    consecutive polls without news."""
    out: list[dict] = []
    seen: set[str] = set()
    idle = 0
    while True:
        if poll_hook is not None:
            poll_hook()
        descs = _discover_epochs(binlog_dir, stop_at_unreadable=True)
        if any(d["file"] not in seen for d in descs):
            idle = 0
            out.extend(run(descs))
            seen.update(d["file"] for d in descs)
        else:
            idle += 1
        if os.path.exists(os.path.join(binlog_dir, "_EOS")):
            # STRICT discovery for the final drain: the producer is done
            # (_EOS lands after the last file), so an unreadable file is
            # corruption, not a mid-copy — a lenient cut here would
            # declare the drain complete and silently drop the stream's
            # final epoch(s)
            descs = _discover_epochs(binlog_dir, stop_at_unreadable=False)
            if all(d["file"] in seen for d in descs):
                break
        elif idle >= idle_polls:
            break
        time.sleep(poll_sec)
    return out


_INT_WIDTH = {pa.int8(): 8, pa.int16(): 16, pa.int32(): 32, pa.int64(): 64}
_UINT_WIDTH = {pa.uint8(): 8, pa.uint16(): 16, pa.uint32(): 32, pa.uint64(): 64}
_FLOAT_WIDTH = {pa.float16(): 16, pa.float32(): 32, pa.float64(): 64}


def _safe_widen(a: pa.DataType, b: pa.DataType) -> pa.DataType | None:
    """The LOSSLESS common type of two evolved column types, or None if
    no safe promotion exists. Same-kind widening only (Debezium-style
    additive type evolution): signed↔signed / unsigned↔unsigned /
    float↔float width bumps, (large_)string and (large_)binary offset
    widening, decimal128 precision growth at the SAME scale. Signed vs
    unsigned, int vs float (int64→float64 loses above 2^53), and
    timestamp unit changes stay refused."""
    for widths in (_INT_WIDTH, _UINT_WIDTH, _FLOAT_WIDTH):
        if a in widths and b in widths:
            return a if widths[a] >= widths[b] else b
    strs = (pa.string(), pa.large_string())
    if a in strs and b in strs:
        return pa.large_string()
    bins = (pa.binary(), pa.large_binary())
    if a in bins and b in bins:
        return pa.large_binary()
    if (
        pa.types.is_decimal128(a)
        and pa.types.is_decimal128(b)
        and a.scale == b.scale
    ):
        return pa.decimal128(max(a.precision, b.precision), a.scale)
    return None


def _binlog_scan_schema(files: list[str], drop: tuple[str, ...] = ("ts",)) -> "pa.Schema":
    """Unified scan schema across binlog files (see ``_binlog_footers``)."""
    return _binlog_footers(files, drop)[0]


def _binlog_footers(
    files: list[str], drop: tuple[str, ...] = ("ts",)
) -> tuple["pa.Schema", int, list[tuple[str, int, int]]]:
    """One footer read per binlog file, for the scan schema, the
    window's bytes (the sum of its row groups' ``total_byte_size``,
    which sizes the read blocks — ``_read_blocks``) and its non-empty
    ``(file, row group, rows)`` fragments, which ``_scan`` deals to
    the blocks. No data is read.

    Unified scan schema across binlog files — the schema-evolution
    contract: a payload column ADDED mid-stream appears in the unified
    schema (older files surface it as nulls via the explicit
    ``schema=`` read); a column absent from later files likewise reads
    as null there. A type change for an existing column unifies to the
    LOSSLESS wider type when one exists (``_safe_widen`` — int/float
    width bumps, string/binary offset widening, decimal precision
    growth; the parquet scanner casts narrower fragments up, and the
    lake's chain resolution already promotes permissively) and is
    refused loudly otherwise (silently coercing CDC payloads corrupts
    the lake). ``drop`` columns (``ts``: dead weight in replay — LWW
    orders on seq) are pruned at the scan. Field order is
    first-appearance, so the pre-evolution prefix stays stable.

    Without this, a scan that infers the schema from the FIRST file
    would silently drop a column added in a later epoch of the same
    chunk."""
    import pyarrow.parquet as _pq

    fields: dict[str, pa.Field] = {}
    nbytes = 0
    frags = []
    for f in files:
        meta = _pq.read_metadata(f)
        for i in range(meta.num_row_groups):
            rg = meta.row_group(i)
            nbytes += rg.total_byte_size
            if rg.num_rows:
                frags.append((f, i, rg.num_rows))
        for fld in meta.schema.to_arrow_schema():
            if fld.name in drop:
                continue
            prev = fields.get(fld.name)
            if prev is None:
                fields[fld.name] = fld
            elif not prev.type.equals(fld.type):
                # an all-null file leg may carry `null` type; the real
                # type (from any other file) wins
                if pa.types.is_null(prev.type):
                    fields[fld.name] = fld
                elif not pa.types.is_null(fld.type):
                    wide = _safe_widen(prev.type, fld.type)
                    if wide is None:
                        raise ValueError(
                            f"binlog schema evolution changed the TYPE of column "
                            f"{fld.name!r} ({prev.type} -> {fld.type} in {f}) with "
                            "no lossless promotion; rewrite upstream, refusing"
                        )
                    fields[fld.name] = pa.field(fld.name, wide)
    return pa.schema(list(fields.values())), nbytes, frags


def _read_blocks(nbytes: int) -> int:
    """Read blocks for a binlog window of ``nbytes`` (footer bytes):
    ``max(ceil(bytes / target_max_block_size), min(cluster CPUs,
    ceil(bytes / target_min_block_size)))``, at least 1 (the two
    targets are Ray Data's ``DataContext`` block sizes). A window is
    split only to give work to CPUs that exist or to cap the block
    size, because each extra block writes its own partial-winner piece
    into every (epoch, bucket) link it touches."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    by_size = -(-nbytes // ctx.target_max_block_size) if ctx.target_max_block_size else 1
    by_cpu = min(_cluster_cpus(), -(-nbytes // ctx.target_min_block_size))
    return max(1, by_size, by_cpu)


def _cluster_cpus() -> int:
    """The Ray cluster's CPUs (this host's when Ray is not running)."""
    import ray

    if ray.is_initialized():
        return int(ray.cluster_resources().get("CPU", 1)) or 1
    return os.cpu_count() or 1


def _per_part(items: list, part_fn) -> list:
    """THE task fan-out for the engine's own work (epoch windows, fold
    and compaction bases, salt planning, erasure, merge-on-read scans,
    the changelog diff, the reconcile cogroup): ``min(len(items),
    cluster CPUs)`` plain Ray tasks, items dealt round-robin — item
    ``i`` goes to task ``i % tasks``, so a salted repo's consecutive
    bucket ids land in different tasks instead of stacking its hot
    buckets in one. A task calls ``part_fn(item)`` for each of its
    items in turn and returns ONE Arrow table: its non-empty results
    concatenated, or, when all came back empty, the first of them, so
    it keeps the typed schema. Returns the tasks' object refs (none for
    no items): ``_gather`` collects them on the driver, and
    ``rd.from_arrow_refs`` turns them into a Dataset. One task per CPU,
    not per part, and no Dataset execution: per-task start-up and a
    Ray Data launch are fixed costs that dominated small operations."""
    import ray

    fn = ray.put(part_fn)
    return [_parts_task().remote(fn, group) for group in _deal(items)]


def _deal(items: list) -> list[list]:
    """``items`` dealt round-robin into ``min(len(items), cluster
    CPUs)`` groups: item ``i`` goes to group ``i % groups``."""
    n = min(len(items), _cluster_cpus())
    return [items[i::n] for i in range(n)]


@functools.cache
def _parts_task():
    import ray

    return ray.remote(_run_parts)


def _run_parts(part_fn, items: list) -> pa.Table:
    """``part_fn`` over ``items``, in turn: the non-empty results
    concatenated (schemas unified), else the first result, which keeps
    its typed schema, else an empty table. One ``_per_part`` task's
    body, and with ``ray.get`` over the refs, the driver's gather."""
    tables = [part_fn(item) for item in items]
    full = [t for t in tables if t.num_rows]
    if full:
        return _unify_concat(full)
    return tables[0] if tables else pa.table({})


def _gather(refs: list) -> pa.Table:
    """The driver-side table of a ``_per_part`` fan-out."""
    import ray

    return _run_parts(ray.get, refs)


@dataclass
class _Scan:
    """The engine's own read of one binlog window, planned from the
    footers (``_scan``): each block is a list of ``(file, row group,
    first row, end row)`` fragments. ``read`` runs inside the block's
    task, so a block reads only its own share of the window."""

    schema: pa.Schema
    blocks: list[list[tuple]]
    filter: object = None
    prep: object = None

    def read(self, block: list[tuple]) -> pa.Table:
        """The block's rows at the window's unified schema (the parquet
        scanner null-fills absent columns and casts narrower types up)
        and through ``filter`` (pushed down to the row-group
        statistics), then ``prep``. A row range slices the FILTERED
        row group: every block sharing the row group filters it the
        same way, so their ranges still split its rows disjointly."""
        import pyarrow.dataset as pads
        from pyarrow.fs import LocalFileSystem

        fmt, fs = pads.ParquetFileFormat(), LocalFileSystem()
        t = pa.concat_tables([
            fmt.make_fragment(f, fs, row_groups=[rg]).to_table(
                schema=self.schema, columns=self.schema.names, filter=self.filter,
            ).slice(lo, hi - lo)
            for f, rg, lo, hi in block
        ])
        return self.prep(t) if self.prep is not None else t


def _scan(paths: list[str], cfg: ReplayConfig, filter=None, prep=None) -> _Scan:
    """Plan the binlog read of one window: every parquet file under
    ``paths`` (a path may be an epoch directory), ``ts`` pruned, one
    unified schema across the files (see ``_binlog_footers``), and
    ``cfg.read_parallelism`` blocks or, when that is None, the
    ``_read_blocks`` count. The window's (file, row group) fragments
    are dealt to the blocks in contiguous runs, so the blocks are
    disjoint and together read every fragment once. Only when there
    are fewer row groups than blocks are rows split: each row group
    then gets about ``blocks / row groups`` row ranges, and each range's
    block decodes that row group (parquet cannot seek to a row).
    ``filter``: a row filter; ``prep``: a per-block transform applied
    after the read."""
    import glob as _g

    files = [
        os.path.abspath(f) for p in paths
        for f in (sorted(_g.glob(os.path.join(p, "*.parquet"))) if os.path.isdir(p) else [p])
    ]
    schema, nbytes, frags = _binlog_footers(files)
    k = cfg.read_parallelism or _read_blocks(nbytes)
    nf = len(frags)
    if nf >= k:
        cuts = [nf * i // k for i in range(k + 1)]
        blocks = [[(f, rg, 0, n) for f, rg, n in frags[a:b]] for a, b in zip(cuts, cuts[1:])]
    else:  # fewer row groups than blocks: about k / nf row ranges each
        blocks = []
        for j, (f, rg, n) in enumerate(frags):
            m = min(n, k // nf + (j < k % nf))
            blocks += [[(f, rg, n * i // m, n * (i + 1) // m)] for i in range(m)]
    return _Scan(schema=schema, blocks=blocks, filter=filter, prep=prep)


@dataclass
class _PartScan:
    """A lake's parts as read blocks of the epoch kernel
    (``_part_scan``): each block is a list of ``(part, chain)``.
    ``read`` runs inside the block's task."""

    blocks: list[list[tuple[int, list[dict]]]]
    prep: object
    columns: list[str] | None = None

    def read(self, block: list[tuple[int, list[dict]]]) -> pa.Table:
        """The block's parts' resolved states (``read_chain``),
        concatenated, then ``prep``. Rows keep the bucket stored in the
        source lake; the kernel's epoch tag re-derives it under the
        lake being written."""
        t = _unify_concat([read_chain(chain, columns=self.columns, part=p) for p, chain in block])
        return self.prep(t) if t.num_rows else t


def _part_scan(chains: dict[int, list[dict]], prep, columns: list[str] | None = None) -> _PartScan:
    """Plan the read of a lake's parts (``_chains_payload``) as epoch
    read blocks: the parts dealt round-robin to ``min(parts, cluster
    CPUs)`` blocks, as ``_per_part`` deals its items, so a written link
    has at most that many pieces. No parts, no blocks."""
    return _PartScan(blocks=_deal(sorted(chains.items())), prep=prep, columns=columns)


def _run_epoch_batch(
    chunk: list[tuple[int, dict]],
    cfg: ReplayConfig,
    log: CommitLog,
) -> list[dict]:
    """ONE write over a window of binlog epochs: every event is tagged
    with its engine epoch from the descriptors' per-epoch seq ranges,
    so the per-(epoch, bucket) deltas are exactly those of the epochs
    applied one at a time."""
    scan = _scan([ep["file"] for _, ep in chunk], cfg)
    seqs = {engine_epoch: tuple(ep["seq_range"]) for engine_epoch, ep in chunk}
    return _apply_epochs(scan, seqs, cfg, log)


def _apply_epochs(
    events,
    input_seqs: dict[int, tuple[int, int] | None],
    cfg: ReplayConfig,
    log: CommitLog,
    seal: bool = True,
) -> list[dict]:
    """THE epoch kernel — every write path lands here. ``input_seqs``
    maps the window's engine epochs, ascending, to their input seq
    ranges; each event belongs to the first epoch whose upper-exclusive
    seq bound exceeds its seq, the last epoch taking the rest (so a
    window of one needs no range).

    One per-block write (epoch tag, then direct write) runs on each
    block of ``events``. ``events`` is the engine's own read plan, or a
    list of them, whose blocks all fan out together (``_per_part``):
    a binlog window's ``(file, row group)`` fragments (``_scan``) or a
    lake's parts (``_part_scan``; ``rebucket``, a replica's snapshot
    tombstones). Or it is a caller's Dataset (``run_epoch``,
    ``MultiTableTxn.stage``), whose blocks the write runs on as its one
    ``map_batches``. The epoch tag derives every row's bucket from
    ``cfg``'s layout. The driver then folds parts whose chains would
    outgrow ``cfg.delta_threshold`` (``_fold_long_chains``) and commits
    (and, with ``seal``, seals) the epochs strictly in order. Each
    epoch's metrics carry ``read_blocks``, the number of non-empty
    blocks the window's write saw: every block writes its own piece
    into each (epoch, bucket) link it touches, so that is the bound on
    a link's pieces."""
    t0 = time.monotonic()
    epochs = list(input_seqs)
    bounds = [int(input_seqs[e][1]) for e in epochs[:-1]]
    lake_root = cfg.lake_root

    def tag_epoch(batch: pa.Table) -> pa.Table:
        # the bucket always comes from THIS lake's layout: an incoming
        # one (a caller's normalized Dataset, a source lake's stored
        # bucket) may belong to another
        batch = retag_bucket(bind_null_strings(batch), cfg.num_buckets, cfg.salt_for_repo)
        if "epoch" in batch.column_names:
            # hive-partitioned layouts (binlog/epoch=N/...) surface a
            # partition column; the engine epoch is derived from seq
            batch = batch.drop_columns(["epoch"])
        seq = np.asarray(batch["seq"].to_numpy(zero_copy_only=False), dtype=np.int64)
        idx = np.searchsorted(np.asarray(bounds, dtype=np.int64), seq, side="right")
        ep_col = np.asarray(epochs, dtype=np.int64)[idx]
        return batch.append_column("epoch", pa.array(ep_col, pa.int64()))

    def direct_write(batch: pa.Table) -> pa.Table:
        """Write this block's partial deltas straight to the lake:
        data never leaves the task (read -> CPU -> disk; no shuffle,
        no object-store round trip). One file per (task, epoch) with
        one row group per bucket slice so chain readers prune by the
        ``bucket`` filter (``publish_parquet``: content-addressed, so a
        retried task re-derives the same name — idempotent). With
        the default block rule a single-file epoch is one block, so
        this writes exactly one piece per (epoch, bucket) link.

        The LWW winner per (epoch, bucket, repo, path) is computed
        as an index permutation over the SMALL columns only (int64
        lexsort + dictionary-coded keys); the content payload is
        then gathered ONCE, winners-only, by a single ``take``.
        A full-table ``sort_by`` would copy every event's content
        bytes before dropping the losers — on this
        memory-bandwidth-bound stage that copy was the scaling
        bottleneck (BENCH/BASELINE.md).

        ``content_sha256`` is derived right after that ``take``, for
        the winners only (sha256 per row is the stage's dominant cost,
        and losers would be hashed only to be dropped); an input that
        already carries the column (a replicated feed) keeps it."""
        ge0 = batch["epoch"].to_numpy(zero_copy_only=False).astype(np.int64)
        gb0 = batch["bucket"].to_numpy(zero_copy_only=False).astype(np.int64)
        seq0 = batch["seq"].to_numpy(zero_copy_only=False).astype(np.int64)
        codes = key_codes(batch["repo"], batch["path"])
        ncodes = int(codes.max()) + 1
        nb = int(gb0.max()) + 1
        gid = (ge0 * nb + gb0) * ncodes + codes
        # stable sort by (gid, seq): last row of each gid run is the
        # max-seq winner (ties -> later batch position, matching the
        # stable-sort + "last" aggregate semantics of lww_reduce)
        perm = np.lexsort((seq0, gid))
        g = gid[perm]
        winners = perm[np.flatnonzero(np.append(g[1:] != g[:-1], True))]
        t = batch.take(pa.array(winners))  # the ONE content gather
        if "content_sha256" not in t.column_names:
            t = t.append_column("content_sha256", sha256_hex_array(t["content"]))
        t = t.drop_columns([c for c in ("ts", "epoch") if c in t.column_names])
        extras = sorted(
            c for c in t.column_names if c not in LAKE_COLS + ["bucket", "op", "seq"]
        )
        order = [
            c for c in LAKE_COLS + ["op", "seq", "bucket"] + extras
            if c in t.column_names
        ]
        t = t.select(order)  # the delta column contract (zero-copy)
        ge = ge0[winners]
        gb = gb0[winners]
        sid = ge * nb + gb  # winners are grouped: gid asc => (epoch, bucket) asc
        cuts = np.flatnonzero(np.diff(sid)) + 1
        starts = np.concatenate([[0], cuts]).astype(np.int64)
        ends = np.concatenate([cuts, [len(sid)]]).astype(np.int64)
        by_epoch: dict[int, list[tuple[int, pa.Table, str]]] = {}
        for s, e in zip(starts, ends):
            sl = t.slice(int(s), int(e - s))
            sha = table_state_sha256(sl, ("repo", "path"), "content_sha256")
            by_epoch.setdefault(int(ge[s]), []).append((int(gb[s]), sl, sha))
        rows = []
        for ep_id, slices in sorted(by_epoch.items()):
            # one row group per bucket slice: rg ordinals index them
            fname = publish_parquet(
                os.path.join(lake_root, f"epoch={ep_id:05d}"), [sl for _, sl, _ in slices], "delta"
            )
            for rg, (part, sl, sha) in enumerate(slices):
                rows.append({
                    "epoch": ep_id, "part": part, "file": fname, "rg": rg,
                    "rows": sl.num_rows, "state_sha256": sha, "kind": "delta",
                    "block": int(not rows),  # 1 on each block's first piece
                })
        return pa.Table.from_pylist(rows)

    def write_block(batch: pa.Table) -> pa.Table:
        # a union can hand over a zero-row block with no columns at all
        if batch.num_rows == 0:
            return pa.table({})
        return direct_write(tag_epoch(batch))

    plans = [events] if isinstance(events, (_Scan, _PartScan)) else events
    if isinstance(plans, list):
        items = [(i, b) for i, plan in enumerate(plans) for b in plan.blocks]
        rows = _gather(
            _per_part(items, lambda it: write_block(plans[it[0]].read(it[1])))
        ).to_pylist()
    else:
        ds = events.map_batches(write_block, batch_format="pyarrow", batch_size=None)
        rows = [dict(r) for r in ds.take_all()]
    read_blocks = sum(int(r["block"]) for r in rows)
    rows, folded = _fold_long_chains(rows, epochs[0], cfg, log)
    sec = time.monotonic() - t0

    by_epoch: dict[int, list[dict]] = {}
    for r in rows:
        by_epoch.setdefault(int(r["epoch"]), []).append(r)
    out = []
    for engine_epoch in epochs:  # commit (+ seal) strictly in order
        mine = by_epoch.get(engine_epoch, [])
        committed = _commit_manifest_rows(
            log, engine_epoch, mine, input_seqs[engine_epoch], seal=seal
        )
        out.append({
            "epoch": engine_epoch,
            "skipped": False,
            "mode": "delta",
            "parts_committed": committed,
            "pieces": len(mine),
            "read_blocks": read_blocks,
            "rows_written": sum(int(r["rows"]) for r in mine),
            "folded": sum(1 for e, _ in folded if e == engine_epoch),
            "sec": round(sec / len(epochs), 4),
        })
    if seal:
        _write_lineage(cfg.lake_root, log, out[-1])
    return out


def _fold_long_chains(
    rows: list[dict], first_epoch: int, cfg: ReplayConfig, log: CommitLog
) -> tuple[list[dict], set[tuple[int, int]]]:
    """Bound every part's merge-on-read chain before a window commits.
    Walking the window's epochs in order, a part whose chain (committed
    links, plus one link per window epoch that touched it) would exceed
    ``cfg.delta_threshold`` at an epoch is folded THERE: everything up
    to that epoch resolves into ONE full base, which replaces that
    epoch's delta pieces in ``rows`` and restarts the chain count, so
    the bound holds at every sealed epoch, not only at the window's
    end. A later fold of the same part in the window resolves the whole
    chain again (the earlier base is not written yet), which reads more
    but yields the same state. Superseded history stays in the log
    until ``snapshot_every`` or ``compact`` rolls it into the snapshot,
    so time-travel reads keep it.

    A fold never takes an epoch number of its own (unlike ``compact``,
    whose maintenance epoch would steal the next binlog epoch's fixed
    number). Every link it writes is the part's true state at that
    epoch, so a crashed window rerun that folds differently still
    commits a correct chain under the (epoch, part) fence.

    Returns the rows to commit and the folded (epoch, part) slots."""
    links: dict[int, dict[int, list[dict]]] = {}
    for r in rows:
        links.setdefault(int(r["part"]), {}).setdefault(int(r["epoch"]), []).append(r)
    committed = _chains_payload(log, upto_epoch=first_epoch - 1)
    items = []
    for part, by_epoch in sorted(links.items()):
        chain = list(committed.get(part, []))
        n = len(chain)  # links on top of the part's latest base
        for e, pieces in sorted(by_epoch.items()):
            chain.append({
                "epoch": e,
                "kind": "delta",
                "files": [r["file"] for r in pieces],
                "rgs": [int(r["rg"]) for r in pieces],
            })
            n += 1
            if n > cfg.delta_threshold:
                items.append((e, part, list(chain)))
                n = 1
    if not items:
        return rows, set()
    folded = {(e, p) for e, p, _ in items}
    kept = [r for r in rows if (int(r["epoch"]), int(r["part"])) not in folded]
    return kept + _write_bases(cfg, items), folded


def _write_bases(cfg: ReplayConfig, items: list[tuple[int, int, list[dict]]]) -> list[dict]:
    """Resolve each ``(epoch, part, chain)`` item and write the part's
    state as a full base at ``epoch`` — the one per-bucket body of
    ``compact`` and the pre-commit fold. The parts fan out over the
    cluster's CPUs (``_per_part``), each part reading ONLY its own
    chain (no shuffle); the task already holds the resolved state, so
    it writes it itself (``write_piece_local``: content-addressed, so
    retries are idempotent; the driver's commit-log fence does the
    rest). Returns the manifest rows."""
    lake_root = cfg.lake_root
    target = cfg.compact_target_bytes

    def write_base(item: tuple[int, int, list[dict]]) -> pa.Table:
        epoch, part, chain = item
        state = read_chain(chain, part=part)
        # rewritten bases are SORTED by key: parquet row-group min/max
        # stats then prune point/repo lookups to O(one row group)
        # (read_chain key_filter), pieces sliced below get tight
        # disjoint key ranges, and sorted content compresses better.
        # All state digests are order-insensitive (table_state_sha256
        # canonicalizes), so this is free.
        if state.num_rows > 1:
            state = state.sort_by([("repo", "ascending"), ("path", "ascending")])
        # target-size split: slice the rewritten base into ~equal row
        # ranges sized by in-memory bytes; each slice is its own
        # content-addressed piece, folded into ONE multi-file part
        # entry by _commit_manifest_rows (readers are unchanged —
        # read_chain reads every file of a link). Deterministic given
        # the chain, so retries stay idempotent. An emptied part still
        # commits exactly one (0-row) base, or the chain would carry its
        # stale state forward.
        n_pieces = 1
        if target and state.num_rows and state.nbytes > target:
            n_pieces = min(state.num_rows, -(-state.nbytes // target))
        step = max(1, -(-state.num_rows // n_pieces))
        return pa.Table.from_pylist([
            write_piece_local(lake_root, epoch, part, state.slice(off, step), "full")
            for off in range(0, max(1, state.num_rows), step)
        ])

    return _gather(_per_part(items, write_base)).to_pylist()


def compact(cfg: ReplayConfig, log: CommitLog | None = None) -> dict:
    """Distributed end-of-stream compaction: every bucket whose
    merge-on-read chain is longer than 1 file is resolved and rewritten
    as a single base file, committed as a new (maintenance) epoch.

    The buckets fan out over the cluster's CPUs (``_write_bases``) —
    each bucket reads ONLY its own chain (no shuffle). NOTE: the
    maintenance epoch takes the next epoch number, so call this at a
    stream checkpoint/end, not between fixture epochs with fixed
    numbering.

    Refuses while a feed apply is IN FLIGHT on this lake: a replica's
    ``feed_map.json`` reserves a segment's epoch durably BEFORE the
    epoch seals, and compaction stealing that number would make the
    restarted ``replicate_feed`` see its reserved epoch sealed and skip
    the segment — silent data loss. (Compaction's own crashed epoch is
    not a reservation; its rerun resumes under the (epoch, part)
    fence as before.)"""
    log = log or CommitLog.open(cfg.lake_root)
    t0 = time.monotonic()
    chains = _chains_payload(log, upto_epoch=log.latest_sealed_epoch())
    todo = {p: c for p, c in chains.items() if len(c) > 1 or any(l["kind"] != "full" for l in c)}
    if not todo:
        return {"epoch": None, "compacted": 0, "sec": 0.0, "skipped": True}
    pending = sorted(e for e in _feed_map(cfg.lake_root).values() if not log.is_sealed(e))
    if pending:
        raise ValueError(
            f"compact: feed epoch(s) {pending} are reserved but "
            "unsealed (an in-flight replicate_feed apply) — drain "
            "the feed first; a maintenance epoch stealing the "
            "reserved number would make the restarted apply skip "
            "its segment"
        )
    epoch = (log.latest_sealed_epoch() or 0) + 1
    if epoch in log.unsealed_epochs():
        # a crashed REPLAY's fenced partial commits at this epoch:
        # compacting into it would mix maintenance bases with the
        # crashed attempt's deltas and seal the mix — the restarted
        # replay would see the epoch sealed and skip it, silently
        # losing its remaining events. Compaction's OWN crashed attempt
        # (entries stamped with the maintenance input_seq marker)
        # resumes under the fence as before.
        leftover = [e for e in log.all_entries() if e.epoch == epoch]
        if any(e.input_seq != _MAINT_SEQ for e in leftover):
            raise ValueError(
                f"compact: epoch {epoch} has committed-unsealed entries from "
                "a crashed replay or txn — resume that replay to completion, "
                "or drop_unsealed_epoch() to discard it, before compacting"
            )

    rows = _write_bases(cfg, [(epoch, p, c) for p, c in sorted(todo.items())])
    # the maintenance marker lets a rerun distinguish compaction's own
    # crashed entries (resumable) from a crashed replay's (refused)
    _commit_manifest_rows(log, epoch, rows, _MAINT_SEQ, seal=True)
    live = log.write_snapshot()  # chains are shortest right after compaction
    metrics = {
        "epoch": epoch,
        "skipped": False,
        "mode": "compact",
        "compacted": len(rows),
        "rows_written": sum(int(r["rows"]) for r in rows),
        "log_live_entries": live,
        "sec": round(time.monotonic() - t0, 4),
    }
    _write_lineage(cfg.lake_root, log, metrics)
    return metrics


def rebucket(
    cfg_or_root,
    dest_root: str,
    num_buckets: int,
    salt_for_repo: dict[str, int] | None = None,
) -> dict:
    """Bucket-layout migration (Iceberg partition-spec-evolution
    equivalent): rewrite the lake's CURRENT resolved state into a fresh
    lake at ``dest_root`` under a new (num_buckets, salt) layout.

    The commit log's layout fence makes a lake's bucket routing
    immutable IN PLACE — correctly so, since every persisted file and
    chain entry embeds its bucket id. Changing the partition count
    (scale the cluster up, onboard a hotter key distribution) is
    therefore an explicit rewrite, and it needs no shuffle: the source
    state is already split by bucket. The source's parts are the read
    blocks (``_part_scan``) of one epoch-kernel write, as all-insert
    events (``_seed_as_insert``, the bootstrap's shape) committed and
    sealed as the destination's epoch 0; each block's task resolves
    its parts, re-derives every row's bucket under the new layout and
    writes its own piece per new part. The source lake is untouched
    (rollback = keep using it); the state sha256 is layout-independent,
    so migration success is checkable as ``lake_state_hash(src) ==
    lake_state_hash(dest)``."""
    src_root = _root_of(cfg_or_root)
    src_log = CommitLog.open(src_root)
    head = src_log.latest_sealed_epoch()
    if head is None:
        raise ValueError(f"source lake at {src_root} has no sealed epochs")
    os.makedirs(dest_root, exist_ok=True)
    dest = ReplayConfig(
        lake_root=dest_root, num_buckets=num_buckets, salt_for_repo=dict(salt_for_repo or {})
    )
    dest_log = CommitLog.open(dest_root)
    if dest_log.latest_sealed_epoch() is not None or dest_log.lineage():
        raise ValueError(
            f"destination {dest_root} already holds committed state; "
            "rebucket only writes into an empty lake root"
        )
    dest_log.ensure_layout(dest.layout())
    parts = _part_scan(_chains_payload(src_log, upto_epoch=head), _seed_as_insert)
    m = _apply_epochs(parts, {0: None}, dest, dest_log)[0]
    return {
        "epoch": 0,
        "mode": "rebucket",
        "parts": m["parts_committed"],
        "rows_written": m["rows_written"],
        "sec": m["sec"],
    }


def bucket_stats(cfg_or_root) -> dict:
    """Per-bucket skew audit from commit-log METADATA only — no data
    file is opened. For each partition's current merge-on-read chain:
    chain row volume (the resolve work a reader pays; full + delta
    rows, so overlapping keys count per layer), delta depth, and file
    references. The summary's ``skew`` (max/mean chain rows) is the
    ops signal that a hot key needs ``salt_for_repo`` splitting or a
    ``rebucket`` migration. Returns {"parts": pa.Table, "summary":
    dict}."""
    root = cfg_or_root if isinstance(cfg_or_root, str) else cfg_or_root.lake_root
    log = CommitLog.open(root)
    chains = log.part_chains()
    parts, rows, files, deltas, epochs = [], [], [], [], []
    for p in sorted(chains):
        c = chains[p]
        parts.append(int(p))
        rows.append(int(sum(e.rows for e in c)))
        files.append(int(sum(len(e.files) for e in c)))
        deltas.append(int(sum(1 for e in c if e.kind != "full")))
        epochs.append(int(c[-1].epoch))
    tbl = pa.table({
        "part": pa.array(parts, pa.int64()),
        "chain_rows": pa.array(rows, pa.int64()),
        "chain_files": pa.array(files, pa.int64()),
        "delta_depth": pa.array(deltas, pa.int64()),
        "latest_epoch": pa.array(epochs, pa.int64()),
    })
    mean_rows = (sum(rows) / len(rows)) if rows else 0.0
    summary = {
        "parts": len(parts),
        "total_chain_rows": int(sum(rows)),
        "max_chain_rows": int(max(rows)) if rows else 0,
        "mean_chain_rows": round(mean_rows, 1),
        "skew": round(max(rows) / mean_rows, 3) if mean_rows else 0.0,
        "max_delta_depth": int(max(deltas)) if deltas else 0,
    }
    return {"parts": tbl, "summary": summary}


def auto_salt_plan(cfg_or_root, skew_threshold: float = 2.0,
                   max_salt: int = 64) -> dict:
    """Threshold-triggered salt proposal from MEASURED skew: when
    ``bucket_stats`` reports max/mean chain rows above
    ``skew_threshold``, read ONLY the hot buckets' chains (fanned out
    over the cluster's CPUs — never the whole lake), find each one's
    dominant repo, and propose a ``salt_for_repo`` split sized to
    flatten it (current_salt x ceil(hot_rows / mean_rows), capped). A
    repo is proposed only when it DOMINATES its bucket (>50% of the
    bucket's RESOLVED rows — chain rows double-count superseded keys on
    update-heavy buckets) — salting a minority repo cannot fix the
    bucket.

    Returns {"salt_for_repo": {...}, "hot_parts": [...], "summary":
    bucket_stats summary}. The plan is advisory: the commit-log layout
    fence makes salt immutable in place, so applying it is an explicit
    ``auto_rebucket``/``rebucket`` migration."""
    import math

    root = _root_of(cfg_or_root)
    stats = bucket_stats(root)
    summary = stats["summary"]
    mean = float(summary["mean_chain_rows"]) or 0.0
    out = {"salt_for_repo": {}, "hot_parts": [], "summary": summary}
    if mean <= 0 or summary["skew"] <= skew_threshold:
        return out
    t = stats["parts"]
    hot = [
        (int(p), int(r))
        for p, r in zip(t["part"].to_pylist(), t["chain_rows"].to_pylist())
        if r > skew_threshold * mean
    ]
    out["hot_parts"] = [p for p, _ in hot]
    log = CommitLog.open(root)
    cur_salt = (log.layout or {}).get("salt", {})
    chains = _chains_payload(log, upto_epoch=log.latest_sealed_epoch())

    def top_repo(item: dict) -> pa.Table:
        # one hot part: resolve its chain, find its most frequent repo
        state = read_chain(item["chain"], columns=["repo"], part=int(item["part"]))
        if state is None or state.num_rows == 0:
            return pa.table({})
        red = state.group_by(["repo"], use_threads=False).aggregate([([], "count_all")])
        top = int(np.argmax(red["count_all"].to_numpy()))
        # the part's RESOLVED row total — dominance must compare
        # resolved-to-resolved; chain rows count superseded keys per
        # delta layer, so update-heavy hot buckets would spuriously
        # fail a resolved-vs-chain comparison
        return pa.table({"repo": red["repo"][top:top + 1],
                         "rows": red["count_all"][top:top + 1].cast(pa.int64()),
                         "part_rows": pa.array([state.num_rows], pa.int64())})

    items = [{"part": p, "chain": chains[p]} for p, _ in hot]
    for top in _gather(_per_part(items, top_repo)).to_pylist():
        repo = top["repo"]
        if repo is None or top["rows"] * 2 <= top["part_rows"]:
            continue  # no dominant repo: salting cannot flatten this part
        # factor sized against MEAN CHAIN rows (the only fleet-wide
        # denominator available without reading every part) — chain >=
        # resolved, so the split can only be UNDERSIZED, which is safe:
        # a re-run of auto_rebucket strictly reduces the hot bucket
        factor = max(2, math.ceil(int(top["rows"]) / mean))
        proposed = min(max_salt, int(cur_salt.get(repo, 1)) * factor)
        out["salt_for_repo"][repo] = max(
            proposed, out["salt_for_repo"].get(repo, 0)
        )
    return out


def auto_rebucket(cfg_or_root, dest_root: str, skew_threshold: float = 2.0,
                  max_salt: int = 64) -> dict:
    """One-call skew remediation: measure, plan, and (iff the threshold
    trips) run the ``rebucket`` migration into ``dest_root`` with the
    proposed salts MERGED over the lake's current salt config, keeping
    the bucket count. State is layout-independent — success is
    ``lake_state_hash(src) == lake_state_hash(dest)`` (the rebucket
    contract); a below-threshold lake returns ``{"skipped": True}`` and
    writes nothing."""
    root = _root_of(cfg_or_root)
    plan = auto_salt_plan(root, skew_threshold=skew_threshold, max_salt=max_salt)
    if not plan["salt_for_repo"]:
        return {"skipped": True, "plan": plan}
    log = CommitLog.open(root)
    layout = log.layout or {}
    merged = {**layout.get("salt", {}), **plan["salt_for_repo"]}
    m = rebucket(
        root, dest_root,
        num_buckets=int(layout.get("num_buckets") or 32),
        salt_for_repo=merged,
    )
    return {"skipped": False, "plan": plan, "salt_for_repo": merged, **m}


def _erase_rewrite_file(job: tuple[str, str, str, str | None]) -> pa.Table:
    """Rewrite one parquet file ``src`` as ``dst`` with every row of the
    target ``(repo, path)`` key removed, PRESERVING row-group count and
    order (0-row groups are written for fully-erased slices) so entries
    that address this file by row-group ordinal stay valid. Published
    under the caller's name (``publish_parquet``). Returns the rows
    erased, as one row."""
    import pyarrow.parquet as _pq

    src, dst, repo, path = job
    f = _pq.ParquetFile(src)
    groups = [f.read_row_group(i) for i in range(f.num_row_groups)]
    kept = [_without_key(t, repo, path) for t in groups]
    publish_parquet(os.path.dirname(dst), kept, name=os.path.basename(dst))
    return pa.table({"erased": [sum(t.num_rows for t in groups) - sum(t.num_rows for t in kept)]})


def _without_key(t: pa.Table, repo: str, path: str | None) -> pa.Table:
    """``t`` without the rows of one ``(repo, path)`` key, or of every
    path of ``repo`` when ``path`` is None."""
    keep = pc.invert(pc.equal(t["repo"], repo))
    if path is not None:
        keep = pc.or_(keep, pc.invert(pc.equal(t["path"], path)))
    return t.filter(pc.fill_null(keep, True))


def erase_key(cfg_or_root, repo: str, path: str | None = None) -> dict:
    """PHYSICAL erasure (right-to-be-forgotten): remove every surviving
    stored version of one ``(repo, path)`` key — or a whole repo — from
    the lake's data files, across bases, merge-on-read deltas and the
    still-answerable time-travel history. A logical delete (a 'D'
    event) hides a key from the current state but keeps its bytes in
    older epochs; GDPR/CCPA erasure demands the bytes themselves go.

    How: candidate buckets via the layout fence (O(salt) buckets, not
    O(lake)); their entries' files are probed with a pushed-down key
    filter; each affected file is rewritten WITHOUT the key's rows (the
    files fan out over the cluster's CPUs, ``_per_part``),
    preserving row-group count/order (0-row groups keep ordinal
    addressing valid for every entry sharing the file — direct-mode
    files hold one group per bucket). Every log entry referencing a
    rewritten file is then atomically REPLACEd (same (epoch, part)
    slot, new files/rows/sha — ``CommitLog.replace_entries``), and the
    old files are deleted once nothing references them.

    Crash-safety: rewrites publish atomically and the REPLACE batch is
    one fsynced append BEFORE any old file is deleted; a crash earlier
    leaves the lake untouched plus orphan rewrite files (vacuum
    collects them), a re-run converges (the probe no longer matches
    erased files). Erasure intentionally changes history: as-of reads
    and ``key_history`` see the redacted state, ``lake_state_hash``
    changes, and downstream copies (changelog export spools, maintained
    views) must be erased by their own owners."""
    import hashlib

    import pyarrow.parquet as pq

    from ..functions.hashing import buckets_for_key, table_state_sha256

    log = CommitLog.open(_root_of(cfg_or_root))
    num_buckets, salt = _layout_of(log)
    cands = set(buckets_for_key(repo, path, num_buckets, salt))

    # probe: which files actually hold the key (pushdown; candidate
    # buckets only — a file shared across buckets can only hold the key
    # in a candidate bucket's rows)
    kf = [("repo", "=", repo)] + ([("path", "=", path)] if path is not None else [])
    affected: list[str] = []
    seen: set[str] = set()
    for entry in log.all_entries():
        if entry.part not in cands:
            continue
        for f in entry.files:
            if f in seen:
                continue
            seen.add(f)
            t = pq.read_table(f, columns=["repo"], filters=kf)
            if t.num_rows:
                affected.append(f)
    if not affected:
        return {"files_rewritten": 0, "rows_erased": 0, "entries_replaced": 0,
                "files_deleted": 0}

    renames: dict[str, str] = {}
    for f in affected:
        tag = hashlib.sha256(f"{os.path.basename(f)}|{repo}|{path}".encode()).hexdigest()[:16]
        renames[f] = os.path.join(os.path.dirname(f), f"erased-{tag}.parquet")

    # the files are independent: one fan-out rewrites them
    jobs = [(f, renames[f], repo, path) for f in affected]
    rows_erased = pc.sum(_gather(_per_part(jobs, _erase_rewrite_file))["erased"]).as_py()

    # rebuild every entry that references a rewritten file: new names,
    # recounted rows, recomputed state sha (per-piece digest combined in
    # file order — the same scheme _commit_manifest_rows commits)
    replaced: list[PartEntry] = []
    for entry in log.all_entries():
        if not any(f in renames for f in entry.files):
            continue
        new_files = tuple(renames.get(f, f) for f in entry.files)
        rgs = entry.rgs or (-1,) * len(entry.files)
        pieces = []
        total = 0
        for f, rg in zip(new_files, rgs):
            if rg is not None and int(rg) >= 0:
                piece = pq.ParquetFile(f).read_row_group(int(rg))
            else:
                piece = pq.read_table(f)
            total += piece.num_rows
            pieces.append((f, table_state_sha256(piece, ("repo", "path"), "content_sha256")))
        pieces.sort(key=lambda x: x[0])
        combined = hashlib.sha256("".join(s for _, s in pieces).encode()).hexdigest()
        replaced.append(PartEntry(
            epoch=entry.epoch, part=entry.part, files=new_files, rows=total,
            state_sha256=combined, input_seq=entry.input_seq, kind=entry.kind,
            rgs=entry.rgs,
        ))
    log.replace_entries(replaced)

    still = log.referenced_files()
    deleted = 0
    for f in affected:
        if f not in still and os.path.exists(f):
            os.remove(f)
            deleted += 1
    _write_lineage(_root_of(cfg_or_root), log, {
        "erase": {"repo": repo, "path": path, "rows_erased": rows_erased},
    })
    return {
        "files_rewritten": len(affected),
        "rows_erased": rows_erased,
        "entries_replaced": len(replaced),
        "files_deleted": deleted,
    }


def erase_key_from_feed(out_dir: str, repo: str, path: str | None = None) -> dict:
    """Scrub one key from an ``export_changelog`` spool at rest — the
    downstream half of ``erase_key``: the lake's own files forget the
    key, but a spooled CDC feed still carries its images until the
    owner scrubs it. Every parquet file in every segment (sealed or
    in-flight) is rewritten in place without the key's rows
    (``publish_parquet`` under the file's own name; segment names,
    ``_SEALED`` markers and the ``_CURSOR`` are untouched, so consumer
    positioning is unaffected — consumers that already applied the
    rows must erase their own sinks)."""
    import glob as _glob

    import pyarrow.parquet as pq

    feed = os.path.join(out_dir, "feed")
    rows_erased = 0
    files_rewritten = 0
    for f in sorted(_glob.glob(os.path.join(feed, "**", "*.parquet"), recursive=True)):
        t = pq.read_table(f)
        kept = _without_key(t, repo, path)
        if kept.num_rows == t.num_rows:
            continue
        publish_parquet(os.path.dirname(f), [kept], name=os.path.basename(f))
        rows_erased += t.num_rows - kept.num_rows
        files_rewritten += 1
    return {"feed_files_rewritten": files_rewritten, "feed_rows_erased": rows_erased}


def vacuum(cfg_or_root, dry_run: bool = False) -> dict:
    """Lake garbage collection: delete data files no commit-log entry
    references any more. ``CommitLog.write_snapshot`` (run after every
    compaction) prunes superseded chain ENTRIES — each part's pre-base
    history — from the log, but the parquet files those entries pointed
    at stay on disk forever; vacuum reclaims them. (The lake-lifecycle
    counterpart of Iceberg's remove-orphan-files / Hudi cleaner;
    nothing in the reference — its H2 metadata store grows unbounded.)

    Safety rules:
    - the retention set is ``CommitLog.referenced_files()``: every
      entry still in the log keeps its files, so every as-of read the
      retention floor permits still resolves. Vacuum never tightens
      time-travel — only ``write_snapshot`` advances the floor.
    - only files inside epoch directories <= the latest SEALED epoch
      are candidates: a crashed-but-retryable epoch's content-addressed
      files must survive until that epoch seals (single-writer
      assumption, same as the commit log: vacuum runs from the driver,
      never concurrently with an active writer).
    - sidecar state (the reconcile state dirs _reconcile_state and
      _reconcile_full, lineage.json, commitlog*) is not lake data and
      is never touched.

    Returns ``{checked, deleted, bytes_freed, dry_run, files}``
    (``files`` lists the victims only under ``dry_run``)."""
    import glob as _glob
    import re as _re

    root = os.path.abspath(_root_of(cfg_or_root))
    log = CommitLog.open(root)
    sealed = log.latest_sealed_epoch()
    out = {"checked": 0, "deleted": 0, "bytes_freed": 0, "dry_run": dry_run, "files": []}
    if sealed is None:
        return out

    def _tail(f: str) -> str | None:
        """Layout-canonical identity of a lake data file: its path from
        the LAST ``epoch=...`` segment down. Commit-log entries may
        record paths relative to a different cwd, or the lake may have
        been moved — resolving against the current cwd (abspath) would
        then match NOTHING and delete live bases. The epoch-tail is
        unique within one lake by construction (every data file lives
        at root/epoch=X/[part=Y/]name.parquet)."""
        parts = f.replace(os.sep, "/").split("/")
        for i in range(len(parts) - 1, -1, -1):
            if parts[i].startswith("epoch="):
                return "/".join(parts[i:])
        return None

    keep = {t for t in (_tail(f) for f in log.referenced_files()) if t is not None}
    if not keep:
        # a sealed lake whose entries yield no resolvable tails would
        # mark EVERYTHING as garbage — refuse instead of mass-deleting
        raise ValueError(
            f"lake at {root} has sealed epochs but no commit-log entry resolves "
            "to an epoch=* data path; refusing to vacuum"
        )
    for path in _glob.glob(os.path.join(root, "epoch=*", "**", "*.parquet"), recursive=True):
        m = _re.search(r"epoch=(\d+)", os.path.relpath(path, root))
        if m is None or int(m.group(1)) > sealed:
            continue
        out["checked"] += 1
        rel = _tail(path)
        if rel in keep:
            continue
        out["bytes_freed"] += os.path.getsize(path)
        out["deleted"] += 1
        if dry_run:
            out["files"].append(rel)
        else:
            os.remove(path)
    if not dry_run:
        # drop now-empty part/epoch dirs, deepest first
        dirs = _glob.glob(os.path.join(root, "epoch=*", "part=*")) + _glob.glob(
            os.path.join(root, "epoch=*")
        )
        for d in sorted(dirs, key=len, reverse=True):
            try:
                os.rmdir(d)
            except OSError:
                pass  # not empty — still holds live files
    return out


def _root_of(cfg_or_root) -> str:
    return cfg_or_root.lake_root if isinstance(cfg_or_root, ReplayConfig) else cfg_or_root


def _as_of_upto(log: CommitLog, as_of_epoch: int | None) -> int | None:
    """Validated chain horizon for an (optional) time-travel read.

    Refuses LOUDLY instead of answering wrong: an as-of beyond the
    sealed head would read uncommitted state; an as-of below the
    snapshot-truncation retention floor cannot be reconstructed (the
    older fulls/deltas are gone) and silently returning the partial
    chains would fabricate a lake state that never existed."""
    sealed = log.latest_sealed_epoch()
    if as_of_epoch is None:
        return sealed
    if sealed is None or as_of_epoch > sealed:
        raise ValueError(
            f"as_of_epoch={as_of_epoch} is beyond the sealed head ({sealed})"
        )
    floor = log.time_travel_floor()
    if as_of_epoch < floor:
        raise ValueError(
            f"as_of_epoch={as_of_epoch} predates the retention floor "
            f"({floor}): history was truncated by compaction/snapshot"
        )
    return as_of_epoch


def lake_dataset(
    cfg_or_root,
    columns: list[str] | None = None,
    as_of_epoch: int | None = None,
    repos: list[str] | None = None,
):
    """Committed lake state as a ``ray.data.Dataset`` — current by
    default, or AS OF a past sealed epoch (time travel over the
    merge-on-read chains; Iceberg/Hudi snapshot-read semantics).

    Fully-compacted lakes (every chain is one base file) read as a
    plain pruned, lazy ``read_parquet``. Lakes with merge-on-read
    deltas are resolved DISTRIBUTED and EAGERLY: the buckets fan out
    over the cluster's CPUs (``_per_part``), each bucket read +
    LWW-resolved from its own chain (no shuffle — the chain is already
    partitioned by bucket). The parts are resolved when this is
    called, one Arrow table per task held in the object store, and the
    Dataset is built over those refs (``rd.from_arrow_refs``). A part
    was always resolved whole inside one task; what is gone is the
    back-pressure, so the whole resolved state is in the object store
    at once (Ray spills it to disk past the store's capacity).

    Pass ``columns`` to prune at the read; restrict to pre-evolution
    columns when files span a schema change (Ray unifies blocks lazily,
    but a pruned uniform projection is both safer and cheaper).
    ``as_of_epoch`` reads are answerable back to the commit log's
    retention floor (``CommitLog.time_travel_floor``, persisted at
    snapshot time) and refused below it — see ``_as_of_upto``.

    ``repos`` prunes the read to the named repos: only the bucket
    chains those repos can route to (``buckets_for_key`` over the
    layout fence) are opened at all — a keyed scan of a few repos on a
    100 TB lake reads O(their buckets), not O(lake) — and the surviving
    blocks are row-filtered to exactly the requested repos."""
    import ray.data as rd

    log = CommitLog.open(_root_of(cfg_or_root))
    chains = _chains_payload(log, upto_epoch=_as_of_upto(log, as_of_epoch))
    repo_set = None
    if repos is not None:
        from ..functions.hashing import buckets_for_key

        num_buckets, salt = _layout_of(log)
        keep: set[int] = set()
        for r in repos:
            keep.update(buckets_for_key(r, None, num_buckets, salt))
        chains = {p: c for p, c in chains.items() if int(p) in keep}
        repo_set = pa.array(sorted(set(repos)), pa.string())
    # the bucket filter keeps false positives (other repos sharing a
    # candidate bucket), so the repo row filter needs `repo` even when
    # the caller's projection drops it — read it, project it back out
    read_cols = columns
    if repo_set is not None and columns is not None and "repo" not in columns:
        read_cols = ["repo", *columns]

    def prune(t: pa.Table) -> pa.Table:
        if repo_set is not None:
            t = t.filter(pc.is_in(t["repo"], value_set=repo_set))
        if columns is not None:
            t = t.select([c for c in columns if c in t.column_names])
        return t

    empty = pa.table({c: pa.array([], pa.string()) for c in (columns or ["repo", "path"])})
    if all(len(c) == 1 and c[0]["kind"] == "full" for c in chains.values()):
        files = [f for c in chains.values() for link in c for f in link["files"]]
        files = [f for f in sorted(files) if os.path.getsize(f) > 0]
        if not files:
            return rd.from_arrow(empty)
        ds = rd.read_parquet(files, columns=read_cols)
        if repo_set is None:
            return ds
        return ds.map_batches(prune, batch_format="pyarrow")

    def resolve_part(item: dict) -> pa.Table:
        t = read_chain(item["chain"], columns=read_cols, part=int(item["part"]))
        if t is None or t.num_rows == 0:
            return empty
        return prune(t)

    items = [{"part": p, "chain": c} for p, c in sorted(chains.items())]
    return rd.from_arrow_refs(_per_part(items, resolve_part))


def _layout_of(log: CommitLog) -> tuple[int, dict[str, int]]:
    """(num_buckets, salt map) from the commit log's layout fence —
    the read-side source of truth for bucket routing (refuses on a
    pre-fence lake, where routing is unknown)."""
    layout = log.layout
    if not layout or not layout.get("num_buckets"):
        raise ValueError(
            f"lake at {log.root} has no recorded layout; keyed reads "
            "need the bucket routing the lake was written under"
        )
    return int(layout["num_buckets"]), dict(layout.get("salt") or {})


def _lookup_log(root: str) -> CommitLog:
    """The lake's commit log for the read-only ``lake_lookup``, parsed
    again only when ``commitlog.snapshot.jsonl`` or ``commitlog.jsonl``
    changed: an append grows a file's size and ``CommitLog._write_atomic``
    replaces its inode, so an unchanged ``(st_ino, st_size,
    st_mtime_ns)`` of both files means an unchanged log. The stamps are
    taken BEFORE the parse, so a write racing the parse only costs the
    next call a re-parse. The parses of the last 8 (lake, stamps) pairs
    are kept, each shared by every lookup that hits it, so nothing may
    mutate a log this returns."""
    root = os.path.abspath(root)
    files = [os.path.join(root, n) for n in ("commitlog.snapshot.jsonl", "commitlog.jsonl")]
    stats = [os.stat(f) for f in files if os.path.exists(f)]
    return _parsed_log(root, tuple((s.st_ino, s.st_size, s.st_mtime_ns) for s in stats))


@functools.lru_cache(maxsize=8)
def _parsed_log(root: str, stamps: tuple) -> CommitLog:
    return CommitLog.open(root)


def lake_lookup(
    cfg_or_root,
    repo: str,
    path: str | None = None,
    columns: list[str] | None = None,
    as_of_epoch: int | None = None,
) -> pa.Table:
    """Pruned point / keyed read: the committed lake rows for one
    ``(repo, path)`` key or one whole ``repo``, touching ONLY the
    bucket chain(s) that can hold it (``buckets_for_key`` — the
    read-side inverse of the writer's routing). O(1 bucket) work for a
    point key and O(salt) buckets for a salted monorepo, on a lake of
    any size — the Iceberg/Hudi "partition pruning" answer to the
    reference's per-key JDBC SELECT (LoadJpatBatchesTasklet.java:91's
    row-at-a-time lookup), done over the layout fence instead of an
    index table.

    Time-travel composes: ``as_of_epoch`` prunes the same way over the
    historical chain horizon. Returns a (small) driver-side table —
    point results are O(key's rows); for bulk keyed scans use
    ``lake_dataset(repos=[...])``. The commit log is parsed once per
    change of its files (``_lookup_log``), not once per lookup."""
    log = _lookup_log(_root_of(cfg_or_root))
    num_buckets, salt = _layout_of(log)
    from ..functions.hashing import buckets_for_key

    cands = buckets_for_key(repo, path, num_buckets, salt)
    chains = _chains_payload(log, upto_epoch=_as_of_upto(log, as_of_epoch))
    need = None if columns is None else sorted({*columns, "repo", "path"})
    parts = []
    for p in cands:
        chain = chains.get(p)
        if not chain:
            continue
        t = read_chain(chain, columns=need, part=p, key_filter=(repo, path))
        if t is None or t.num_rows == 0:
            continue
        mask = pc.equal(t["repo"], repo)
        if path is not None:
            mask = pc.and_(mask, pc.equal(t["path"], path))
        t = t.filter(mask)
        if t.num_rows:
            parts.append(t)
    if not parts:
        return pa.table({})
    out = _unify_concat(parts)
    if columns is not None:
        out = out.select([c for c in columns if c in out.column_names])
    return out


def key_history(cfg_or_root, repo: str, path: str, columns: list[str] | None = None) -> pa.Table:
    """Version history of ONE ``(repo, path)`` key — every change the
    commit log can still answer, one row per epoch that wrote the key,
    in epoch order: ``(epoch, op, repo, path, *columns)`` with op ∈
    {'I','U','D'} as recorded by the ingest events (the key-level
    audit/debug read every CDC store grows: "who changed this row,
    when, to what").

    How: the key routes to exactly one bucket (``buckets_for_key`` over
    the layout fence); every surviving log entry of that bucket is read
    key-filtered (row-group stats pruning via the same pushdown as
    ``lake_lookup``). A delta entry carries exactly its own epoch's LWW
    winner for the key (direct-mode partial pieces may overlap — those
    carry ``seq`` and resolve by max seq, the engine's own read-time
    rule); a FULL entry (bootstrap / compacted base) carries collapsed
    state with no per-event op, surfacing as 'I' at the base's epoch —
    exactly the horizon time travel can still reconstruct; older
    history is gone by the same retention ``time_travel_floor``
    enforces.

    Scale shape: O(entries of ONE bucket) small pruned reads, driver
    work O(this key's writes) — independent of lake size. Each epoch
    stores only its LWW winner, so intra-epoch overwrites are
    pre-collapsed by the engine's own semantics."""
    import pyarrow.parquet as pq

    from ..functions.hashing import buckets_for_key
    from ..stages.merge import _pqfile

    log = CommitLog.open(_root_of(cfg_or_root))
    num_buckets, salt = _layout_of(log)
    [part] = buckets_for_key(repo, path, num_buckets, salt)
    payload = [c for c in (columns or []) if c not in ("repo", "path", "op")]
    need = {"repo", "path", "op", "seq", *payload}

    by_epoch: dict[int, list[dict]] = {}
    for entry in log.entries_for_part(part):
        rgs = entry.rgs or (-1,) * len(entry.files)
        for f, rg in zip(entry.files, rgs):
            cols = [c for c in _file_schema(f).names if c in need]
            if rg is not None and int(rg) >= 0:
                t = _pqfile(f).read_row_group(int(rg), columns=cols)
            else:
                t = pq.read_table(
                    f, columns=cols,
                    filters=[("repo", "=", repo), ("path", "=", path)],
                )
            t = t.filter(pc.and_(pc.equal(t["repo"], repo), pc.equal(t["path"], path)))
            if t.num_rows:
                by_epoch.setdefault(entry.epoch, []).extend(t.to_pylist())

    rows = []
    for epoch in sorted(by_epoch):
        cands = by_epoch[epoch]
        # direct-mode overlapping partials carry seq: max seq is the
        # epoch winner (the engine's read-time rule); collapsed files
        # have no seq and hold exactly one winner row already
        win = max(cands, key=lambda r: (r.get("seq") is not None, r.get("seq") or 0))
        rows.append({
            "epoch": int(epoch),
            "op": win.get("op") or "I",
            "repo": repo,
            "path": path,
            **{c: win.get(c) for c in payload},
        })
    fields = ["epoch", "op", "repo", "path", *payload]
    if not rows:
        return pa.table({
            "epoch": pa.array([], pa.int64()), "op": pa.array([], pa.string()),
            "repo": pa.array([], pa.string()), "path": pa.array([], pa.string()),
            **{c: pa.array([], pa.string()) for c in payload},
        })
    return pa.Table.from_pylist(rows).select(fields)


def lake_table(cfg_or_root, as_of_epoch: int | None = None) -> pa.Table:
    """Driver-side full lake state (schema-unified, chain-resolved),
    current or AS OF a past sealed epoch. Small scales / tests only —
    the distributed path is ``lake_dataset``."""
    log = CommitLog.open(_root_of(cfg_or_root))
    chains = _chains_payload(log, upto_epoch=_as_of_upto(log, as_of_epoch))
    parts = []
    for p, chain in sorted(chains.items()):
        t = read_chain(chain, part=int(p))
        if t is not None and t.num_rows > 0:
            parts.append(t)
    tbl = _unify_concat(parts) if parts else None
    return tbl if tbl is not None else pa.table({})


def _file_schemas(log: CommitLog, upto_epoch: int | None) -> list[tuple[int, pa.Schema]]:
    """``(epoch, schema)`` of every distinct file the log's surviving
    entries reference up to ``upto_epoch``, from parquet FOOTERS only,
    in (epoch, part) order of each file's first reference. Each footer
    is read once per process (``merge._file_schema``, shared with chain
    reads), so a repeated call — every image-carrying changelog, hence
    every ``MaintainedView.advance`` — reads only the files new since
    the last one."""
    seen: set[str] = set()
    out = []
    for entry in sorted(log.all_entries(), key=lambda e: (e.epoch, e.part)):
        if upto_epoch is not None and entry.epoch > upto_epoch:
            continue
        for f in entry.files:
            if f not in seen:
                seen.add(f)
                out.append((entry.epoch, _file_schema(f)))
    return out


def _payload_schema(log: CommitLog, upto_epoch: int | None) -> dict[str, pa.DataType]:
    """The lake's unified logical payload schema at ``upto_epoch``, from
    the surviving files' footers (``_file_schemas``). Engine-internal
    columns are elided; types that widened mid-stream unify via
    ``_safe_widen`` (newest wins when no lossless widening exists,
    matching what chain resolution itself produces)."""
    out: dict[str, pa.DataType] = {}
    for _, schema in _file_schemas(log, upto_epoch):
        for name, typ in zip(schema.names, schema.types):
            if name in ("bucket", "op", "seq", "ts", "epoch"):
                continue
            prev = out.get(name)
            if prev is None or prev.equals(typ):
                out[name] = typ
            else:
                out[name] = _safe_widen(prev, typ) or typ
    return out


def _same(a, b):
    """Null-safe equality of two image columns; NaN equals NaN, so an
    unchanged NaN image is no change."""
    same = pc.or_kleene(pc.equal(a, b), pc.and_(pc.is_null(a), pc.is_null(b)))
    if pa.types.is_floating(a.type):
        same = pc.or_kleene(same, pc.and_(pc.is_nan(a), pc.is_nan(b)))
    return pc.fill_null(same, False)


def lake_changelog(
    cfg_or_root,
    from_epoch: int | None,
    to_epoch: int | None = None,
    image_cols: list[str] | str | None = None,
):
    """CDC feed OUT of the lake: the per-key changes between two sealed
    states, as a Dataset of ``(repo, path, change, content_sha256)``
    with change ∈ {'I','U','D'} ('U' = key present in both states
    with differing content sha; 'D' rows carry the OLD sha). The
    downstream-consumer side of the engine's own ingest
    surface (Debezium-style outbound feed / incremental-view input).

    ``from_epoch=None`` diffs from the EMPTY lake: every live key at
    ``to_epoch`` as an 'I' — the snapshot an export spool bootstraps
    from (``export_changelog``, ``compact_feed``). The empty state
    predates every retention floor, so it is always answerable.

    ``image_cols``: lake payload columns to carry as before/after
    images — each requested column ``c`` is emitted as ``{c}_old``
    (null on 'I') and ``{c}_new`` (null on 'D'), the input an
    incremental view maintainer (``stages.ivm``) needs to apply signed
    deltas without re-reading either state. Request only the columns
    the view consumes: images ride the feed, so an unpruned request
    ships the whole payload twice. ``"all"`` expands to the lake's
    full payload schema (footer-derived) — the full-fidelity feed a
    lake-to-lake replica (``replicate_feed``) consumes. Columns absent
    from one side of the diff (mid-stream schema evolution) surface as
    typed nulls, so a feed spanning an evolution stays one schema per
    segment.

    Scale shape: both states' chains share the SAME bucket layout, so
    each partition is diffed over its own two chains, the partitions
    fanned out over the cluster's CPUs (``_per_part``) — no shuffle,
    no driver materialization; per bucket, the reconcile kernel
    (``stages.reconcile.reconcile_pair_pdf``) outer-diffs the old
    state (left) against the new one (right). The diff runs EAGERLY,
    when this is called: each task's feed rows are held in the object
    store, with no back-pressure, and the Dataset is built over those
    refs (``rd.from_arrow_refs``).
    Only partitions whose chain differs between the two epochs are
    diffed (equal chains resolve to equal states), so the cost is
    O(changed partitions' chains); a window that changed none returns
    a typed empty feed without reading any data. A past ``from_epoch``
    is subject to the same retention-floor refusal as time travel
    (``_as_of_upto``)."""
    import ray.data as rd

    items, diff_part, feed_schema = _changelog_diff(cfg_or_root, from_epoch, to_epoch, image_cols)
    if not items:
        return rd.from_arrow(feed_schema.empty_table())
    return rd.from_arrow_refs(_per_part(items, diff_part))


def _changelog_diff(cfg_or_root, from_epoch: int | None, to_epoch: int | None, image_cols):
    """The plan of ``lake_changelog``: ``(items, diff_part,
    feed_schema)``, one item per partition whose chain differs between
    the two sealed states, and ``diff_part(item)`` its feed rows at
    ``feed_schema``. ``lake_changelog`` runs it into a Dataset, the
    export (``_write_segment``) into a spool segment."""
    log = CommitLog.open(_root_of(cfg_or_root))
    upto_to = _as_of_upto(log, to_epoch)
    upto_from = None if from_epoch is None else _as_of_upto(log, from_epoch)
    if upto_to is None or (upto_from is not None and upto_from > upto_to):
        raise ValueError(
            f"from_epoch={from_epoch} must be <= to_epoch "
            f"({upto_to}): an inverted changelog would feed a consumer "
            "reversed I/D semantics"
        )
    old = {} if upto_from is None else _chains_payload(log, upto_epoch=upto_from)
    new = _chains_payload(log, upto_epoch=upto_to)
    items = [
        {"part": p, "old": old.get(p, []), "new": new.get(p, [])}
        for p in sorted(set(old) | set(new))
        if old.get(p) != new.get(p)
    ]
    # image types resolved driver-side from footers (metadata-only, one
    # pass): a bucket whose state predates an evolved column null-fills
    # it at this exact type, so every diff block shares one schema
    sch = _payload_schema(log, upto_to) if image_cols else {}
    if image_cols == "all":
        image_cols = sorted(sch)
    images = [c for c in (image_cols or []) if c not in ("repo", "path")]
    attrs = [c for c in images if c != "content_sha256"]
    cols = ["repo", "path", "content_sha256"] + attrs
    img_types = {c: sch.get(c, pa.string()) for c in images}

    feed_schema = pa.schema(
        [pa.field(c, pa.string()) for c in ("repo", "path", "change", "content_sha256")]
        + [pa.field(f"{c}_{s}", img_types[c]) for c in images for s in ("old", "new")]
    )
    # both states at the feed's types, so the two sides and every diff
    # block share one schema
    state_schema = pa.schema(
        [feed_schema.field(c) for c in ("repo", "path", "content_sha256")]
        + [pa.field(c, img_types[c]) for c in attrs]
    )

    def state(chain: list[dict], part: int) -> pa.Table:
        t = read_chain(chain, columns=cols, part=part)
        if t is None:
            return state_schema.empty_table()
        for c in cols:
            if c not in t.column_names:
                t = t.append_column(c, pa.nulls(t.num_rows, state_schema.field(c).type))
        return t.select(cols).cast(state_schema, safe=False)

    def diff_part(item: dict) -> pa.Table:
        part = int(item["part"])
        # old state left, new state right: MISSING_LEFT is an insert,
        # MISSING_RIGHT a delete, VALUE_DIFF an update
        d = reconcile_pair_pdf(
            state(item["old"], part), state(item["new"], part),
            ["repo", "path"], "content_sha256", attrs,
        )
        st = d["status"]
        ins, dele = pc.equal(st, STATUS_MISSING_LEFT), pc.equal(st, STATUS_MISSING_RIGHT)
        # a key in both states changed iff its sha or an image column
        # differs, compared null-safely: the kernel never matches a
        # null sha, so its status alone would report an unchanged
        # null-content key as 'U' in every window. The sha covers
        # `content` only — a payload/image column can change under an
        # unchanged content (e.g. a mid-stream added column landing its
        # first value), and image consumers (IVM views, replicas) must
        # see that as 'U' too.
        changed = pc.or_(ins, dele)
        for c in ["content_sha256", *attrs]:
            changed = pc.or_(changed, pc.invert(_same(d[f"{c}_l"], d[f"{c}_r"])))
        f = {
            "repo": d["repo"],
            "path": d["path"],
            "change": pc.if_else(ins, "I", pc.if_else(dele, "D", "U")),
            "content_sha256": pc.if_else(
                dele, d["content_sha256_l"], d["content_sha256_r"]
            ),
        }
        for c in images:
            # the outer diff already nulled the absent side (old on
            # 'I', new on 'D')
            f[f"{c}_old"], f[f"{c}_new"] = d[f"{c}_l"], d[f"{c}_r"]
        return pa.table(f).filter(changed).cast(feed_schema)

    return items, diff_part, feed_schema


def export_changelog(
    cfg_or_root,
    out_dir: str,
    image_cols: list[str] | str | None = None,
) -> dict:
    """Durable, exactly-once spool of the outbound CDC feed for
    NON-Ray consumers (the Debezium-outbox completion of the engine's
    own ``lake_changelog``): each call exports the changes between the
    consumer cursor and the lake's sealed head as a parquet segment
    directory ``<out_dir>/feed/epochs=<from>-<to>/`` (bootstrap:
    ``epochs=0-snapshot-<to>``, which sorts FIRST) with a ``_SEALED``
    marker, then atomically advances ``<out_dir>/_CURSOR``. Folding all
    sealed segments in plain name order reproduces the lake state.

    Every segment is one ``lake_changelog`` from the cursor to the head.
    The first call bootstraps Debezium-style from the empty lake
    (``from_epoch=None``): the FULL current state spools as one
    ``'I'`` snapshot segment (a consumer needs a base to apply deltas
    to). Later calls spool only the per-key diff between sealed states
    — work O(changed buckets' chains), never a rescan of unchanged
    history.

    Exactly-once under crash/retry, mirroring the lake's own publish
    discipline: segments are derived deterministically from SEALED
    inputs, an unsealed leftover directory is rebuilt in place, and the
    cursor only moves after the ``_SEALED`` marker lands. The SEALED
    segment names are the AUTHORITATIVE cursor — ``_CURSOR`` is a cache
    that can lag exactly one crash behind (crash between ``_SEALED``
    and the cursor rename), so every call first recovers the cursor to
    the highest sealed to-epoch; without that, a retry after the lake
    head advanced would export an OVERLAPPING segment (or a second
    bootstrap snapshot) whose name-order fold resurrects
    deleted/reverted keys. A consumer that reads only sealed segments
    in name order therefore sees each change exactly once. The diff
    tasks write the segment's files themselves (``_write_segment``);
    nothing data-scale lands on the driver."""
    root = _root_of(cfg_or_root)
    log = CommitLog.open(root)
    head = log.latest_sealed_epoch()
    os.makedirs(os.path.join(out_dir, "feed"), exist_ok=True)
    cursor_path = os.path.join(out_dir, "_CURSOR")
    cur = None
    if os.path.exists(cursor_path):
        with open(cursor_path) as fh:
            cur = int(fh.read().strip())
    sealed_cur = _sealed_to_epoch(out_dir)
    if sealed_cur is not None and (cur is None or sealed_cur > cur):
        # crashed between _SEALED and the cursor rename: the sealed
        # segment is durable and consumers may already have applied it
        # — heal the cursor file and export FROM it, never over it
        cur = sealed_cur
        _publish_cursor(out_dir, cur)
    if head is None or (cur is not None and head <= cur):
        return {"skipped": True, "cursor": cur, "head": head}

    # "0-snapshot": the '-' byte sorts below every digit, so the
    # bootstrap segment is FIRST in name order regardless of later delta
    # names — dumb consumers can fold the feed with a plain
    # lexicographic walk (snapshot, then deltas, in apply order)
    name = f"epochs=0-snapshot-{head:05d}" if cur is None else f"epochs={cur:05d}-{head:05d}"
    seg = os.path.join(out_dir, "feed", name)
    written = _write_segment(root, seg, cur, head, image_cols)
    _publish_cursor(out_dir, head)
    return {
        "skipped": False,
        "segment": seg,
        "from_epoch": cur,
        "to_epoch": head,
        "snapshot": cur is None,
        **written,
    }


def _write_segment(root: str, seg: str, from_epoch: int | None, to_epoch: int,
                   image_cols) -> dict:
    """Write the changelog between two SEALED epochs as one spool
    segment, then seal it. Each diff task publishes its own file
    (``publish_parquet``), one row group per changed part; a task whose
    parts netted no change, or a window that changed no part, writes one
    zero-row file, so the segment always reads back with the feed's
    schema. The driver writes the fsynced ``_SEALED`` marker after the
    tasks return; it records the segment's ``rows`` and ``files``, so a
    consumer can check what it read. Returns them."""
    import shutil as _shutil

    items, diff_part, feed_schema = _changelog_diff(root, from_epoch, to_epoch, image_cols)
    _shutil.rmtree(seg, ignore_errors=True)  # crashed unsealed attempt

    def write(group: list[dict]) -> pa.Table:
        diffs = [d for d in map(diff_part, group) if d.num_rows] or [feed_schema.empty_table()]
        f = publish_parquet(seg, diffs, "changes")
        return pa.table({"file": [f], "rows": [sum(d.num_rows for d in diffs)]})

    out = _gather(_per_part(_deal(items), write)) if items else write([])
    # equal zero-row outputs of two tasks are one content-addressed file
    written = {"rows": pc.sum(out["rows"]).as_py(), "files": len(set(out["file"].to_pylist()))}
    CommitLog._write_atomic(os.path.join(seg, "_SEALED"), [written])
    return written


def compact_feed(
    cfg_or_root,
    out_dir: str,
    image_cols: list[str] | str = "all",
    stop_before_delete: bool = False,
) -> dict:
    """Kafka-style log compaction for the export spool: replace EVERY
    sealed segment with ONE fresh snapshot of the source lake at its
    sealed head. Without this a long-lived feed grows O(total changes
    ever) and a new consumer must fold the whole history; after
    compaction a bootstrap is one snapshot read. The snapshot is the
    changelog from the empty lake (``lake_changelog(from_epoch=None)``),
    the same body as the ``export_changelog`` bootstrap.

    Crash-safe protocol (each step idempotent, fold correct at every
    crash point):

    1. write + seal the new snapshot ``epochs=0-snapshot-<head>``
       (skipped if already sealed — a retry);
    2. advance ``_CURSOR`` to head (later ``export_changelog`` calls
       diff from head);
    3. delete every other sealed segment.

    A crash between 2 and 3 leaves old segments beside the new
    snapshot; that fold is STILL correct — replica epochs follow name
    order, snapshot names sort before delta names, and every delta
    re-applies at a LATER epoch than the snapshot, so per-key LWW
    resolves each key to its true head state (tested). Consumers that
    already applied deleted segments are unaffected (their cursor is
    their own commit log); consumers mid-history see the new snapshot
    as an unknown sealed segment and ``replicate_feed`` applies it
    with REPLACE semantics (in the same epoch write, every key the
    replica holds gets a tombstone that the snapshot's own row for
    the key outranks), so partially-caught-up replicas converge too.
    ``stop_before_delete``: chaos hook for the crash window."""
    import shutil as _shutil

    root = _root_of(cfg_or_root)
    log = CommitLog.open(root)
    head = log.latest_sealed_epoch()
    if head is None:
        return {"skipped": True, "reason": "nothing sealed"}
    os.makedirs(os.path.join(out_dir, "feed"), exist_ok=True)
    seg = os.path.join(out_dir, "feed", f"epochs=0-snapshot-{head:05d}")
    name = os.path.basename(seg)
    existing = [os.path.basename(s) for s in _feed_segments(out_dir)]
    if existing == [name]:
        return {"skipped": True, "reason": "already compacted", "segment": seg}
    if name not in existing:  # retry after a crash-post-seal skips the build
        _write_segment(root, seg, None, head, image_cols)
    _publish_cursor(out_dir, head)
    if stop_before_delete:
        return {"skipped": False, "segment": seg, "deleted": 0, "head": head}
    deleted = 0
    for s in _feed_segments(out_dir):
        if os.path.basename(s) != name:
            _shutil.rmtree(s, ignore_errors=True)
            deleted += 1
    return {"skipped": False, "segment": seg, "deleted": deleted, "head": head}


def _publish_cursor(out_dir: str, epoch: int) -> None:
    """Durably advance ``<out_dir>/_CURSOR`` to ``epoch`` (tmp + fsync +
    ``os.replace``, the commit log's publish)."""
    CommitLog._write_atomic(os.path.join(out_dir, "_CURSOR"), [int(epoch)])


def _sealed_to_epoch(out_dir: str) -> int | None:
    """Highest to-epoch among SEALED segments (segment names embed it
    as the final ``-``-separated field, for both ``epochs=A-B`` and
    ``epochs=0-snapshot-B``) — the authoritative consumer cursor."""
    best = None
    for seg in _feed_segments(out_dir):
        to = int(os.path.basename(seg).rsplit("-", 1)[1])
        best = to if best is None else max(best, to)
    return best


def _feed_segments(out_dir: str) -> list[str]:
    """SEALED segments of an ``export_changelog`` spool in apply order.
    Name order IS apply order by construction (the snapshot's ``-``
    byte sorts below every digit; delta names embed their monotone
    from-epoch), so a plain sorted listdir is the whole protocol."""
    feed = os.path.join(out_dir, "feed")
    if not os.path.isdir(feed):
        return []
    return sorted(
        os.path.join(feed, d)
        for d in os.listdir(feed)
        if d.startswith("epochs=")
        and os.path.exists(os.path.join(feed, d, "_SEALED"))
    )


def _feed_to_events(t: pa.Table) -> pa.Table:
    """One feed row -> one binlog event: ``change`` D stays a delete,
    I/U become upserts; ``*_new`` image columns carry the payload under
    their own names (``*_old`` and ``change`` are consumer-diagnostic
    only). ``seq`` is constant 0 — a changelog segment is a keyed diff
    between two sealed states, so each key appears at most once and
    epoch order alone decides the winner."""
    out: dict[str, object] = {
        "repo": t["repo"],
        "path": t["path"],
        "op": pc.if_else(
            pc.equal(t["change"], "D"), pa.scalar("D"), pa.scalar("U")
        ),
        "seq": pa.repeat(pa.scalar(0, pa.int64()), t.num_rows),
        "content_sha256": t["content_sha256"],
    }
    for c in t.column_names:
        if c.endswith("_new") and c[:-4] not in out:
            out[c[:-4]] = t[c]
    return pa.table(out)


def _as_tombstones(t: pa.Table) -> pa.Table:
    """A replica's live keys as deletes at ``seq`` -1, one below a
    snapshot segment's rows (``_feed_to_events``: seq 0), with a null
    ``content_sha256``. Applied in one epoch with the snapshot, per-key
    LWW on (epoch, seq) keeps the snapshot's row for every key it
    carries and deletes every other key: REPLACE semantics, no join."""
    n = t.num_rows
    return pa.table({
        "repo": t["repo"],
        "path": t["path"],
        "op": pa.repeat(pa.scalar("D"), n),
        "seq": pa.repeat(pa.scalar(-1, pa.int64()), n),
        "content_sha256": pa.nulls(n, pa.string()),
    })


def _feed_map(lake_root: str) -> dict[str, int]:
    """A replica's ``feed_map.json`` (segment name -> reserved replica
    epoch; empty when absent), the one reader for ``replicate_feed``
    and ``compact``. The legacy ``{epoch: {"segment": name}}`` shape
    reads as the same map (``replicate_feed`` republishes it in the
    current shape at its next reservation)."""
    path = os.path.join(lake_root, "feed_map.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        raw = json.load(fh)
    return dict(
        (v["segment"], int(k)) if isinstance(v, dict) else (k, int(v)) for k, v in raw.items()
    )


def replicate_feed(
    out_dir: str,
    replica_cfg: ReplayConfig,
    max_segments: int | None = None,
) -> dict:
    """Apply an ``export_changelog`` spool into a REPLICA lake through
    the normal replay engine — the consumer half of the CDC loop (the
    reference system's downstream is a human report; a lake-to-lake
    replica is what a 100 TB deployment actually runs). Each sealed
    segment becomes one replica epoch: one epoch-kernel write
    (``_apply_epochs``) of the segment's read blocks, plus, for a
    snapshot segment, the replica's own parts read as tombstones
    (``_as_tombstones``) — REPLACE semantics by per-key LWW, the same
    code path whether or not the replica is empty (an empty one adds
    no block). The epoch is assigned durably in
    ``feed_map.json`` BEFORE the epoch seals (replica-side maintenance
    epochs — compact/vacuum — interleave freely, so the assignment is
    next-free-epoch at apply time, not list position);
    ``run_epoch``'s idempotence makes the replica's own commit log the
    consumer cursor, so crash/retry re-applies nothing and a
    partially-applied segment completes under the (epoch, part)
    fence. Replication is exactly-once end to end with NO coordination
    between producer and consumer beyond the segment ``_SEALED``
    markers.

    The replica is an independent lake: its own bucket count/salting,
    its own compaction/vacuum schedule, full read surface (lookups,
    time travel at segment granularity, its own changelog/export —
    feeds can be chained). Requires the feed to have been exported with
    ``image_cols`` covering the payload columns the replica should
    carry (``content_sha256`` always flows; a sha-only feed replicates
    a sha-only lake).

    Erasure (right-to-be-forgotten) does NOT propagate through the
    feed: ``erase_key`` rewrites surviving history without advancing
    the sealed head, so a later diff sees the key in neither state and
    emits nothing. A compliant deployment erases at every hop —
    ``erase_key`` on the source, ``erase_key_from_feed`` on each spool,
    ``erase_key`` on each replica (each is O(key's buckets/segments),
    never O(lake); see tests/test_replication.py).

    ``max_segments`` bounds one call (chaos tests / incremental
    draining); returns per-segment metrics and the replica head."""
    log = CommitLog.open(replica_cfg.lake_root)
    log.ensure_layout(replica_cfg.layout())
    segs = _feed_segments(out_dir)
    applied: list[dict] = []
    # the persisted feed map is the AUTHORITATIVE segment -> replica
    # epoch assignment (not the segment's list position): replica-side
    # maintenance epochs (compact) interleave with feed epochs, so a
    # positional mapping would collide with a sealed maintenance epoch
    # and silently skip a segment. The map is written BEFORE the epoch
    # seals (durable intent): a crash between the two re-runs the
    # recorded epoch idempotently on restart.
    map_path = os.path.join(replica_cfg.lake_root, "feed_map.json")
    feed_map = _feed_map(replica_cfg.lake_root)

    for seg in segs:
        name = os.path.basename(seg)
        if name in feed_map and log.is_sealed(int(feed_map[name])):
            continue  # applied in a previous call
        if max_segments is not None and len(applied) >= max_segments:
            break
        if name in feed_map:
            # crash between map publish and seal: finish this epoch
            epoch = int(feed_map[name])
        else:
            taken = [log.latest_sealed_epoch(), *map(int, feed_map.values())]
            live = [e for e in taken if e is not None]
            epoch = 1 + max(live) if live else 0
            feed_map[name] = epoch
            # durable intent, matching the commit log's discipline: the
            # reservation must survive the same crash the seal survives
            CommitLog._write_atomic(map_path, [feed_map])
        # one epoch-kernel write: the segment's read blocks as events
        # (seq 0; each key appears once), and for a snapshot the
        # replica's live keys as tombstones one seq below them. A
        # snapshot landing on a replica that already holds state is a
        # compacted spool's re-baseline (compact_feed), and the
        # tombstones delete the keys whose deletes the compaction
        # folded away; on an empty replica they have no parts to read.
        # The tombstones read the SEALED state, so a crashed apply
        # reruns the same plan.
        plans = [_scan([seg], replica_cfg, prep=_feed_to_events)]
        if "snapshot" in name:
            chains = _chains_payload(log, upto_epoch=log.latest_sealed_epoch())
            plans.append(_part_scan(chains, _as_tombstones, columns=["repo", "path"]))
        m = _apply_epochs(plans, {epoch: (0, 1)}, replica_cfg, log)[0]
        m["segment"] = name
        applied.append(m)
    return {
        "applied": applied,
        "segments_seen": len(segs),
        "replica_head": log.latest_sealed_epoch(),
    }


def follow_feed(
    out_dir: str,
    replica_cfg: ReplayConfig,
    poll_sec: float = 1.0,
    idle_polls: int = 5,
    on_batch=None,
) -> list[dict]:
    """Continuous replica: poll the export spool for newly SEALED
    segments and apply each batch as it lands (the consumer mirror of
    ``follow_stream`` — a producer running ``--follow --export-feed``
    plus a consumer running ``follow_feed`` is live lake-to-lake
    replication with no shared state). Stops when ``<out_dir>/_EOS``
    appears and the feed is drained, or after ``idle_polls`` empty
    polls. ``on_batch(replica_cfg)`` fires after each applied batch
    (advance a view on the REPLICA, chain another export); exceptions
    propagate — the replica commits are already durable."""
    out: list[dict] = []
    idle = 0
    while True:
        res = replicate_feed(out_dir, replica_cfg)
        if res["applied"]:
            idle = 0
            out.extend(res["applied"])
            if on_batch is not None:
                on_batch(replica_cfg)
        else:
            idle += 1
        if os.path.exists(os.path.join(out_dir, "_EOS")):
            drain = replicate_feed(out_dir, replica_cfg)
            if not drain["applied"]:
                break
            out.extend(drain["applied"])
            if on_batch is not None:
                on_batch(replica_cfg)
        elif idle >= idle_polls:
            break
        time.sleep(poll_sec)
    return out


def lake_schema_history(cfg_or_root) -> pa.Table:
    """Schema evolution audit: for every sealed epoch that introduced a
    column, one row ``(epoch, column, dtype)`` — read from the commit
    log's surviving entries' parquet FOOTERS only (O(files) metadata
    reads, no data). The first epoch lists the base schema; later rows
    are the additive/widened columns the evolving stream brought in.
    Engine-internal columns (``bucket``, ``op``, ``seq``) are elided —
    they are the merge machinery, not the table's logical schema.
    History truncated by compaction collapses into the base's epoch,
    like every other still-answerable read."""
    log = CommitLog.open(_root_of(cfg_or_root))
    head = log.latest_sealed_epoch()
    seen: dict[str, tuple[int, str]] = {}
    if head is None:  # nothing sealed: no visible schema yet
        return pa.table({
            "epoch": pa.array([], pa.int64()),
            "column": pa.array([], pa.string()),
            "dtype": pa.array([], pa.string()),
        })
    for epoch, schema in _file_schemas(log, head):
        for name, typ in zip(schema.names, schema.types):
            if name in ("bucket", "op", "seq"):
                continue
            if name not in seen:
                seen[name] = (epoch, str(typ))
    rows = sorted(seen.items(), key=lambda kv: (kv[1][0], kv[0]))
    return pa.table({
        "epoch": pa.array([e for _, (e, _) in rows], pa.int64()),
        "column": pa.array([c for c, _ in rows], pa.string()),
        "dtype": pa.array([t for _, (_, t) in rows], pa.string()),
    })


def lake_state_hash(cfg_or_root) -> str:
    """Global order-insensitive sha256 of (repo, path -> content_sha256)
    — the kill/restart convergence invariant."""
    tbl = lake_table(cfg_or_root)
    if tbl.num_rows == 0:
        return table_state_sha256(pa.table({}), ("repo", "path"), "content_sha256")
    return table_state_sha256(tbl, ("repo", "path"), "content_sha256")
