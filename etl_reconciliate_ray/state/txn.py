"""Multi-table atomic transactions over N independent lakes.

The reference runs its whole job inside ONE Spring Batch metadata store
(``src/main/resources/springbatch-schema.sql:1-76``) so a multi-step
job is trivially transactional: either the job execution commits or it
does not. Here every table is its own lake with its own commit log, so
cross-table atomicity needs a coordinator — this module adds one, as a
write-ahead log above the per-lake ``CommitLog``s, written through the
same durable ``Journal`` (``state/commitlog.py``: snapshot + fenced
tail, fsynced appends, atomic snapshot publish).

Protocol — roll-forward two-phase commit, built on the one primitive
the lakes already have (sealing is the ONLY visibility point; a
committed-but-unsealed epoch is durable yet invisible to every reader):

1. **stage**: each table's epoch runs through the normal replay engine
   with ``seal=False`` — partitions land fenced under (epoch, part),
   data files are durable, nothing is readable.
2. **prepare**: one fsynced ``PREPARE {txn_id, tables: {name: {root,
   epoch}}}`` record in the coordinator log.
3. **commit mark**: one fsynced ``COMMIT {txn_id}`` record — THE atomic
   visibility decision for all tables at once.
4. **finalize**: seal each participant epoch (idempotent; any crash
   here is rolled forward by ``recover()`` from the coordinator log).

Crash matrix:
- before PREPARE: staged epochs are invisible; re-running the same txn
  is cheap (the (epoch, part) fence skips committed partitions) or the
  caller aborts (``drop_unsealed_epoch`` + orphan-file delete).
- after PREPARE, before COMMIT: ``recover()`` reports the txn as
  in-doubt; PREPARE is only written once every stage finished, so
  ``resume_in_doubt(txn_id).commit()`` rolls forward with no
  re-staging, or the caller ``abort_prepared()``s.
- after COMMIT, before all seals: ``recover()`` finishes the seals —
  the decision was already durable, so this always rolls forward.

Consistent cross-table reads: committed txns applied in log order
yield a table -> epoch cut (``snapshot_epochs``); ``read_snapshot``
pins each table's ``lake_dataset(as_of_epoch=...)`` to that cut, so a
reader never observes table A after a txn and table B before it —
regardless of ongoing writes. Holds for tables written through the
coordinator (direct unilateral seals are outside any txn by
definition).

Scale shape: the coordinator log is O(txns) driver-side metadata,
snapshot-truncated like the lake logs (``write_snapshot`` folds
finished txns into one cumulative-cut record, so a long-lived stream
carries O(in-doubt txns), not O(all txns ever)); all data movement stays
in the per-lake replay engine — staging N tables is N independent
Dataset pipelines that may run concurrently.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from .commitlog import CommitLog, Journal


@dataclass
class TxnRecord:
    txn_id: str
    #: name -> {"root": lake_root, "epoch": engine epoch}
    tables: dict[str, dict]
    status: str  # "prepared" | "committed" | "aborted"


@dataclass
class TxnCoordinator(Journal):
    """Single-writer write-ahead log of multi-table transactions.

    Like the per-lake ``CommitLog``, the driver process is the only
    appender; on a real deployment the JSONL becomes a conditional-put
    object-store key or a tiny DB table with the same record types.
    A pre-snapshot tail left by a crash between the two publishes is
    ignored on open (the journal's generation fence) — replaying it
    would re-append its txns AFTER the carried ones and regress the
    committed cut.
    """

    NAME = "txnlog"
    _txns: dict[str, TxnRecord] = field(default_factory=dict)
    _order: list[str] = field(default_factory=list)  # append order of PREPAREs
    _seq: int = 0
    #: committed cut folded in by the last snapshot (decided txns are
    #: then dropped from the log — same growth bound as the lake logs'
    #: chains snapshot: O(in-doubt txns + 1), not O(all txns ever)
    _base_cut: dict[str, dict] = field(default_factory=dict)

    def _apply(self, rec: dict, in_tail: bool) -> None:
        if rec["type"] == "PREPARE":
            self._txns[rec["txn_id"]] = TxnRecord(
                txn_id=rec["txn_id"], tables=rec["tables"], status="prepared"
            )
            if rec["txn_id"] not in self._order:
                self._order.append(rec["txn_id"])
            self._seq = max(self._seq, int(rec.get("seq", 0)))
        elif rec["type"] in ("COMMIT", "ABORT"):
            t = self._txns.get(rec["txn_id"])
            if t is not None:
                t.status = "committed" if rec["type"] == "COMMIT" else "aborted"
        elif rec["type"] == "TXN_SNAPSHOT":
            self._base_cut = {k: dict(v) for k, v in rec["cut"].items()}
            self._seq = max(self._seq, int(rec.get("seq", 0)))

    def write_snapshot(self) -> int:
        """Bound log growth: fold every DECIDED txn into the cumulative
        committed cut, keep in-doubt (prepared) txns verbatim, truncate
        the tail. Crash-safe as ``Journal._publish_snapshot``. Returns
        the number of in-doubt txns carried over."""
        with self._lock:
            cut = dict(self._base_cut)
            carried: list[TxnRecord] = []
            for txn_id in self._order:
                t = self._txns[txn_id]
                if carried:
                    # ORDER preservation: once any txn is carried, every
                    # later undecided/committed txn is carried verbatim
                    # too — folding a LATER committed txn into the base
                    # cut while an EARLIER one stays in the log would
                    # invert their replay order on reopen (the carried
                    # older txn would re-apply over the newer cut,
                    # regressing its tables' epochs)
                    if t.status in ("committed", "prepared"):
                        carried.append(t)
                    continue
                if t.status == "committed":
                    # fold only FINISHED txns: a committed txn with a
                    # participant seal still missing (crash window) must
                    # stay in the log verbatim or recover() could never
                    # find it to finish the seals
                    if all(
                        CommitLog.open(spec["root"]).is_sealed(spec["epoch"])
                        for spec in t.tables.values()
                    ):
                        cut.update({k: dict(v) for k, v in t.tables.items()})
                    else:
                        carried.append(t)
                elif t.status == "prepared":
                    carried.append(t)
            recs: list[dict] = [{
                "type": "TXN_SNAPSHOT", "cut": cut, "seq": self._seq,
                "tail_fence": self._tail_fence + 1,
            }]
            for t in carried:
                recs.append(
                    {"type": "PREPARE", "txn_id": t.txn_id, "seq": self._seq, "tables": t.tables}
                )
                if t.status == "committed":
                    recs.append({"type": "COMMIT", "txn_id": t.txn_id})
            self._publish_snapshot(recs)
            self._base_cut = cut
            self._txns = {t.txn_id: t for t in carried}
            self._order = [t.txn_id for t in carried]
            return len(carried)

    # -- txn lifecycle -----------------------------------------------------
    def begin(self, txn_id: str | None = None) -> "MultiTableTxn":
        with self._lock:
            self._seq += 1
            txn_id = txn_id or f"txn-{self._seq:06d}"
            if txn_id in self._txns:
                raise ValueError(f"txn_id {txn_id} already exists")
        return MultiTableTxn(coordinator=self, txn_id=txn_id)

    def _busy_roots(self) -> set[str]:
        """Lake roots held by a prepared-but-undecided txn. Staging a
        new epoch on such a lake would stack an epoch above an in-doubt
        one — then ``drop_unsealed_epoch``'s ordering guard (rightly)
        refuses the abort. Refuse at stage time instead."""
        return {
            spec["root"]
            for t in self._txns.values()
            if t.status == "prepared"
            for spec in t.tables.values()
        }

    def _record_prepare(self, txn_id: str, tables: dict[str, dict]) -> None:
        with self._lock:
            self._append_many(
                [{"type": "PREPARE", "txn_id": txn_id, "seq": self._seq, "tables": tables}]
            )
            self._txns[txn_id] = TxnRecord(txn_id=txn_id, tables=dict(tables), status="prepared")
            self._order.append(txn_id)

    def _record_decision(self, txn_id: str, decision: str) -> None:
        with self._lock:
            t = self._txns[txn_id]
            if t.status != "prepared":
                raise ValueError(f"txn {txn_id} already {t.status}")
            self._append_many([{"type": decision, "txn_id": txn_id}])
            t.status = "committed" if decision == "COMMIT" else "aborted"

    # -- recovery & reads ----------------------------------------------------
    def in_doubt(self) -> list[str]:
        """Prepared txns with no durable decision (crash between PREPARE
        and COMMIT). Caller must roll forward (re-stage + commit) or
        ``abort_prepared`` each before new txns touch their lakes."""
        return [t for t in self._order if self._txns[t].status == "prepared"]

    def recover(self) -> dict:
        """Roll forward every COMMITTED txn whose participant seals are
        missing (crash between the COMMIT mark and finalize). Idempotent
        and cheap: O(committed txns) log opens, no data movement.
        Returns {"sealed": [(txn_id, table, epoch), ...], "in_doubt":
        [txn_id, ...]}."""
        sealed = []
        for txn_id in self._order:
            t = self._txns[txn_id]
            if t.status != "committed":
                continue
            for name, spec in sorted(t.tables.items()):
                log = CommitLog.open(spec["root"])
                if not log.is_sealed(spec["epoch"]):
                    log.seal_epoch(spec["epoch"])
                    sealed.append((txn_id, name, spec["epoch"]))
        return {"sealed": sealed, "in_doubt": self.in_doubt()}

    def resume_in_doubt(self, txn_id: str) -> "MultiTableTxn":
        """Reattach to an in-doubt txn after a restart. PREPARE is only
        written once every stage() finished, so the staged epochs are
        fully durable — the resumed handle needs no re-staging: call
        ``.commit()`` to roll forward or ``.abort()`` to discard."""
        t = self._txns.get(txn_id)
        if t is None or t.status != "prepared":
            raise ValueError(f"txn {txn_id} is not in-doubt")
        return MultiTableTxn(
            coordinator=self,
            txn_id=txn_id,
            _staged={k: dict(v) for k, v in t.tables.items()},
            _prepared=True,
        )

    def abort_prepared(self, txn_id: str) -> dict:
        """Abort an in-doubt txn: drop every participant's unsealed
        epoch from its lake log, delete the orphaned data files, then
        record the durable ABORT. Order matters — files go only after
        the log no longer references them, and the ABORT mark lands
        last so a crash mid-abort leaves the txn still in-doubt (the
        retry is idempotent: drop of a missing epoch is a no-op)."""
        t = self._txns.get(txn_id)
        if t is None or t.status != "prepared":
            raise ValueError(f"txn {txn_id} is not in-doubt")
        removed = _drop_staged(t.tables)
        self._record_decision(txn_id, "ABORT")
        return {"txn_id": txn_id, "files_removed": removed}

    def snapshot_epochs(self) -> dict[str, dict]:
        """The consistent cross-table cut: committed txns applied in
        coordinator-log order, yielding name -> {"root", "epoch"} at
        the latest atomic decision. Tables untouched by the newest txn
        keep their epoch from the last txn that wrote them."""
        cut: dict[str, dict] = {k: dict(v) for k, v in self._base_cut.items()}
        for txn_id in self._order:
            t = self._txns[txn_id]
            if t.status == "committed":
                cut.update({k: dict(v) for k, v in t.tables.items()})
        return cut


@dataclass
class MultiTableTxn:
    coordinator: TxnCoordinator
    txn_id: str
    _staged: dict[str, dict] = field(default_factory=dict)  # name -> {"root", "epoch"}
    _prepared: bool = False

    def stage(
        self,
        name: str,
        cfg,
        events_ds,
        epoch: int | None = None,
        input_seq: tuple[int, int] | None = None,
        resume: bool = False,
    ) -> dict:
        """Run one table's epoch through the replay engine UNSEALED.
        ``cfg`` is that table's ``ReplayConfig``; ``events_ds`` is a
        Dataset of its events or the engine's own read blocks
        (``replay._scan``), as ``run_epoch`` takes; ``epoch`` defaults to
        the lake's next epoch (sealed head + 1). Durable but invisible
        until this txn's COMMIT mark.

        If the lake already has committed-unsealed entries at that
        epoch (a crashed un-prepared txn — the coordinator has no
        record of it), staging refuses unless ``resume=True``: the
        fence would silently keep the crashed attempt's partitions,
        which is only correct when this stage re-runs the SAME
        deterministic content (roll-forward). To discard the leftovers
        instead, ``CommitLog.drop_unsealed_epoch`` them first."""
        from ..pipelines.replay import run_epoch

        if self._prepared:
            raise ValueError(f"txn {self.txn_id} already prepared; cannot stage more tables")
        if name in self._staged:
            raise ValueError(f"table {name} already staged in txn {self.txn_id}")
        if cfg.lake_root in self.coordinator._busy_roots():
            raise ValueError(
                f"lake {cfg.lake_root} has an in-doubt prepared txn; "
                "recover() or abort_prepared() it first"
            )
        log = CommitLog.open(cfg.lake_root)
        if epoch is None:
            head = log.latest_sealed_epoch()
            epoch = 0 if head is None else head + 1
        if log.is_sealed(epoch):
            # run_epoch would silently skip (write nothing) yet the txn
            # would record the epoch as staged — commit would then
            # REGRESS the table's snapshot cut to old data and discard
            # the new events without a trace
            raise ValueError(
                f"epoch {epoch} of lake {cfg.lake_root} is already sealed — "
                "staging it would silently no-op and regress the txn cut; "
                "stage the next free epoch instead"
            )
        if not resume and epoch in log.unsealed_epochs():
            raise ValueError(
                f"lake {cfg.lake_root} has committed-unsealed entries at epoch "
                f"{epoch} (crashed txn?); pass resume=True to roll the identical "
                "content forward, or drop_unsealed_epoch() to discard it"
            )
        metrics = run_epoch(events_ds, epoch, cfg, log=log, input_seq=input_seq, seal=False)
        self._staged[name] = {"root": cfg.lake_root, "epoch": int(epoch)}
        return metrics

    def prepare(self) -> None:
        """Durably record the participant set (phase 1). Split from
        ``commit`` so chaos tests can crash between the two records."""
        if self._prepared:
            return
        if not self._staged:
            raise ValueError("nothing staged")
        self.coordinator._record_prepare(self.txn_id, self._staged)
        self._prepared = True

    def commit(self) -> dict:
        """PREPARE (if needed) -> COMMIT mark (the atomic visibility
        point) -> seal every participant epoch. A crash after the mark
        is finished by ``TxnCoordinator.recover()``."""
        from ..pipelines.replay import _write_lineage

        t0 = time.monotonic()
        self.prepare()
        self.coordinator._record_decision(self.txn_id, "COMMIT")
        for name, spec in sorted(self._staged.items()):
            log = CommitLog.open(spec["root"])
            log.seal_epoch(spec["epoch"])
            _write_lineage(spec["root"], log, {"txn_id": self.txn_id, "epoch": spec["epoch"]})
        return {
            "txn_id": self.txn_id,
            "tables": dict(self._staged),
            "sec": round(time.monotonic() - t0, 4),
        }

    def abort(self) -> dict:
        """Abort: durable-but-invisible staged epochs are dropped from
        each lake log and their orphan files deleted. Safe at any point
        before the COMMIT mark."""
        if self._prepared:
            return self.coordinator.abort_prepared(self.txn_id)
        removed = _drop_staged(self._staged)
        self._staged.clear()
        return {"txn_id": self.txn_id, "files_removed": removed}


def _drop_staged(tables: dict[str, dict]) -> int:
    """Drop each table's unsealed staged epoch from its lake log, then
    delete its files; returns how many the dropped epochs named."""
    removed = 0
    for _, spec in sorted(tables.items()):
        for f in CommitLog.open(spec["root"]).drop_unsealed_epoch(spec["epoch"]):
            if os.path.exists(f):
                os.remove(f)
            removed += 1
    return removed


def read_snapshot(coordinator: TxnCoordinator, columns: dict[str, list[str]] | None = None) -> dict:
    """Consistent multi-table read: one ``lake_dataset`` per table,
    each pinned to the coordinator's committed cut via ``as_of_epoch``
    — all-old or all-new across tables, never mixed, even while a new
    txn stages/commits concurrently.

    Rolls forward first (``recover()``): a committed txn whose
    participant seals haven't landed (crash between the COMMIT mark and
    the seal loop, or a concurrent committer mid-loop) is in the cut by
    decision, so the reader finishes the idempotent seals rather than
    refusing an as-of beyond the sealed head — any process may roll a
    decided txn forward, that is the point of roll-forward 2PC.

    Retention caveat: per-lake maintenance (``compact`` + log snapshot)
    run OUTSIDE the coordinator can advance a lake's time-travel floor
    past a cut pinned by an old txn; the read then refuses LOUDLY
    ("predates the retention floor"). Keep coordinated tables' retention
    behind the oldest pinned cut (or refresh the cut with a new txn
    after maintenance). ``columns`` optionally prunes per-table
    projections at the read."""
    from ..pipelines.replay import lake_dataset

    coordinator.recover()
    cut = coordinator.snapshot_epochs()
    return {
        name: lake_dataset(
            spec["root"],
            columns=(columns or {}).get(name),
            as_of_epoch=spec["epoch"],
        )
        for name, spec in sorted(cut.items())
    }
