"""Multi-table atomic transactions (state/txn.py) — chaos coverage.

Parity anchor: the reference's whole job commits through ONE Spring
Batch metadata store (springbatch-schema.sql:1-76); here each table is
an independent lake, and the coordinator must make N lakes flip
visibility atomically. Covered crash points: before PREPARE, between
PREPARE and COMMIT (both roll-forward and abort), and between COMMIT
and the participant seals.
"""

from __future__ import annotations

import glob
import json
import os

import pyarrow.parquet as pq
import pytest

from etl_reconciliate_ray.pipelines.replay import ReplayConfig, bootstrap, lake_table
from etl_reconciliate_ray.state.commitlog import CommitLog
from etl_reconciliate_ray.state.txn import TxnCoordinator, read_snapshot


def _events_ds(fixture_dir: str, epoch: int):
    import ray.data as rd

    return rd.read_parquet(os.path.join(fixture_dir, "binlog", f"epoch={epoch:05d}.parquet"))


@pytest.fixture()
def two_lakes(fixture_small, tmp_path, ray_session):
    """Two independent lakes bootstrapped from the same seed (stand-ins
    for two tables of one logical database), plus a coordinator."""
    fixture_dir, _, manifest = fixture_small
    cfgs = {}
    for name in ("orders", "files"):
        cfg = ReplayConfig(
            lake_root=str(tmp_path / name),
            num_buckets=4,
            salt_for_repo=manifest["salt_hot_repos"],
        )
        bootstrap(os.path.join(fixture_dir, "lake_seed.parquet"), cfg)
        cfgs[name] = cfg
    co = TxnCoordinator.open(str(tmp_path / "txn"))
    return fixture_dir, cfgs, co


def _heads(cfgs):
    return {n: CommitLog.open(c.lake_root).latest_sealed_epoch() for n, c in cfgs.items()}


def test_commit_flips_both_tables_atomically(two_lakes):
    fixture_dir, cfgs, co = two_lakes
    before = _heads(cfgs)
    rows_before = {n: lake_table(c).num_rows for n, c in cfgs.items()}

    txn = co.begin()
    m1 = txn.stage("orders", cfgs["orders"], _events_ds(fixture_dir, 0))
    m2 = txn.stage("files", cfgs["files"], _events_ds(fixture_dir, 1))
    assert m1["parts_committed"] > 0 and m2["parts_committed"] > 0

    # staged-but-uncommitted: durable, yet INVISIBLE in both lakes
    assert _heads(cfgs) == before
    assert {n: lake_table(c).num_rows for n, c in cfgs.items()} == rows_before

    res = txn.commit()
    assert set(res["tables"]) == {"orders", "files"}
    after = _heads(cfgs)
    assert all(after[n] == before[n] + 1 for n in cfgs)
    # snapshot cut pins exactly the committed epochs
    cut = co.snapshot_epochs()
    assert {n: s["epoch"] for n, s in cut.items()} == after


def test_crash_before_prepare_abort_cleans_files(two_lakes):
    fixture_dir, cfgs, co = two_lakes
    txn = co.begin()
    txn.stage("orders", cfgs["orders"], _events_ds(fixture_dir, 0))
    log = CommitLog.open(cfgs["orders"].lake_root)
    staged_epoch = log.unsealed_epochs()[0]
    staged_files = [
        f for (ep, _), e in log._entries.items() if ep == staged_epoch for f in e.files
    ]
    assert staged_files and all(os.path.exists(f) for f in staged_files)

    res = txn.abort()
    assert res["files_removed"] == len(set(staged_files))
    assert not any(os.path.exists(f) for f in staged_files)
    log2 = CommitLog.open(cfgs["orders"].lake_root)
    assert log2.unsealed_epochs() == []
    # a fresh txn can now stage the same epoch cleanly
    txn2 = co.begin()
    txn2.stage("orders", cfgs["orders"], _events_ds(fixture_dir, 0))
    txn2.commit()
    assert CommitLog.open(cfgs["orders"].lake_root).latest_sealed_epoch() == staged_epoch


def test_crash_between_prepare_and_commit_roll_forward(two_lakes):
    fixture_dir, cfgs, co = two_lakes
    txn = co.begin()
    txn.stage("orders", cfgs["orders"], _events_ds(fixture_dir, 0))
    txn.stage("files", cfgs["files"], _events_ds(fixture_dir, 0))
    txn.prepare()  # "crash" here: PREPARE durable, no COMMIT mark

    co2 = TxnCoordinator.open(co.root)  # restart
    rep = co2.recover()
    assert rep["sealed"] == [] and rep["in_doubt"] == [txn.txn_id]
    # while in doubt, new txns must not stack epochs on those lakes
    blocked = co2.begin()
    with pytest.raises(ValueError, match="in-doubt"):
        blocked.stage("orders", cfgs["orders"], _events_ds(fixture_dir, 1))

    # roll forward: PREPARE implies all staging finished, so the resumed
    # handle commits directly — no re-staging, no data movement
    fwd = co2.resume_in_doubt(co2.in_doubt()[0])
    fwd.commit()
    assert co2.in_doubt() == []
    heads = _heads(cfgs)
    assert heads["orders"] == heads["files"] == 1


def test_unprepared_crash_leftovers_resume_via_fence(two_lakes):
    fixture_dir, cfgs, co = two_lakes
    txn = co.begin()
    txn.stage("orders", cfgs["orders"], _events_ds(fixture_dir, 0))
    del txn  # "crash" before prepare: no coordinator record at all

    txn2 = co.begin()
    # default stage refuses the epoch with fenced leftovers
    with pytest.raises(ValueError, match="committed-unsealed"):
        txn2.stage("orders", cfgs["orders"], _events_ds(fixture_dir, 0))
    # resume=True rolls the identical deterministic content forward:
    # every partition is already fenced, so nothing recommits
    m = txn2.stage("orders", cfgs["orders"], _events_ds(fixture_dir, 0), resume=True)
    assert m["parts_committed"] == 0
    txn2.commit()
    assert _heads(cfgs)["orders"] == 1


def test_crash_between_prepare_and_commit_abort(two_lakes):
    fixture_dir, cfgs, co = two_lakes
    txn = co.begin()
    txn.stage("orders", cfgs["orders"], _events_ds(fixture_dir, 0))
    txn.stage("files", cfgs["files"], _events_ds(fixture_dir, 0))
    txn.prepare()

    co2 = TxnCoordinator.open(co.root)
    res = co2.abort_prepared(co2.in_doubt()[0])
    assert res["files_removed"] > 0
    assert co2.in_doubt() == []
    for c in cfgs.values():
        assert CommitLog.open(c.lake_root).unsealed_epochs() == []
        assert CommitLog.open(c.lake_root).latest_sealed_epoch() == 0  # bootstrap only


def test_crash_between_commit_mark_and_seals(two_lakes):
    fixture_dir, cfgs, co = two_lakes
    txn = co.begin()
    txn.stage("orders", cfgs["orders"], _events_ds(fixture_dir, 0))
    txn.stage("files", cfgs["files"], _events_ds(fixture_dir, 0))
    txn.prepare()
    co._record_decision(txn.txn_id, "COMMIT")  # "crash": decision durable, seals missing
    assert all(h == 0 for h in _heads(cfgs).values())

    co2 = TxnCoordinator.open(co.root)
    rep = co2.recover()
    assert sorted(t for _, t, _ in rep["sealed"]) == ["files", "orders"]
    assert all(h == 1 for h in _heads(cfgs).values())
    assert co2.recover()["sealed"] == []  # idempotent


def test_snapshot_reads_are_consistent_across_txns(two_lakes):
    fixture_dir, cfgs, co = two_lakes
    t1 = co.begin()
    t1.stage("orders", cfgs["orders"], _events_ds(fixture_dir, 0))
    t1.stage("files", cfgs["files"], _events_ds(fixture_dir, 0))
    t1.commit()
    cut1 = co.snapshot_epochs()

    # second txn touches only one table; the cut must advance just that one
    t2 = co.begin()
    t2.stage("orders", cfgs["orders"], _events_ds(fixture_dir, 1))
    t2.commit()
    cut2 = co.snapshot_epochs()
    assert cut2["orders"]["epoch"] == cut1["orders"]["epoch"] + 1
    assert cut2["files"]["epoch"] == cut1["files"]["epoch"]

    # pinned reads resolve at the cut even though "orders" moved on:
    # a coordinator reopened from cut1-era state sees cut1 everywhere
    snaps = read_snapshot(co, columns={"orders": ["repo", "path"], "files": ["repo", "path"]})
    got = {n: ds.count() for n, ds in snaps.items()}

    import pandas as pd

    from etl_reconciliate_ray.datagen import oracle_replay

    lake = pq.read_table(os.path.join(fixture_dir, "lake_seed.parquet")).to_pandas()

    parts = [
        pq.read_table(f).to_pandas()
        for f in sorted(glob.glob(os.path.join(fixture_dir, "binlog", "*.parquet")))
    ]
    binlog = pd.concat(parts, ignore_index=True)
    with open(os.path.join(fixture_dir, "fixture.json")) as fh:
        fx = json.load(fh)
    e0_hi, e1_hi = fx["epochs"][0]["seq_range"][1], fx["epochs"][1]["seq_range"][1]
    assert got["files"] == len(oracle_replay(lake, binlog, upto_seq=e0_hi))
    assert got["orders"] == len(oracle_replay(lake, binlog, upto_seq=e1_hi))


def test_txnlog_survives_reopen(two_lakes):
    fixture_dir, cfgs, co = two_lakes
    t1 = co.begin()
    t1.stage("orders", cfgs["orders"], _events_ds(fixture_dir, 0))
    t1.commit()
    co2 = TxnCoordinator.open(co.root)
    assert co2.snapshot_epochs() == co.snapshot_epochs()
    # ids keep advancing after reopen (no reuse)
    t2 = co2.begin()
    assert t2.txn_id != t1.txn_id


def test_coordinator_snapshot_bounds_log_growth(two_lakes):
    fixture_dir, cfgs, co = two_lakes
    for i in range(3):
        t = co.begin()
        t.stage("orders", cfgs["orders"], _events_ds(fixture_dir, i))
        t.commit()
    cut_before = co.snapshot_epochs()
    carried = co.write_snapshot()
    assert carried == 0  # all txns finished -> all folded
    with open(co.path) as fh:  # tail truncated to its generation stamp
        assert [json.loads(line)["type"] for line in fh] == ["TAIL_OPEN"]
    with open(co.snapshot_path) as fh:
        assert sum(1 for _ in fh) == 1  # one cumulative-cut record
    co2 = TxnCoordinator.open(co.root)
    assert co2.snapshot_epochs() == cut_before
    # the cut keeps advancing after the snapshot
    t = co2.begin()
    t.stage("orders", cfgs["orders"], _events_ds(fixture_dir, 3))
    t.commit()
    assert co2.snapshot_epochs()["orders"]["epoch"] == cut_before["orders"]["epoch"] + 1


def test_coordinator_snapshot_carries_unfinished_txns(two_lakes):
    fixture_dir, cfgs, co = two_lakes
    # txn A: committed but seals missing (crash window)
    a = co.begin()
    a.stage("orders", cfgs["orders"], _events_ds(fixture_dir, 0))
    a.prepare()
    co._record_decision(a.txn_id, "COMMIT")
    # txn B: in doubt
    b = co.begin()
    b.stage("files", cfgs["files"], _events_ds(fixture_dir, 0))
    b.prepare()

    assert co.write_snapshot() == 2  # neither may fold
    co2 = TxnCoordinator.open(co.root)
    rep = co2.recover()  # finishes txn A's seal from the carried record
    assert [(t, n) for t, n, _ in rep["sealed"]] == [(a.txn_id, "orders")]
    assert rep["in_doubt"] == [b.txn_id]
    co2.abort_prepared(b.txn_id)
    # now everything is decided+finished: the next snapshot folds it all
    assert co2.write_snapshot() == 0
    co3 = TxnCoordinator.open(co.root)
    assert co3.snapshot_epochs()["orders"]["epoch"] == 1
    assert "files" not in co3.snapshot_epochs()


def test_read_snapshot_rolls_forward_committed_unsealed(two_lakes):
    """Crash window between the COMMIT mark and the seal loop: the
    decision is durable, so a reader must FINISH the idempotent seals
    (roll-forward 2PC) and read the committed cut — not refuse an
    as-of beyond the sealed head."""
    fixture_dir, cfgs, co = two_lakes
    txn = co.begin()
    txn.stage("orders", cfgs["orders"], _events_ds(fixture_dir, 0))
    txn.stage("files", cfgs["files"], _events_ds(fixture_dir, 0))
    txn.prepare()
    co._record_decision(txn.txn_id, "COMMIT")  # crash before any seal

    views = read_snapshot(co)  # must not raise; finishes the seals
    assert set(views) == {"orders", "files"}
    for name, cfg in cfgs.items():
        assert views[name].count() == lake_table(cfg).num_rows
        assert CommitLog.open(cfg.lake_root).latest_sealed_epoch() == 1


def test_stage_refuses_already_sealed_epoch(two_lakes):
    """Staging an explicitly-passed SEALED epoch would silently no-op
    (run_epoch skips) while the txn records it as staged — commit would
    regress the table's cut; refused at stage time."""
    fixture_dir, cfgs, co = two_lakes
    txn = co.begin()
    with pytest.raises(ValueError, match="already sealed"):
        txn.stage("orders", cfgs["orders"], _events_ds(fixture_dir, 0), epoch=0)


def test_coordinator_snapshot_preserves_txn_order(two_lakes):
    """write_snapshot must not fold a LATER fully-sealed committed txn
    into the base cut while carrying an EARLIER committed-unsealed one:
    on reopen the carried older txn would re-apply over the newer cut
    and regress its tables' epochs. Once any txn is carried, all later
    ones are carried verbatim, so replay order is preserved."""
    fixture_dir, cfgs, co = two_lakes

    # txn1: committed but one seal missing (simulated crash window)
    t1 = co.begin()
    t1.stage("orders", cfgs["orders"], _events_ds(fixture_dir, 0))
    t1.prepare()
    co._record_decision(t1.txn_id, "COMMIT")  # no seals yet

    # txn2: later, touches the SAME table at a newer epoch, fully done
    t2 = co.begin()
    t2.stage("orders", cfgs["orders"], _events_ds(fixture_dir, 1), epoch=2,
             resume=False)
    t2.commit()

    co.write_snapshot()
    co2 = TxnCoordinator.open(co.root)
    co2.recover()  # finish txn1's seal
    cut = co2.snapshot_epochs()
    # txn2 decided later: the cut must pin orders at ITS epoch (2),
    # never regress to txn1's epoch 1
    assert cut["orders"]["epoch"] == 2


def test_crash_before_txn_tail_truncate_keeps_committed_cut(two_lakes, monkeypatch):
    """write_snapshot publishes the snapshot, then truncates the tail.
    Crash at the truncate's os.replace: the pre-snapshot tail stays on
    disk. Txn A commits orders@1, C stays in doubt on files, B commits
    orders@2, so the snapshot carries C and B after the folded A.
    Replaying the old tail on reopen would re-append A after B and
    regress orders to epoch 1, older than B's durable COMMIT."""
    fixture_dir, cfgs, co = two_lakes
    a = co.begin()
    a.stage("orders", cfgs["orders"], _events_ds(fixture_dir, 0))
    a.commit()
    c = co.begin()
    c.stage("files", cfgs["files"], _events_ds(fixture_dir, 0))
    c.prepare()
    b = co.begin()
    b.stage("orders", cfgs["orders"], _events_ds(fixture_dir, 1))
    b.commit()
    assert co.snapshot_epochs()["orders"]["epoch"] == 2

    real_replace = os.replace
    calls = []

    def crash_at_second(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError("simulated crash before the tail truncate")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", crash_at_second)
    with pytest.raises(OSError, match="simulated crash"):
        co.write_snapshot()
    monkeypatch.undo()
    assert calls == [co.snapshot_path, co.path]

    co2 = TxnCoordinator.open(co.root)
    assert co2.snapshot_epochs()["orders"]["epoch"] == 2
    assert co2.in_doubt() == [c.txn_id]
    # the first append replaces the stale tail; the decision survives
    co2.abort_prepared(c.txn_id)
    co3 = TxnCoordinator.open(co.root)
    assert co3.in_doubt() == []
    assert co3.snapshot_epochs()["orders"]["epoch"] == 2
    assert "files" not in co3.snapshot_epochs()
