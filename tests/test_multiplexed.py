"""Multiplexed CDC ingest (replay_multiplexed): one binlog carrying N
logical tables lands in N lakes with per-epoch cross-table ATOMIC
visibility through the txn coordinator. Equality oracle: each lake must
be sha-identical to an independent plain replay of its demultiplexed
stream; chaos: a crash between PREPARE and COMMIT leaves both lakes at
the PREVIOUS epoch (never mixed) and the next run rolls forward.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from etl_reconciliate_ray.pipelines.replay import (
    ReplayConfig,
    lake_state_hash,
    replay_multiplexed,
    replay_stream,
)
from etl_reconciliate_ray.state.commitlog import CommitLog
from etl_reconciliate_ray.state.txn import TxnCoordinator


def _build_mux(fixture_dir: str, out: str) -> tuple[str, str, str]:
    """Two logical tables interleaved in one binlog: 'files' = the
    fixture rows verbatim, 'orders' = same keys with distinct content.
    Also writes the demultiplexed control streams."""
    mux = os.path.join(out, "mux")
    ctrl_f = os.path.join(out, "plain_files")
    ctrl_o = os.path.join(out, "plain_orders")
    for d in (mux, ctrl_f, ctrl_o):
        os.makedirs(d, exist_ok=True)
    for f in sorted(glob.glob(os.path.join(fixture_dir, "binlog", "*.parquet"))):
        t = pq.read_table(f)
        files = t.append_column("tbl", pa.array(["files"] * t.num_rows))
        ocontent = pc.binary_join_element_wise(
            pa.array(["O"] * t.num_rows), pc.fill_null(t["content"], ""), ""
        )
        # deletes must stay deletes (null content) in the derived table
        ocontent = pc.if_else(pc.equal(t["op"], "D"), pa.nulls(t.num_rows, pa.string()), ocontent)
        orders = t.set_column(
            t.column_names.index("content"), "content", ocontent
        ).append_column("tbl", pa.array(["orders"] * t.num_rows))
        name = os.path.basename(f)
        # table-sorted so the tbl == name read filter prunes row groups
        both = pa.concat_tables([files, orders], promote_options="default")
        both = both.sort_by([("tbl", "ascending"), ("seq", "ascending")])
        pq.write_table(both, os.path.join(mux, name), row_group_size=max(t.num_rows, 1))
        pq.write_table(files.drop_columns(["tbl"]), os.path.join(ctrl_f, name))
        pq.write_table(orders.drop_columns(["tbl"]), os.path.join(ctrl_o, name))
    return mux, ctrl_f, ctrl_o


def _cfg(tmp_path, name, manifest):
    return ReplayConfig(
        lake_root=str(tmp_path / name),
        num_buckets=4,
        salt_for_repo=manifest["salt_hot_repos"],
    )


def test_multiplexed_equals_independent_replays(fixture_small, tmp_path, ray_session):
    fixture_dir, _, manifest = fixture_small
    mux, ctrl_f, ctrl_o = _build_mux(fixture_dir, str(tmp_path / "streams"))
    cfgs = {"files": _cfg(tmp_path, "mx_files", manifest),
            "orders": _cfg(tmp_path, "mx_orders", manifest)}
    out = replay_multiplexed(mux, cfgs, str(tmp_path / "mx_txn"))
    assert all(not m["skipped"] for m in out)

    for name, ctrl in (("files", ctrl_f), ("orders", ctrl_o)):
        control = _cfg(tmp_path, f"ctrl_{name}", manifest)
        replay_stream(ctrl, control)
        assert lake_state_hash(cfgs[name].lake_root) == lake_state_hash(control.lake_root), name

    # idempotent re-run: everything sealed, nothing restaged
    out2 = replay_multiplexed(mux, cfgs, str(tmp_path / "mx_txn"))
    assert all(m["skipped"] for m in out2)


def test_multiplexed_crash_mid_epoch_is_atomic(fixture_small, tmp_path, ray_session):
    fixture_dir, _, manifest = fixture_small
    mux, ctrl_f, ctrl_o = _build_mux(fixture_dir, str(tmp_path / "streams2"))
    cfgs = {"files": _cfg(tmp_path, "cx_files", manifest),
            "orders": _cfg(tmp_path, "cx_orders", manifest)}
    txn_root = str(tmp_path / "cx_txn")

    # crash after staging+preparing epoch 2, before its COMMIT mark
    replay_multiplexed(mux, cfgs, txn_root, stop_mid_epoch=2)
    heads = {n: CommitLog.open(c.lake_root).latest_sealed_epoch() for n, c in cfgs.items()}
    # ATOMIC: both tables stand at epoch 1 — never one at 2 and one at 1
    assert heads == {"files": 1, "orders": 1}
    assert TxnCoordinator.open(txn_root).in_doubt()  # the crash left evidence

    # restart rolls the in-doubt txn forward and finishes the stream
    out = replay_multiplexed(mux, cfgs, txn_root)
    assert [m["epoch"] for m in out if not m.get("skipped")]
    for name, ctrl in (("files", ctrl_f), ("orders", ctrl_o)):
        control = _cfg(tmp_path, f"cctrl_{name}", manifest)
        replay_stream(ctrl, control)
        assert lake_state_hash(cfgs[name].lake_root) == lake_state_hash(control.lake_root), name
    assert TxnCoordinator.open(txn_root).in_doubt() == []


def test_follow_multiplexed_drains_growing_stream(fixture_small, tmp_path, ray_session):
    """Epoch files land while following; each batch commits atomically
    across tables; _EOS stops the loop after draining; final state ==
    one-shot multiplexed replay of the same stream."""
    import shutil
    import threading
    import time as _time

    from etl_reconciliate_ray.pipelines.replay import follow_multiplexed

    fixture_dir, _, manifest = fixture_small
    mux, _, _ = _build_mux(fixture_dir, str(tmp_path / "streams3"))
    grow = str(tmp_path / "grow")
    os.makedirs(grow)
    files = sorted(glob.glob(os.path.join(mux, "*.parquet")))
    shutil.copy(files[0], os.path.join(grow, os.path.basename(files[0])))

    cfgs = {"files": _cfg(tmp_path, "fm_files", manifest),
            "orders": _cfg(tmp_path, "fm_orders", manifest)}
    batches = []

    def feeder():
        for f in files[1:]:
            _time.sleep(0.4)
            shutil.copy(f, os.path.join(grow, os.path.basename(f)))
        open(os.path.join(grow, "_EOS"), "w").close()

    t = threading.Thread(target=feeder)
    t.start()
    out = follow_multiplexed(
        grow, cfgs, str(tmp_path / "fm_txn"), poll_sec=0.2, idle_polls=100,
        on_batch=lambda tabs: batches.append(
            {n: CommitLog.open(c.lake_root).latest_sealed_epoch() for n, c in tabs.items()}
        ),
    )
    t.join()
    assert len(batches) >= 2  # the stream actually grew mid-follow
    # every observed batch boundary was cross-table ATOMIC
    for heads in batches:
        assert heads["files"] == heads["orders"]

    control = {"files": _cfg(tmp_path, "fmc_files", manifest),
               "orders": _cfg(tmp_path, "fmc_orders", manifest)}
    replay_multiplexed(mux, control, str(tmp_path / "fmc_txn"))
    for n in cfgs:
        assert lake_state_hash(cfgs[n].lake_root) == lake_state_hash(control[n].lake_root)


def test_follow_multiplexed_cuts_at_midcopy_file(fixture_small, tmp_path, ray_session):
    """Regression: follow_multiplexed's poll cut discovery at a
    half-copied trailing file, but then delegated to replay_multiplexed
    WITHOUT the tail flag — the same corrupt file crashed the loop and
    the complete earlier files were never ingested. The readable prefix
    must land; once the producer finishes the copy, the next follow
    drains it."""
    import shutil

    from etl_reconciliate_ray.pipelines.replay import follow_multiplexed

    fixture_dir, _, manifest = fixture_small
    mux, _, _ = _build_mux(fixture_dir, str(tmp_path / "streams4"))
    grow = str(tmp_path / "grow4")
    os.makedirs(grow)
    files = sorted(glob.glob(os.path.join(mux, "*.parquet")))
    shutil.copy(files[0], os.path.join(grow, os.path.basename(files[0])))
    # a mid-copy arrival: sorts after the complete file, has no footer
    partial = os.path.join(grow, os.path.basename(files[1]))
    with open(partial, "wb") as fh:
        fh.write(b"PAR1corrupt")

    cfgs = {"files": _cfg(tmp_path, "mc_files", manifest),
            "orders": _cfg(tmp_path, "mc_orders", manifest)}
    out = follow_multiplexed(
        grow, cfgs, str(tmp_path / "mc_txn"), poll_sec=0.05, idle_polls=1
    )
    applied = [m for m in out if not m.get("skipped")]
    assert len(applied) == 1  # the readable prefix landed, no crash
    for cfg in cfgs.values():
        assert CommitLog.open(cfg.lake_root).latest_sealed_epoch() == 1

    # the producer finishes the copy; the next follow drains everything
    for f in files[1:]:
        shutil.copy(f, os.path.join(grow, os.path.basename(f)))
    open(os.path.join(grow, "_EOS"), "w").close()
    follow_multiplexed(
        grow, cfgs, str(tmp_path / "mc_txn"), poll_sec=0.05, idle_polls=3
    )
    control = {"files": _cfg(tmp_path, "mcc_files", manifest),
               "orders": _cfg(tmp_path, "mcc_orders", manifest)}
    replay_multiplexed(mux, control, str(tmp_path / "mcc_txn"))
    for n in cfgs:
        assert lake_state_hash(cfgs[n].lake_root) == lake_state_hash(control[n].lake_root)


def test_follow_multiplexed_discovers_once_per_poll(fixture_small, tmp_path, ray_session,
                                                    monkeypatch):
    """Each poll of ``follow_multiplexed`` reads the binlog footers once:
    the batch lands with the poll's own lenient discovery, and the
    ``_EOS`` drain adds one strict discovery. With ``_EOS`` already
    present the stream lands in one poll, so two discoveries in all."""
    import shutil

    from etl_reconciliate_ray.pipelines import replay as replay_mod
    from etl_reconciliate_ray.pipelines.replay import follow_multiplexed

    fixture_dir, _, manifest = fixture_small
    mux, _, _ = _build_mux(fixture_dir, str(tmp_path / "streams5"))
    grow = str(tmp_path / "grow5")
    os.makedirs(grow)
    for f in sorted(glob.glob(os.path.join(mux, "*.parquet")))[:2]:
        shutil.copy(f, os.path.join(grow, os.path.basename(f)))
    open(os.path.join(grow, "_EOS"), "w").close()

    lenient: list[bool] = []
    discover = replay_mod._discover_epochs

    def counted(binlog_dir, stop_at_unreadable=False):
        lenient.append(stop_at_unreadable)
        return discover(binlog_dir, stop_at_unreadable=stop_at_unreadable)

    monkeypatch.setattr(replay_mod, "_discover_epochs", counted)
    cfgs = {"files": _cfg(tmp_path, "dp_files", manifest),
            "orders": _cfg(tmp_path, "dp_orders", manifest)}
    out = follow_multiplexed(grow, cfgs, str(tmp_path / "dp_txn"), poll_sec=0.05, idle_polls=3)
    assert [m["epoch"] for m in out if not m["skipped"]] == [1, 2]
    assert lenient == [True, False]  # one lenient poll, then the strict drain
