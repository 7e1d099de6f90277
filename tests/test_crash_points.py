"""Crash-point enumeration over the driver's durable steps.

The durable steps are ``CommitLog._write_atomic`` (log snapshot and
tail, ``feed_map.json``, reconcile ``state.json``, the spool's
``_CURSOR`` and ``_SEALED``; also a view's ``_CURRENT``, which this
scenario does not reach) and the commit-log appends
(``CommitLog._append_many``: commits and seals). The scenario,
on a 4-bucket lake: one replay window of every binlog epoch that folds
chains past ``delta_threshold=2``, then ``compact``, then
``export_changelog`` + ``replicate_feed``, then an incremental
reconcile. For each k it crashes at the k-th durable step (the step
does not happen), reopens, and runs the scenario again to completion.

After the crash the reopened lake must be prefix-consistent: its sealed
epochs are ``0..h`` and its state as of ``h`` is the uninterrupted run's
state at ``h``; a sealed replica holds the lake's state. After the
rerun, the lake's and the replica's ``lake_state_hash`` equal the
uninterrupted run's, and the reconcile counts are exact. Task-side
data-file publishes are covered by the crash point right after the
tasks return (the commit or ``_SEALED`` that follows them), and by a
stray tmp file planted in a part directory before each rerun.
"""

from __future__ import annotations

import os

import pytest
import ray.data as rd

from etl_reconciliate_ray.functions.hashing import table_state_sha256
from etl_reconciliate_ray.pipelines.reconcile_run import reconcile_incremental
from etl_reconciliate_ray.pipelines.replay import (
    ReplayConfig,
    compact,
    export_changelog,
    lake_state_hash,
    lake_table,
    replay,
    replicate_feed,
)
from etl_reconciliate_ray.stages.normalize import make_normalizer
from etl_reconciliate_ray.state.commitlog import CommitLog

BUCKETS = 4


class _Crash(Exception):
    pass


def _configs(root: str, manifest: dict) -> tuple[ReplayConfig, ReplayConfig, str]:
    lake = ReplayConfig(
        lake_root=os.path.join(root, "lake"), num_buckets=BUCKETS,
        salt_for_repo=manifest["salt_hot_repos"], delta_threshold=2, pipeline_epochs=8,
    )
    replica = ReplayConfig(lake_root=os.path.join(root, "replica"), num_buckets=2)
    return lake, replica, os.path.join(root, "spool")


def _scenario(fixture_dir: str, root: str, manifest: dict) -> dict[str, int]:
    """Run (or finish) the scenario; returns the reconcile counts."""
    lake, replica, spool = _configs(root, manifest)
    replay(fixture_dir, lake)
    compact(lake)  # a compacted lake has nothing left to compact
    export_changelog(lake.lake_root, spool, image_cols="all")
    replicate_feed(spool, replica)
    snap = rd.read_parquet(os.path.join(fixture_dir, "snapshot.parquet")).map_batches(
        make_normalizer(BUCKETS, manifest["salt_hot_repos"]), batch_format="pyarrow"
    )
    counts = reconcile_incremental(
        lake.lake_root, snap, BUCKETS, manifest["salt_hot_repos"], snapshot_token="s"
    )[2]
    return {s: int(n) for s, n in zip(counts["status"], counts["n"]) if n}


def _state_hash(root: str, as_of: int | None = None) -> str:
    return table_state_sha256(lake_table(root, as_of), ("repo", "path"), "content_sha256")


def _hooked(monkeypatch, crash_at: int | None) -> list[str]:
    """Count the durable steps, raising ``_Crash`` instead of running
    the ``crash_at``-th. Returns the list of steps seen."""
    seen: list[str] = []
    write_atomic, append_many = CommitLog._write_atomic, CommitLog._append_many

    def step(what: str) -> None:
        seen.append(what)
        if len(seen) == crash_at:
            raise _Crash(what)

    def hooked_write_atomic(path, recs):
        step(f"write {os.path.basename(path)}")
        write_atomic(path, recs)

    def hooked_append_many(self, recs):
        if recs:
            step("append " + ",".join(sorted({r.get("type", "ENTRY") for r in recs})))
        append_many(self, recs)

    monkeypatch.setattr(CommitLog, "_write_atomic", staticmethod(hooked_write_atomic))
    monkeypatch.setattr(CommitLog, "_append_many", hooked_append_many)
    return seen


def _assert_prefix_consistent(root: str, manifest: dict, ref: dict, where: str) -> None:
    lake, replica, _ = _configs(root, manifest)
    log = CommitLog.open(lake.lake_root)
    head = log.latest_sealed_epoch()
    if head is not None:
        assert all(log.is_sealed(e) for e in range(head + 1)), where
        assert _state_hash(lake.lake_root, head) == ref["epochs"][head], where
    if CommitLog.open(replica.lake_root).latest_sealed_epoch() is not None:
        assert lake_state_hash(replica.lake_root) == ref["lake"], where


def _plant_stray_tmp(root: str) -> None:
    part_dir = os.path.join(root, "lake", "epoch=00001", "part=00000")
    os.makedirs(part_dir, exist_ok=True)
    with open(os.path.join(part_dir, "state-0000000000000000.parquet.tmp1"), "wb") as fh:
        fh.write(b"a crashed attempt's partial bytes")


@pytest.fixture(scope="module")
def fixture_five(tmp_path_factory):
    """Five binlog epochs: with ``delta_threshold=2`` every part folds
    at epochs 2 and 4 and ends the window on a delta, so ``compact``
    has work."""
    from etl_reconciliate_ray.datagen import DatagenConfig, write_fixture

    out = str(tmp_path_factory.mktemp("fixture_five"))
    cfg = DatagenConfig(seed=43, lake_rows=150, num_events=800, num_epochs=5)
    return out, cfg, write_fixture(cfg, out)


@pytest.fixture(scope="module")
def reference(fixture_five, tmp_path_factory):
    """The uninterrupted run: its durable steps, its per-epoch states,
    and its final hashes."""
    fixture_dir, _, manifest = fixture_five
    root = str(tmp_path_factory.mktemp("crash_ref"))
    mp = pytest.MonkeyPatch()
    try:
        steps = _hooked(mp, None)
        counts = _scenario(fixture_dir, root, manifest)
    finally:
        mp.undo()
    lake, replica, _ = _configs(root, manifest)
    # the state at each binlog epoch, from an independent replay with
    # no fold and no compaction; the compaction epoch keeps the head's
    plain = ReplayConfig(lake_root=os.path.join(root, "plain"), num_buckets=BUCKETS,
                         salt_for_repo=manifest["salt_hot_repos"])
    replay(fixture_dir, plain)
    epochs = {
        e: _state_hash(plain.lake_root, e)
        for e in range(CommitLog.open(plain.lake_root).latest_sealed_epoch() + 1)
    }
    epochs[CommitLog.open(lake.lake_root).latest_sealed_epoch()] = _state_hash(lake.lake_root)
    return {
        "steps": steps, "counts": counts, "epochs": epochs,
        "lake": lake_state_hash(lake.lake_root), "replica": lake_state_hash(replica.lake_root),
    }


def test_reference_run_covers_every_durable_step(reference, fixture_five):
    _, _, manifest = fixture_five
    steps = reference["steps"]
    assert any(s.startswith("append") and "EPOCH_COMMIT" in s for s in steps)
    assert len([s for s in steps if s == "append EPOCH_COMMIT"]) == 1 + 5 + 1 + 1  # + compact, replica
    for marker in ("commitlog.snapshot.jsonl", "_SEALED", "_CURSOR", "feed_map.json", "state.json"):
        assert any(s.endswith(marker) for s in steps), (marker, steps)
    assert reference["counts"] == {k: v for k, v in manifest["expected_status_counts"].items() if v}
    assert reference["replica"] == reference["lake"]


def test_crash_at_every_durable_step_converges(reference, fixture_five, tmp_path, monkeypatch):
    fixture_dir, _, manifest = fixture_five
    want_counts = {k: v for k, v in manifest["expected_status_counts"].items() if v}
    for k in range(1, len(reference["steps"]) + 1):
        root = str(tmp_path / f"k{k:03d}")
        _hooked(monkeypatch, k)
        with pytest.raises(_Crash):
            _scenario(fixture_dir, root, manifest)
        monkeypatch.undo()
        where = f"crash at step {k}: {reference['steps'][k - 1]}"
        _assert_prefix_consistent(root, manifest, reference, where)
        _plant_stray_tmp(root)
        counts = _scenario(fixture_dir, root, manifest)
        lake, replica, _ = _configs(root, manifest)
        assert lake_state_hash(lake.lake_root) == reference["lake"], where
        assert lake_state_hash(replica.lake_root) == reference["replica"], where
        assert counts == want_counts, where
