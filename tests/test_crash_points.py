"""Crash-point enumeration over the driver's durable steps.

The durable steps are ``Journal._write_atomic`` (the commit log's and
the txn coordinator log's snapshot and tail, each lake's
``lineage.json``, ``feed_map.json``, reconcile ``state.json``, the
spool's ``_CURSOR`` and ``_SEALED``, the JSONL envelope segment's
``_SEALED``, the repo view's ``_CURRENT``) and the journal appends
(``Journal._append_many``: commits, seals, and the coordinator's
PREPARE and COMMIT). The scenario, on a 4-bucket lake: one replay
window of every binlog epoch that folds chains past
``delta_threshold=2``, then ``compact``, then the CLI's repo view
(``run.repo_view``) brought to the head, then ``export_changelog`` +
``export_feed_envelopes`` + ``replicate_feed``, then an incremental
reconcile, then a two-epoch ``replay_multiplexed`` run into two tables
and a coordinator snapshot. For each k it crashes at the k-th durable
step (the step does not happen), reopens, and runs the scenario again
to completion.

After the crash the reopened lake must be prefix-consistent: its sealed
epochs are ``0..h`` and its state as of ``h`` is the uninterrupted run's
state at ``h``; a sealed replica holds the lake's state; and once the
coordinator's ``recover()`` has rolled decided txns forward, the two
multiplexed tables stand at the same epoch (no mixed cut). After the
rerun, the lake's, the replica's and both tables' ``lake_state_hash``
equal the uninterrupted run's, the reconcile counts are exact, the
view's state equals files and content bytes per repo recomputed from
the lake, and folding the envelope segments in name order gives the
lake's state. Task-side
data-file publishes are covered by the crash point right after the
tasks return (the commit or ``_SEALED`` that follows them), and by a
stray tmp file planted in a part directory before each rerun.
"""

from __future__ import annotations

import glob
import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
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
    replay_multiplexed,
    replicate_feed,
)
from etl_reconciliate_ray.run import repo_view
from etl_reconciliate_ray.sources.cdc_envelope import export_feed_envelopes
from etl_reconciliate_ray.stages.normalize import make_normalizer
from etl_reconciliate_ray.state.commitlog import CommitLog, Journal
from etl_reconciliate_ray.state.txn import TxnCoordinator

BUCKETS = 4
TABLES = ("files", "orders")


class _Crash(Exception):
    pass


def _configs(root: str, manifest: dict) -> tuple[ReplayConfig, ReplayConfig, str]:
    lake = ReplayConfig(
        lake_root=os.path.join(root, "lake"), num_buckets=BUCKETS,
        salt_for_repo=manifest["salt_hot_repos"], delta_threshold=2, pipeline_epochs=8,
    )
    replica = ReplayConfig(lake_root=os.path.join(root, "replica"), num_buckets=2)
    return lake, replica, os.path.join(root, "spool")


def _envelopes(root: str) -> str:
    return os.path.join(root, "envelopes")


def _mux_configs(root: str, manifest: dict) -> tuple[dict[str, ReplayConfig], str]:
    cfgs = {
        name: ReplayConfig(lake_root=os.path.join(root, f"mux_{name}"), num_buckets=BUCKETS,
                           salt_for_repo=manifest["salt_hot_repos"])
        for name in TABLES
    }
    return cfgs, os.path.join(root, "txn")


def _build_mux(fixture_dir: str, out: str) -> str:
    """A two-epoch multiplexed binlog from the fixture's first two
    binlog files: table ``files`` carries the rows verbatim, ``orders``
    the same keys with distinct content (deletes stay deletes)."""
    os.makedirs(out, exist_ok=True)
    for f in sorted(glob.glob(os.path.join(fixture_dir, "binlog", "*.parquet")))[:2]:
        t = pq.read_table(f)
        content = pa.array([None if op == "D" else f"O{c or ''}"
                            for op, c in zip(t["op"].to_pylist(), t["content"].to_pylist())],
                           pa.string())
        orders = t.set_column(t.column_names.index("content"), "content", content)
        both = pa.concat_tables([
            t.append_column("tbl", pa.array(["files"] * t.num_rows)),
            orders.append_column("tbl", pa.array(["orders"] * t.num_rows)),
        ]).sort_by([("tbl", "ascending"), ("seq", "ascending")])
        pq.write_table(both, os.path.join(out, os.path.basename(f)),
                       row_group_size=max(t.num_rows, 1))
    return out


def _scenario(fixture_dir: str, root: str, manifest: dict, mux: str) -> dict[str, int]:
    """Run (or finish) the scenario; returns the reconcile counts."""
    lake, replica, spool = _configs(root, manifest)
    replay(fixture_dir, lake)
    compact(lake)  # a compacted lake has nothing left to compact
    repo_view(lake.lake_root).advance(lake.lake_root)
    export_changelog(lake.lake_root, spool, image_cols="all")
    export_feed_envelopes(spool, _envelopes(root))
    replicate_feed(spool, replica)
    snap = rd.read_parquet(os.path.join(fixture_dir, "snapshot.parquet")).map_batches(
        make_normalizer(BUCKETS, manifest["salt_hot_repos"]), batch_format="pyarrow"
    )
    counts = reconcile_incremental(
        lake.lake_root, snap, BUCKETS, manifest["salt_hot_repos"], snapshot_token="s"
    )[2]
    tables, txn_root = _mux_configs(root, manifest)
    replay_multiplexed(mux, tables, txn_root)
    TxnCoordinator.open(txn_root).write_snapshot()
    return {s: int(n) for s, n in zip(counts["status"], counts["n"]) if n}


def _state_hash(root: str, as_of: int | None = None) -> str:
    return table_state_sha256(lake_table(root, as_of), ("repo", "path"), "content_sha256")


def _fold_envelopes(out_dir: str) -> dict:
    """A consumer's fold of every sealed envelope segment, in name
    order: ``(repo, path) -> content_sha256``."""
    state = {}
    for seg in sorted(os.listdir(out_dir)):
        assert os.path.exists(os.path.join(out_dir, seg, "_SEALED")), seg
        for part in sorted(glob.glob(os.path.join(out_dir, seg, "*.jsonl"))):
            with open(part) as fh:
                for rec in map(json.loads, fh):
                    if rec["op"] == "d":
                        state.pop((rec["before"]["repo"], rec["before"]["path"]), None)
                    else:
                        a = rec["after"]
                        state[(a["repo"], a["path"])] = a["content_sha256"]
    return state


def _lake_state(root: str) -> dict:
    t = lake_table(root)
    return dict(zip(zip(t["repo"].to_pylist(), t["path"].to_pylist()),
                    t["content_sha256"].to_pylist()))


def _view_per_repo(root: str) -> tuple[list, list]:
    """The repo view's rows and a recompute of them from the lake:
    ``(repo, files, content bytes)``, sorted."""
    got = repo_view(root).state().to_pandas()
    t = lake_table(root)
    want: dict = {}
    for repo, n in zip(t["repo"].to_pylist(), pc.binary_length(t["content"]).to_pylist()):
        files, nbytes = want.get(repo, (0, 0))
        want[repo] = (files + 1, nbytes + (n or 0))
    return (sorted(zip(got["repo"], got["n_files"], got["content_bytes"])),
            sorted((r, f, b) for r, (f, b) in want.items()))


def _hooked(monkeypatch, crash_at: int | None) -> list[str]:
    """Count the durable steps, raising ``_Crash`` instead of running
    the ``crash_at``-th. Returns the list of steps seen."""
    seen: list[str] = []
    write_atomic, append_many = Journal._write_atomic, Journal._append_many

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

    monkeypatch.setattr(Journal, "_write_atomic", staticmethod(hooked_write_atomic))
    monkeypatch.setattr(Journal, "_append_many", hooked_append_many)
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
    tables, txn_root = _mux_configs(root, manifest)
    TxnCoordinator.open(txn_root).recover()
    heads = {CommitLog.open(c.lake_root).latest_sealed_epoch() for c in tables.values()}
    assert len(heads) == 1, (where, heads)  # no mixed cut


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
def mux(fixture_five, tmp_path_factory):
    return _build_mux(fixture_five[0], str(tmp_path_factory.mktemp("mux")))


@pytest.fixture(scope="module")
def reference(fixture_five, mux, tmp_path_factory):
    """The uninterrupted run: its durable steps, its per-epoch states,
    and its final hashes."""
    fixture_dir, _, manifest = fixture_five
    root = str(tmp_path_factory.mktemp("crash_ref"))
    mp = pytest.MonkeyPatch()
    try:
        steps = _hooked(mp, None)
        counts = _scenario(fixture_dir, root, manifest, mux)
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
    tables, _ = _mux_configs(root, manifest)
    return {
        "steps": steps, "counts": counts, "epochs": epochs,
        "lake": lake_state_hash(lake.lake_root), "replica": lake_state_hash(replica.lake_root),
        "tables": {n: lake_state_hash(c.lake_root) for n, c in tables.items()},
        "view": _view_per_repo(lake.lake_root),
    }


def test_reference_run_covers_every_durable_step(reference, fixture_five):
    _, _, manifest = fixture_five
    steps = reference["steps"]
    assert any(s.startswith("append") and "EPOCH_COMMIT" in s for s in steps)
    # bootstrap + 5 epochs, compact, replica, then 2 mux epochs x 2 tables
    assert len([s for s in steps if s == "append EPOCH_COMMIT"]) == 1 + 5 + 1 + 1 + 2 * 2
    for marker in ("commitlog.snapshot.jsonl", "_SEALED", "_CURSOR", "feed_map.json", "state.json"):
        assert any(s.endswith(marker) for s in steps), (marker, steps)
    assert len([s for s in steps if s == "write _SEALED"]) == 2  # the spool's, the envelopes'
    # two mux epochs: a PREPARE and a COMMIT each, then the coordinator
    # snapshot (its snapshot file and its fresh tail)
    assert steps.count("append PREPARE") == 2 and steps.count("append COMMIT") == 2
    assert steps.count("write txnlog.snapshot.jsonl") == 1
    assert steps.count("write txnlog.jsonl") == 1
    # bootstrap, the replay window, compact, the replica's epoch, and
    # 2 mux epochs x 2 tables each publish a lake's lineage manifest
    assert steps.count("write lineage.json") == 8
    assert steps.count("write _CURRENT") == 1  # the view's bootstrap
    assert len(steps) == 51, steps
    assert reference["counts"] == {k: v for k, v in manifest["expected_status_counts"].items() if v}
    assert reference["replica"] == reference["lake"]
    got, want = reference["view"]
    assert got == want
    assert reference["tables"]["files"] != reference["tables"]["orders"]


def test_crash_at_every_durable_step_converges(reference, fixture_five, mux, tmp_path,
                                               monkeypatch):
    fixture_dir, _, manifest = fixture_five
    want_counts = {k: v for k, v in manifest["expected_status_counts"].items() if v}
    for k in range(1, len(reference["steps"]) + 1):
        root = str(tmp_path / f"k{k:03d}")
        _hooked(monkeypatch, k)
        with pytest.raises(_Crash):
            _scenario(fixture_dir, root, manifest, mux)
        monkeypatch.undo()
        where = f"crash at step {k}: {reference['steps'][k - 1]}"
        _assert_prefix_consistent(root, manifest, reference, where)
        _plant_stray_tmp(root)
        counts = _scenario(fixture_dir, root, manifest, mux)
        lake, replica, _ = _configs(root, manifest)
        assert lake_state_hash(lake.lake_root) == reference["lake"], where
        assert lake_state_hash(replica.lake_root) == reference["replica"], where
        assert counts == want_counts, where
        got, want = _view_per_repo(lake.lake_root)
        assert got == want, where
        assert _fold_envelopes(_envelopes(root)) == _lake_state(lake.lake_root), where
        tables, _ = _mux_configs(root, manifest)
        for name, cfg in tables.items():
            assert lake_state_hash(cfg.lake_root) == reference["tables"][name], (where, name)
