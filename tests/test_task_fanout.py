"""The engine's own work runs as plain Ray tasks (``replay._per_part``),
and Ray Data runs only where a Dataset crosses the API.

- replay, folds, compaction, salt planning, erasure, a delta-segment
  replication and an unchanged incremental reconcile start no Ray Data
  execution; an epoch given as a Dataset starts exactly one;
- the export (``export_changelog``, ``compact_feed``) and the JSONL
  envelope export (``export_feed_envelopes``) start no Ray Data
  execution: their tasks write the segment files themselves;
- the lake-to-lake writes — ``rebucket`` and a snapshot re-baseline of
  a replica that already holds state — read lake parts as the epoch
  kernel's read blocks, start no Ray Data execution, and leave the
  source's state;
- the engine's read blocks partition a window's (file, row group)
  fragments, and any block count resolves to the same lake as the
  default read and as the same binlog applied through ``run_epoch``
  over a Dataset;
- ``lake_lookup`` parses the commit log once per change of it;
- the Datasets the read surface returns (``lake_dataset``,
  ``lake_changelog``, the reconcile detail, ``read_quarantine``, a
  view's ``state``) start nothing until they are consumed, and a torn
  lake file fails the read, not the call.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd
from ray.data._internal.execution.streaming_executor import StreamingExecutor

from etl_reconciliate_ray.pipelines import replay as rp
from etl_reconciliate_ray.pipelines.replay import (
    ReplayConfig,
    _chains_payload,
    _scan,
    auto_salt_plan,
    bootstrap,
    compact,
    compact_feed,
    erase_key,
    export_changelog,
    lake_changelog,
    lake_dataset,
    lake_lookup,
    lake_state_hash,
    lake_table,
    rebucket,
    replay,
    replay_stream,
    replicate_feed,
    run_epoch,
)
from etl_reconciliate_ray.sources.cdc_envelope import export_feed_envelopes
from etl_reconciliate_ray.state.commitlog import CommitLog


@pytest.fixture
def executions(monkeypatch):
    """``count()``: a context that yields a list whose length, once the
    block exits, is the Ray Data executions started in the driver."""
    started: list[int] = []
    orig = StreamingExecutor.execute

    def execute(self, *args, **kwargs):
        started.append(1)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)

    @contextlib.contextmanager
    def count():
        seen: list[int] = []
        before = len(started)
        yield seen
        seen.extend(started[before:])

    return count


@pytest.fixture
def per_part_tasks(monkeypatch):
    """The ``_per_part`` tasks started while the test runs (their refs)."""
    started: list = []
    per_part = rp._per_part

    def counted(items, part_fn):
        refs = per_part(items, part_fn)
        started.extend(refs)
        return refs

    monkeypatch.setattr(rp, "_per_part", counted)
    return started


def _events(seq0: int, n: int, keys: int, tag: str) -> pa.Table:
    rng = np.random.RandomState(seq0 + keys)
    k = rng.randint(0, keys, n)
    ops = np.where(rng.rand(n) < 0.1, "D", "U")
    return pa.table({
        "seq": pa.array(np.arange(seq0, seq0 + n), pa.int64()),
        "op": ops.tolist(),
        "repo": [f"org/r{i % 5}" for i in k],
        "path": [f"f{i}.py" for i in k],
        "commit": [f"c{s}" for s in range(seq0, seq0 + n)],
        "content": [None if o == "D" else f"{tag} {s}" for o, s in zip(ops, range(seq0, seq0 + n))],
    })


def test_engine_paths_start_no_ray_data_execution(tmp_path, executions):
    from etl_reconciliate_ray.pipelines.reconcile_run import reconcile_incremental
    from etl_reconciliate_ray.stages.normalize import make_normalizer

    binlog = tmp_path / "binlog"
    binlog.mkdir()
    for e in range(4):
        pq.write_table(_events(e * 200, 200, 60, f"e{e}"), str(binlog / f"epoch={e:05d}.parquet"))
    # a named zero-row file has no seq range: it runs as its own epoch
    pq.write_table(_events(0, 0, 1, "x"), str(binlog / "epoch=00004.parquet"))
    seed = str(tmp_path / "seed.parquet")
    pq.write_table(_events(0, 50, 60, "seed").drop_columns(["seq", "op"]), seed)
    cfg = ReplayConfig(lake_root=str(tmp_path / "lake"), num_buckets=4, delta_threshold=2)

    with executions() as n:
        metrics = replay_stream(str(binlog), cfg, lake_seed=seed)
    assert [m["epoch"] for m in metrics] == [0, 1, 2, 3, 4, 5]
    assert sum(m["folded"] for m in metrics) > 0  # a fold past delta_threshold
    assert n == []

    with executions() as n:
        plan = auto_salt_plan(cfg.lake_root, skew_threshold=0.0)
    assert plan["hot_parts"] and n == []

    feed = str(tmp_path / "feed")
    export_changelog(cfg.lake_root, feed, image_cols="all")  # the snapshot segment
    pq.write_table(_events(800, 100, 60, "e5"), str(binlog / "epoch=00005.parquet"))
    replay_stream(str(binlog), cfg)
    export_changelog(cfg.lake_root, feed, image_cols="all")  # a delta segment
    replica = ReplayConfig(lake_root=str(tmp_path / "replica"), num_buckets=2)
    with executions() as n:
        res = replicate_feed(feed, replica)
    assert len(res["applied"]) == 2 and n == []
    assert lake_state_hash(replica.lake_root) == lake_state_hash(cfg.lake_root)

    with executions() as n:
        assert not compact(cfg)["skipped"]
    assert n == []

    with executions() as n:
        assert erase_key(cfg.lake_root, "org/r1", "f1.py")["rows_erased"] > 0
    assert n == []

    snap = str(tmp_path / "snap.parquet")
    pq.write_table(_events(0, 80, 60, "snap").drop_columns(["seq", "op"]), snap)

    def reconcile():
        ds = rd.read_parquet(snap).map_batches(make_normalizer(4), batch_format="pyarrow")
        return reconcile_incremental(cfg.lake_root, ds, 4, snapshot_token="s1")

    first = reconcile()
    with executions() as n:
        again = reconcile()
    assert again[3]["parts_recomputed"] == 0 and not again[3]["snapshot_respooled"]
    assert again[2].equals(first[2])
    assert n == []

    ds = rd.from_arrow(_events(1000, 30, 60, "ds"))
    with executions() as n:
        m = run_epoch(ds, 8, cfg)
    assert m["parts_committed"] > 0
    assert len(n) == 1


def test_export_and_compact_feed_start_no_ray_data_execution(tmp_path, executions):
    binlog = tmp_path / "binlog"
    binlog.mkdir()
    src = ReplayConfig(lake_root=str(tmp_path / "src"), num_buckets=4)
    feed = str(tmp_path / "feed")
    for e in range(2):
        pq.write_table(_events(e * 200, 200, 80, f"e{e}"), str(binlog / f"epoch={e:05d}.parquet"))
        replay_stream(str(binlog), src)
        with executions() as n:
            assert export_changelog(src.lake_root, feed, image_cols="all")["snapshot"] == (e == 0)
            assert len(export_feed_envelopes(feed, str(tmp_path / "env"))) == e + 1
        assert n == []
    with executions() as n:
        assert compact_feed(src.lake_root, feed)["deleted"] == 2
    assert n == []


def _source_and_feed(tmp_path, epochs: int) -> tuple[ReplayConfig, str, str]:
    """A 4-bucket source lake replayed from ``epochs`` epochs of events,
    and its export spool holding the bootstrap snapshot. Returns the
    source config, the binlog directory and the spool directory."""
    binlog = tmp_path / "binlog"
    binlog.mkdir()
    for e in range(epochs):
        pq.write_table(_events(e * 200, 200, 80, f"e{e}"), str(binlog / f"epoch={e:05d}.parquet"))
    src = ReplayConfig(lake_root=str(tmp_path / "src"), num_buckets=4)
    replay_stream(str(binlog), src)
    feed = str(tmp_path / "feed")
    export_changelog(src.lake_root, feed, image_cols="all")
    return src, str(binlog), feed


def _advance_and_compact_feed(src: ReplayConfig, binlog: str, feed: str, first: int) -> None:
    """Two more source epochs exported as a delta segment, then the
    spool compacted to one snapshot: a replica that applied only the
    old snapshot must re-baseline from the new one."""
    for e in (first, first + 1):
        pq.write_table(_events(e * 200, 200, 80, f"e{e}"), os.path.join(binlog, f"epoch={e:05d}.parquet"))
    replay_stream(binlog, src)
    export_changelog(src.lake_root, feed, image_cols="all")
    compact_feed(src.lake_root, feed)


def _state(root: str, cols: list[str]) -> list[tuple]:
    t = lake_table(root)
    return sorted(tuple(r[c] for c in cols) for r in t.select(cols).to_pylist())


def test_lake_to_lake_writes_start_no_ray_data_execution(tmp_path, executions):
    src, binlog, feed = _source_and_feed(tmp_path, 3)

    with executions() as n:
        m = rebucket(src, str(tmp_path / "rebucketed"), num_buckets=3)
    assert n == []
    assert m["parts"] == 3 and m["rows_written"] == lake_table(src.lake_root).num_rows
    assert lake_state_hash(str(tmp_path / "rebucketed")) == lake_state_hash(src.lake_root)

    replica = ReplayConfig(lake_root=str(tmp_path / "replica"), num_buckets=2)
    replicate_feed(feed, replica)
    _advance_and_compact_feed(src, binlog, feed, 3)
    with executions() as n:
        res = replicate_feed(feed, replica)  # the re-baseline
    assert len(res["applied"]) == 1 and n == []
    assert lake_state_hash(replica.lake_root) == lake_state_hash(src.lake_root)


def test_snapshot_rebaseline_of_a_stale_replica_equals_the_source(tmp_path):
    """A stale replica under another bucket count, reading the feed in 3
    blocks: the re-baseline's tombstones and upserts are separate
    pieces of one link, and per-key LWW on (epoch, seq) leaves exactly
    the source's state — deleted keys gone, re-sent keys kept."""
    src, binlog, feed = _source_and_feed(tmp_path, 2)
    replica = ReplayConfig(lake_root=str(tmp_path / "replica"), num_buckets=3, read_parallelism=3)
    replicate_feed(feed, replica)
    stale = set(_state(replica.lake_root, ["repo", "path"]))
    _advance_and_compact_feed(src, binlog, feed, 2)
    live = set(_state(src.lake_root, ["repo", "path"]))
    assert stale - live and stale & live  # keys to delete and keys to keep

    [m] = replicate_feed(feed, replica)["applied"]
    assert "snapshot" in m["segment"]

    def ops(f: str, rg: int) -> set:
        return set(pq.ParquetFile(f).read_row_group(rg, columns=["op"])["op"].to_pylist())

    links = [e for e in CommitLog.open(replica.lake_root).all_entries() if e.epoch == m["epoch"]]
    assert any(
        {"D"} in [ops(f, rg) for f, rg in zip(e.files, e.rgs)]
        and any("D" not in ops(f, rg) for f, rg in zip(e.files, e.rgs))
        for e in links
    )
    assert lake_state_hash(replica.lake_root) == lake_state_hash(src.lake_root)
    cols = ["repo", "path", "commit", "content", "content_sha256"]
    assert _state(replica.lake_root, cols) == _state(src.lake_root, cols)


def _write_layout(root, layout: str) -> list[dict]:
    """Two epochs of events: ``sharded`` writes each as a directory of
    3 files with 3 row groups each; ``single`` as one file with 3 row
    groups. Returns the epoch descriptors of a fixture manifest."""
    os.makedirs(os.path.join(root, "binlog"))
    descs = []
    for e in range(2):
        t = _events(e * 900, 900, 150, f"e{e}")
        path = os.path.join(root, "binlog", f"epoch={e:05d}")
        if layout == "sharded":
            os.makedirs(path)
            for i in range(3):
                pq.write_table(t.slice(i * 300, 300), os.path.join(path, f"shard-{i}.parquet"),
                               row_group_size=100)
        else:
            path += ".parquet"
            pq.write_table(t, path, row_group_size=300)
        descs.append({"epoch": e, "file": path, "seq_range": [e * 900, (e + 1) * 900]})
    pq.write_table(_events(0, 100, 150, "seed").drop_columns(["seq", "op"]),
                   os.path.join(root, "lake_seed.parquet"))
    with open(os.path.join(root, "fixture.json"), "w") as fh:
        json.dump({"epochs": descs}, fh)
    return descs


def _rows_read(scan) -> list[tuple]:
    """Every (file, row group, row) a scan's blocks read, with repeats."""
    out = []
    for block in scan.blocks:
        for f, rg, lo, hi in block:
            n = pq.ParquetFile(f).metadata.row_group(rg).num_rows
            out.extend((os.path.relpath(f), rg, r) for r in range(n)[slice(lo, hi)])
    return out


@pytest.mark.parametrize("layout", ["sharded", "single"])
def test_read_blocks_partition_the_window(tmp_path, layout):
    root = str(tmp_path)
    descs = _write_layout(root, layout)
    forced = ReplayConfig(lake_root=os.path.join(root, "forced"), num_buckets=4,
                          read_parallelism=4, pipeline_epochs=2)

    for paths in ([d["file"] for d in descs], [descs[0]["file"]]):
        scan = _scan(paths, forced)
        assert len(scan.blocks) == 4
        files = [
            f for p in paths
            for f in ([os.path.join(p, n) for n in os.listdir(p)] if os.path.isdir(p) else [p])
        ]
        want = [
            (os.path.relpath(f), rg, r) for f in files
            for rg in range(pq.ParquetFile(f).num_row_groups)
            for r in range(pq.ParquetFile(f).metadata.row_group(rg).num_rows)
        ]
        got = _rows_read(scan)
        assert sorted(got) == sorted(want)  # disjoint, and every row once
        if layout == "sharded":  # enough row groups: no block splits one
            assert sum(map(len, scan.blocks)) == sum(pq.ParquetFile(f).num_row_groups for f in files)

    default = ReplayConfig(lake_root=os.path.join(root, "default"), num_buckets=4,
                           pipeline_epochs=2)
    mf = replay(root, forced)
    md = replay(root, default)
    assert all(m["read_blocks"] == 4 for m in mf[1:])
    assert all(m["read_blocks"] == 1 for m in md)
    want = lake_state_hash(default.lake_root)
    assert lake_state_hash(forced.lake_root) == want

    # the same binlog as caller Datasets: each epoch read by Ray Data,
    # in a union with an empty side that has no columns at all
    via_ds = ReplayConfig(lake_root=os.path.join(root, "via_ds"), num_buckets=4)
    bootstrap(os.path.join(root, "lake_seed.parquet"), via_ds)
    for d in descs:
        ds = rd.read_parquet(d["file"]).union(rd.from_arrow(pa.table({})))
        run_epoch(ds, d["epoch"] + 1, via_ds, input_seq=tuple(d["seq_range"]))
    assert lake_state_hash(via_ds.lake_root) == want


def _binlog_epoch(binlog, e: int, rows: list[tuple]) -> None:
    pq.write_table(pa.table({
        "seq": pa.array([e * 100 + i for i in range(len(rows))], pa.int64()),
        "op": [r[0] for r in rows],
        "repo": [r[1] for r in rows],
        "path": [r[2] for r in rows],
        "content": [r[3] for r in rows],
    }), str(binlog / f"epoch={e:05d}.parquet"))


def test_lookup_sees_each_new_seal_and_erasure(tmp_path):
    binlog = tmp_path / "binlog"
    binlog.mkdir()
    cfg = ReplayConfig(lake_root=str(tmp_path / "lake"), num_buckets=4)
    _binlog_epoch(binlog, 0, [("I", "r", "a", "v1"), ("I", "r", "b", "w1")])
    replay_stream(str(binlog), cfg)

    def content(path):
        t = lake_lookup(cfg, "r", path)
        return t["content"].to_pylist() if t.num_rows else []

    assert content("a") == ["v1"]
    _binlog_epoch(binlog, 1, [("U", "r", "a", "v2")])
    replay_stream(str(binlog), cfg)
    assert content("a") == ["v2"]
    _binlog_epoch(binlog, 2, [("D", "r", "a", None), ("I", "r", "c", "x1")])
    replay_stream(str(binlog), cfg)
    assert content("a") == [] and content("c") == ["x1"]
    erase_key(cfg.lake_root, "r", "b")
    assert content("b") == []
    compact(cfg)  # rewrites both log files
    assert content("c") == ["x1"]


def test_lookups_on_an_unchanged_lake_parse_the_log_once(tmp_path, monkeypatch):
    binlog = tmp_path / "binlog"
    binlog.mkdir()
    cfg = ReplayConfig(lake_root=str(tmp_path / "lake"), num_buckets=4)
    _binlog_epoch(binlog, 0, [("I", "r", f"p{i}", f"v{i}") for i in range(20)])
    replay_stream(str(binlog), cfg)

    opened = []
    orig = CommitLog.open.__func__

    def counted(cls, root):
        opened.append(root)
        return orig(cls, root)

    monkeypatch.setattr(CommitLog, "open", classmethod(counted))
    rp._parsed_log.cache_clear()
    for i in range(50):
        assert lake_lookup(cfg, "r", f"p{i % 20}")["content"].to_pylist() == [f"v{i % 20}"]
    assert len(opened) == 1


def test_read_surface_is_lazy(tmp_path, executions, per_part_tasks):
    """Building each Dataset of the read surface starts no Ray Data
    execution and no ``_per_part`` task; consuming it reads the state
    that was current when it was built."""
    import pyarrow.compute as pc

    from etl_reconciliate_ray.pipelines.reconcile_run import reconcile_incremental
    from etl_reconciliate_ray.run import repo_view
    from etl_reconciliate_ray.stages.normalize import make_normalizer
    from etl_reconciliate_ray.stages.quarantine import quarantine_split, read_quarantine

    binlog = tmp_path / "binlog"
    binlog.mkdir()
    for e in range(3):
        pq.write_table(_events(e * 200, 200, 60, f"e{e}"), str(binlog / f"epoch={e:05d}.parquet"))
    cfg = ReplayConfig(lake_root=str(tmp_path / "lake"), num_buckets=4)
    replay_stream(str(binlog), cfg)
    view = repo_view(cfg.lake_root)
    view.advance(cfg.lake_root)
    qdir = str(tmp_path / "dlq")
    quarantine_split(rd.from_arrow(_events(0, 50, 60, "q")),
                     [("deleted", lambda b: pc.equal(b["op"], "D"))], qdir).materialize()
    snap = str(tmp_path / "snap.parquet")
    pq.write_table(_events(0, 80, 60, "snap").drop_columns(["seq", "op"]), snap)

    def reconcile():
        ds = rd.read_parquet(snap).map_batches(make_normalizer(4), batch_format="pyarrow")
        return reconcile_incremental(cfg.lake_root, ds, 4, snapshot_token="s1")

    live = lake_table(cfg.lake_root).num_rows
    per_part_tasks.clear()
    with executions() as n:
        uncompacted = lake_dataset(cfg.lake_root)
        feed = lake_changelog(cfg.lake_root, from_epoch=1)
    assert n == [] and per_part_tasks == []

    compact(cfg)
    counts = reconcile()[2]
    per_part_tasks.clear()
    with executions() as n:
        compacted = lake_dataset(cfg.lake_root)
        detail = reconcile()[0]
        dead = read_quarantine(qdir)
        state = view.state()
    assert n == [] and per_part_tasks == []

    assert uncompacted.count() == compacted.count() == live
    assert feed.count() > 0
    assert detail.count() == counts["n"].sum()
    assert dead.count() == pc.sum(pc.equal(_events(0, 50, 60, "q")["op"], "D")).as_py()
    assert state.count() == len(set(lake_table(cfg.lake_root)["repo"].to_pylist()))


@pytest.mark.parametrize("compacted", [False, True])
def test_a_torn_lake_file_fails_the_read_not_the_call(tmp_path, compacted):
    """The chains are pinned at the call and the parts are read only
    when the Dataset is consumed, so a truncated lake file raises from
    the read, not from ``lake_dataset``/``lake_changelog``."""
    binlog = tmp_path / "binlog"
    binlog.mkdir()
    for e in range(2):
        pq.write_table(_events(e * 200, 200, 60, f"e{e}"), str(binlog / f"epoch={e:05d}.parquet"))
    cfg = ReplayConfig(lake_root=str(tmp_path / "lake"), num_buckets=4)
    replay_stream(str(binlog), cfg)
    if compacted:
        compact(cfg)
    log = CommitLog.open(cfg.lake_root)
    chain = next(iter(_chains_payload(log, log.latest_sealed_epoch()).values()))
    with open(chain[-1]["files"][0], "r+b") as fh:
        fh.truncate(8)

    ds = lake_dataset(cfg.lake_root)
    feed = lake_changelog(cfg.lake_root, from_epoch=None)
    for built in (ds, feed):
        with pytest.raises(Exception, match="(?i)parquet"):
            built.materialize()
