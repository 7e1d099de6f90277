"""The one data-file publish (``stages.writer.publish_parquet``) and the
sites that go through it.

- equal slices publish to one content-addressed file, and a stale tmp
  file beside the target is harmless;
- spooling the same reconcile snapshot twice leaves the same file set;
- each export segment (bootstrap, delta window, window without
  changes) holds exactly ``lake_changelog``'s rows;
- the changelog does not report an unchanged null-content key;
- the segment's ``_SEALED`` and a view's ``_CURRENT`` markers are
  fsynced before they are renamed into place.
"""

from __future__ import annotations

import glob
import os
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from etl_reconciliate_ray.pipelines.replay import (
    ReplayConfig,
    export_changelog,
    lake_changelog,
    replay_stream,
)
from etl_reconciliate_ray.stages.writer import publish_parquet


def _binlog_epoch(binlog, e: int, rows: list[tuple]) -> None:
    pq.write_table(pa.table({
        "seq": pa.array([e * 100 + i for i in range(len(rows))], pa.int64()),
        "op": [r[0] for r in rows],
        "repo": [r[1] for r in rows],
        "path": [r[2] for r in rows],
        "content": pa.array([r[3] for r in rows], pa.string()),
    }), str(binlog / f"epoch={e:05d}.parquet"))


def test_publish_is_content_addressed_and_idempotent(tmp_path):
    t = pa.table({"k": ["a", "b", "c"], "v": [1, None, 3]})
    slices = [t.slice(0, 2), t.slice(2, 0), t.slice(2, 1)]
    out = str(tmp_path / "out")
    first = publish_parquet(out, slices, "piece")
    assert os.path.basename(first).startswith("piece-")
    meta = pq.ParquetFile(first).metadata
    assert [meta.row_group(i).num_rows for i in range(meta.num_row_groups)] == [2, 0, 1]

    # a crashed attempt's stale tmp beside the target is never read
    with open(first + ".tmp999", "wb") as fh:
        fh.write(b"garbage")
    os.remove(first)
    assert publish_parquet(out, slices, "piece") == first
    assert publish_parquet(out, [sl for sl in slices], "piece") == first
    assert sorted(f for f in os.listdir(out) if f.endswith(".parquet")) == [os.path.basename(first)]
    assert pq.read_table(first).equals(t)

    # other content, another name; a caller's name is rewritten in place
    other = publish_parquet(out, [t.slice(0, 1)], "piece")
    assert other != first
    named = publish_parquet(out, [t], name="fixed.parquet")
    assert publish_parquet(out, [t.slice(1, 2)], name="fixed.parquet") == named
    assert pq.read_table(named).num_rows == 2


def test_spooling_a_snapshot_twice_leaves_the_same_files(tmp_path):
    from etl_reconciliate_ray.pipelines.reconcile_run import _spool_bucketed

    n = 60
    snap = pa.table({
        "repo": [f"r{i % 4}" for i in range(n)],
        "path": [f"p{i}" for i in range(n)],
        "content_sha256": [f"s{i}" for i in range(n)],
        "bucket": pa.array([i % 3 for i in range(n)], pa.int64()),
    })
    spool = str(tmp_path / "spool")
    ds = rd.from_arrow([snap.slice(0, 30), snap.slice(30, 30)])
    first = _spool_bucketed(ds, spool, ["repo", "path", "content_sha256"])
    files = sorted(os.listdir(spool))
    again = _spool_bucketed(ds, spool, ["repo", "path", "content_sha256"])
    assert sorted(os.listdir(spool)) == files
    assert {p: sorted(v) for p, v in again.items()} == {p: sorted(v) for p, v in first.items()}
    assert sum(pq.ParquetFile(os.path.join(spool, f)).metadata.num_rows for f in files) == n


def _rows(rows: list[dict]) -> Counter:
    return Counter(tuple(sorted(r.items())) for r in rows)


def test_segments_equal_the_changelog(tmp_path):
    binlog = tmp_path / "binlog"
    binlog.mkdir()
    cfg = ReplayConfig(lake_root=str(tmp_path / "lake"), num_buckets=4)
    _binlog_epoch(binlog, 0, [("I", f"r{i % 3}", f"p{i}", f"v{i}") for i in range(30)])
    replay_stream(str(binlog), cfg)
    feed = str(tmp_path / "feed")
    windows = [export_changelog(cfg.lake_root, feed, image_cols="all")]  # bootstrap
    _binlog_epoch(binlog, 1, [("U", "r0", "p0", "w0"), ("D", "r1", "p1", None),
                              ("I", "r9", "q", "n")])
    replay_stream(str(binlog), cfg)
    windows.append(export_changelog(cfg.lake_root, feed, image_cols="all"))  # delta
    _binlog_epoch(binlog, 2, [("U", "r0", "p0", "w0")])  # re-sends the same content
    replay_stream(str(binlog), cfg)
    windows.append(export_changelog(cfg.lake_root, feed, image_cols="all"))  # no change

    rows = []
    for m in windows:
        files = sorted(glob.glob(os.path.join(m["segment"], "*.parquet")))
        got = pa.concat_tables([pq.read_table(f) for f in files])
        want = lake_changelog(cfg.lake_root, m["from_epoch"], m["to_epoch"], "all")
        assert _rows(got.to_pylist()) == _rows(want.take_all())
        assert got.schema.equals(want.schema().base_schema) and m["rows"] == got.num_rows
        assert m["files"] == len(files)
        rows.append(got.num_rows)
    assert rows == [30, 3, 0]


def test_changelog_keeps_an_unchanged_null_content_key_out(tmp_path):
    binlog = tmp_path / "binlog"
    binlog.mkdir()
    cfg = ReplayConfig(lake_root=str(tmp_path / "lake"), num_buckets=1)
    _binlog_epoch(binlog, 0, [("I", "r", "nullc", None), ("I", "r", "x", "a")])
    before = replay_stream(str(binlog), cfg)[-1]["epoch"]
    _binlog_epoch(binlog, 1, [("U", "r", "x", "b")])
    after = replay_stream(str(binlog), cfg)[-1]["epoch"]
    feed = lake_changelog(cfg.lake_root, before, after).take_all()
    assert [(r["repo"], r["path"], r["change"]) for r in feed] == [("r", "x", "U")]


def test_markers_are_fsynced_before_they_publish(tmp_path, monkeypatch):
    """The segment's ``_SEALED`` and the view's ``_CURRENT``: a marker
    whose bytes are not durable can be behind the fsynced ``_CURSOR``
    after a power loss, and the export would then never rebuild it."""
    from etl_reconciliate_ray.run import repo_view

    binlog = tmp_path / "binlog"
    binlog.mkdir()
    cfg = ReplayConfig(lake_root=str(tmp_path / "lake"), num_buckets=2)
    _binlog_epoch(binlog, 0, [("I", f"r{i % 3}", f"p{i}", f"v{i}") for i in range(9)])
    replay_stream(str(binlog), cfg)

    synced: set[str] = set()
    durable: set[str] = set()
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        synced.add(os.path.realpath(f"/proc/self/fd/{fd}"))
        real_fsync(fd)

    def replace(src, dst):
        real_replace(src, dst)
        if os.path.realpath(src) in synced:
            durable.add(os.path.realpath(dst))

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    seg = export_changelog(cfg.lake_root, str(tmp_path / "feed"))["segment"]
    view = repo_view(cfg.lake_root)
    view.advance(cfg.lake_root)
    assert os.path.realpath(os.path.join(seg, "_SEALED")) in durable
    assert os.path.realpath(os.path.join(view.view_root, "_CURRENT")) in durable
    assert view.current_epoch() == 1  # the first engine epoch without a seed
