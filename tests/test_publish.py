"""The one data-file publish (``stages.writer.publish_parquet``) and the
sites that go through it.

- equal slices publish to one content-addressed file, and a stale tmp
  file beside the target is harmless;
- spooling the same reconcile snapshot twice leaves the same file set;
- each export segment (bootstrap, delta window, window without
  changes) holds exactly ``lake_changelog``'s rows;
- the changelog does not report an unchanged null-content key;
- the segment's ``_SEALED`` and a view's ``_CURRENT`` markers are
  fsynced before they are renamed into place;
- each driver-side rename is followed by an fsync of its directory
  before the next one, and a fresh journal's first append, which
  creates its file, fsyncs the directory before it returns;
- the report's ``_DONE`` markers, ``summary.json`` and csv render are
  fsynced before their rename, and a crash at each of its durable
  steps, then a rerun with other block splits, leaves exact tables;
- the CLI's repo view is counted from its state files' footers;
- the report's tables, an export segment and an envelope segment are
  sealed directories: a crash at the marker, then a rerun, leaves
  exactly an uncrashed run's files, and a second call rewrites nothing;
- no package module but the catalog's sink registry and the bench
  fixture generator calls Ray Data's ``write_parquet``, no package
  function but ``stages.merge.read_slice`` reads parquet row groups or
  makes a filtered ``read_table``, no function but
  ``stages.writer.seal`` publishes a ``_SEALED`` or ``_DONE`` marker,
  and none but ``replay._feed_segments`` lists a spool's segments.
"""

from __future__ import annotations

import glob
import json
import os
from collections import Counter

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from etl_reconciliate_ray.pipelines.replay import (
    ReplayConfig,
    export_changelog,
    lake_changelog,
    replay_stream,
)
from etl_reconciliate_ray.pipelines.report import render_report, write_report
from etl_reconciliate_ray.sources.cdc_envelope import export_feed_envelopes
from etl_reconciliate_ray.stages.writer import publish_parquet
from etl_reconciliate_ray.state.commitlog import Journal


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


def test_renames_are_durable_before_the_next_publish(tmp_path, renames):
    """Each driver-side rename — a commit-log snapshot and its fresh
    tail, ``lineage.json``, an export's ``_SEALED`` and ``_CURSOR``, a
    view's state file (a driver-side ``publish_parquet``) and its
    ``_CURRENT`` — is followed by an fsync of its directory before the
    next rename: a rename is on disk only once its directory is, and a
    later publish may name the file it made."""
    from etl_reconciliate_ray.run import repo_view

    binlog = tmp_path / "binlog"
    binlog.mkdir()
    lake = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_root=lake, num_buckets=2, snapshot_every=1)
    _binlog_epoch(binlog, 0, [("I", f"r{i % 3}", f"p{i}", f"v{i}") for i in range(9)])
    _binlog_epoch(binlog, 1, [("U", "r0", "p0", "w0")])
    replay_stream(str(binlog), cfg)
    seg = export_changelog(lake, str(tmp_path / "feed"))["segment"]
    view = repo_view(lake)
    view.advance(lake)

    names = [path for path, _ in renames]
    for want in (os.path.join(lake, "commitlog.snapshot.jsonl"),
                 os.path.join(lake, "commitlog.jsonl"), os.path.join(lake, "lineage.json"),
                 os.path.join(seg, "_SEALED"), os.path.join(tmp_path, "feed", "_CURSOR"),
                 os.path.join(view.view_root, "_CURRENT")):
        assert want in names, (want, names)
    assert any(n.startswith(view.view_root + os.sep + "epoch=") and n.endswith(".parquet")
               for n in names), names
    for i, path in enumerate(names):
        assert (os.path.realpath(os.path.dirname(path)), i + 1) in renames.dir_fsyncs, (
            path, renames.dir_fsyncs)


def test_a_fresh_journal_append_fsyncs_its_directory(tmp_path, renames):
    """A commit log with no snapshot creates its file on the first
    append, with no rename; the append fsyncs the directory before it
    returns, so the journal's name is on disk with its first record."""
    from etl_reconciliate_ray.state.commitlog import CommitLog

    root = tmp_path / "lake"
    log = CommitLog.open(str(root))
    assert not renames.dir_fsyncs
    log.seal_epoch(0)
    assert os.path.exists(log.path) and not renames
    assert renames.dir_fsyncs == [(os.path.realpath(root), 0)]
    log.seal_epoch(1)  # the file exists now: one fsync, of the file
    assert len(renames.dir_fsyncs) == 1


_STATUSES = ("MATCHED", "MISMATCH", "MISSING_RIGHT")


def _report_inputs(blocks: int):
    """A detail (``status`` column) and a rollup Dataset of ``blocks``
    blocks each, and the exact per-status counts."""
    n = 90
    detail = pa.table({
        "repo": [f"r{i % 5}" for i in range(n)],
        "path": [f"p{i}" for i in range(n)],
        "status": [_STATUSES[min(i % 7, 2)] for i in range(n)],  # uneven counts
    })
    rollup = pa.table({"repo": [f"r{i}" for i in range(5)], "n": list(range(5))})

    def split(t: pa.Table) -> list[pa.Table]:
        step = -(-t.num_rows // blocks)
        return [t.slice(i, step) for i in range(0, t.num_rows, step)]

    return rd.from_arrow(split(detail)), rd.from_arrow(split(rollup)), Counter(detail["status"].to_pylist())


def _counts_df(counts: Counter) -> pd.DataFrame:
    return pd.DataFrame({"status": list(counts), "n": list(counts.values())})


def _assert_report(out: str, counts: Counter) -> None:
    for s, n in counts.items():
        t = pq.read_table(os.path.join(out, "detail", f"status={s}"))
        assert t.num_rows == n and "status" not in t.column_names, s
    assert pq.read_table(os.path.join(out, "rollup")).num_rows == 5
    with open(os.path.join(out, "detail", "_DONE")) as fh:
        assert json.load(fh)["rows"] == sum(counts.values())
    with open(os.path.join(out, "summary.json")) as fh:
        assert json.load(fh)["status_counts"] == dict(counts)


def test_report_markers_are_fsynced_before_they_publish(tmp_path, renames):
    """A ``_DONE`` or ``summary.json`` whose bytes are not durable can
    name a table that a host crash lost."""
    detail, rollup, counts = _report_inputs(3)
    out = str(tmp_path / "report")
    write_report(detail, rollup, _counts_df(counts), out)
    render_report(out, fmt="csv")
    published = dict(renames)
    for name in ("detail/_DONE", "rollup/_DONE", "summary.json",
                 "report_lotes.csv", "report_detalle.csv"):
        assert published.get(os.path.join(out, name)) is True, (name, published)
    _assert_report(out, counts)


class _Crash(Exception):
    pass


def _sealed_surface(tmp_path, surface: str):
    """``(run(out, blocks), steps)`` of one sealed-directory surface:
    ``run`` writes it into ``out`` (the report from inputs of ``blocks``
    blocks), and ``steps`` are its ``Journal._write_atomic`` targets
    relative to ``out``, in order. ``segment`` is an ``export_changelog``
    bootstrap of a one-epoch lake and ``envelopes`` the
    ``export_feed_envelopes`` render of that segment."""
    if surface == "report":
        def run(out: str, blocks: int) -> None:
            detail, rollup, counts = _report_inputs(blocks)
            write_report(detail, rollup, _counts_df(counts), out)

        return run, ["detail/_DONE", "rollup/_DONE", "summary.json"]
    binlog = tmp_path / "binlog"
    binlog.mkdir()
    lake = str(tmp_path / "lake")
    _binlog_epoch(binlog, 0, [("I", f"r{i % 3}", f"p{i}", f"v{i}") for i in range(30)])
    replay_stream(str(binlog), ReplayConfig(lake_root=lake, num_buckets=4))
    seg = "epochs=0-snapshot-00001"
    if surface == "segment":
        return (lambda out, blocks: export_changelog(lake, out, image_cols="all"),
                [f"feed/{seg}/_SEALED", "_CURSOR"])
    feed = str(tmp_path / "feed")
    export_changelog(lake, feed, image_cols="all")
    return lambda out, blocks: export_feed_envelopes(feed, out), [f"{seg}/_SEALED"]


def _tree(out: str) -> dict[str, bytes]:
    """Every file under ``out`` by relative path, with its bytes;
    ``summary.json`` is left out (it records a wall time)."""
    got = {}
    for d, _, files in os.walk(out):
        for f in files:
            if f != "summary.json":
                with open(os.path.join(d, f), "rb") as fh:
                    got[os.path.relpath(os.path.join(d, f), out)] = fh.read()
    return got


@pytest.mark.parametrize(
    "surface,crash_at",
    [("report", 1), ("report", 2), ("report", 3), ("segment", 1), ("envelopes", 1)],
    ids=["1", "2", "3", "segment", "envelopes"],
)
def test_report_crash_then_rerun_is_exact(tmp_path, monkeypatch, surface, crash_at):
    """Crash at a durable step of a sealed-directory surface (the
    report's detail and rollup ``_DONE`` and its ``summary.json``; an
    export segment's and an envelope segment's ``_SEALED``), hooked on
    ``Journal._write_atomic``. The crashed directory keeps its files
    and one more, as if the crashed attempt had split its rows
    otherwise. A rerun must leave it with exactly the files of an
    uncrashed run, and the report's ``detail/status=S`` with exactly
    ``counts[S]`` rows. A second call on the sealed directories
    rewrites nothing."""
    run, steps = _sealed_surface(tmp_path, surface)
    out = str(tmp_path / "out")
    seen: list[str] = []
    write_atomic = Journal._write_atomic

    def hooked(path, recs):
        seen.append(os.path.relpath(path, out))
        if len(seen) == crash_at:
            raise _Crash(path)
        write_atomic(path, recs)

    monkeypatch.setattr(Journal, "_write_atomic", staticmethod(hooked))
    with pytest.raises(_Crash):
        run(out, 3)
    assert seen == steps[:crash_at]
    monkeypatch.undo()
    step = steps[crash_at - 1]
    sealed = os.path.dirname(step) if os.path.basename(step) in ("_SEALED", "_DONE") else None
    if sealed is not None:
        crashed = glob.glob(os.path.join(out, sealed, "**", "*.*"), recursive=True)
        leftover = sorted(crashed)[0]
        with open(leftover, "rb") as src, open(os.path.join(
                os.path.dirname(leftover), "stray-" + os.path.basename(leftover)), "wb") as dst:
            dst.write(src.read())
    run(out, 2)
    if sealed is not None:
        ref = str(tmp_path / "ref")
        run(ref, 2)
        assert _tree(os.path.join(out, sealed)) == _tree(os.path.join(ref, sealed))
    if surface == "report":
        _assert_report(out, _report_inputs(2)[2])

    def stamps() -> dict:
        return {p: (os.stat(os.path.join(out, p)).st_ino, os.stat(os.path.join(out, p)).st_mtime_ns)
                for p in _tree(out)}

    before = stamps()
    run(out, 3)  # a rewrite would split the report's rows otherwise
    assert stamps() == before


def test_repo_view_count_reads_no_state(tmp_path, monkeypatch):
    """``run._advance_repo_view`` counts the view's groups from its
    state files' footers: at the head, with the read surface's Dataset
    unavailable, it still answers."""
    from etl_reconciliate_ray.pipelines import replay as replay_mod
    from etl_reconciliate_ray.run import _advance_repo_view

    binlog = tmp_path / "binlog"
    binlog.mkdir()
    cfg = ReplayConfig(lake_root=str(tmp_path / "lake"), num_buckets=2)
    _binlog_epoch(binlog, 0, [("I", f"r{i % 3}", f"p{i}", f"v{i}") for i in range(9)])
    replay_stream(str(binlog), cfg)
    assert _advance_repo_view(cfg.lake_root) == 3

    def no_read(*a, **kw):
        raise AssertionError("the view count read the state")

    monkeypatch.setattr(replay_mod, "_read_dataset", no_read)
    assert _advance_repo_view(cfg.lake_root) == 3


def test_no_second_parquet_publish_path():
    """Every data file the package writes goes through
    ``publish_parquet``; Ray Data's ``write_parquet`` is left to the
    catalog's sink registry and the bench fixture generator."""
    import etl_reconciliate_ray

    pkg = os.path.dirname(etl_reconciliate_ray.__file__)
    allowed = {os.path.join("sources", "catalog.py"), "bench_fixture.py"}
    found = []
    for f in glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True):
        rel = os.path.relpath(f, pkg)
        with open(f) as fh:
            if ".write_parquet(" in fh.read() and rel not in allowed:
                found.append(rel)
    assert not found, found


def test_one_sealed_directory_publish():
    """One sealed-directory protocol for the spools outside the lake:
    no package function but ``stages.writer.seal`` hands
    ``_write_atomic`` a path built from a ``_SEALED`` or ``_DONE``
    name, and no function but ``replay._feed_segments`` lists a
    spool's ``epochs=`` segment directories (a directory listing in a
    function that names ``epochs=``)."""
    import ast

    import etl_reconciliate_ray

    markers = {"_SEALED", "_DONE"}
    listings = {"glob", "iglob", "listdir", "scandir", "walk", "iterdir"}
    allowed = {("writer", "seal", "marker"), ("replay", "_feed_segments", "listing")}

    def name_of(call: ast.Call) -> str | None:
        return getattr(call.func, "attr", getattr(call.func, "id", None))

    def check(mod: str, fn: ast.FunctionDef) -> list[tuple[str, str, str]]:
        docs = {
            id(node.body[0].value) for node in ast.walk(fn)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
        }
        strings = [n.value for n in ast.walk(fn) if isinstance(n, ast.Constant)
                   and isinstance(n.value, str) and id(n) not in docs]

        def names_marker(node: ast.AST) -> bool:
            return any(isinstance(n, ast.Constant) and n.value in markers
                       or isinstance(n, ast.Name) and n.id in tainted for n in ast.walk(node))

        tainted: set[str] = set()
        for node in ast.walk(fn):  # a name bound to a path built from a marker name
            if isinstance(node, ast.Assign) and names_marker(node.value):
                tainted |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call)]
        kinds = set()
        if any(name_of(c) == "_write_atomic" and c.args and names_marker(c.args[0])
               for c in calls):
            kinds.add("marker")
        if any(name_of(c) in listings for c in calls) and any("epochs=" in v for v in strings):
            kinds.add("listing")
        return [(mod, fn.name, k) for k in sorted(kinds)]

    pkg = os.path.dirname(etl_reconciliate_ray.__file__)
    found = []
    for f in sorted(glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True)):
        mod = os.path.basename(f)[:-3]
        with open(f) as fh:
            tree = ast.parse(fh.read())
        tops = [n for n in tree.body if isinstance(n, ast.ClassDef)]
        for node in tree.body + [m for c in tops for m in c.body]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{m}.{fn}: {k}" for m, fn, k in check(mod, node)
                          if (m, fn, k) not in allowed]
    assert not found, found


def test_one_slice_reader():
    """Every row-group read and every filtered parquet read in the
    package is ``stages.merge.read_slice``: no other function calls
    ``read_row_group``/``read_row_groups`` or ``read_table`` with
    ``filters``."""
    import ast

    import etl_reconciliate_ray

    pkg = os.path.dirname(etl_reconciliate_ray.__file__)
    found = []
    for f in glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True):
        rel = os.path.relpath(f, pkg)
        with open(f) as fh:
            tree = ast.parse(fh.read())
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(node, fn.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            grouped = name in ("read_row_group", "read_row_groups")
            filtered = name == "read_table" and any(k.arg == "filters" for k in node.keywords)
            if (grouped or filtered) and (rel, owner.get(node)) != (
                os.path.join("stages", "merge.py"), "read_slice"
            ):
                found.append((rel, node.lineno, name))
    assert not found, found
