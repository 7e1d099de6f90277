"""Differential test of the export spool's snapshot segment.

A snapshot segment (the ``export_changelog`` bootstrap and the
``compact_feed`` rewrite) must hold every live key of the lake at its
sealed head exactly once, as an ``'I'`` change: ``content_sha256``, and
per requested image column ``c`` a null ``c_old`` and the live value as
``c_new``, typed by the lake's unified payload schema. The oracle is
``lake_table`` (driver-side chain resolution); segment and oracle must
hold the same multiset of rows and the same schema, on an uncompacted
and a compacted lake, for ``image_cols`` ``"all"``, ``None`` and a list,
across a column added mid-stream and a NaN image.

A part diff with one side empty (every part of the bootstrap, a part
whose keys were all deleted) skips the keyed diff kernel; its rows must
equal the kernel's on the same states.
"""

from __future__ import annotations

import glob
import math
import os
import shutil
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from etl_reconciliate_ray.functions.hashing import bucket_of
from etl_reconciliate_ray.pipelines import replay as rp
from etl_reconciliate_ray.pipelines.replay import (
    ReplayConfig,
    compact,
    compact_feed,
    export_changelog,
    lake_table,
    replay_stream,
)
from etl_reconciliate_ray.state.commitlog import CommitLog

INTERNAL = ("repo", "path", "bucket", "op", "seq", "ts", "epoch")


def _write_binlog(binlog) -> None:
    n = 40
    keys = [(f"r{i % 5}", f"p{i}") for i in range(n)]
    pq.write_table(pa.table({
        "seq": pa.array(range(n), pa.int64()),
        "op": ["I"] * n,
        "repo": [r for r, _ in keys],
        "path": [p for _, p in keys],
        "content": [f"c{i}" for i in range(n)],
        "commit": ["k0"] * n,
    }), str(binlog / "epoch=00000.parquet"))
    # `score` appears mid-stream: only the buckets this epoch touches
    # carry it, one image is NaN, some keys are deleted, two are new
    upd = list(range(0, 10))
    pq.write_table(pa.table({
        "seq": pa.array(range(n, n + 15), pa.int64()),
        "op": ["U"] * 10 + ["D"] * 3 + ["I"] * 2,
        "repo": [keys[i][0] for i in upd] + [keys[i][0] for i in (20, 21, 22)] + ["r9", "r9"],
        "path": [keys[i][1] for i in upd] + [keys[i][1] for i in (20, 21, 22)] + ["q0", "q1"],
        "content": [f"u{i}" for i in upd] + [None] * 3 + ["n0", "n1"],
        "commit": ["k1"] * 10 + [None] * 3 + ["k1", "k1"],
        "score": pa.array([float(i) for i in range(9)] + [math.nan] + [None] * 3 + [0.5, 1.5],
                          pa.float64()),
    }), str(binlog / "epoch=00001.parquet"))
    pq.write_table(pa.table({
        "seq": pa.array([n + 15, n + 16], pa.int64()),
        "op": ["U", "U"],
        "repo": [keys[1][0], keys[30][0]],
        "path": [keys[1][1], keys[30][1]],
        "content": ["v1", "v30"],
        "commit": ["k2", "k2"],
        "score": pa.array([None, 3.25], pa.float64()),
    }), str(binlog / "epoch=00002.parquet"))


@pytest.fixture(scope="module")
def lakes(tmp_path_factory, ray_session):
    """The same three-epoch stream replayed into two lakes; the second
    is compacted afterwards (every chain one full base)."""
    base = tmp_path_factory.mktemp("snapshot_feed")
    binlog = base / "binlog"
    binlog.mkdir()
    _write_binlog(binlog)
    roots = {}
    for name in ("uncompacted", "compacted"):
        cfg = ReplayConfig(lake_root=str(base / name), num_buckets=8)
        replay_stream(str(binlog), cfg)
        if name == "compacted":
            compact(cfg)
        roots[name] = cfg.lake_root
    return base, roots


def _cell(v):
    return "NaN" if isinstance(v, float) and math.isnan(v) else v


def _expected(root: str, image_cols) -> tuple[pa.Schema, Counter]:
    state = lake_table(root)
    state = state.filter(pa.compute.is_valid(state["repo"]))
    if image_cols == "all":
        image_cols = sorted(c for c in state.column_names if c not in INTERNAL)
    images = [c for c in (image_cols or []) if c not in ("repo", "path")]
    fields = [pa.field(c, pa.string()) for c in ("repo", "path", "change", "content_sha256")]
    for c in images:
        typ = state.schema.field(c).type if c in state.column_names else pa.string()
        fields += [pa.field(f"{c}_old", typ), pa.field(f"{c}_new", typ)]
    rows = Counter()
    for r in state.to_pylist():
        row = [r["repo"], r["path"], "I", r["content_sha256"]]
        for c in images:
            row += [None, _cell(r.get(c))]
        rows[tuple(row)] += 1
    return pa.schema(fields), rows


def _segment(seg: str) -> tuple[list[pa.Schema], Counter]:
    files = sorted(glob.glob(os.path.join(seg, "*.parquet")))
    assert files and os.path.exists(os.path.join(seg, "_SEALED"))
    tables = [pq.read_table(f) for f in files]
    rows = Counter(
        tuple(_cell(v) for v in r.values())
        for t in tables for r in t.to_pylist()
    )
    return [t.schema for t in tables], rows


@pytest.mark.parametrize("how", ["export", "compact_feed"])
@pytest.mark.parametrize("image_cols", ["all", None, ["commit"]], ids=["all", "none", "list"])
@pytest.mark.parametrize("lake", ["uncompacted", "compacted"])
def test_snapshot_segment_equals_lake_state(lakes, lake, image_cols, how):
    base, roots = lakes
    root = roots[lake]
    out = str(base / f"out-{lake}-{how}-{image_cols if isinstance(image_cols, str) else len(image_cols or [])}")
    if how == "export":
        m = export_changelog(root, out, image_cols=image_cols)
        assert m["snapshot"]
    else:
        m = compact_feed(root, out, image_cols=image_cols)
    want_schema, want_rows = _expected(root, image_cols)
    schemas, rows = _segment(m["segment"])
    for s in schemas:
        assert s.remove_metadata().equals(want_schema), (s, want_schema)
    assert rows == want_rows, (rows - want_rows, want_rows - rows)
    if image_cols == "all":
        # the stream's evolved column and its NaN image are covered
        assert "score_new" in want_schema.names
        assert any(r[want_schema.names.index("score_new")] == "NaN" for r in rows)


def _part_diffs(root: str, from_epoch) -> list[Counter]:
    """Each changed part's feed rows, diffed on the driver."""
    items, diff_part, _ = rp._changelog_diff(root, from_epoch, None, "all")
    return [Counter(tuple(_cell(v) for v in r.values()) for r in diff_part(it).to_pylist())
            for it in items]


@pytest.mark.parametrize("case", ["bootstrap", "vanished_part"])
def test_one_sided_part_diff_equals_the_kernel(lakes, tmp_path, monkeypatch, case):
    base, roots = lakes
    root, from_epoch = roots["uncompacted"], None
    if case == "vanished_part":
        # the same stream, then an epoch deleting every live key of one
        # part and updating one key of another
        shutil.copytree(base / "binlog", tmp_path / "binlog")
        cfg = ReplayConfig(lake_root=str(tmp_path / "lake"), num_buckets=8)
        replay_stream(str(tmp_path / "binlog"), cfg)
        state = lake_table(cfg.lake_root)
        parts = bucket_of(state["repo"], state["path"], 8).to_pylist()
        gone = [i for i, p in enumerate(parts) if p == parts[0]]
        kept = next(i for i, p in enumerate(parts) if p != parts[0])
        rows = state.take(gone + [kept])
        n = rows.num_rows
        pq.write_table(pa.table({
            "seq": pa.array(range(100, 100 + n), pa.int64()),
            "op": ["D"] * (n - 1) + ["U"],
            "repo": rows["repo"], "path": rows["path"],
            "content": [None] * (n - 1) + ["w"],
            "commit": [None] * (n - 1) + ["k3"],
        }), str(tmp_path / "binlog" / "epoch=00003.parquet"))
        from_epoch = CommitLog.open(cfg.lake_root).latest_sealed_epoch()
        replay_stream(str(tmp_path / "binlog"), cfg)
        root = cfg.lake_root

    kernel = rp.reconcile_pair_pdf
    calls = []
    monkeypatch.setattr(rp, "reconcile_pair_pdf", lambda *a: calls.append(1) or kernel(*a))
    got = _part_diffs(root, from_epoch)
    monkeypatch.setattr(rp, "_diff_states", lambda old, new, attrs: kernel(
        old, new, ["repo", "path"], "content_sha256", attrs))
    want = _part_diffs(root, from_epoch)
    assert got == want
    changes = [{r[2] for r in rows} for rows in got]
    if case == "bootstrap":
        assert calls == [] and changes and all(c == {"I"} for c in changes)
    else:
        # the vanished part skipped the kernel, the updated one did not
        assert sorted(map(sorted, changes)) == [["D"], ["U"]] and len(calls) == 1
