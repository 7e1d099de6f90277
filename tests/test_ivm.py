"""Incremental view maintenance (stages/ivm.py + lake_changelog
image columns): signed delta algebra, zero-count group retirement,
before/after image plumbing (string and numeric), and maintained-view
== direct-recompute on a replayed I/U/D lake.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from etl_reconciliate_ray.pipelines.replay import (
    ReplayConfig,
    lake_changelog,
    lake_dataset,
    replay_stream,
)
from etl_reconciliate_ray.stages.ivm import changelog_delta_rows, maintain_aggregate


def _feed(rows):
    import ray.data as rd

    return rd.from_arrow(pa.Table.from_pylist(rows))


def test_delta_rows_signed_contributions():
    rows = [
        {"repo": "a", "path": "1", "change": "I", "content_sha256": "x",
         "content_old": None, "content_new": "abc"},
        {"repo": "a", "path": "2", "change": "U", "content_sha256": "y",
         "content_old": "ab", "content_new": "abcd"},
        {"repo": "b", "path": "3", "change": "D", "content_sha256": "z",
         "content_old": "abcde", "content_new": None},
    ]
    out = (
        changelog_delta_rows(
            _feed(rows), ["repo"], "n", {"len": ("content", "utf8_length")}
        )
        .to_pandas()
        .sort_values(["repo", "n", "len"])
        .reset_index(drop=True)
    )
    # two-row signed form: I -> (+1, +len(new)); D -> (-1, -len(old));
    # U -> (-1, -len(old)) AND (+1, +len(new)) (nets to (0, +2) in the
    # aggregate; split so key-group moves debit/credit the right group)
    assert out.to_dict("records") == [
        {"repo": "a", "n": -1, "len": -2},
        {"repo": "a", "n": 1, "len": 3},
        {"repo": "a", "n": 1, "len": 4},
        {"repo": "b", "n": -1, "len": -5},
    ]


def test_update_moves_row_between_key_groups():
    """A view keyed on a MUTABLE column: a U whose key column changes
    must debit the old group and credit the new one (regression: the
    one-row delta form keyed everything by the post-image and could
    not express the move; non-primary keys also crashed with KeyError
    because advance() never requested their images)."""
    base = _feed([
        {"lang": "py", "n": 2, "len": 10},
        {"lang": "go", "n": 1, "len": 4},
    ])
    feed = _feed([
        # one py file is rewritten as go: py loses (1, 6), go gains (1, 8)
        {"repo": "r", "path": "a", "change": "U", "content_sha256": "s",
         "lang_old": "py", "lang_new": "go",
         "content_old": "sixsix", "content_new": "eighteig"},
    ])
    out = (
        maintain_aggregate(
            base, feed, keys=["lang"], count_name="n",
            sums={"len": ("content", "utf8_length")},
        )
        .to_pandas().sort_values("lang").reset_index(drop=True)
    )
    assert out.to_dict("records") == [
        {"lang": "go", "n": 2, "len": 12},
        {"lang": "py", "n": 1, "len": 4},
    ]


def test_maintained_view_keyed_on_mutable_payload_column(tmp_path):
    """End-to-end MaintainedView keyed on a payload column (content):
    bootstrap at epoch 1, then advance() across the I/U/D epoch whose U
    rewrites path a's content 'x' -> 'xx' — a key-group move the feed
    must express. Previously raised KeyError('content') because
    advance() never requested the key column's images."""
    import pandas as pd

    from etl_reconciliate_ray.stages.ivm import MaintainedView

    # same binlog as _build_iud_lake, sealed one epoch at a time
    binlog = tmp_path / "binlog"
    binlog.mkdir()
    e0 = pa.table({
        "seq": pa.array([1, 2, 3], pa.int64()),
        "op": pa.array(["I"] * 3),
        "repo": pa.array(["r"] * 3),
        "path": pa.array(["a", "b", "c"]),
        "content": pa.array(["x", "y", "z"]),
        "nbytes": pa.array([10, 20, 30], pa.int64()),
    })
    e1 = pa.table({
        "seq": pa.array([4, 5, 6], pa.int64()),
        "op": pa.array(["I", "D", "I"]),
        "repo": pa.array(["r"] * 3),
        "path": pa.array(["d", "b", "a"]),
        "content": pa.array(["w", "y", "xx"]),
        "nbytes": pa.array([40, 20, 11], pa.int64()),
    })
    pq.write_table(e0, str(binlog / "epoch=00000.parquet"))
    pq.write_table(e1, str(binlog / "epoch=00001.parquet"))
    root = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_root=root, num_buckets=2)
    view = MaintainedView(
        str(tmp_path / "cview"), keys=["content"], count_name="n",
        sums={"bytes": ("nbytes", "identity")},
    )
    replay_stream(str(binlog), cfg, stop_after_epoch=1)
    assert view.advance(root) == 1  # bootstrap at epoch 1
    replay_stream(str(binlog), cfg, stop_after_epoch=2)
    assert view.advance(root) == 2  # the incremental group-move hop

    got = (
        view.state().to_pandas()[["content", "n", "bytes"]]
        .sort_values("content").reset_index(drop=True)
    )
    want = (
        lake_dataset(root, columns=["content", "nbytes"]).to_pandas()
        .groupby("content").agg(n=("nbytes", "size"), bytes=("nbytes", "sum"))
        .reset_index().astype({"n": "int64", "bytes": "int64"})
        .sort_values("content").reset_index(drop=True)
    )
    # the moved key: 'x' gone from the view, 'xx' present
    assert "x" not in set(got["content"]) and "xx" in set(got["content"])
    pd.testing.assert_frame_equal(got, want)


def test_maintain_drops_groups_deleted_to_zero():
    base = _feed([
        {"repo": "a", "n": 1, "len": 3},
        {"repo": "b", "n": 1, "len": 5},
    ])
    feed = _feed([
        # b's only key tombstoned -> group must leave the view
        {"repo": "b", "path": "3", "change": "D", "content_sha256": "z",
         "content_old": "abcde", "content_new": None},
        # a gains a key
        {"repo": "a", "path": "9", "change": "I", "content_sha256": "w",
         "content_old": None, "content_new": "zz"},
    ])
    out = (
        maintain_aggregate(
            base, feed, keys=["repo"], count_name="n",
            sums={"len": ("content", "utf8_length")},
        )
        .to_pandas()
        .sort_values("repo")
        .reset_index(drop=True)
    )
    assert out.to_dict("records") == [{"repo": "a", "n": 2, "len": 5}]


def _build_iud_lake(tmp_path):
    """Two-epoch lake with an extra int64 payload column and one of
    each change type between the sealed states: I (path d), U (path a,
    content and nbytes move), D (path b)."""
    binlog = tmp_path / "binlog"
    binlog.mkdir()
    e0 = pa.table({
        "seq": pa.array([1, 2, 3], pa.int64()),
        "op": pa.array(["I"] * 3),
        "repo": pa.array(["r"] * 3),
        "path": pa.array(["a", "b", "c"]),
        "content": pa.array(["x", "y", "z"]),
        "nbytes": pa.array([10, 20, 30], pa.int64()),
    })
    e1 = pa.table({
        "seq": pa.array([4, 5, 6], pa.int64()),
        "op": pa.array(["I", "D", "I"]),
        "repo": pa.array(["r"] * 3),
        "path": pa.array(["d", "b", "a"]),
        "content": pa.array(["w", "y", "xx"]),
        "nbytes": pa.array([40, 20, 11], pa.int64()),
    })
    pq.write_table(e0, str(binlog / "epoch=00000.parquet"))
    pq.write_table(e1, str(binlog / "epoch=00001.parquet"))
    root = str(tmp_path / "lake")
    replay_stream(str(binlog), ReplayConfig(lake_root=root, num_buckets=2))
    return root


def test_numeric_image_columns_typed_and_nulled(tmp_path):
    root = _build_iud_lake(tmp_path)
    ds = lake_changelog(root, from_epoch=1, to_epoch=2, image_cols=["nbytes"])
    sch = ds.schema()
    assert dict(zip(sch.names, [str(t) for t in sch.types]))[
        "nbytes_old"
    ] == "int64", "pandas outer-merge must not float the numeric image"
    import pandas as pd

    feed = ds.to_pandas().set_index("path")
    assert feed.loc["d", "change"] == "I" and pd.isna(feed.loc["d", "nbytes_old"])
    assert feed.loc["b", "change"] == "D" and feed.loc["b", "nbytes_old"] == 20
    assert pd.isna(feed.loc["b", "nbytes_new"])
    assert feed.loc["a", "change"] == "U"
    assert (feed.loc["a", "nbytes_old"], feed.loc["a", "nbytes_new"]) == (10, 11)


def test_nan_image_stays_nan_in_changelog(tmp_path):
    """A NaN float image is a value, not a null: an inserted key whose
    image is NaN shows NaN in ``{c}_new``, and a key re-written with
    unchanged content and an unchanged NaN image emits no row."""
    import math

    binlog = tmp_path / "binlog"
    binlog.mkdir()
    nan = float("nan")
    e0 = pa.table({
        "seq": pa.array([1, 2, 3], pa.int64()),
        "op": pa.array(["I"] * 3),
        "repo": pa.array(["r"] * 3),
        "path": pa.array(["a", "b", "c"]),
        "content": pa.array(["x", "y", "z"]),
        "score": pa.array([1.0, 2.0, nan], pa.float64()),
    })
    e1 = pa.table({
        "seq": pa.array([4, 5, 6], pa.int64()),
        "op": pa.array(["I", "U", "U"]),
        "repo": pa.array(["r"] * 3),
        "path": pa.array(["d", "c", "b"]),
        "content": pa.array(["w", "z", "yy"]),
        "score": pa.array([nan, nan, 3.0], pa.float64()),
    })
    pq.write_table(e0, str(binlog / "epoch=00000.parquet"))
    pq.write_table(e1, str(binlog / "epoch=00001.parquet"))
    root = str(tmp_path / "lake")
    replay_stream(str(binlog), ReplayConfig(lake_root=root, num_buckets=1))

    ds = lake_changelog(root, from_epoch=1, to_epoch=2, image_cols=["score"])
    sch = ds.schema()
    assert dict(zip(sch.names, sch.types))["score_new"] == pa.float64()
    feed = {r["path"]: r for r in ds.take_all()}
    assert sorted(feed) == ["b", "d"]  # c: same content, NaN -> NaN
    assert feed["d"]["change"] == "I" and feed["d"]["score_old"] is None
    assert feed["d"]["score_new"] is not None and math.isnan(feed["d"]["score_new"])
    assert feed["b"]["change"] == "U"
    assert (feed["b"]["score_old"], feed["b"]["score_new"]) == (2.0, 3.0)


def test_mismatched_feed_refused_not_absorbed():
    """A feed that doesn't correspond to the base (here: the same
    delete applied twice, as a duplicated/replayed feed would) must
    raise, not silently leave a wrong view."""
    import pytest

    base = _feed([{"repo": "b", "n": 1, "len": 5}])
    dup = _feed([
        {"repo": "b", "path": "3", "change": "D", "content_sha256": "z",
         "content_old": "abcde", "content_new": None},
        {"repo": "b", "path": "3", "change": "D", "content_sha256": "z",
         "content_old": "abcde", "content_new": None},
    ])
    out = maintain_aggregate(
        base, dup, keys=["repo"], count_name="n",
        sums={"len": ("content", "utf8_length")},
    )
    with pytest.raises(Exception, match="negative"):
        out.to_pandas()


def _write_four_epoch_binlog(tmp_path):
    """Deterministic 4-epoch binlog: overlapping key touches, D
    tombstones from epoch 1 on, contiguous seq ranges per epoch."""
    binlog = tmp_path / "binlog"
    binlog.mkdir()
    for e in range(4):
        paths = [p for p in range(12) if (p + e) % 3 == 0]
        t = pa.table({
            "seq": pa.array([e * 100 + p for p in paths], pa.int64()),
            "op": pa.array(
                ["D" if (e >= 1 and p % 4 == 0) else "I" for p in paths]
            ),
            "repo": pa.array(["r0" if p < 6 else "r1" for p in paths]),
            "path": pa.array([str(p) for p in paths]),
            "content": pa.array([f"c{e}p{p}" for p in paths]),
            "nbytes": pa.array([10 * e + p for p in paths], pa.int64()),
        })
        pq.write_table(t, str(binlog / f"epoch={e:05d}.parquet"))
    return str(binlog)


def _recompute(root):
    import pandas as pd

    t = lake_dataset(root, columns=["repo", "nbytes"]).to_pandas()
    if t.empty:
        return pd.DataFrame(columns=["repo", "n", "bytes"])
    return (
        t.groupby("repo")
        .agg(n=("nbytes", "size"), bytes=("nbytes", "sum"))
        .reset_index()
        .astype({"n": "int64", "bytes": "int64"})
        .sort_values("repo")
        .reset_index(drop=True)
    )


def _view_df(view):
    return (
        view.state()
        .to_pandas()[["repo", "n", "bytes"]]
        .sort_values("repo")
        .reset_index(drop=True)
    )


def test_view_state_is_fsynced_before_its_pointer(tmp_path, renames):
    """Each state file a bootstrap and an advance publish was fsynced
    and renamed into place before ``_CURRENT`` names its state: a host
    crash cannot leave the pointer at a torn state."""
    import glob
    import os

    from etl_reconciliate_ray.stages.ivm import MaintainedView

    binlog = _write_four_epoch_binlog(tmp_path)
    root = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_root=root, num_buckets=2)
    view = MaintainedView(
        str(tmp_path / "view"), keys=["repo"], count_name="n",
        sums={"bytes": ("nbytes", "identity")},
    )
    pointer = os.path.abspath(view._pointer())
    for stop in (2, 4):
        replay_stream(binlog, cfg, stop_after_epoch=stop)
        assert view.advance(root) == stop
        at = max(i for i, (path, _) in enumerate(renames) if path == pointer)
        assert renames[at][1]
        before = dict(renames[:at])
        state = glob.glob(os.path.join(view.view_root, f"epoch={stop:05d}", "*.parquet"))
        assert state and all(before.get(os.path.abspath(f)) for f in state), renames


def test_maintained_view_follows_sealing_epochs(tmp_path):
    """The continuous-IVM loop: seal one epoch at a time, advance the
    persisted view after each seal, and at EVERY step the maintained
    state must equal a direct recompute of the lake head."""
    binlog = _write_four_epoch_binlog(tmp_path)
    root = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_root=root, num_buckets=2)
    from etl_reconciliate_ray.stages.ivm import MaintainedView

    view = MaintainedView(
        str(tmp_path / "view"), keys=["repo"], count_name="n",
        sums={"bytes": ("nbytes", "identity")},
    )
    for engine_epoch in range(1, 5):
        replay_stream(binlog, cfg, stop_after_epoch=engine_epoch)
        got = view.advance(root)
        assert got == engine_epoch
        assert _view_df(view).equals(_recompute(root)), f"epoch {engine_epoch}"
    # head unchanged -> advance is a no-op at the same epoch
    assert view.advance(root) == 4


def test_maintained_view_recovers_from_unpublished_state_dir(tmp_path):
    """Crash between state write and pointer publish: the leftover
    directory must be overwritten, not trusted."""
    binlog = _write_four_epoch_binlog(tmp_path)
    root = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_root=root, num_buckets=2)
    from etl_reconciliate_ray.stages.ivm import MaintainedView

    view = MaintainedView(
        str(tmp_path / "view"), keys=["repo"], count_name="n",
        sums={"bytes": ("nbytes", "identity")},
    )
    replay_stream(binlog, cfg, stop_after_epoch=2)
    view.advance(root)
    replay_stream(binlog, cfg, stop_after_epoch=4)
    # simulate a crashed advance: garbage state written, pointer not moved
    crashed = tmp_path / "view" / "epoch=00004"
    crashed.mkdir()
    pq.write_table(
        pa.table({"repo": ["junk"], "n": pa.array([99], pa.int64()),
                  "bytes": pa.array([99], pa.int64())}),
        str(crashed / "part-0.parquet"),
    )
    assert view.current_epoch() == 2
    assert view.advance(root) == 4
    assert _view_df(view).equals(_recompute(root))


def test_maintained_view_rebootstraps_past_retention_floor(tmp_path):
    """History truncated past the view's epoch (compact + snapshot):
    advance must fall back to a fresh bootstrap, not answer wrong."""
    import pytest

    from etl_reconciliate_ray.pipelines.replay import CommitLog, compact
    from etl_reconciliate_ray.stages.ivm import MaintainedView

    binlog = _write_four_epoch_binlog(tmp_path)
    root = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_root=root, num_buckets=2)
    view = MaintainedView(
        str(tmp_path / "view"), keys=["repo"], count_name="n",
        sums={"bytes": ("nbytes", "identity")},
    )
    replay_stream(binlog, cfg, stop_after_epoch=1)
    view.advance(root)
    replay_stream(binlog, cfg, stop_after_epoch=4)
    compact(cfg)
    log = CommitLog.open(root)
    log.write_snapshot()
    assert log.time_travel_floor() > 1, "floor must have risen past the view"
    with pytest.raises(ValueError):
        view.advance(root, on_truncated="raise")
    # bootstrap fallback lands on the sealed head (compaction sealed
    # its own epoch for the rewritten bases)
    assert view.advance(root) == log.latest_sealed_epoch()
    assert _view_df(view).equals(_recompute(root))


def test_maintained_view_equals_direct_recompute(tmp_path):
    root = _build_iud_lake(tmp_path)

    def rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "repo": t["repo"],
            "n": pa.array([1] * t.num_rows, pa.int64()),
            "bytes": pc.cast(t["nbytes"], pa.int64()),
        })

    base = lake_dataset(root, columns=["repo", "nbytes"], as_of_epoch=1).map_batches(
        rows, batch_format="pyarrow"
    )
    feed = lake_changelog(root, from_epoch=1, to_epoch=2, image_cols=["nbytes"])
    maintained = maintain_aggregate(
        base, feed, keys=["repo"], count_name="n",
        sums={"bytes": ("nbytes", "identity")},
    ).to_pandas()
    # direct recompute on the final state: a(11), c(30), d(40)
    assert maintained.to_dict("records") == [{"repo": "r", "n": 3, "bytes": 81}]


def test_view_sum_over_primary_key_column(tmp_path):
    """A view summing a lake PRIMARY KEY column (path length) must
    advance: the changelog strips repo/path from image columns, so the
    delta kernel falls back to the bare column like the key path does
    (previously a KeyError 'path_old' inside the task)."""
    binlog = _write_four_epoch_binlog(tmp_path)
    root = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_root=root, num_buckets=2)
    from etl_reconciliate_ray.stages.ivm import MaintainedView

    replay_stream(binlog, cfg, stop_after_epoch=1)
    view = MaintainedView(
        str(tmp_path / "view"), keys=["repo"], count_name="n",
        sums={"plen": ("path", "utf8_length")},
    )
    view.bootstrap(root)
    replay_stream(binlog, cfg)
    assert view.advance(root) == 4  # must not KeyError on path images

    got = view.state().to_pandas().set_index("repo")
    lt = lake_dataset(root, columns=["repo", "path"]).to_pandas()
    want = lt.groupby("repo").agg(
        n=("path", "size"), plen=("path", lambda s: s.str.len().sum())
    )
    for repo, row in want.iterrows():
        assert int(got.loc[repo, "n"]) == int(row["n"])
        assert int(got.loc[repo, "plen"]) == int(row["plen"])


def test_maintained_view_state_columns_are_keys_and_measures(tmp_path):
    """``state()`` reads the published ``epoch=N`` directory without
    Hive partition inference: its columns are exactly the keys plus the
    measures, both after bootstrap and after an advance (an inferred
    ``epoch`` column also made every advance union mismatched schemas)."""
    from etl_reconciliate_ray.stages.ivm import MaintainedView

    binlog = _write_four_epoch_binlog(tmp_path)
    root = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_root=root, num_buckets=2)
    view = MaintainedView(
        str(tmp_path / "view"), keys=["repo"], count_name="n",
        sums={"bytes": ("nbytes", "identity")},
    )
    replay_stream(binlog, cfg, stop_after_epoch=2)
    view.advance(root)
    assert sorted(view.state().schema().names) == ["bytes", "n", "repo"]
    replay_stream(binlog, cfg)
    assert view.advance(root) == 4
    assert sorted(view.state().schema().names) == ["bytes", "n", "repo"]
    assert _view_df(view).equals(_recompute(root))


def test_changelog_diffs_only_changed_parts(tmp_path):
    """An epoch that touches k of n parts (one key over 8 buckets) is
    diffed over exactly those k parts: the feed runs one task, and so
    yields one block, per diffed part. A window with no changed part is
    a typed empty feed."""
    from etl_reconciliate_ray.state.commitlog import CommitLog

    binlog = tmp_path / "binlog"
    binlog.mkdir()
    n = 64
    pq.write_table(pa.table({
        "seq": pa.array(range(n), pa.int64()),
        "op": pa.array(["I"] * n),
        "repo": pa.array([f"r{i}" for i in range(n)]),
        "path": pa.array([f"p{i}" for i in range(n)]),
        "content": pa.array([f"c{i}" for i in range(n)]),
        "nbytes": pa.array(range(n), pa.int64()),
    }), str(binlog / "epoch=00000.parquet"))
    pq.write_table(pa.table({
        "seq": pa.array([n], pa.int64()),
        "op": pa.array(["U"]),
        "repo": pa.array(["r3"]),
        "path": pa.array(["p3"]),
        "content": pa.array(["changed"]),
        "nbytes": pa.array([999], pa.int64()),
    }), str(binlog / "epoch=00001.parquet"))
    root = str(tmp_path / "lake")
    replay_stream(str(binlog), ReplayConfig(lake_root=root, num_buckets=8))

    entries = CommitLog.open(root).all_entries()
    all_parts = {e.part for e in entries}
    touched = {e.part for e in entries if e.epoch == 2}
    assert len(all_parts) == 8 and len(touched) == 1

    feed = lake_changelog(root, from_epoch=1, to_epoch=2,
                          image_cols=["nbytes"]).materialize()
    assert feed.num_blocks() == len(touched)
    rows = feed.to_pandas()
    assert rows[["repo", "path", "change"]].values.tolist() == [["r3", "p3", "U"]]
    assert (rows["nbytes_old"][0], rows["nbytes_new"][0]) == (3, 999)

    quiet = lake_changelog(root, from_epoch=2, to_epoch=2, image_cols=["nbytes"])
    sch = quiet.schema()
    assert quiet.count() == 0
    assert dict(zip(sch.names, map(str, sch.types))) == {
        "repo": "string", "path": "string", "change": "string",
        "content_sha256": "string", "nbytes_old": "int64", "nbytes_new": "int64",
    }


def test_payload_schema_reads_each_footer_once(tmp_path, monkeypatch):
    """A direct-write file backs one entry per bucket it holds, so a
    footer walk per entry re-reads the same file up to num_buckets
    times. ``_payload_schema`` (run by every image-column changelog,
    hence by every ``MaintainedView.advance``) reads each distinct
    referenced file's footer at most once."""
    from etl_reconciliate_ray.pipelines.replay import _payload_schema
    from etl_reconciliate_ray.stages.merge import _file_schema
    from etl_reconciliate_ray.state.commitlog import CommitLog

    binlog = tmp_path / "binlog"
    binlog.mkdir()
    for e in range(2):
        n = 32
        pq.write_table(pa.table({
            "seq": pa.array(range(e * n, (e + 1) * n), pa.int64()),
            "op": pa.array(["I" if e == 0 else "U"] * n),
            "repo": pa.array([f"r{i}" for i in range(n)]),
            "path": pa.array([f"p{i}" for i in range(n)]),
            "content": pa.array([f"c{e}-{i}" for i in range(n)]),
            "nbytes": pa.array(range(n), pa.int64()),
        }), str(binlog / f"epoch={e:05d}.parquet"))
    root = str(tmp_path / "lake")
    replay_stream(str(binlog), ReplayConfig(lake_root=root, num_buckets=4))

    log = CommitLog.open(root)
    refs = [f for e in log.all_entries() for f in e.files]
    assert len(refs) >= 2 * len(set(refs))  # >= 2 buckets per block

    _file_schema.cache_clear()  # the replay's commit check read them already
    calls = []
    real = pq.read_schema
    monkeypatch.setattr(pq, "read_schema", lambda f, *a, **k: calls.append(f) or real(f, *a, **k))
    schema = _payload_schema(log, None)
    assert 0 < len(calls) <= len(set(refs))
    assert str(schema["nbytes"]) == "int64"


def test_changelog_reads_each_footer_once_across_calls(tmp_path, monkeypatch):
    """Lake file names are content-addressed, so a footer read once
    serves every later call: two image-carrying changelogs (as two
    ``MaintainedView.advance`` calls make) read each live file's footer
    once in all, not once per call."""
    from collections import Counter

    from etl_reconciliate_ray.stages.merge import _file_schema
    from etl_reconciliate_ray.state.commitlog import CommitLog

    binlog = tmp_path / "binlog"
    binlog.mkdir()
    for e in range(2):
        n = 16
        pq.write_table(pa.table({
            "seq": pa.array(range(e * n, (e + 1) * n), pa.int64()),
            "op": pa.array(["I" if e == 0 else "U"] * n),
            "repo": pa.array([f"r{i}" for i in range(n)]),
            "path": pa.array([f"p{i}" for i in range(n)]),
            "content": pa.array([f"c{e}-{i}" for i in range(n)]),
            "nbytes": pa.array(range(n), pa.int64()),
        }), str(binlog / f"epoch={e:05d}.parquet"))
    root = str(tmp_path / "lake")
    replay_stream(str(binlog), ReplayConfig(lake_root=root, num_buckets=4))
    files = {f for e in CommitLog.open(root).all_entries() for f in e.files}

    _file_schema.cache_clear()  # the replay's commit check read them already
    calls = Counter()
    real = pq.read_schema
    monkeypatch.setattr(pq, "read_schema", lambda f, *a, **k: calls.update([f]) or real(f, *a, **k))
    lake_changelog(root, from_epoch=1, to_epoch=2, image_cols=["nbytes"])
    lake_changelog(root, from_epoch=1, to_epoch=2, image_cols="all")
    assert set(calls) == files
    assert max(calls.values()) == 1


def test_maintained_view_empty_state_round_trip(tmp_path):
    """A view whose every group is retired publishes an empty state
    (Ray writes no file for it) that reads back as zero rows and
    advances again once keys return: bootstrap on a lake that is empty
    at its head, refill, then delete everything."""
    from etl_reconciliate_ray.stages.ivm import MaintainedView

    binlog = tmp_path / "binlog"
    binlog.mkdir()
    for e, (ops, repos) in enumerate([
        (["I", "D"], ["r0", "r0"]),    # head is empty
        (["I", "I"], ["r0", "r1"]),    # keys return
        (["D", "D"], ["r0", "r1"]),    # every group retired
    ]):
        pq.write_table(pa.table({
            "seq": pa.array([2 * e, 2 * e + 1], pa.int64()),
            "op": pa.array(ops),
            "repo": pa.array(repos),
            "path": pa.array(["a" if e == 0 else "b"] * 2),
            "content": pa.array([None if o == "D" else f"c{e}" for o in ops]),
            "nbytes": pa.array([e, e + 1], pa.int64()),
        }), str(binlog / f"epoch={e:05d}.parquet"))
    root = str(tmp_path / "lake")
    cfg = ReplayConfig(lake_root=root, num_buckets=2)
    view = MaintainedView(
        str(tmp_path / "view"), keys=["repo"], count_name="n",
        sums={"bytes": ("nbytes", "identity")},
    )
    for epoch, live in ((1, 0), (2, 2), (3, 0)):
        replay_stream(str(binlog), cfg, stop_after_epoch=epoch)
        assert view.advance(root) == epoch
        assert view.state().count() == live
        if live:
            assert _view_df(view).equals(_recompute(root))
