"""The lake's file layout and its one slice reader (``merge.read_slice``).

- every file ``publish_parquet`` writes carries min/max statistics on
  ``repo``, ``path``, ``bucket`` and ``seq`` where present, and on no
  other column; converted envelope epochs still replay by their seq
  ranges, and the multiplexed replay's table filter still splits a
  published binlog exactly;
- a one-key ``lake_lookup`` on a single-bucket lake of 100k rows
  decodes at most one capped row group per link, before and after
  ``compact``;
- a lake in the earlier layout (single-ordinal ``rgs``, statistics on
  every column, slices in first-appearance order) answers lookups,
  scans, changelogs and its state hash as a lake written today does,
  before and after one new epoch and a ``compact``;
- no reader keeps a lake file open: an erased file is not among the
  process's open files.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from etl_reconciliate_ray.functions.hashing import bucket_of, sha256_hex_array, table_state_sha256
from etl_reconciliate_ray.pipelines.replay import (
    ReplayConfig,
    _part_state_sha256,
    bootstrap,
    compact,
    erase_key,
    export_changelog,
    lake_changelog,
    lake_dataset,
    lake_lookup,
    lake_state_hash,
    lake_table,
    replay,
    replay_multiplexed,
    replay_stream,
)
from etl_reconciliate_ray.stages.merge import LAKE_COLS
from etl_reconciliate_ray.stages.writer import STATS_COLUMNS, publish_parquet
from etl_reconciliate_ray.state.commitlog import CommitLog, PartEntry


def _rows(t: pa.Table, cols=None) -> list:
    t = t.select([c for c in (cols or sorted(t.column_names)) if c in t.column_names])
    return sorted(map(repr, t.to_pylist()))


def _stats_columns(f: str) -> set[str]:
    """The columns with min/max in any row group of ``f``; asserts
    that every non-empty row group of a ``STATS_COLUMNS`` column with
    a non-null value has them."""
    md = pq.read_metadata(f)
    have = set()
    for g in range(md.num_row_groups):
        rg = md.row_group(g)
        for j in range(rg.num_columns):
            col = rg.column(j)
            st = col.statistics
            if st is not None and st.has_min_max:
                have.add(col.path_in_schema)
            elif col.path_in_schema in STATS_COLUMNS and rg.num_rows:
                assert st is not None and st.null_count == rg.num_rows, (f, g, col.path_in_schema)
    return have


def test_published_files_carry_key_statistics_only(fixture_small, tmp_path):
    """A replayed lake (deltas and bases), its reconcile spool and
    detail spill, and its export segments: each file has min/max on
    exactly the ``STATS_COLUMNS`` it holds."""
    from etl_reconciliate_ray.pipelines.reconcile_run import reconcile_lake_vs_snapshot
    from etl_reconciliate_ray.stages.normalize import make_normalizer
    import ray.data as rd

    fixture_dir, _, manifest = fixture_small
    cfg = ReplayConfig(lake_root=str(tmp_path / "lake"), num_buckets=4,
                       salt_for_repo=manifest["salt_hot_repos"], delta_threshold=2)
    replay(fixture_dir, cfg)
    export_changelog(cfg, str(tmp_path / "feed"), image_cols="all")
    compact(cfg)
    snap = rd.read_parquet(os.path.join(fixture_dir, "snapshot.parquet")).map_batches(
        make_normalizer(4), batch_format="pyarrow")
    reconcile_lake_vs_snapshot(cfg.lake_root, snap, num_buckets=4,
                               salt_for_repo=manifest["salt_hot_repos"])
    files = glob.glob(str(tmp_path / "**" / "*.parquet"), recursive=True)
    kinds = {os.path.basename(f).split("-")[0] for f in files}
    assert {"delta", "state", "changes", "snap", "detail"} <= kinds, kinds
    for f in files:
        names = set(pq.read_schema(f).names)
        want = set(STATS_COLUMNS) & names
        assert want, f
        assert _stats_columns(f) <= want, f
        if pq.read_metadata(f).num_rows:
            assert _stats_columns(f) == want - _all_null(f, want), f


def _all_null(f: str, cols: set[str]) -> set[str]:
    t = pq.read_table(f, columns=sorted(cols))
    return {c for c in cols if t[c].null_count == t.num_rows}


def test_converted_envelopes_replay_by_their_seq_statistics(tmp_path):
    """Converted envelope epochs are published files: discovery reads
    each one's seq range from its footer, and a replay that tags a
    window of epochs by those ranges equals the native replay."""
    from etl_reconciliate_ray.datagen import DatagenConfig, write_fixture
    from etl_reconciliate_ray.pipelines.replay import _discover_epochs
    from etl_reconciliate_ray.sources.cdc_envelope import (
        binlog_epoch_to_envelope_jsonl,
        convert_envelope_dir,
    )

    man = write_fixture(DatagenConfig(seed=5, lake_rows=120, num_events=900, num_epochs=4),
                        str(tmp_path / "fix"))
    env = tmp_path / "env"
    env.mkdir()
    for f in sorted(glob.glob(str(tmp_path / "fix" / "binlog" / "*.parquet"))):
        binlog_epoch_to_envelope_jsonl(f, str(env / os.path.basename(f).replace(".parquet", ".jsonl")))
    conv = str(tmp_path / "conv")
    convert_envelope_dir(str(env), conv)
    descs = _discover_epochs(conv)
    assert len(descs) == 4
    for d in descs:
        seq = pq.read_table(d["file"], columns=["seq"])["seq"]
        assert d["seq_range"] == [pc.min(seq).as_py(), pc.max(seq).as_py() + 1], d

    native = ReplayConfig(lake_root=str(tmp_path / "native"), num_buckets=4)
    replay(str(tmp_path / "fix"), native)
    windowed = ReplayConfig(lake_root=str(tmp_path / "windowed"), num_buckets=4,
                            pipeline_epochs=4)
    replay_stream(conv, windowed, lake_seed=str(tmp_path / "fix" / "lake_seed.parquet"))
    assert lake_table(windowed).num_rows == man["final_rows"]
    assert lake_state_hash(windowed) == lake_state_hash(native)


def test_multiplexed_filter_over_published_binlog(fixture_small, tmp_path):
    """A multiplexed binlog published without statistics on its table
    column splits into exactly the lakes its demultiplexed streams
    replay to."""
    fixture_dir, _, _ = fixture_small
    mux, plain = tmp_path / "mux", {n: tmp_path / n for n in ("files", "orders")}
    for f in sorted(glob.glob(os.path.join(fixture_dir, "binlog", "*.parquet"))):
        t = pq.read_table(f)
        other = t.set_column(t.column_names.index("content"), "content",
                             pc.binary_join_element_wise("O", t["content"], ""))
        name = os.path.basename(f)
        for n, part in (("files", t), ("orders", other)):
            os.makedirs(plain[n], exist_ok=True)
            pq.write_table(part, str(plain[n] / name))
        both = pa.concat_tables([t.append_column("tbl", pa.array(["files"] * t.num_rows)),
                                 other.append_column("tbl", pa.array(["orders"] * t.num_rows))])
        publish_parquet(str(mux), [both.sort_by([("tbl", "ascending"), ("seq", "ascending")])],
                        name=name)
        assert "tbl" not in _stats_columns(str(mux / name))
    cfgs = {n: ReplayConfig(lake_root=str(tmp_path / f"mx_{n}"), num_buckets=4) for n in plain}
    replay_multiplexed(str(mux), cfgs, str(tmp_path / "txn"))
    for n, d in plain.items():
        control = ReplayConfig(lake_root=str(tmp_path / f"ctrl_{n}"), num_buckets=4)
        replay_stream(str(d), control)
        assert lake_state_hash(cfgs[n]) == lake_state_hash(control), n


# -- point lookups on a large bucket -------------------------------------

_REPOS, _PER_REPO = 8, 12_500


def _big_seed(path: str, per_repo: int = _PER_REPO) -> pa.Table:
    n = _REPOS * per_repo
    t = pa.table({
        "repo": pa.array([f"org{i // per_repo}" for i in range(n)]),
        "path": pa.array([f"src/f{i % per_repo:06d}.py" for i in range(n)]),
        "commit": pa.array([f"{i:040d}" for i in range(n)]),
        "lang": pa.array(["py"] * n),
        "content": pa.array([f"{i:010d}" * 20 for i in range(n)]),
    })
    # shuffled: the writer, not the input, must put the slice in key order
    t = t.take(pa.array([(i * 7919) % n for i in range(n)]))
    pq.write_table(t, path)
    return t


@pytest.fixture(scope="module")
def big_lake(tmp_path_factory):
    """A one-bucket lake: a 100k-row bootstrap, then one epoch updating
    one key per repo."""
    root = tmp_path_factory.mktemp("big")
    seed = _big_seed(str(root / "seed.parquet"))
    binlog = root / "binlog"
    binlog.mkdir()
    keys = [(f"org{r}", f"src/f{(r * 1543) % _PER_REPO:06d}.py") for r in range(_REPOS)]
    pq.write_table(pa.table({
        "seq": pa.array(range(len(keys)), pa.int64()),
        "op": ["U"] * len(keys),
        "repo": [k[0] for k in keys], "path": [k[1] for k in keys],
        "commit": ["f" * 40] * len(keys), "lang": ["py"] * len(keys),
        "content": [f"new-{k[0]}-{k[1]}" for k in keys],
    }), str(binlog / "epoch=00000.parquet"))
    cfg = ReplayConfig(lake_root=str(root / "lake"), num_buckets=1)
    replay_stream(str(binlog), cfg, lake_seed=str(root / "seed.parquet"))
    return cfg, seed.num_rows, keys


def _decoded(monkeypatch) -> list[int]:
    """Rows decoded per parquet read call, whichever reader makes it:
    the rows of each row group read (a whole-file scan counts every
    group of the file)."""
    counts: list[int] = []
    one, many, table = pq.ParquetFile.read_row_group, pq.ParquetFile.read_row_groups, pq.read_table

    def read_row_group(self, i, *a, **kw):
        counts.append(self.metadata.row_group(i).num_rows)
        return one(self, i, *a, **kw)

    def read_row_groups(self, groups, *a, **kw):
        counts.extend(self.metadata.row_group(i).num_rows for i in groups)
        return many(self, groups, *a, **kw)

    def read_table(source, *a, **kw):
        md = pq.read_metadata(source)
        counts.extend(md.row_group(i).num_rows for i in range(md.num_row_groups))
        return table(source, *a, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_group", read_row_group)
    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", read_row_groups)
    monkeypatch.setattr(pq, "read_table", read_table)
    return counts


def test_point_lookup_decodes_one_capped_group_per_piece(big_lake, monkeypatch):
    """Each piece of each link is one key-sorted slice cut into capped
    row groups, so a point lookup decodes at most one group of each
    piece (a link holds one piece per read block that wrote it), never
    the bucket — merge-on-read and compacted."""
    cfg, n, updated = big_lake
    state = {(r["repo"], r["path"]): r["content"]
             for r in lake_table(cfg).select(["repo", "path", "content"]).to_pylist()}
    # a repo's first, middle and last path, and the updated keys
    probe = [(f"org{r}", f"src/f{j:06d}.py") for r in range(_REPOS)
             for j in (0, _PER_REPO // 2, _PER_REPO - 1)] + updated

    def check() -> None:
        files = [f for e in CommitLog.open(cfg.lake_root).all_entries() for f in e.files]
        groups = [pq.read_metadata(f).row_group(g).num_rows
                  for f in set(files) for g in range(pq.read_metadata(f).num_row_groups)]
        cap_rows = max(groups)
        assert n >= 100_000 and cap_rows * 20 < n  # the bucket is many capped groups
        counts = _decoded(monkeypatch)
        for repo, path in probe:
            del counts[:]
            got = lake_lookup(cfg, repo, path)
            assert got.num_rows == 1 and got["content"][0].as_py() == state[(repo, path)]
            assert len(counts) <= len(files) and sum(counts) <= len(files) * cap_rows, (
                repo, path, counts)
        monkeypatch.undo()

    check()
    assert lake_lookup(cfg, "org3", "src/f0000x.py").num_rows == 0
    compact(cfg)
    check()


def test_erase_rewrites_multi_group_slices(tmp_path):
    """``erase_key`` on slices that span several capped row groups: the
    rewritten entries name the new groups of each slice, and the lake
    is its old state without the erased key and repo."""
    seed = _big_seed(str(tmp_path / "seed.parquet"), per_repo=5_000)
    cfg = ReplayConfig(lake_root=str(tmp_path / "lake"), num_buckets=1)
    bootstrap(str(tmp_path / "seed.parquet"), cfg)
    log = CommitLog.open(cfg.lake_root)
    assert any(isinstance(spec, tuple) for e in log.all_entries() for spec in e.rgs)
    key = ("org3", "src/f002500.py")
    erase_key(cfg, *key)
    erase_key(cfg, "org5")
    keep = [r for r in seed.select(["repo", "path", "content"]).to_pylist()
            if (r["repo"], r["path"]) != key and r["repo"] != "org5"]
    cols = ["repo", "path", "content"]
    assert _rows(lake_table(cfg), cols) == _rows(pa.Table.from_pylist(keep), cols)
    from etl_reconciliate_ray.stages.merge import read_slice

    for e in CommitLog.open(cfg.lake_root).all_entries():
        assert e.rows == sum(read_slice(f, spec).num_rows for f, spec in zip(e.files, e.rgs))
    assert lake_lookup(cfg, "org3", "src/f002499.py").num_rows == 1
    assert lake_lookup(cfg, *key).num_rows == 0


# -- a lake in the earlier layout -----------------------------------------

_NB = 4


def _events(e: int, keys: list[tuple[str, str]], ops: list[str]) -> pa.Table:
    return pa.table({
        "seq": pa.array([e * 1000 + i for i in range(len(keys))], pa.int64()),
        "op": ops,
        "repo": [k[0] for k in keys], "path": [k[1] for k in keys],
        "commit": [f"c{e}"] * len(keys), "lang": ["py"] * len(keys),
        "content": pa.array([None if o == "D" else f"v{e}-{k[0]}-{k[1]}"
                             for k, o in zip(keys, ops)], pa.string()),
    })


def _old_layout_lake(root: str, epochs: list[pa.Table]) -> None:
    """The previous writer's layout, built by hand: epoch 0 as full
    bases (one file and one row group per part, ``rgs`` -1), later
    epochs as one delta file each, one row group per bucket in order
    of first appearance, addressed by a single ordinal; statistics on
    every column; no slice sorted by key."""
    log = CommitLog.open(root)
    log.ensure_layout(ReplayConfig(lake_root=root, num_buckets=_NB).layout())
    for e, ev in enumerate(epochs):
        t = ev.append_column("content_sha256", sha256_hex_array(ev["content"]))
        t = t.append_column("bucket", bucket_of(t["repo"], t["path"], _NB, {}))
        buckets = list(dict.fromkeys(t["bucket"].to_pylist()))
        slices = [t.filter(pc.equal(t["bucket"], b)) for b in buckets]
        d = os.path.join(root, f"epoch={e:05d}")
        os.makedirs(d, exist_ok=True)
        entries = []
        if e == 0:
            for b, sl in zip(buckets, slices):
                f = os.path.join(d, f"state-old{b}.parquet")
                pq.write_table(sl.select(LAKE_COLS + ["bucket"]), f)
                sha = table_state_sha256(sl, ("repo", "path"), "content_sha256")
                entries.append(PartEntry(epoch=0, part=b, files=(f,), rows=sl.num_rows,
                                         state_sha256=_part_state_sha256([(f, sha)]),
                                         input_seq=(-1, -1), kind="full", rgs=(-1,)))
        else:
            f = os.path.join(d, "delta-old.parquet")
            cols = LAKE_COLS + ["op", "seq", "bucket"]
            with pq.ParquetWriter(f, slices[0].select(cols).schema) as w:
                for sl in slices:
                    w.write_table(sl.select(cols), row_group_size=sl.num_rows)
            for rg, (b, sl) in enumerate(zip(buckets, slices)):
                sha = table_state_sha256(sl, ("repo", "path"), "content_sha256")
                entries.append(PartEntry(epoch=e, part=b, files=(f,), rows=sl.num_rows,
                                         state_sha256=_part_state_sha256([(f, sha)]),
                                         input_seq=(e * 1000, e * 1000 + 1000), kind="delta",
                                         rgs=(rg,)))
        log.commit_parts(entries)
        log.seal_epoch(e)


def _answers(cfg: ReplayConfig, keys: list[tuple[str, str]], upto: int, froms) -> dict:
    cols = ["repo", "path", "commit", "content", "content_sha256"]
    return {
        "hash": lake_state_hash(cfg),
        "lookup": [_rows(lake_lookup(cfg, r, p), cols) for r, p in keys],
        "repo": _rows(lake_lookup(cfg, keys[0][0]), cols),
        "scan": _rows(pa.Table.from_pylist(lake_dataset(cfg).take_all()), cols),
        "changes": [
            _rows(pa.Table.from_pylist(lake_changelog(cfg, from_epoch=a, to_epoch=upto).take_all()))
            for a in froms
        ],
    }


def test_earlier_layout_answers_as_today(tmp_path):
    keys = [(f"r{i % 5}", f"p{i:03d}") for i in range(120)]
    ev0 = _events(0, keys, ["I"] * len(keys))
    ev1 = _events(1, keys[::3] + [("r9", "new")], ["U", "D"] * 20 + ["I"])
    ev2 = _events(2, keys[1::4] + [("r9", "new2")], ["U", "D", "U"] * 10 + ["I"])
    old = ReplayConfig(lake_root=str(tmp_path / "old"), num_buckets=_NB)
    _old_layout_lake(old.lake_root, [ev0, ev1])

    seed = str(tmp_path / "seed.parquet")
    pq.write_table(ev0.drop_columns(["seq", "op"]), seed)
    binlog = tmp_path / "binlog"
    binlog.mkdir()
    pq.write_table(ev1, str(binlog / "epoch=00000.parquet"))
    new = ReplayConfig(lake_root=str(tmp_path / "new"), num_buckets=_NB)
    replay_stream(str(binlog), new, lake_seed=seed)

    probe = keys[:4] + keys[::17] + [("r9", "new"), ("r9", "new2"), ("nope", "nope")]
    assert _answers(old, probe, 1, (None, 0)) == _answers(new, probe, 1, (None, 0))

    # one new epoch on both lakes, through the same stream
    pq.write_table(ev2, str(binlog / "epoch=00001.parquet"))
    replay_stream(str(binlog), old)
    replay_stream(str(binlog), new)
    assert _answers(old, probe, 2, (None, 0, 1)) == _answers(new, probe, 2, (None, 0, 1))
    for cfg in (old, new):  # rewrites single-ordinal and whole-file slices alike
        erase_key(cfg, *keys[5])
        erase_key(cfg, "r2")
    assert _answers(old, probe, 2, (None, 0, 1)) == _answers(new, probe, 2, (None, 0, 1))

    for cfg in (old, new):
        assert not compact(cfg)["skipped"]
    assert _answers(old, probe, 3, (None,)) == _answers(new, probe, 3, (None,))


# -- open files ----------------------------------------------------------


def _open_files() -> set[str]:
    out = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            out.add(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:
            pass
    return out


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_erased_file_is_not_held_open(fixture_small, tmp_path):
    """The footer cache holds parsed metadata, not open files: once
    ``erase_key`` deletes the files that held a key, a lookup that read
    them before leaves no descriptor to them, deleted or not."""
    fixture_dir, _, manifest = fixture_small
    cfg = ReplayConfig(lake_root=str(tmp_path / "lake"), num_buckets=4,
                       salt_for_repo=manifest["salt_hot_repos"])
    replay(fixture_dir, cfg)
    t = lake_table(cfg)
    repo, path = t["repo"][0].as_py(), t["path"][0].as_py()
    before = {f for e in CommitLog.open(cfg.lake_root).all_entries() for f in e.files}
    assert lake_lookup(cfg, repo, path).num_rows == 1
    res = erase_key(cfg, repo, path)
    assert res["files_deleted"] >= 1
    gone = {f for f in before if not os.path.exists(f)}
    assert gone
    held = {p.removesuffix(" (deleted)") for p in _open_files()}
    assert not held & gone, held & gone
    assert lake_lookup(cfg, repo, path).num_rows == 0
