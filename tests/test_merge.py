"""Unit tests: LWW merge-apply semantics (SURVEY.md §5.1)."""

from __future__ import annotations

import pyarrow as pa

from etl_reconciliate_ray.stages.merge import lww_reduce, resolve_chain_tables


def _events(rows):
    cols = ["seq", "op", "repo", "path", "commit", "lang", "content"]
    return pa.Table.from_pylist([dict(zip(cols, r)) for r in rows])


def merge_apply(events: pa.Table, prev: pa.Table | None) -> pa.Table:
    """Merge-apply as the lake does it: chain resolution with the
    previous state as the full base link and the epoch's events as the
    delta link on top."""
    base = [(0, prev)] if prev is not None else []
    return resolve_chain_tables(base + [(1, events)])


def test_lww_picks_max_seq_and_keeps_delete_nulls():
    ev = _events(
        [
            (1, "I", "r", "a", "c1", "py", "v1"),
            (5, "U", "r", "a", "c3", "py", "v3"),
            (3, "U", "r", "a", "c2", "py", "v2"),
            (2, "D", "r", "b", "c4", None, None),
        ]
    )
    red = lww_reduce(ev).sort_by("path")
    assert red.num_rows == 2
    row_a = red.slice(0, 1).to_pylist()[0]
    assert row_a["seq"] == 5 and row_a["content"] == "v3" and row_a["op"] == "U"
    row_b = red.slice(1, 1).to_pylist()[0]
    assert row_b["op"] == "D" and row_b["content"] is None  # null NOT skipped


def test_merge_apply_insert_update_delete_reinsert():
    prev = pa.Table.from_pylist(
        [
            {"repo": "r", "path": "a", "commit": "c0", "lang": "py", "content": "old", "content_sha256": "ha", "bucket": 0},
            {"repo": "r", "path": "b", "commit": "c0", "lang": "py", "content": "keep", "content_sha256": "hb", "bucket": 0},
        ]
    )
    ev = _events(
        [
            (10, "U", "r", "a", "c1", "py", "new"),
            (11, "D", "r", "b", "cd", None, None),
            (12, "I", "r", "c", "c2", "go", "fresh"),
            (13, "D", "r", "c", "cd", None, None),
            (14, "I", "r", "c", "c3", "go", "fresh2"),  # re-insert after delete
        ]
    ).append_column("content_sha256", pa.array(["s1", None, "s2", None, "s3"]))
    ev = ev.append_column("bucket", pa.array([0] * 5, pa.int32()))
    out = merge_apply(ev, prev).sort_by("path")
    rows = {r["path"]: r for r in out.to_pylist()}
    assert set(rows) == {"a", "c"}  # b deleted
    assert rows["a"]["content"] == "new" and rows["a"]["content_sha256"] == "s1"
    assert rows["c"]["content"] == "fresh2" and rows["c"]["commit"] == "c3"


def test_merge_apply_update_on_absent_key_inserts():
    ev = _events([(1, "U", "r", "x", "c", "py", "v")]).append_column(
        "content_sha256", pa.array(["s"])
    )
    out = merge_apply(ev, None)
    assert out.num_rows == 1 and out.to_pylist()[0]["path"] == "x"


def test_merge_apply_schema_evolution_additive():
    prev = pa.Table.from_pylist(
        [{"repo": "r", "path": "a", "commit": "c", "lang": "py", "content": "v", "content_sha256": "h", "bucket": 0}]
    )
    ev = _events([(1, "I", "r", "b", "c", "py", "w")]).append_column(
        "content_sha256", pa.array(["h2"])
    )
    ev = ev.append_column("size_bytes", pa.array([123], pa.int64()))  # additive col
    out = merge_apply(ev, prev).sort_by("path")
    assert "size_bytes" in out.column_names
    rows = out.to_pylist()
    assert rows[0]["size_bytes"] is None  # old row null-filled
    assert rows[1]["size_bytes"] == 123


def test_resolve_chain_keeps_half_null_keys_distinct():
    """(NULL, 'a') and (NULL, 'b') are different merge keys: the
    winner-index resolution must not collapse rows whose repo OR path
    is null into one key (the separate-fill sentinel contract)."""
    import pyarrow as pa

    from etl_reconciliate_ray.stages.merge import resolve_chain_tables

    t = pa.table({
        "repo": [None, None, "r", ""],
        "path": ["a", "b", None, "a"],
        "commit": ["c1", "c2", "c3", "c4"],
        "lang": ["x", "x", "x", "x"],
        "content": ["A", "B", "C", "D"],
        "content_sha256": ["h1", "h2", "h3", "h4"],
        "seq": pa.array([1, 2, 3, 4], pa.int64()),
        "op": ["I", "I", "I", "I"],
    })
    out = resolve_chain_tables([(0, t)])
    assert out.num_rows == 4
    assert sorted(out["content"].to_pylist()) == ["A", "B", "C", "D"]


def test_resolve_chain_lww_and_seq_null_loses():
    """Cross-epoch LWW and the seq-null-loses invariant survive the
    winner-index rewrite: later epoch wins; within an epoch a
    seq-carrying row beats a seq-null (pre-reduced) row; tombstones
    drop keys."""
    import pyarrow as pa

    from etl_reconciliate_ray.stages.merge import resolve_chain_tables

    def tbl(rows):
        return pa.table({
            "repo": [r[0] for r in rows],
            "path": [r[1] for r in rows],
            "commit": ["c"] * len(rows),
            "lang": ["x"] * len(rows),
            "content": [r[2] for r in rows],
            "content_sha256": ["h"] * len(rows),
            "seq": pa.array([r[3] for r in rows], pa.int64()),
            "op": [r[4] for r in rows],
        })

    base = tbl([("r", "p", "old", None, "I"), ("r", "q", "keep", None, "I")])
    delta = tbl([
        ("r", "p", "prereduced", None, "I"),
        ("r", "p", "partial", 5, "I"),
        ("r", "q", None, 6, "D"),
    ])
    out = resolve_chain_tables([(0, base), (1, delta)])
    assert out.num_rows == 1
    assert out["content"].to_pylist() == ["partial"]


def test_resolve_chain_fuzz_vs_pandas_lww():
    """Property test of the winner-index chain resolution against an
    independent pandas oracle: random multi-epoch chains with
    overlapping keys, random seq (incl. nulls), tombstones, and
    occasional null repo/path — the winner per key is the last row in
    (epoch, seq-null-first, original-position) order, dropped if 'D'."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from etl_reconciliate_ray.stages.merge import resolve_chain_tables

    rng = np.random.default_rng(77)
    for trial in range(25):
        n_epochs = int(rng.integers(1, 4))
        tables, rows = [], []
        pos = 0
        for ep in range(n_epochs):
            m = int(rng.integers(1, 40))
            repo = [None if rng.random() < 0.05 else f"r{rng.integers(0, 3)}" for _ in range(m)]
            path = [None if rng.random() < 0.05 else f"p{rng.integers(0, 6)}" for _ in range(m)]
            seq = [None if rng.random() < 0.2 else int(rng.integers(0, 10)) for _ in range(m)]
            op = [str(rng.choice(["I", "U", "D"])) for _ in range(m)]
            content = [f"c{trial}-{ep}-{i}" for i in range(m)]
            tables.append((ep, pa.table({
                "repo": pa.array(repo, pa.string()),
                "path": pa.array(path, pa.string()),
                "commit": pa.array(["x"] * m, pa.string()),
                "lang": pa.array(["l"] * m, pa.string()),
                "content": pa.array(content, pa.string()),
                "content_sha256": pa.array(content, pa.string()),
                "seq": pa.array(seq, pa.int64()),
                "op": pa.array(op, pa.string()),
            })))
            for i in range(m):
                rows.append({
                    "key": (repo[i], path[i]), "epoch": ep,
                    "seq": -1 if seq[i] is None else seq[i],
                    "pos": pos, "op": op[i], "content": content[i],
                })
                pos += 1
        df = pd.DataFrame(rows)
        df = df.sort_values(["epoch", "seq", "pos"], kind="stable")
        winners = df.groupby("key", sort=False).tail(1)
        want = {
            k: c for k, c, o in zip(winners["key"], winners["content"], winners["op"])
            if o != "D"
        }
        out = resolve_chain_tables(tables)
        got = {
            (r, p): c
            for r, p, c in zip(
                out["repo"].to_pylist(), out["path"].to_pylist(),
                out["content"].to_pylist(),
            )
        }
        assert got == want, f"trial {trial}"


def test_bucket_of_null_repo_routes_batch_independently():
    """Regression (ADVICE r2): a NULL repo key must land in the same
    bucket regardless of which other repos share its batch, and an
    all-null repo batch must not crash. Routing may depend only on
    (repo, path, salt config, num_buckets)."""
    import pyarrow.compute as pc

    from etl_reconciliate_ray.functions.hashing import bucket_of

    path = pa.array(["p"])
    # same (NULL, 'p') key in two batches with different dictionaries
    b1 = bucket_of(pa.array([None, "alpha"]), pa.array(["p", "x"]), 64)
    b2 = bucket_of(pa.array(["zeta", None]), pa.array(["x", "p"]), 64)
    assert b1[0].as_py() == b2[1].as_py()
    # matches a solo null batch too
    b3 = bucket_of(pa.array([None], type=pa.string()), path, 64)
    assert b3[0].as_py() == b1[0].as_py()
    # all-null (null-typed) batch — produced by null-typed all-delete
    # epochs — must not crash and must route like a string-typed null
    b4 = bucket_of(pa.nulls(2), pa.array(["p", "q"]), 64)
    assert b4[0].as_py() == b1[0].as_py()
    # non-null routing unchanged by the null fill (salted + unsalted)
    full = bucket_of(pa.array(["alpha", None]), pa.array(["x", "p"]), 64,
                     salt_for_repo={"alpha": 4})
    solo = bucket_of(pa.array(["alpha"]), pa.array(["x"]), 64,
                     salt_for_repo={"alpha": 4})
    assert full[0].as_py() == solo[0].as_py()
    assert pc.min(bucket_of(pa.nulls(5), pa.array(list("abcde")), 8)).as_py() is not None


def test_merge_apply_null_key_components_stay_distinct():
    """Sentinel-fill regression: with prev holding (repoA, null) and an
    epoch touching only (repoB, null), plain key_strings would collapse
    both to ONE null key and the newer (repoB, null) row would silently
    replace the untouched (repoA, null) lake row."""
    import pyarrow as pa

    prev = pa.table({
        "repo": pa.array(["repoA", "repoC"]),
        "path": pa.array([None, "p1"], pa.string()),
        "content": pa.array(["keepA", "keepC"]),
        "content_sha256": pa.array(["ha", "hc"]),
        "bucket": pa.array([0, 0], pa.int32()),
    })
    events = pa.table({
        "repo": pa.array(["repoB"]),
        "path": pa.array([None], pa.string()),
        "content": pa.array(["newB"]),
        "content_sha256": pa.array(["hb"]),
        "bucket": pa.array([0], pa.int32()),
        "op": pa.array(["I"]),
        "seq": pa.array([1], pa.int64()),
    })
    out = merge_apply(events, prev)
    keys = {(r["repo"], r["path"]) for r in out.to_pylist()}
    assert ("repoA", None) in keys  # previously silently deleted
    assert ("repoB", None) in keys and ("repoC", "p1") in keys
    assert out.num_rows == 3


def test_read_chain_refuses_length_skewed_manifest_link(tmp_path):
    """A manifest link whose rgs list is shorter than its files list
    would silently zip-skip the trailing files (stale reads); refused
    loudly instead."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    from etl_reconciliate_ray.stages.merge import read_chain

    f1 = str(tmp_path / "a.parquet")
    f2 = str(tmp_path / "b.parquet")
    t = pa.table({"repo": ["r"], "path": ["p"], "content": ["c"],
                  "seq": pa.array([1], pa.int64())})
    pq.write_table(t, f1)
    pq.write_table(t, f2)
    with pytest.raises(ValueError, match="row-group ordinals"):
        read_chain([{"epoch": 0, "files": [f1, f2], "rgs": [0]}])


def test_replay_keeps_half_null_keys_distinct(tmp_path):
    """The write path's per-(epoch, bucket) LWW codes keys null-safely,
    as chain resolution does: two keys with a null path and different
    repos in one epoch and one bucket are two lake rows, not one
    winner."""
    import pyarrow.parquet as pq

    from etl_reconciliate_ray.pipelines.replay import ReplayConfig, lake_table, replay_stream

    binlog = tmp_path / "binlog"
    binlog.mkdir()
    pq.write_table(pa.table({
        "seq": pa.array([0, 1, 2], pa.int64()),
        "op": ["I", "I", "I"],
        "repo": ["r1", "r2", "r1"],
        "path": pa.array([None, None, "p"], pa.string()),
        "content": ["a", "b", "c"],
    }), str(binlog / "epoch=00000.parquet"))
    cfg = ReplayConfig(lake_root=str(tmp_path / "lake"), num_buckets=1)
    replay_stream(str(binlog), cfg)
    got = {(r["repo"], r["path"], r["content"]) for r in lake_table(cfg.lake_root).to_pylist()}
    assert got == {("r1", None, "a"), ("r2", None, "b"), ("r1", "p", "c")}


def test_null_keys_survive_compact_and_show_in_lake_table(tmp_path):
    """One rule for null keys: (null, path), (repo, null) and a live
    (null, null) key with null content are lake rows like any other.
    ``lake_table`` shows them before and after ``compact``, and a part
    emptied by deletes still compacts to one 0-row base."""
    import pyarrow.parquet as pq

    from etl_reconciliate_ray.pipelines.replay import (
        ReplayConfig,
        compact,
        lake_table,
        replay_stream,
    )
    from etl_reconciliate_ray.state.commitlog import CommitLog

    binlog = tmp_path / "binlog"
    binlog.mkdir()
    pq.write_table(pa.table({
        "seq": pa.array([0, 1, 2, 3], pa.int64()),
        "op": ["I", "I", "I", "I"],
        "repo": pa.array([None, None, "r1", "r2"], pa.string()),
        "path": pa.array([None, "p", None, "q"], pa.string()),
        "content": pa.array([None, "a", "b", "c"], pa.string()),
    }), str(binlog / "epoch=00000.parquet"))
    pq.write_table(pa.table({
        "seq": pa.array([10], pa.int64()),
        "op": ["D"],
        "repo": ["r2"],
        "path": ["q"],
        "content": pa.array([None], pa.string()),
    }), str(binlog / "epoch=00001.parquet"))
    cfg = ReplayConfig(lake_root=str(tmp_path / "lake"), num_buckets=16)
    replay_stream(str(binlog), cfg)
    want = {(None, None, None), (None, "p", "a"), ("r1", None, "b")}

    def got():
        return {(r["repo"], r["path"], r["content"]) for r in lake_table(cfg.lake_root).to_pylist()}

    assert got() == want
    m = compact(cfg)
    assert got() == want
    # r2/q's part held nothing else: its base is one 0-row file
    log = CommitLog.open(cfg.lake_root)
    bases = [e for e in log.part_chains().values() if e[-1].epoch == m["epoch"]]
    assert len(bases) == m["compacted"] and all(len(c) == 1 for c in bases)
    assert sorted(c[0].rows for c in bases).count(0) >= 1
    assert all(len(c[0].files) == 1 for c in bases if c[0].rows == 0)


def _compacted_lake_with_split_bases(tmp_path):
    """A 4-bucket lake whose second epoch adds a column and deletes and
    updates keys, compacted into bases split into several pieces."""
    import pyarrow.parquet as pq

    from etl_reconciliate_ray.pipelines.replay import ReplayConfig, compact, replay_stream

    binlog = tmp_path / "binlog"
    binlog.mkdir()
    n = 80
    pq.write_table(pa.table({
        "seq": pa.array(range(n), pa.int64()),
        "op": ["I"] * n,
        "repo": [f"r{i % 7}" for i in range(n)],
        "path": [f"p{i}" for i in range(n)],
        "content": [f"c{i}" for i in range(n)],
    }), str(binlog / "epoch=00000.parquet"))
    pq.write_table(pa.table({
        "seq": pa.array(range(n, n + 20), pa.int64()),
        "op": ["D" if i % 4 == 0 else "U" for i in range(20)],
        "repo": [f"r{i % 7}" for i in range(20)],
        "path": [f"p{i}" for i in range(20)],
        "content": [None if i % 4 == 0 else f"u{i}" for i in range(20)],
        "nbytes": pa.array([None if i % 4 == 0 else i for i in range(20)], pa.int64()),
    }), str(binlog / "epoch=00001.parquet"))
    cfg = ReplayConfig(lake_root=str(tmp_path / "lake"), num_buckets=4, compact_target_bytes=512)
    replay_stream(str(binlog), cfg)
    assert not compact(cfg)["skipped"]
    return cfg


def _rows(t: pa.Table) -> list:
    return sorted(map(repr, t.to_pylist()))


def test_lone_base_read_equals_chain_resolution(tmp_path):
    """A compacted part's chain is one full base: ``read_chain`` returns
    its pieces as they are, and that is what LWW resolution of the same
    links returns, as a multiset and with the same schema."""
    from etl_reconciliate_ray.pipelines.replay import _chains_payload
    from etl_reconciliate_ray.stages.merge import read_chain, read_links
    from etl_reconciliate_ray.state.commitlog import CommitLog

    cfg = _compacted_lake_with_split_bases(tmp_path)
    log = CommitLog.open(cfg.lake_root)
    chains = _chains_payload(log, upto_epoch=log.latest_sealed_epoch())
    assert len(chains) > 1
    assert all(len(c) == 1 and c[0]["kind"] == "full" for c in chains.values())
    assert any(len(c[0]["files"]) > 1 for c in chains.values())
    for part, chain in chains.items():
        for columns in (None, ["repo", "content", "nbytes"]):
            got = read_chain(chain, columns=columns, part=part)
            want = resolve_chain_tables(read_links(chain, columns, part))
            if columns is not None:
                want = want.select([c for c in columns if c in want.column_names])
            assert got.num_rows and "nbytes" in got.column_names
            assert got.schema.equals(want.schema), (part, columns)
            assert _rows(got) == _rows(want), (part, columns)


def test_lake_table_of_a_compacted_lake_runs_no_lww(tmp_path, monkeypatch):
    from etl_reconciliate_ray.pipelines.replay import lake_table
    from etl_reconciliate_ray.stages import merge

    cfg = _compacted_lake_with_split_bases(tmp_path)
    calls = []
    winner_index = merge.winner_index

    def counted(*args):
        calls.append(1)
        return winner_index(*args)

    monkeypatch.setattr(merge, "winner_index", counted)
    t = lake_table(cfg.lake_root)
    assert t.num_rows == 80 - 5 and calls == []
