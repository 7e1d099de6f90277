"""Pruned keyed reads over the lake: ``lake_lookup`` (point / repo
lookup touching only the candidate bucket chains) and
``lake_dataset(repos=[...])`` (bucket-pruned keyed scan).

Exactness contract: every pruned read must equal the same filter over
the FULL lake state — including for salted (skewed-monorepo) repos,
whose rows span several buckets — and the pruning must actually prune
(candidate set < all buckets)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from etl_reconciliate_ray.functions.hashing import bucket_of, buckets_for_key
from etl_reconciliate_ray.pipelines.replay import (
    ReplayConfig,
    lake_dataset,
    lake_lookup,
    lake_table,
    replay,
)


def _cfg(tmp_path, name, manifest, **kw):
    return ReplayConfig(
        lake_root=str(tmp_path / name),
        num_buckets=8,
        salt_for_repo=manifest["salt_hot_repos"],
        **kw,
    )


def _sig(t, cols=("repo", "path", "content_sha256")):
    rows = t.select([c for c in cols if c in t.column_names]).to_pylist()
    return sorted(tuple(r.get(c) for c in cols) for r in rows)


def test_buckets_for_key_inverts_bucket_of(fixture_small, tmp_path):
    """For every lake key, bucket_of's assignment must be inside
    buckets_for_key's candidate set — point keys exactly, repo-level
    candidates as a superset — under the fixture's real salt map."""
    fixture_dir, _, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_inv", manifest)
    replay(fixture_dir, cfg)
    state = lake_table(cfg)
    assigned = bucket_of(
        state["repo"], state["path"], cfg.num_buckets, cfg.salt_for_repo
    ).to_pylist()
    repos = state["repo"].to_pylist()
    paths = state["path"].to_pylist()
    for repo, path, b in zip(repos, paths, assigned):
        point = buckets_for_key(repo, path, cfg.num_buckets, cfg.salt_for_repo)
        assert point == [b]
        cands = buckets_for_key(repo, None, cfg.num_buckets, cfg.salt_for_repo)
        assert b in cands
        salt = (cfg.salt_for_repo or {}).get(repo, 1)
        assert len(cands) <= min(salt, cfg.num_buckets)


def test_point_lookup_equals_full_state_filter(fixture_small, tmp_path):
    fixture_dir, _, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_pt", manifest)
    replay(fixture_dir, cfg)
    state = lake_table(cfg)
    # a plain key, plus a salted-monorepo key if the fixture has one
    probe = {(state["repo"][0].as_py(), state["path"][0].as_py())}
    for hot in manifest["salt_hot_repos"]:
        m = state.filter(pc.equal(state["repo"], hot))
        if m.num_rows:
            probe.add((hot, m["path"][0].as_py()))
    def check():
        for repo, path in sorted(probe):
            got = lake_lookup(cfg, repo, path)
            want = state.filter(
                pc.and_(pc.equal(state["repo"], repo), pc.equal(state["path"], path))
            )
            assert got.num_rows == want.num_rows == 1
            assert _sig(got) == _sig(want)

    check()  # merge-on-read chains
    from etl_reconciliate_ray.pipelines.replay import compact

    cfg.compact_target_bytes = 4096
    compact(cfg)  # sorted multi-piece bases + key_filter pushdown path
    check()


def test_repo_lookup_covers_salted_monorepo(fixture_small, tmp_path):
    """A salted repo's rows span several buckets; the repo-level lookup
    must still return every row (candidate set covers all salts)."""
    fixture_dir, _, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_salt", manifest)
    replay(fixture_dir, cfg)
    state = lake_table(cfg)
    hot = [r for r in manifest["salt_hot_repos"] if manifest["salt_hot_repos"][r] > 1]
    assert hot, "fixture should declare at least one salted repo"
    for repo in hot:
        got = lake_lookup(cfg, repo)
        want = state.filter(pc.equal(state["repo"], repo))
        assert got.num_rows == want.num_rows > 0
        assert _sig(got) == _sig(want)
        # the pruning is real: candidates < all buckets
        cands = buckets_for_key(repo, None, cfg.num_buckets, cfg.salt_for_repo)
        assert len(cands) < cfg.num_buckets


def test_lookup_missing_key_and_columns_projection(fixture_small, tmp_path):
    fixture_dir, _, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_miss", manifest)
    replay(fixture_dir, cfg)
    assert lake_lookup(cfg, "no-such-repo", "no/such/path").num_rows == 0
    state = lake_table(cfg)
    repo, path = state["repo"][0].as_py(), state["path"][0].as_py()
    got = lake_lookup(cfg, repo, path, columns=["content_sha256"])
    assert got.column_names == ["content_sha256"]
    assert got.num_rows == 1


def test_lookup_time_travel_matches_historical_state(fixture_small, tmp_path):
    fixture_dir, _, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_tt", manifest)
    replay(fixture_dir, cfg)
    past = 1
    hist = lake_table(cfg, as_of_epoch=past)
    repo, path = hist["repo"][0].as_py(), hist["path"][0].as_py()
    got = lake_lookup(cfg, repo, path, as_of_epoch=past)
    want = hist.filter(
        pc.and_(pc.equal(hist["repo"], repo), pc.equal(hist["path"], path))
    )
    assert _sig(got) == _sig(want)


def test_lake_dataset_repos_pruned_scan(fixture_small, tmp_path, ray_session):
    """lake_dataset(repos=[...]) == full-state row filter, on both the
    merge-on-read path (delta chains) and the compacted fast path."""
    from etl_reconciliate_ray.pipelines.replay import compact

    fixture_dir, _, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_scan", manifest)
    replay(fixture_dir, cfg)
    state = lake_table(cfg)
    all_repos = sorted(set(state["repo"].to_pylist()))
    pick = [all_repos[0], all_repos[-1]] + [
        r for r in manifest["salt_hot_repos"] if r in all_repos
    ][:1]
    pick = sorted(set(pick))
    want = state.filter(pc.is_in(state["repo"], value_set=pa.array(pick, pa.string())))
    for label in ("mor", "compacted"):
        if label == "compacted":
            compact(cfg)
        got = lake_dataset(cfg, repos=pick).take_all()
        got_sig = sorted(
            (r["repo"], r["path"], r["content_sha256"]) for r in got
        )
        assert got_sig == _sig(want)
    # projection without repo still filters correctly
    t = lake_dataset(cfg, columns=["path"], repos=pick).take_all()
    assert sorted(r["path"] for r in t) == sorted(
        want["path"].to_pylist()
    )


def test_cli_lookup_mode(fixture_small, tmp_path, ray_session, capsys):
    """--lookup REPO[:PATH] is a read-only CLI mode: no replay inputs,
    no Ray requirement, prints the pruned keyed read as JSON."""
    import json

    from etl_reconciliate_ray.run import main

    fixture_dir, _, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_cli", manifest)
    replay(fixture_dir, cfg)
    state = lake_table(cfg)
    repo, path = state["repo"][0].as_py(), state["path"][0].as_py()
    out = main(["--lake", cfg.lake_root, "--lookup", f"{repo}:{path}"])
    assert out["rows"] == 1
    assert out["records"][0]["repo"] == repo
    assert out["records"][0]["path"] == path
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed["rows"] == 1
    # whole-repo spelling (no colon)
    out2 = main(["--lake", cfg.lake_root, "--lookup", repo])
    want = state.filter(pc.equal(state["repo"], repo)).num_rows
    assert out2["rows"] == want


def test_lookup_refuses_layoutless_lake(tmp_path):
    """A lake with committed epochs but no layout record has unknown
    routing — keyed reads must refuse, not guess."""
    import pyarrow as pa

    from etl_reconciliate_ray.state.commitlog import CommitLog

    root = str(tmp_path / "bare")
    log = CommitLog.open(root)
    # no ensure_layout; an empty log has no layout either
    with pytest.raises(ValueError, match="layout"):
        lake_lookup(root, "r", "p")


def test_key_history_matches_binlog_oracle(fixture_small, tmp_path):
    """key_history over a DIRECT-mode pipelined replay (overlapping
    partial pieces carry seq — the max-seq winner rule) must equal a
    pandas re-derivation from the raw binlog: per (key, epoch) winner
    by max seq, epoch-attributed, op preserved."""
    import glob as _glob
    import json as _json

    import pandas as pd
    import pyarrow.parquet as _pq

    from etl_reconciliate_ray.pipelines.replay import key_history

    fixture_dir, _, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_hist", manifest)
    cfg.pipeline_epochs = 4
    replay(fixture_dir, cfg)

    parts = [
        _pq.read_table(f).to_pandas()
        for f in sorted(_glob.glob(f"{fixture_dir}/binlog/*.parquet"))
    ]
    with open(f"{fixture_dir}/fixture.json") as fh:
        epochs = _json.load(fh)["epochs"]
    binlog = pd.concat(parts, ignore_index=True)
    lo = pd.Series({e["epoch"]: e["seq_range"][0] for e in epochs})
    # engine epoch = binlog epoch + 1 (0 is the bootstrap)
    binlog["epoch"] = binlog["seq"].map(
        lambda s: int((lo <= s).sum())  # count of epochs starting at/below s
    )
    # the most-rewritten keys exercise multi-epoch histories
    key_counts = binlog.groupby(["repo", "path"]).size().sort_values()
    seed = _pq.read_table(f"{fixture_dir}/lake_seed.parquet").to_pandas()
    for (repo, path) in list(key_counts.index[-5:]):
        got = key_history(cfg, repo, path, columns=["content"]).to_pandas()
        ev = binlog[(binlog["repo"] == repo) & (binlog["path"] == path)]
        # drop_duplicates, NOT groupby().last(): .last() skips NaN per
        # column and would splice an earlier non-null content into a
        # D-winner row (whose content is genuinely null)
        want = ev.sort_values("seq").drop_duplicates(["epoch"], keep="last")[
            ["epoch", "op", "content"]
        ]
        in_seed = ((seed["repo"] == repo) & (seed["path"] == path)).any()
        if in_seed:  # bootstrap epoch 0 surfaces as an 'I' row
            want = pd.concat(
                [pd.DataFrame([{"epoch": 0, "op": "I", "content": None}]), want],
                ignore_index=True,
            )
        assert list(got["epoch"]) == list(want["epoch"]), (repo, path)
        assert list(got["op"]) == list(want["op"]), (repo, path)
        # content matches wherever the event carried one (D rows are null;
        # the bootstrap row's content comes from the seed, not the binlog)
        for g, w, ep in zip(got["content"], want["content"], want["epoch"]):
            if ep == 0 or w is None or (isinstance(w, float) and pd.isna(w)):
                continue
            assert g == w, (repo, path, ep)


def test_key_history_collapses_after_compaction_snapshot(fixture_small, tmp_path):
    """After compact + log snapshot the pre-base entries are gone:
    history collapses to ONE row at the base epoch ('I', final
    content) — exactly the horizon time travel can still answer."""
    import pyarrow.compute as _pc

    from etl_reconciliate_ray.pipelines.replay import compact, key_history
    from etl_reconciliate_ray.state.commitlog import CommitLog

    fixture_dir, _, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_hist2", manifest)
    replay(fixture_dir, cfg)
    state = lake_table(cfg)
    repo, path = state["repo"][0].as_py(), state["path"][0].as_py()
    pre = key_history(cfg, repo, path, columns=["content"])
    assert pre.num_rows >= 1

    compact(cfg)
    CommitLog.open(cfg.lake_root).write_snapshot()
    post = key_history(cfg, repo, path, columns=["content"])
    assert post.num_rows == 1
    assert post["op"][0].as_py() == "I"
    want = state.filter(
        _pc.and_(_pc.equal(state["repo"], repo), _pc.equal(state["path"], path))
    )
    assert post["content"][0].as_py() == want["content"][0].as_py()


def test_key_history_refuses_a_length_skewed_link(fixture_small, tmp_path):
    """A log entry whose ``files`` and ``rgs`` differ in length is a
    corrupt manifest: ``key_history`` raises, as ``read_chain`` does,
    instead of reading only the files that pair with an ordinal."""
    from etl_reconciliate_ray.functions.hashing import buckets_for_key
    from etl_reconciliate_ray.pipelines.replay import key_history
    from etl_reconciliate_ray.state.commitlog import CommitLog, PartEntry

    fixture_dir, _, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_skew", manifest)
    replay(fixture_dir, cfg)
    state = lake_table(cfg)
    repo, path = state["repo"][0].as_py(), state["path"][0].as_py()
    [part] = buckets_for_key(repo, path, cfg.num_buckets, cfg.salt_for_repo)
    log = CommitLog.open(cfg.lake_root)
    f = log.entries_for_part(part)[-1].files[0]
    epoch = log.latest_sealed_epoch() + 1
    log.commit_part(PartEntry(epoch=epoch, part=part, files=(f, f), rows=0,
                              state_sha256="0" * 64, kind="delta", rgs=(-1,)))
    log.seal_epoch(epoch)
    with pytest.raises(ValueError, match="2 files but 1 row-group"):
        key_history(cfg, repo, path, columns=["content"])


def test_cli_history_mode(fixture_small, tmp_path, ray_session, capsys):
    """--history REPO:PATH is a read-only CLI mode mirroring --lookup:
    prints the key's per-epoch change record as JSON."""
    import json

    from etl_reconciliate_ray.pipelines.replay import key_history
    from etl_reconciliate_ray.run import main

    fixture_dir, _, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_cli_hist", manifest)
    replay(fixture_dir, cfg)
    state = lake_table(cfg)
    repo, path = state["repo"][0].as_py(), state["path"][0].as_py()
    out = main(["--lake", cfg.lake_root, "--history", f"{repo}:{path}"])
    want = key_history(cfg, repo, path, columns=["content"])
    assert out["changes"] == want.num_rows >= 1
    assert [r["epoch"] for r in out["records"]] == want["epoch"].to_pylist()
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed["changes"] == out["changes"]


def test_cli_schema_history_mode(fixture_small, tmp_path, ray_session, capsys):
    import json

    from etl_reconciliate_ray.run import main

    fixture_dir, _, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_cli_sh", manifest)
    replay(fixture_dir, cfg)
    out = main(["--lake", cfg.lake_root, "--schema-history"])
    cols = {r["column"] for r in out["columns"]}
    assert {"repo", "path", "content", "content_sha256"} <= cols
    assert "bucket" not in cols and "op" not in cols
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed == out


def test_epoch_write_ignores_a_foreign_bucket_column(tmp_path):
    """The write path derives ``bucket`` from the lake's own layout: a
    Dataset normalized for 8 buckets written into a 4-bucket lake
    commits only parts below 4, and every key is found by a lookup."""
    import ray.data as rd

    from etl_reconciliate_ray.pipelines.replay import run_epoch
    from etl_reconciliate_ray.state.commitlog import CommitLog
    from etl_reconciliate_ray.stages.normalize import make_normalizer

    n = 40
    events = pa.table({
        "seq": pa.array(range(n), pa.int64()),
        "op": ["I"] * n,
        "repo": [f"org/r{i % 7}" for i in range(n)],
        "path": [f"f{i}.py" for i in range(n)],
        "content": [f"v{i}" for i in range(n)],
    })
    ds = rd.from_arrow(events).map_batches(make_normalizer(num_buckets=8), batch_format="pyarrow")
    cfg = ReplayConfig(lake_root=str(tmp_path / "lake"), num_buckets=4)
    run_epoch(ds, 0, cfg)

    parts = {e.part for e in CommitLog.open(cfg.lake_root).all_entries()}
    assert parts and max(parts) < 4
    for r in events.to_pylist():
        got = lake_lookup(cfg, r["repo"], r["path"])
        assert got["content"].to_pylist() == [r["content"]]
