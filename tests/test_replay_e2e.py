"""Golden end-to-end + chaos tests (SURVEY.md §5.2-5.3).

- distributed replay == independent pandas oracle (per-row sha256),
- kill after epoch k + restart from commit log -> identical state,
- re-delivering a committed epoch is a no-op (fencing/idempotence),
- additive schema evolution lands in the lake state.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

import pyarrow.parquet as pq

from etl_reconciliate_ray.datagen import oracle_replay
from etl_reconciliate_ray.pipelines.replay import (
    ReplayConfig,
    lake_state_hash,
    lake_table,
    replay,
)
from etl_reconciliate_ray.state.commitlog import CommitLog


def _oracle_final(fixture_dir):
    import pandas as pd

    lake = pq.read_table(f"{fixture_dir}/lake_seed.parquet").to_pandas()
    import glob

    parts = [pq.read_table(f).to_pandas() for f in sorted(glob.glob(f"{fixture_dir}/binlog/*.parquet"))]
    binlog = pd.concat(parts, ignore_index=True)
    return oracle_replay(lake, binlog)


def _cfg(tmp_path, name, manifest):
    return ReplayConfig(
        lake_root=str(tmp_path / name),
        num_buckets=8,
        salt_for_repo=manifest["salt_hot_repos"],
    )


def test_replay_matches_oracle(fixture_small, tmp_path):
    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake", manifest)
    metrics = replay(fixture_dir, cfg)
    assert all(not m["skipped"] for m in metrics)

    got = lake_table(cfg).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    want = _oracle_final(fixture_dir)
    assert len(got) == len(want) == manifest["final_rows"]
    # per-row content sha256 equality vs independently computed oracle
    want_sha = want["content"].map(lambda s: hashlib.sha256(s.encode()).hexdigest())
    assert (got["repo"].values == want["repo"].values).all()
    assert (got["path"].values == want["path"].values).all()
    assert (got["content_sha256"].values == want_sha.values).all()
    assert (got["content"].values == want["content"].values).all()


def test_schema_evolution_additive_column(fixture_small, tmp_path):
    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_evo", manifest)
    replay(fixture_dir, cfg)
    tbl = lake_table(cfg)
    assert "size_bytes" in tbl.column_names
    df = tbl.to_pandas()
    assert df["size_bytes"].notna().any()  # evolved rows carry it
    assert df["size_bytes"].isna().any()  # pre-evolution rows null-filled


def test_schema_evolution_additive_column_pipelined(fixture_small, tmp_path):
    """The batched scan reads a CHUNK of epoch files in ONE
    read_parquet; without the unified explicit schema
    (_binlog_scan_schema) the first pre-evolution file would set the
    chunk's schema and a mid-chunk column addition would be silently
    dropped. State must equal the sequential replay's exactly."""
    fixture_dir, cfg_gen, manifest = fixture_small
    cfg_seq = _cfg(tmp_path, "lake_evo_seq", manifest)
    replay(fixture_dir, cfg_seq)
    cfg_pipe = _cfg(tmp_path, "lake_evo_pipe", manifest)
    cfg_pipe.pipeline_epochs = 100  # every epoch in one chunk
    replay(fixture_dir, cfg_pipe)
    tbl = lake_table(cfg_pipe)
    assert "size_bytes" in tbl.column_names
    df = tbl.to_pandas()
    assert df["size_bytes"].notna().any() and df["size_bytes"].isna().any()
    # evolved column values identical to the sequential path per key
    a = (
        lake_table(cfg_seq).to_pandas()
        .set_index(["repo", "path"])["size_bytes"].sort_index()
    )
    b = df.set_index(["repo", "path"])["size_bytes"].sort_index()
    import pandas as pd

    pd.testing.assert_series_equal(a, b)


def test_binlog_scan_schema_refuses_type_change(tmp_path):
    import pyarrow as pa

    from etl_reconciliate_ray.pipelines.replay import _binlog_scan_schema

    f1, f2 = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(pa.table({"seq": pa.array([1], pa.int64()),
                             "v": pa.array(["x"], pa.string())}), f1)
    pq.write_table(pa.table({"seq": pa.array([2], pa.int64()),
                             "v": pa.array([3.5], pa.float64())}), f2)
    import pytest

    with pytest.raises(ValueError, match="TYPE"):
        _binlog_scan_schema([f1, f2])
    # additive column + all-null leg: unified, real type wins
    f3 = str(tmp_path / "c.parquet")
    pq.write_table(pa.table({"seq": pa.array([3], pa.int64()),
                             "v": pa.array(["y"], pa.string()),
                             "extra": pa.array([7], pa.int64())}), f3)
    sch = _binlog_scan_schema([f1, f3])
    assert sch.field("extra").type == pa.int64() and len(sch) == 3


def test_safe_widen_lattice():
    import pyarrow as pa

    from etl_reconciliate_ray.stages.merge import _safe_widen

    assert _safe_widen(pa.int32(), pa.int64()) == pa.int64()
    assert _safe_widen(pa.int64(), pa.int8()) == pa.int64()
    assert _safe_widen(pa.uint16(), pa.uint32()) == pa.uint32()
    assert _safe_widen(pa.float32(), pa.float64()) == pa.float64()
    assert _safe_widen(pa.string(), pa.large_string()) == pa.large_string()
    assert _safe_widen(pa.binary(), pa.large_binary()) == pa.large_binary()
    assert _safe_widen(pa.decimal128(10, 2), pa.decimal128(20, 2)) == pa.decimal128(20, 2)
    # lossy corners stay refused
    assert _safe_widen(pa.int32(), pa.uint32()) is None
    assert _safe_widen(pa.int64(), pa.float64()) is None
    assert _safe_widen(pa.string(), pa.int64()) is None
    assert _safe_widen(pa.decimal128(10, 2), pa.decimal128(10, 4)) is None
    assert _safe_widen(pa.timestamp("us"), pa.timestamp("ms")) is None


def test_one_schema_evolution_rule():
    """One schema-evolution rule: no package function but
    ``stages.merge.evolve_type`` calls ``_safe_widen``; only the binlog
    scan and the lake's one type fold (``replay._fold_types``, behind
    ``_payload_schema``, ``lake_schema_history`` and the commit check)
    call ``evolve_type``; and no package code outside
    ``functions/hashing.py`` (whose bucket hash wraps uint64 on
    purpose) casts with ``safe=False``. Nested functions are reported
    under their top-level function."""
    import ast
    import glob

    import etl_reconciliate_ray

    callers = {
        "_safe_widen": {("stages/merge.py", "evolve_type")},
        "evolve_type": {("pipelines/replay.py", "_binlog_footers"),
                        ("pipelines/replay.py", "_fold_types")},
    }
    pkg = os.path.dirname(etl_reconciliate_ray.__file__)
    found = []
    for f in sorted(glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True)):
        rel = os.path.relpath(f, pkg)
        with open(f) as fh:
            tree = ast.parse(fh.read())
        tops = [n for n in tree.body if isinstance(n, ast.ClassDef)]
        for fn in tree.body + [m for c in tops for m in c.body]:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in callers and (rel, fn.name) not in callers[name]:
                    found.append(f"{rel}:{fn.name}: {name}")
                if rel != "functions/hashing.py" and any(
                    k.arg == "safe" and isinstance(k.value, ast.Constant) and k.value.value is False
                    for k in node.keywords
                ):
                    found.append(f"{rel}:{fn.name}: safe=False")
    assert not found, found


def test_schema_evolution_type_widening_replay(tmp_path, ray_session):
    """A column whose type WIDENS mid-stream (int32 -> int64, the
    Debezium ALTER COLUMN BIGINT case) replays losslessly: the unified
    scan schema takes the wider type, narrower fragments cast up, and
    pipelined == sequential state with post-widening values that
    genuinely need 64 bits."""
    import os

    import pyarrow as pa

    from etl_reconciliate_ray.pipelines.replay import ReplayConfig, replay_stream

    binlog = str(tmp_path / "binlog_widen")
    os.makedirs(binlog)
    big = 5_000_000_000  # > int32
    pq.write_table(pa.table({
        "seq": pa.array([1, 2], pa.int64()),
        "op": pa.array(["I", "I"]),
        "repo": pa.array(["r", "r"]),
        "path": pa.array(["a", "b"]),
        "content": pa.array(["x", "y"]),
        "size": pa.array([10, 20], pa.int32()),
    }), os.path.join(binlog, "epoch=00000.parquet"))
    pq.write_table(pa.table({
        "seq": pa.array([3, 4], pa.int64()),
        "op": pa.array(["U", "I"]),
        "repo": pa.array(["r", "r"]),
        "path": pa.array(["a", "c"]),
        "content": pa.array(["x2", "z"]),
        "size": pa.array([big, big + 1], pa.int64()),
    }), os.path.join(binlog, "epoch=00001.parquet"))

    states = {}
    for name, pipeline in (("seq", 1), ("pipe", 8)):
        cfg = ReplayConfig(
            lake_root=str(tmp_path / f"lake_widen_{name}"),
            num_buckets=4, pipeline_epochs=pipeline,
        )
        replay_stream(binlog, cfg)
        t = lake_table(cfg.lake_root)
        states[name] = {
            r["path"]: (r["content"], r["size"]) for r in t.to_pylist()
        }
        assert t.schema.field("size").type == pa.int64()
    want = {"a": ("x2", big), "b": ("y", 20), "c": ("z", big + 1)}
    assert states["seq"] == want and states["pipe"] == want


def _epoch_binlog(binlog, *columns) -> None:
    """One binlog epoch file per Arrow array of two values in
    ``columns``, its ``v`` column: epoch ``e`` upserts key ``a`` and
    inserts key ``b<e>``."""
    import pyarrow as pa

    os.makedirs(binlog)
    for e, v in enumerate(columns):
        pq.write_table(pa.table({
            "seq": pa.array([2 * e + 1, 2 * e + 2], pa.int64()),
            "op": pa.array(["I" if e == 0 else "U", "I"]), "repo": pa.array(["r", "r"]),
            "path": pa.array(["a", f"b{e}"]), "content": pa.array([f"x{e}", f"y{e}"]), "v": v,
        }), os.path.join(binlog, f"epoch={e:05d}.parquet"))


def test_lossy_type_change_refused_whatever_the_window(tmp_path, ray_session):
    """An int64 column holding 2^53+1 that turns float64 in the next
    epoch file is refused at every window size: by the scan schema when
    the two files share a window, by the commit check on the window's
    pieces when they do not. The lake stays readable, with no float
    copy of the column sealed."""
    import pyarrow as pa

    from etl_reconciliate_ray.pipelines.replay import lake_lookup, replay_stream

    big = 2**53 + 1
    binlog = str(tmp_path / "binlog")
    _epoch_binlog(binlog, pa.array([big, 7], pa.int64()), pa.array([0.5, 1.5], pa.float64()))
    for pipeline in (1, 2, 4):
        cfg = ReplayConfig(lake_root=str(tmp_path / f"lake{pipeline}"), num_buckets=4,
                           pipeline_epochs=pipeline)
        with pytest.raises(ValueError, match="TYPE"):
            replay_stream(binlog, cfg)

        log = CommitLog.open(cfg.lake_root)
        head = log.latest_sealed_epoch()
        state = {r["path"]: r["v"] for r in lake_table(cfg.lake_root).to_pylist()}
        assert state == ({} if head is None else {"a": big, "b0": 7}), pipeline
        got = [r["v"] for r in lake_lookup(cfg.lake_root, "r", "a").to_pylist()]
        assert got == ([] if head is None else [big]), pipeline
        sealed = [f for e in log.all_entries() if head is not None and e.epoch <= head
                  for f in e.files]
        assert not any(pa.types.is_floating(pq.read_schema(f).field("v").type) for f in sealed)


def test_schema_history_reports_each_widening(tmp_path, ray_session):
    """An int32 column that widens to int64 in the next epoch shows in
    the schema history at both epochs, with the type ``lake_table``
    returns last. A later all-null epoch file, whose column is typed
    null, yields to the lake's type: no history row, and the changelog
    images keep int64."""
    import pyarrow as pa

    from etl_reconciliate_ray.pipelines.replay import (
        lake_changelog, lake_schema_history, replay_stream,
    )

    binlog = str(tmp_path / "binlog")
    _epoch_binlog(binlog, pa.array([1, 2], pa.int32()), pa.array([5_000_000_000, 3], pa.int64()),
                  pa.nulls(2))
    root = str(tmp_path / "lake")
    replay_stream(binlog, ReplayConfig(lake_root=root, num_buckets=4))
    hist = [r for r in lake_schema_history(root).to_pylist() if r["column"] == "v"]
    assert [(r["epoch"], r["dtype"]) for r in hist] == [(1, "int32"), (2, "int64")]
    assert lake_table(root).schema.field("v").type == pa.int64()
    feed = lake_changelog(root, None, image_cols="all")
    sch = feed.schema()
    assert dict(zip(sch.names, sch.types))["v_new"] == pa.int64()
    assert {r["path"]: r["v_new"] for r in feed.take_all()} == {
        "a": None, "b0": 2, "b1": 3, "b2": None}


def test_kill_restart_converges(fixture_small, tmp_path):
    fixture_dir, cfg_gen, manifest = fixture_small
    cfg_a = _cfg(tmp_path, "lake_uninterrupted", manifest)
    replay(fixture_dir, cfg_a)

    cfg_b = _cfg(tmp_path, "lake_interrupted", manifest)
    replay(fixture_dir, cfg_b, stop_after_epoch=2)  # "kill" mid-stream
    log = CommitLog.open(cfg_b.lake_root)
    assert log.latest_sealed_epoch() == 2
    metrics = replay(fixture_dir, cfg_b)  # restart: resumes from commit log
    assert [m["skipped"] for m in metrics][:3] == [True, True, True]
    assert lake_state_hash(cfg_a.lake_root) == lake_state_hash(cfg_b.lake_root)


def test_redelivered_epoch_is_noop(fixture_small, tmp_path):
    import json
    import ray.data as rd

    from etl_reconciliate_ray.pipelines.replay import run_epoch

    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_redeliver", manifest)
    replay(fixture_dir, cfg)
    before = lake_state_hash(cfg.lake_root)
    log = CommitLog.open(cfg.lake_root)
    with open(f"{fixture_dir}/fixture.json") as fh:
        ep1 = json.load(fh)["epochs"][1]
    m = run_epoch(rd.read_parquet(ep1["file"]), ep1["epoch"] + 1, cfg, log=log)
    assert m["skipped"] is True
    assert lake_state_hash(cfg.lake_root) == before


def test_lineage_manifest_written(fixture_small, tmp_path):
    import json
    import os

    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_lineage", manifest)
    replay(fixture_dir, cfg)
    with open(os.path.join(cfg.lake_root, "lineage.json")) as fh:
        lineage = json.load(fh)
    assert lineage["partitions"], "per-partition lineage entries present"
    entry = lineage["partitions"][0]
    assert {"epoch", "part", "rows", "files", "state_sha256", "input_seq"} <= set(entry)


def test_lineage_is_published_fsynced(fixture_small, tmp_path, renames):
    """Each ``lineage.json`` a two-epoch replay publishes is renamed
    into place after its bytes were fsynced, as the commit log's own
    files are: a host crash leaves the old manifest or the new one."""
    fixture_dir, _, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_lineage_fsync", manifest)
    replay(fixture_dir, cfg, stop_after_epoch=1)
    lineage = os.path.join(cfg.lake_root, "lineage.json")
    synced = [ok for path, ok in renames if path == lineage]
    assert len(synced) == 2 and all(synced), renames


def test_pipelined_delta_replay_matches_sequential(fixture_small, tmp_path):
    """pipeline_epochs>1 runs a window of epochs per Dataset execution;
    final state must be sha-identical to one epoch per execution."""
    fixture_dir, cfg_gen, manifest = fixture_small
    cfg_seq = _cfg(tmp_path, "lake_seq", manifest)
    replay(fixture_dir, cfg_seq)

    cfg_pipe = _cfg(tmp_path, "lake_pipe", manifest)
    cfg_pipe.pipeline_epochs = 4
    metrics = replay(fixture_dir, cfg_pipe)
    assert all(not m["skipped"] for m in metrics)
    assert all(m["mode"] == "delta" for m in metrics if m["epoch"] > 0)
    assert lake_state_hash(cfg_seq.lake_root) == lake_state_hash(cfg_pipe.lake_root)
    # seals are ordered and complete
    log = CommitLog.open(cfg_pipe.lake_root)
    n_epochs = len(manifest["epochs"])
    assert log.latest_sealed_epoch() == n_epochs


def test_compact_collapses_chains_preserving_state(fixture_small, tmp_path):
    from etl_reconciliate_ray.pipelines.replay import compact

    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_compact", manifest)
    cfg.pipeline_epochs = 4  # all-delta epochs -> chains of length > 1
    replay(fixture_dir, cfg)
    log = CommitLog.open(cfg.lake_root)
    assert any(len(c) > 1 for c in log.part_chains().values()), "deltas exist pre-compact"
    before = lake_state_hash(cfg.lake_root)

    m = compact(cfg)
    assert not m["skipped"] and m["compacted"] > 0
    log = CommitLog.open(cfg.lake_root)
    chains = log.part_chains()
    assert all(len(c) == 1 and c[0].kind == "full" for c in chains.values())
    assert lake_state_hash(cfg.lake_root) == before
    # compact again: nothing to do
    assert compact(cfg)["skipped"] is True


def test_compact_target_bytes_splits_bases_preserving_state(fixture_small, tmp_path):
    """compact_target_bytes splits each rewritten base into multiple
    content-addressed pieces under ONE multi-file part entry: the data
    model (PartEntry.files tuple) and every reader are unchanged, the
    state sha is identical, and vacuum keeps all referenced pieces —
    the 100 TB answer to multi-TB single-file bases."""
    from etl_reconciliate_ray.pipelines.replay import compact, lake_table, vacuum

    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_split", manifest)
    cfg.pipeline_epochs = 4
    replay(fixture_dir, cfg)
    before = lake_state_hash(cfg.lake_root)
    rows_before = lake_table(cfg.lake_root).num_rows

    cfg.compact_target_bytes = 4096  # tiny: force several pieces per bucket
    m = compact(cfg)
    assert not m["skipped"]
    log = CommitLog.open(cfg.lake_root)
    chains = log.part_chains()
    assert all(len(c) == 1 and c[0].kind == "full" for c in chains.values())
    multi = [c[0] for c in chains.values() if len(c[0].files) > 1]
    assert multi, "tiny target must split at least one bucket's base"
    # sorted compaction: pieces carry tight DISJOINT key ranges, the
    # precondition for parquet-stats pruning of keyed lookups
    for entry in multi:
        ranges = []
        for f in entry.files:
            t = pq.read_table(f, columns=["repo", "path"])
            if t.num_rows:
                keys = sorted(zip(t["repo"].to_pylist(), t["path"].to_pylist()))
                ranges.append((keys[0], keys[-1]))
        ranges.sort()
        for (lo1, hi1), (lo2, _) in zip(ranges, ranges[1:]):
            assert hi1 <= lo2, "piece key ranges must be disjoint and ordered"
    assert lake_state_hash(cfg.lake_root) == before
    assert lake_table(cfg.lake_root).num_rows == rows_before
    # vacuum must keep every referenced piece and reads stay exact
    vacuum(cfg)
    assert lake_state_hash(cfg.lake_root) == before
    assert compact(cfg)["skipped"] is True


def test_delta_chain_kinds_and_resume_pipelined(fixture_small, tmp_path):
    """Every epoch writes deltas under the threshold; a pipelined run
    killed mid-stream resumes to the converged state."""
    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_kinds", manifest)
    replay(fixture_dir, cfg)
    log = CommitLog.open(cfg.lake_root)
    kinds = {e: entry.kind for (e, _), entry in log._entries.items()}
    assert kinds[0] == "delta"  # bootstrap: the chain's first link
    assert any(k == "delta" for e, k in kinds.items() if e > 0)

    cfg_b = _cfg(tmp_path, "lake_kinds_resume", manifest)
    cfg_b.pipeline_epochs = 3
    replay(fixture_dir, cfg_b, stop_after_epoch=2)
    replay(fixture_dir, cfg_b)  # restart
    assert lake_state_hash(cfg.lake_root) == lake_state_hash(cfg_b.lake_root)


def test_lake_dataset_resolves_deltas_distributed(fixture_small, tmp_path):
    from etl_reconciliate_ray.pipelines.replay import lake_dataset

    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_dsresolve", manifest)
    cfg.pipeline_epochs = 4
    replay(fixture_dir, cfg)
    ds = lake_dataset(cfg.lake_root, columns=["repo", "path", "content_sha256"])
    got = ds.to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    want = _oracle_final(fixture_dir)
    assert len(got) == manifest["final_rows"]
    want_sha = want["content"].map(lambda s: hashlib.sha256(s.encode()).hexdigest())
    assert (got["content_sha256"].values == want_sha.values).all()


@pytest.mark.parametrize("pipeline_epochs", [1, 4])
def test_auto_compaction_bounds_chain_length(fixture_small, tmp_path, pipeline_epochs):
    """A part whose chain would outgrow delta_threshold is folded into
    a full base before its window commits, one epoch at a time or
    pipelined, so no chain exceeds the threshold at ANY sealed epoch
    (not only at a window's end); state still matches the oracle."""
    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_autocompact", manifest)
    cfg.delta_threshold = 2
    cfg.pipeline_epochs = pipeline_epochs
    replay(fixture_dir, cfg)
    log = CommitLog.open(cfg.lake_root)
    for e in range(log.latest_sealed_epoch() + 1):
        at_e = log.part_chains(upto_epoch=e)
        assert all(len(c) <= 2 for c in at_e.values()), f"epoch {e}"
    chains = log.part_chains()
    assert chains and all(len(c) <= 2 for c in chains.values())
    assert any(e.kind == "full" and e.epoch > 0 for c in chains.values() for e in c)
    got = lake_table(cfg.lake_root).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    want = _oracle_final(fixture_dir)
    assert len(got) == len(want) == manifest["final_rows"]
    assert (got["content"].values == want["content"].values).all()


def test_time_travel_and_view_span_a_fold(fixture_small, tmp_path):
    """A pre-commit fold writes a base but drops no history: with the
    default snapshot_every, the retention floor stays put, every sealed
    epoch still reads as-of exactly as in a run that never folds, and a
    MaintainedView current before the fold advances across it from the
    changelog, with no re-bootstrap."""
    import pyarrow.compute as pc

    from etl_reconciliate_ray.stages.ivm import MaintainedView

    fixture_dir, cfg_gen, manifest = fixture_small
    ref = _cfg(tmp_path, "lake_nofold", manifest)
    ref.delta_threshold = 100
    replay(fixture_dir, ref)
    cfg = _cfg(tmp_path, "lake_fold", manifest)
    cfg.delta_threshold = 2  # snapshot_every stays at its default

    replay(fixture_dir, cfg, stop_after_epoch=1)
    view = MaintainedView(str(tmp_path / "view"), keys=["repo"], count_name="n")
    assert view.advance(cfg.lake_root) == 1
    m = replay(fixture_dir, cfg)
    assert sum(x.get("folded", 0) for x in m) > 0, "the run must fold for this test to bite"

    log = CommitLog.open(cfg.lake_root)
    assert log.time_travel_floor() == 0
    head = log.latest_sealed_epoch()
    for e in range(head + 1):
        got, want = lake_table(cfg.lake_root, as_of_epoch=e), lake_table(ref.lake_root, as_of_epoch=e)
        key = [("repo", "ascending"), ("path", "ascending")]
        got, want = got.sort_by(key), want.sort_by(key)
        for c in ("repo", "path", "content_sha256"):
            assert got[c].equals(want[c]), f"as-of epoch {e}, column {c}"

    assert view.advance(cfg.lake_root, on_truncated="raise") == head
    counts = pc.value_counts(lake_table(cfg.lake_root)["repo"]).to_pylist()
    want_view = {d["values"]: d["counts"] for d in counts}
    got_view = view.state().to_pandas()
    assert dict(zip(got_view["repo"], got_view["n"])) == want_view


def test_crash_after_commit_before_seal_converges(fixture_small, tmp_path):
    """Exactly-once under the worst crash window: an epoch's partition
    commits land in the log but the EPOCH_COMMIT seal never does. A
    restart must re-run that epoch idempotently (writer + log fences)
    and converge to the uninterrupted state."""
    import json
    import ray.data as rd

    from etl_reconciliate_ray.pipelines.replay import run_epoch

    fixture_dir, cfg_gen, manifest = fixture_small
    cfg_a = _cfg(tmp_path, "lake_crash_ref", manifest)
    replay(fixture_dir, cfg_a)

    cfg_b = _cfg(tmp_path, "lake_crash", manifest)
    replay(fixture_dir, cfg_b, stop_after_epoch=1)
    log = CommitLog.open(cfg_b.lake_root)
    with open(f"{fixture_dir}/fixture.json") as fh:
        ep = json.load(fh)["epochs"][1]  # engine epoch 2
    run_epoch(
        rd.read_parquet(ep["file"]), 2, cfg_b, log=log,
        input_seq=tuple(ep["seq_range"]), seal=False,  # "crash" before seal
    )
    log2 = CommitLog.open(cfg_b.lake_root)
    assert log2.latest_sealed_epoch() == 1
    assert any(e == 2 for (e, _) in log2._entries), "partial commits persisted"

    replay(fixture_dir, cfg_b)  # restart
    assert lake_state_hash(cfg_b.lake_root) == lake_state_hash(cfg_a.lake_root)


def test_crash_after_fold_commit_before_seal_converges(fixture_small, tmp_path):
    """An epoch whose commit folds a long chain crashes before its seal:
    the restarted replay re-runs it under the (epoch, part) fence and
    converges to the uninterrupted run's state."""
    import ray.data as rd

    from etl_reconciliate_ray.pipelines.replay import run_epoch

    fixture_dir, cfg_gen, manifest = fixture_small
    cfg_a = _cfg(tmp_path, "lake_fold_ref", manifest)
    cfg_a.delta_threshold = 2
    replay(fixture_dir, cfg_a)

    cfg_b = _cfg(tmp_path, "lake_fold_crash", manifest)
    cfg_b.delta_threshold = 2
    replay(fixture_dir, cfg_b, stop_after_epoch=1)  # bootstrap + 1: chains of 2
    log = CommitLog.open(cfg_b.lake_root)
    with open(f"{fixture_dir}/fixture.json") as fh:
        ep = json.load(fh)["epochs"][1]  # engine epoch 2
    m = run_epoch(
        rd.read_parquet(ep["file"]), 2, cfg_b, log=log,
        input_seq=tuple(ep["seq_range"]), seal=False,  # "crash" before seal
    )
    assert m["folded"] > 0, "epoch 2 must fold a chain for this test to bite"
    log2 = CommitLog.open(cfg_b.lake_root)
    assert log2.latest_sealed_epoch() == 1
    assert any(e.epoch == 2 and e.kind == "full" for e in log2.all_entries())

    replay(fixture_dir, cfg_b)  # restart
    assert lake_state_hash(cfg_b.lake_root) == lake_state_hash(cfg_a.lake_root)
    assert all(len(c) <= 2 for c in CommitLog.open(cfg_b.lake_root).part_chains().values())


def test_log_snapshot_bounds_history_and_preserves_state(fixture_small, tmp_path):
    import os

    from etl_reconciliate_ray.pipelines.replay import compact

    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_snap", manifest)
    cfg.pipeline_epochs = 4  # all-delta -> long chains + long log
    replay(fixture_dir, cfg)
    before = lake_state_hash(cfg.lake_root)
    pre_lines = sum(1 for _ in open(os.path.join(cfg.lake_root, "commitlog.jsonl")))

    m = compact(cfg)  # compacts chains AND snapshots the log
    assert m["log_live_entries"] > 0
    # the truncated tail carries exactly its TAIL_OPEN generation
    # marker (the fence that invalidates a crash-stale pre-snapshot
    # tail), nothing else
    tail = [json.loads(l) for l in open(os.path.join(cfg.lake_root, "commitlog.jsonl"))]
    assert [r["type"] for r in tail] == ["TAIL_OPEN"] and len(tail) < pre_lines

    log = CommitLog.open(cfg.lake_root)  # reopen from snapshot
    assert log.latest_sealed_epoch() is not None
    assert lake_state_hash(cfg.lake_root) == before
    # redelivery of an old epoch is still a no-op after snapshotting
    m2 = replay(fixture_dir, cfg)
    assert all(x.get("skipped") or x.get("mode") == "compact" for x in m2)
    assert lake_state_hash(cfg.lake_root) == before


def test_log_snapshot_cadence_bounds_parse_work_500_epochs(tmp_path):
    """A 600-epoch stream with the replay loop's snapshot cadence must
    keep CommitLog.open's parse work O(partitions), not O(total
    commits ever) — and the rolled-up log must resolve chains and
    fences identically to a never-snapshotted control log."""
    import os

    from etl_reconciliate_ray.state.commitlog import PartEntry

    parts, epochs, cadence = 8, 600, 64
    roots = {"snap": str(tmp_path / "snap"), "ctl": str(tmp_path / "ctl")}
    logs = {k: CommitLog.open(r) for k, r in roots.items()}
    for log in logs.values():
        log.ensure_layout({"num_buckets": parts, "salt": {}, "hash_impl": "t"})
    fresh = 0
    for ep in range(1, epochs + 1):
        kind = "full" if ep % 8 == 0 else "delta"  # auto-compact analogue
        for k, log in logs.items():
            log.commit_parts([
                PartEntry(epoch=ep, part=p, files=(f"e{ep}_p{p}.parquet",),
                          rows=1, state_sha256=f"s{ep}", kind=kind)
                for p in range(parts)
            ])
            log.seal_epoch(ep)
        fresh += 1
        if fresh >= cadence:  # the _replay_epoch_descs cadence
            logs["snap"].write_snapshot()
            fresh = 0

    def lines(root):
        n = 0
        for f in ("commitlog.jsonl", "commitlog.snapshot.jsonl"):
            p = os.path.join(root, f)
            if os.path.exists(p):
                n += sum(1 for _ in open(p))
        return n

    total_commits = epochs * parts  # 4800 records in the control log
    assert lines(roots["ctl"]) > total_commits
    # rolled-up: chains (<=8 per part) + <=cadence unsnapshotted epochs
    # + sealed-set/layout records — far below the full history
    assert lines(roots["snap"]) < total_commits / 4
    # reopen (the follow-poll path) resolves identical chains + fences
    re_snap, re_ctl = CommitLog.open(roots["snap"]), CommitLog.open(roots["ctl"])
    assert {p: [(e.epoch, e.kind, e.files) for e in c]
            for p, c in re_snap.part_chains().items()} == \
           {p: [(e.epoch, e.kind, e.files) for e in c]
            for p, c in re_ctl.part_chains().items()}
    assert re_snap.latest_sealed_epoch() == epochs
    # redelivery of a pre-snapshot epoch is STILL fenced iff it's in a
    # live chain; sealed epochs are always fenced at the epoch level
    assert re_snap.is_sealed(3) and re_snap.is_sealed(epochs)


def test_snapshot_cadence_replay_converges_and_survives_kill(fixture_small, tmp_path):
    """End-to-end: replay with a tight snapshot cadence equals the
    no-cadence replay sha-for-sha, a mid-stream kill resumes correctly
    across a snapshot boundary, and the tail log stays rolled up."""
    import os

    fixture_dir, cfg_gen, manifest = fixture_small
    ctl = _cfg(tmp_path, "lake_nosnap", manifest)
    ctl.snapshot_every = 0
    replay(fixture_dir, ctl)
    want = lake_state_hash(ctl.lake_root)

    cfg = _cfg(tmp_path, "lake_cadence", manifest)
    cfg.snapshot_every = 2
    replay(fixture_dir, cfg, stop_after_epoch=3)  # kill past a snapshot
    replay(fixture_dir, cfg)  # restart resumes from the rolled-up log
    assert lake_state_hash(cfg.lake_root) == want
    tail = sum(1 for _ in open(os.path.join(cfg.lake_root, "commitlog.jsonl")))
    full = sum(1 for _ in open(os.path.join(ctl.lake_root, "commitlog.jsonl")))
    assert tail < full  # history lives in the snapshot, not the tail
    # a THIRD run is a pure no-op (every epoch fenced via the snapshot)
    m3 = replay(fixture_dir, cfg)
    assert all(x.get("skipped") for x in m3)
    assert lake_state_hash(cfg.lake_root) == want


def test_replay_stream_tail_converges_to_batch(fixture_small, tmp_path):
    """Binlog-tail ingestion (no fixture.json): epoch files land
    incrementally in a watched directory; repeated replay_stream calls
    pick up only the new ones (commit-log resume) and the converged
    lake is sha256-identical to the one-shot batch replay."""
    import glob
    import os
    import shutil

    fixture_dir, cfg_gen, manifest = fixture_small

    batch_cfg = _cfg(tmp_path, "lake_batch", manifest)
    replay(fixture_dir, batch_cfg)
    want = lake_state_hash(batch_cfg.lake_root)

    from etl_reconciliate_ray.pipelines.replay import replay_stream

    tail_dir = str(tmp_path / "tail_binlog")
    os.makedirs(tail_dir)
    stream_cfg = _cfg(tmp_path, "lake_stream", manifest)
    seed = f"{fixture_dir}/lake_seed.parquet"
    epoch_files = sorted(glob.glob(f"{fixture_dir}/binlog/*.parquet"))
    ran_epochs = []
    for f in epoch_files:  # files arrive one at a time
        shutil.copy(f, os.path.join(tail_dir, os.path.basename(f)))
        metrics = replay_stream(tail_dir, stream_cfg, lake_seed=seed)
        ran = [m["epoch"] for m in metrics if not m.get("skipped")]
        ran_epochs.append(ran)
    # each call ran exactly the newly-landed epoch (earlier ones fenced)
    assert all(len(r) <= 2 for r in ran_epochs)  # bootstrap + first epoch, then 1 each
    assert lake_state_hash(stream_cfg.lake_root) == want


def test_follow_stream_eos(fixture_small, tmp_path):
    """follow_stream drains the directory and stops at the _EOS marker
    with the same converged state."""
    import glob
    import os
    import shutil

    fixture_dir, cfg_gen, manifest = fixture_small
    batch_cfg = _cfg(tmp_path, "lake_batch2", manifest)
    replay(fixture_dir, batch_cfg)
    want = lake_state_hash(batch_cfg.lake_root)

    from etl_reconciliate_ray.pipelines.replay import follow_stream

    tail_dir = str(tmp_path / "follow_binlog")
    os.makedirs(tail_dir)
    for f in sorted(glob.glob(f"{fixture_dir}/binlog/*.parquet")):
        shutil.copy(f, os.path.join(tail_dir, os.path.basename(f)))
    open(os.path.join(tail_dir, "_EOS"), "w").close()
    cfg = _cfg(tmp_path, "lake_follow", manifest)
    follow_stream(tail_dir, cfg, lake_seed=f"{fixture_dir}/lake_seed.parquet", poll_sec=0.05)
    assert lake_state_hash(cfg.lake_root) == want


def test_follow_stream_on_batch_hook_spools_feed(fixture_small, tmp_path):
    """The follow-mode on_batch hook fires once per sealed batch; wired
    to export_changelog it spools snapshot + incremental segments whose
    consumer replay equals the final lake state — the continuous CDC
    loop end to end."""
    import glob
    import os
    import shutil
    import threading

    import pandas as pd
    import pyarrow.parquet as _pq

    from etl_reconciliate_ray.pipelines.replay import export_changelog, follow_stream

    fixture_dir, cfg_gen, manifest = fixture_small
    files = sorted(glob.glob(f"{fixture_dir}/binlog/*.parquet"))
    tail_dir = str(tmp_path / "hook_binlog")
    os.makedirs(tail_dir)
    for f in files[:2]:
        shutil.copy(f, os.path.join(tail_dir, os.path.basename(f)))
    out = str(tmp_path / "hook_feed")
    calls = []
    first_batch = threading.Event()

    def on_batch(c):
        calls.append(1)
        export_changelog(c.lake_root, out)
        first_batch.set()

    def complete_later():
        # the rest lands only after the first batch is sealed and
        # spooled, so there are always two batches, however fast the
        # first one runs (the timeout only keeps a broken hook from
        # hanging the test; the assertions then fail)
        first_batch.wait(timeout=120)
        for f in files[2:]:
            shutil.copy(f, os.path.join(tail_dir, os.path.basename(f)))
        open(os.path.join(tail_dir, "_EOS"), "w").close()

    t = threading.Thread(target=complete_later)
    t.start()
    cfg = _cfg(tmp_path, "lake_hook", manifest)
    # only _EOS ends the loop: idle polls never run out before it lands
    follow_stream(tail_dir, cfg, lake_seed=f"{fixture_dir}/lake_seed.parquet",
                  poll_sec=0.05, idle_polls=10**6, on_batch=on_batch)
    t.join()
    assert len(calls) >= 2  # one per fresh batch
    segs = sorted(glob.glob(os.path.join(out, "feed", "epochs=*")))
    assert len(segs) >= 2
    assert sum("snapshot" in os.path.basename(s) for s in segs) == 1
    applied: dict[tuple, str] = {}
    # apply segments in export order: snapshot first, then deltas
    ordered = sorted(segs, key=lambda s: (0 if "snapshot" in s else 1, s))
    for seg in ordered:
        assert os.path.exists(os.path.join(seg, "_SEALED"))
        part_files = glob.glob(os.path.join(seg, "*.parquet"))
        df = pd.concat([_pq.read_table(f).to_pandas() for f in part_files])
        for r in df.itertuples():
            if r.change == "D":
                applied.pop((r.repo, r.path), None)
            else:
                applied[(r.repo, r.path)] = r.content_sha256
    final = lake_table(cfg.lake_root).to_pandas()
    assert applied == {
        (r.repo, r.path): r.content_sha256 for r in final.itertuples()
    }


def test_parquet_filter_pushdown_prunes_row_groups(tmp_path):
    """catalog.read_table(filter=...) must (a) return exactly the
    post-filter rows and (b) let the scanner PRUNE row groups via
    footer stats — evidenced by split_by_row_group on the fragment."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from etl_reconciliate_ray.sources.catalog import read_table

    sf = str(tmp_path / "sf")
    import os

    os.makedirs(sf)
    # two row groups with disjoint event_type value ranges
    t = pa.table({
        "event_id": pa.array(range(200), pa.int64()),
        "event_type": pa.array(["click"] * 100 + ["view"] * 100),
        "value": pa.array([1.0] * 200),
    })
    pq.write_table(t, f"{sf}/events.parquet", row_group_size=100)

    ds = read_table(sf, "events", columns=["event_id"],
                    filter=(pads.field("event_type") == "click"))
    got = ds.to_pandas()
    assert len(got) == 100 and got["event_id"].max() == 99

    frag = list(pads.dataset(f"{sf}/events.parquet").get_fragments())[0]
    pruned = list(frag.split_by_row_group(pads.field("event_type") == "click"))
    assert len(pruned) == 1  # of 2 row groups, stats prune one at the footer


def test_cli_binlog_dir_mode(fixture_small, tmp_path, ray_session):
    """CLI surface: --binlog-dir tail mode (no fixture.json) replays the
    copied epoch files, reconciles against --snapshot, and converges to
    the same lake state as the fixture-manifest CLI path."""
    import glob
    import os
    import shutil

    from etl_reconciliate_ray.pipelines.replay import lake_state_hash
    from etl_reconciliate_ray.run import main

    fixture_dir, cfg_gen, manifest = fixture_small

    lake_fix = str(tmp_path / "cli_lake_fix")
    main(["--fixture", fixture_dir, "--lake", lake_fix, "--num-buckets", "8"])
    want = lake_state_hash(lake_fix)

    tail_dir = str(tmp_path / "cli_tail")
    os.makedirs(tail_dir)
    for f in sorted(glob.glob(f"{fixture_dir}/binlog/*.parquet")):
        shutil.copy(f, os.path.join(tail_dir, os.path.basename(f)))
    lake_tail = str(tmp_path / "cli_lake_tail")
    summary = main([
        "--binlog-dir", tail_dir, "--lake", lake_tail, "--num-buckets", "8",
        "--lake-seed", f"{fixture_dir}/lake_seed.parquet",
    ])
    assert summary["reconciled"] is False and summary["epochs"] >= 1
    # NOTE: the fixture path applies per-repo salting from the manifest;
    # tail mode has no manifest, so compare states only when unsalted
    if not manifest.get("salt_hot_repos"):
        assert lake_state_hash(lake_tail) == want
    else:
        from etl_reconciliate_ray.pipelines.replay import lake_table

        assert lake_table(lake_tail).num_rows == manifest["final_rows"]


def view_of_state(state):
    """Recompute oracle for the CLI's per-repo view: files and content
    bytes per repo aggregated directly from a resolved lake state."""
    import pyarrow as pa
    import pyarrow.compute as pc

    t = pa.table({
        "repo": state["repo"],
        "b": pc.fill_null(pc.cast(pc.binary_length(state["content"]), pa.int64()), 0),
    })
    red = t.group_by(["repo"], use_threads=False).aggregate([("b", "count"), ("b", "sum")])
    return pa.table({
        "repo": red["repo"],
        "n_files": red["b_count"],
        "content_bytes": red["b_sum"],
    }).sort_by("repo")


def _repo_view_table(view):
    """A maintained view's state as a repo-sorted table, in the
    oracle's column order and types."""
    import pyarrow as pa

    df = view.state().to_pandas().sort_values("repo")
    return pa.table({
        "repo": pa.array(df["repo"].tolist(), pa.string()),
        "n_files": pa.array(df["n_files"].tolist(), pa.int64()),
        "content_bytes": pa.array(df["content_bytes"].tolist(), pa.int64()),
    })


def test_incremental_view_equals_recompute(fixture_small, tmp_path):
    """The CLI's per-repo view, bootstrapped at epoch 1 and then
    advanced epoch by epoch from the lake's changelog (tombstones
    included), equals the recompute oracle at every sealed epoch;
    re-running the advance is a no-op with the identical result."""
    from etl_reconciliate_ray.pipelines.replay import CommitLog, lake_table
    from etl_reconciliate_ray.run import repo_view

    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_view", manifest)
    view = repo_view(cfg.lake_root)
    replay(fixture_dir, cfg, stop_after_epoch=1)
    assert view.advance(cfg.lake_root) == 1  # bootstrap
    head = len(manifest["epochs"])
    for epoch in range(2, head + 1):
        replay(fixture_dir, cfg, stop_after_epoch=epoch)
        assert view.advance(cfg.lake_root) == epoch
        got = _repo_view_table(view)
        want = view_of_state(lake_table(cfg.lake_root))
        assert got.equals(want), (epoch, got.num_rows, want.num_rows)
    assert CommitLog.open(cfg.lake_root).latest_sealed_epoch() == head
    assert view.advance(cfg.lake_root) == head  # rerun: no-op
    assert _repo_view_table(view).equals(want)


def test_incremental_view_resumes_after_partial_loss(fixture_small, tmp_path, monkeypatch):
    """A crash inside the publish, after the new state is written and
    before the ``_CURRENT`` pointer moves, leaves the old state current;
    the next advance rebuilds the same epoch and equals the oracle."""
    import os

    from etl_reconciliate_ray.pipelines.replay import lake_table
    from etl_reconciliate_ray.run import repo_view

    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_view2", manifest)
    view = repo_view(cfg.lake_root)
    replay(fixture_dir, cfg, stop_after_epoch=2)
    assert view.advance(cfg.lake_root) == 2
    replay(fixture_dir, cfg)
    want = view_of_state(lake_table(cfg.lake_root))

    real_replace = os.replace

    def crash_on_pointer(src, dst):
        if str(dst).endswith("_CURRENT"):
            raise OSError("simulated crash before the pointer publish")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", crash_on_pointer)
    with pytest.raises(OSError, match="simulated crash"):
        view.advance(cfg.lake_root)
    monkeypatch.undo()
    head = len(manifest["epochs"])
    assert view.current_epoch() == 2
    assert os.path.isdir(os.path.join(view.view_root, f"epoch={head:05d}"))
    assert view.advance(cfg.lake_root) == head
    assert _repo_view_table(view).equals(want)


def test_fuzz_replay_matches_oracle(ray_session, tmp_path):
    """Property fuzz: ARBITRARY small CDC streams (random keys, I/U/D
    ops, random epoch splits, key collisions guaranteed by a tiny key
    pool) replayed through the real engine equal the independent
    pure-pandas LWW oracle."""
    import shutil as _sh

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    from etl_reconciliate_ray.datagen import oracle_replay
    from etl_reconciliate_ray.pipelines.replay import (
        ReplayConfig, lake_table, replay_stream,
    )

    KEYS = [("r%d" % (i % 3), "p%d" % i) for i in range(8)]  # collisions likely

    events_st = st.lists(
        st.tuples(
            st.integers(0, len(KEYS) - 1),            # key
            st.sampled_from(["I", "U", "D"]),         # op
            st.text(alphabet="abcxyz", min_size=0, max_size=6),  # content
        ),
        min_size=1, max_size=40,
    )

    case_n = [0]

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(events=events_st, n_epochs=st.integers(1, 3), seed_keys=st.sets(
        st.integers(0, len(KEYS) - 1), max_size=4))
    def run_case(events, n_epochs, seed_keys):
        case_n[0] += 1
        root = tmp_path / f"fuzz{case_n[0]}"
        _sh.rmtree(root, ignore_errors=True)
        (root / "binlog").mkdir(parents=True)

        lake = pd.DataFrame({
            "repo": [KEYS[i][0] for i in sorted(seed_keys)],
            "path": [KEYS[i][1] for i in sorted(seed_keys)],
            "commit": ["c0"] * len(seed_keys),
            "lang": ["py"] * len(seed_keys),
            "content": [f"seed{i}" for i in sorted(seed_keys)],
        })
        pq.write_table(pa.Table.from_pandas(lake, preserve_index=False),
                       str(root / "lake_seed.parquet"))

        binlog = pd.DataFrame({
            "seq": range(len(events)),
            "op": [op for _, op, _ in events],
            "repo": [KEYS[k][0] for k, _, _ in events],
            "path": [KEYS[k][1] for k, _, _ in events],
            "commit": [f"c{s}" for s in range(len(events))],
            "lang": ["py"] * len(events),
            "content": [c if op != "D" else None for _, op, c in events],
        })
        per = max(1, -(-len(binlog) // n_epochs))
        for e in range(n_epochs):
            chunk = binlog.iloc[e * per:(e + 1) * per]
            if len(chunk) == 0:
                continue
            pq.write_table(pa.Table.from_pandas(chunk, preserve_index=False),
                           str(root / "binlog" / f"epoch={e:05d}.parquet"))

        cfg = ReplayConfig(lake_root=str(root / "lake"), num_buckets=4,
                           read_parallelism=2, pipeline_epochs=2)
        replay_stream(str(root / "binlog"), cfg,
                      lake_seed=str(root / "lake_seed.parquet"))

        got_t = lake_table(cfg.lake_root)
        cols = ["repo", "path", "content"]
        got = (got_t.select(cols).to_pandas() if got_t.num_rows else
               pd.DataFrame(columns=cols))
        want = oracle_replay(lake, binlog)[cols]
        got = got.sort_values(cols).reset_index(drop=True).astype(object)
        want = want.sort_values(cols).reset_index(drop=True).astype(object)
        pd.testing.assert_frame_equal(got, want)
        _sh.rmtree(root, ignore_errors=True)

    run_case()


def test_incremental_view_survives_compaction(fixture_small, tmp_path):
    """Compaction truncates chain history; advancing the view across it
    must NOT double-count (below the retention floor the view
    re-bootstraps from the compacted lake)."""
    from etl_reconciliate_ray.pipelines.replay import compact, lake_table
    from etl_reconciliate_ray.run import repo_view

    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_view3", manifest)
    replay(fixture_dir, cfg)
    view = repo_view(cfg.lake_root)
    view.advance(cfg.lake_root)             # view maintained pre-compaction
    compact(cfg)                            # truncates every chain to [full@N+1]
    view.advance(cfg.lake_root)             # must rebuild, not double-count
    got = _repo_view_table(view)
    want = view_of_state(lake_table(cfg.lake_root))
    assert got.equals(want), (got.num_rows, want.num_rows)


@pytest.mark.parametrize("mode", ["fixture", "follow"])
def test_cli_view_matches_recompute(fixture_small, tmp_path, ray_session, mode):
    """``run.py --view``, one-shot over a fixture and ``--follow`` over a
    binlog dir (the view advances in the per-batch hook): ``view_repos``
    equals the oracle's repo count, and ``<lake>/view`` holds one
    published state. The one-shot lake starts with an old-layout
    ``view/epoch=00000/_DONE`` directory, which bootstrap replaces."""
    import glob
    import os
    import shutil

    import pyarrow as pa

    from etl_reconciliate_ray.pipelines.replay import lake_table
    from etl_reconciliate_ray.run import main

    fixture_dir, cfg_gen, manifest = fixture_small
    lake = str(tmp_path / "lake")
    if mode == "fixture":
        old = os.path.join(lake, "view", "epoch=00000")
        os.makedirs(old)
        pq.write_table(pa.table({"repo": ["junk"], "n_files": [99], "content_bytes": [99]}),
                       os.path.join(old, "view.parquet"))
        open(os.path.join(old, "_DONE"), "w").close()
        summary = main(["--fixture", fixture_dir, "--lake", lake,
                        "--num-buckets", "8", "--view"])
    else:
        tail = str(tmp_path / "tail")
        os.makedirs(tail)
        for f in sorted(glob.glob(f"{fixture_dir}/binlog/*.parquet")):
            shutil.copy(f, tail)
        open(os.path.join(tail, "_EOS"), "w").close()
        summary = main(["--binlog-dir", tail, "--lake", lake, "--num-buckets", "8",
                        "--lake-seed", f"{fixture_dir}/lake_seed.parquet",
                        "--follow", "--view"])
    assert summary["view_repos"] == view_of_state(lake_table(lake)).num_rows > 0
    entries = sorted(os.listdir(os.path.join(lake, "view")))
    assert entries[0] == "_CURRENT" and len(entries) == 2
    assert entries[1].startswith("epoch=") and "junk" not in str(
        pq.read_table(os.path.join(lake, "view", entries[1])).to_pydict()
    )


def test_replay_stream_refuses_unreadable_file(fixture_small, tmp_path):
    """One-shot replay must FAIL LOUDLY on an unreadable binlog file —
    silently skipping would seal the stream with a missing epoch and
    fence its events out forever."""
    import glob
    import os
    import shutil

    import pytest as _pytest

    from etl_reconciliate_ray.pipelines.replay import replay_stream

    fixture_dir, cfg_gen, manifest = fixture_small
    tail_dir = str(tmp_path / "bad_binlog")
    os.makedirs(tail_dir)
    files = sorted(glob.glob(f"{fixture_dir}/binlog/*.parquet"))
    shutil.copy(files[0], os.path.join(tail_dir, os.path.basename(files[0])))
    with open(os.path.join(tail_dir, "zz-partial.parquet"), "wb") as fh:
        fh.write(b"PAR1corrupt")  # no footer
    cfg = _cfg(tmp_path, "lake_bad", manifest)
    with _pytest.raises(ValueError, match="unreadable binlog file"):
        replay_stream(tail_dir, cfg, lake_seed=f"{fixture_dir}/lake_seed.parquet")


def test_follow_stream_prefix_cut_then_retry(fixture_small, tmp_path):
    """Follow mode: a trailing mid-copy file cuts discovery at the
    prefix; once completed, the next poll picks it up and the converged
    state equals the batch replay."""
    import glob
    import os
    import shutil
    import threading
    import time as _time

    from etl_reconciliate_ray.pipelines.replay import follow_stream, replay

    fixture_dir, cfg_gen, manifest = fixture_small
    batch_cfg = _cfg(tmp_path, "lake_batch3", manifest)
    replay(fixture_dir, batch_cfg)
    want = lake_state_hash(batch_cfg.lake_root)

    tail_dir = str(tmp_path / "cut_binlog")
    os.makedirs(tail_dir)
    files = sorted(glob.glob(f"{fixture_dir}/binlog/*.parquet"))
    for f in files[:-1]:
        shutil.copy(f, os.path.join(tail_dir, os.path.basename(f)))
    last = os.path.join(tail_dir, os.path.basename(files[-1]))
    with open(last, "wb") as fh:
        fh.write(b"PAR1not-a-footer")  # mid-copy: unreadable

    def complete_later():
        _time.sleep(1.0)
        shutil.copy(files[-1], last + ".tmp")
        os.replace(last + ".tmp", last)  # atomic publish of the real file
        open(os.path.join(tail_dir, "_EOS"), "w").close()

    t = threading.Thread(target=complete_later)
    t.start()
    cfg = _cfg(tmp_path, "lake_cut", manifest)
    follow_stream(tail_dir, cfg, lake_seed=f"{fixture_dir}/lake_seed.parquet",
                  poll_sec=0.2, idle_polls=50)
    t.join()
    assert lake_state_hash(cfg.lake_root) == want


def test_time_travel_as_of_matches_truncated_replay(fixture_small, tmp_path):
    """lake_table(as_of_epoch=k) must equal an independent replay that
    STOPPED after epoch k; beyond-head and below-retention-floor reads
    are refused loudly."""
    import pytest

    from etl_reconciliate_ray.pipelines.replay import compact

    fixture_dir, cfg_gen, manifest = fixture_small
    full = _cfg(tmp_path, "lake_full", manifest)
    replay(fixture_dir, full)
    sealed = CommitLog.open(full.lake_root).latest_sealed_epoch()
    k = sealed - 2
    part = _cfg(tmp_path, "lake_part", manifest)
    replay(fixture_dir, part, stop_after_epoch=k)

    def state_sig(tbl):
        df = tbl.to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
        return list(zip(df["repo"], df["path"], df["content_sha256"]))

    assert state_sig(lake_table(full, as_of_epoch=k)) == state_sig(lake_table(part))
    with pytest.raises(ValueError, match="sealed head"):
        lake_table(full, as_of_epoch=sealed + 1)
    # compaction + snapshot truncate history -> pre-floor reads refused
    compact(full)
    log = CommitLog.open(full.lake_root)
    floor = log.time_travel_floor()
    if floor > 0:
        with pytest.raises(ValueError, match="retention floor"):
            lake_table(full, as_of_epoch=floor - 1)


def test_changelog_between_epochs_matches_state_diff(fixture_small, tmp_path):
    """lake_changelog(from, to) must equal the I/U/D diff of the two
    time-travel states, computed independently here from the full
    tables."""
    import pandas as pd

    from etl_reconciliate_ray.pipelines.replay import lake_changelog

    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_cl", manifest)
    replay(fixture_dir, cfg)
    sealed = CommitLog.open(cfg.lake_root).latest_sealed_epoch()
    frm = sealed - 2

    a = lake_table(cfg, as_of_epoch=frm).to_pandas()[
        ["repo", "path", "content_sha256"]]
    b = lake_table(cfg, as_of_epoch=sealed).to_pandas()[
        ["repo", "path", "content_sha256"]]
    m = a.merge(b, on=["repo", "path"], how="outer", suffixes=("_a", "_b"),
                indicator=True)
    want = set()
    for _, r in m.iterrows():
        if r["_merge"] == "right_only":
            want.add((r["repo"], r["path"], "I", r["content_sha256_b"]))
        elif r["_merge"] == "left_only":
            want.add((r["repo"], r["path"], "D", r["content_sha256_a"]))
        elif r["content_sha256_a"] != r["content_sha256_b"]:
            want.add((r["repo"], r["path"], "U", r["content_sha256_b"]))

    got_df = lake_changelog(cfg, from_epoch=frm, to_epoch=sealed).to_pandas()
    got = set(zip(got_df["repo"], got_df["path"], got_df["change"],
                  got_df["content_sha256"]))
    assert got == want
    assert len(want) > 0  # the fixture's tail epochs actually change keys
    # from == to -> empty feed
    assert lake_changelog(cfg, from_epoch=sealed, to_epoch=sealed).count() == 0


def test_export_changelog_spool_exactly_once(fixture_small, tmp_path, ray_session):
    """export_changelog: snapshot bootstrap, incremental segments,
    crash-idempotent publish, and a consumer applying snapshot + deltas
    reconstructs the final lake state exactly."""
    import glob
    import os
    import shutil

    import pandas as pd
    import pyarrow.parquet as _pq

    from etl_reconciliate_ray.pipelines.replay import (
        ReplayConfig,
        export_changelog,
        replay_stream,
    )

    fixture_dir, cfg_gen, manifest = fixture_small
    files = sorted(glob.glob(f"{fixture_dir}/binlog/*.parquet"))
    assert len(files) >= 4
    tail = str(tmp_path / "spool_tail")
    os.makedirs(tail)
    for f in files[:2]:
        shutil.copy(f, os.path.join(tail, os.path.basename(f)))
    cfg = ReplayConfig(lake_root=str(tmp_path / "spool_lake"), num_buckets=8)
    replay_stream(tail, cfg, lake_seed=f"{fixture_dir}/lake_seed.parquet")
    out = str(tmp_path / "spool_out")

    m1 = export_changelog(cfg.lake_root, out)
    assert not m1["skipped"] and m1["snapshot"]
    assert os.path.exists(os.path.join(m1["segment"], "_SEALED"))
    snap = pd.concat([
        _pq.read_table(f).to_pandas()
        for f in glob.glob(os.path.join(m1["segment"], "*.parquet"))
    ])
    state_a = lake_table(cfg.lake_root).to_pandas()
    assert (snap["change"] == "I").all()
    assert set(zip(snap.repo, snap.path, snap.content_sha256)) == set(
        zip(state_a.repo, state_a.path, state_a.content_sha256)
    )
    # nothing new -> no-op, cursor stable
    assert export_changelog(cfg.lake_root, out)["skipped"]

    for f in files[2:]:
        shutil.copy(f, os.path.join(tail, os.path.basename(f)))
    replay_stream(tail, cfg, lake_seed=f"{fixture_dir}/lake_seed.parquet")
    # crash sim: a leftover unsealed attempt of the upcoming segment
    # must be rebuilt in place, not double-published
    from etl_reconciliate_ray.state.commitlog import CommitLog as _CL

    head = _CL.open(cfg.lake_root).latest_sealed_epoch()
    stale = os.path.join(out, "feed", f"epochs={m1['to_epoch']:05d}-{head:05d}")
    os.makedirs(stale)
    with open(os.path.join(stale, "junk.parquet"), "w") as fh:
        fh.write("not parquet")
    m2 = export_changelog(cfg.lake_root, out)
    assert not m2["skipped"] and not m2["snapshot"] and m2["segment"] == stale
    assert not os.path.exists(os.path.join(stale, "junk.parquet"))
    assert os.path.exists(os.path.join(stale, "_SEALED"))

    # consumer replay: snapshot + delta segments == final lake state
    applied: dict[tuple, str] = {
        (r.repo, r.path): r.content_sha256 for r in snap.itertuples()
    }
    delta = pd.concat([
        _pq.read_table(f).to_pandas()
        for f in glob.glob(os.path.join(m2["segment"], "*.parquet"))
    ])
    assert len(delta) > 0
    for r in delta.itertuples():
        if r.change == "D":
            applied.pop((r.repo, r.path), None)
        else:
            applied[(r.repo, r.path)] = r.content_sha256
    final = lake_table(cfg.lake_root).to_pandas()
    assert applied == {
        (r.repo, r.path): r.content_sha256 for r in final.itertuples()
    }
    # a third export with no new epochs: no-op again
    assert export_changelog(cfg.lake_root, out)["skipped"]


def test_changelog_refuses_inverted_bounds(fixture_small, tmp_path):
    import pytest

    from etl_reconciliate_ray.pipelines.replay import lake_changelog

    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_inv", manifest)
    replay(fixture_dir, cfg)
    sealed = CommitLog.open(cfg.lake_root).latest_sealed_epoch()
    with pytest.raises(ValueError, match="must be <="):
        lake_changelog(cfg, from_epoch=sealed, to_epoch=sealed - 2)


def test_time_travel_floor_is_per_part_aware(tmp_path):
    """The retention floor must be the MAX retained base epoch over
    parts, not a global min: after snapshot truncation with one part
    based at 0 and another compacted later, an as-of between the two
    bases would silently omit the later-based part — it must be
    refused."""
    import pytest

    from etl_reconciliate_ray.state.commitlog import CommitLog, PartEntry

    root = str(tmp_path / "lake_floor")
    log = CommitLog.open(root)
    # part 0: full@0 only; part 1: full@0 then compacted full@3
    for ep, part, kind in [(0, 0, "full"), (0, 1, "full"), (1, 1, "delta"),
                           (2, 1, "delta"), (3, 1, "full")]:
        log.commit_part(PartEntry(epoch=ep, part=part, files=(f"f{ep}_{part}",),
                                  rows=1, state_sha256="s", kind=kind))
        log.seal_epoch(ep) if part == 1 or ep == 0 else None
    for ep in range(4):
        if not log.is_sealed(ep):
            log.seal_epoch(ep)
    log.write_snapshot()  # drops part 1's pre-3 history
    assert log.time_travel_floor() == 3
    # reopened log sees the persisted floor
    log2 = CommitLog.open(root)
    assert log2.time_travel_floor() == 3
    from etl_reconciliate_ray.pipelines.replay import _as_of_upto

    with pytest.raises(ValueError, match="retention floor"):
        _as_of_upto(log2, 1)  # between part0's base (0) and part1's (3)
    assert _as_of_upto(log2, 3) == 3


def test_vacuum_reclaims_superseded_files_preserving_reads(fixture_small, tmp_path):
    """compact + write_snapshot prune superseded chain ENTRIES; vacuum
    must then reclaim their FILES — without changing the resolved state,
    the floor-respecting time-travel surface, or anything a later
    vacuum could still find."""
    import glob
    import os

    from etl_reconciliate_ray.pipelines.replay import compact, lake_table, vacuum

    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_vacuum", manifest)
    cfg.pipeline_epochs = 4  # all-delta epochs -> chains of length > 1
    replay(fixture_dir, cfg)
    before = lake_state_hash(cfg.lake_root)

    # pre-compact: every on-disk file is referenced -> vacuum is a no-op
    pre = vacuum(cfg)
    assert pre["deleted"] == 0

    m = compact(cfg)
    assert not m["skipped"]

    dry = vacuum(cfg, dry_run=True)
    assert dry["deleted"] > 0 and dry["files"], "superseded chain files exist"
    n_files_before = len(
        glob.glob(os.path.join(cfg.lake_root, "epoch=*", "**", "*.parquet"), recursive=True)
    )

    got = vacuum(cfg)
    assert got["deleted"] == dry["deleted"] and got["bytes_freed"] > 0
    n_files_after = len(
        glob.glob(os.path.join(cfg.lake_root, "epoch=*", "**", "*.parquet"), recursive=True)
    )
    assert n_files_after == n_files_before - got["deleted"]

    # state unchanged; a second vacuum finds nothing
    assert lake_state_hash(cfg.lake_root) == before
    assert vacuum(cfg)["deleted"] == 0

    # every surviving file is exactly the retention set
    log = CommitLog.open(cfg.lake_root)
    on_disk = {
        os.path.relpath(p, cfg.lake_root)
        for p in glob.glob(
            os.path.join(cfg.lake_root, "epoch=*", "**", "*.parquet"), recursive=True
        )
    }
    referenced = {
        os.path.relpath(f, cfg.lake_root) for f in log.referenced_files()
    }
    assert on_disk == referenced

    # the floor-permitted as-of read still resolves after vacuum
    floor = log.time_travel_floor()
    assert lake_table(cfg, as_of_epoch=floor).num_rows > 0


def test_cli_incremental_reconcile(fixture_small, tmp_path, ray_session):
    """CLI --incremental: first run reconciles everything; a rerun on
    the unchanged lake+snapshot recomputes zero buckets and reports the
    same exact counts."""
    from etl_reconciliate_ray.run import main

    fixture_dir, cfg_gen, manifest = fixture_small
    lake = str(tmp_path / "cli_lake_inc")
    want = {k: v for k, v in manifest["expected_status_counts"].items() if v}

    s1 = main([
        "--fixture", fixture_dir, "--lake", lake, "--num-buckets", "8",
        "--incremental", "--report", str(tmp_path / "rep1"),
    ])
    assert s1["status_counts"] == want
    assert s1["incremental"]["parts_recomputed"] == s1["incremental"]["parts_total"]

    s2 = main([
        "--fixture", fixture_dir, "--lake", lake, "--num-buckets", "8",
        "--incremental", "--report", str(tmp_path / "rep2"),
    ])
    assert s2["status_counts"] == want
    assert s2["incremental"]["parts_recomputed"] == 0
    assert s2["incremental"]["snapshot_respooled"] is False


def test_vacuum_on_moved_lake_keeps_referenced_files(fixture_small, tmp_path):
    """Commit-log entries may record paths from a different root (moved
    lake, different cwd at write time). Vacuum must identify files by
    their layout-canonical epoch-tail, never by resolving stored paths
    against the current cwd — the failure mode is deleting every live
    base while reporting it as garbage."""
    import shutil as _sh

    from etl_reconciliate_ray.pipelines.replay import vacuum

    import glob as _gl
    import os as _os

    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_moved", manifest)
    replay(fixture_dir, cfg)

    moved = str(tmp_path / "lake_moved_elsewhere")
    _sh.move(cfg.lake_root, moved)
    files_before = sorted(
        _os.path.relpath(f, moved)
        for f in _gl.glob(_os.path.join(moved, "epoch=*", "**", "*.parquet"), recursive=True)
    )
    # every stored file path still points at the OLD root; nothing on
    # disk may be deleted (reading a moved lake is separately out of
    # scope — the commit log stores absolute paths — but vacuuming one
    # must be a no-op, not a mass delete)
    got = vacuum(moved)
    assert got["deleted"] == 0
    files_after = sorted(
        _os.path.relpath(f, moved)
        for f in _gl.glob(_os.path.join(moved, "epoch=*", "**", "*.parquet"), recursive=True)
    )
    assert files_after == files_before


def test_rebucket_migration_preserves_state(fixture_small, tmp_path):
    """Layout migration: the destination lake under a different bucket
    count must hold the identical key->content state (layout-independent
    sha), pass the layout fence for the NEW layout, reconcile exactly,
    and refuse to overwrite an existing destination."""
    import pytest as _pt
    import ray.data as rd

    from etl_reconciliate_ray.pipelines.reconcile_run import reconcile_lake_vs_snapshot
    from etl_reconciliate_ray.pipelines.replay import lake_table, rebucket
    from etl_reconciliate_ray.stages.normalize import make_normalizer

    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_rebkt_src", manifest)
    replay(fixture_dir, cfg)
    want_sha = lake_state_hash(cfg.lake_root)

    dest = str(tmp_path / "lake_rebkt_dst")
    m = rebucket(cfg, dest, num_buckets=16, salt_for_repo=None)
    assert m["parts"] > 0 and m["rows_written"] >= lake_table(cfg.lake_root).num_rows

    assert lake_state_hash(dest) == want_sha
    # new layout is fenced in and readable; buckets really changed
    got = lake_table(dest)
    assert got.num_rows == lake_table(cfg.lake_root).num_rows
    assert set(got["bucket"].to_pylist()) - set(range(16)) == set()

    # reconcile against the snapshot under the NEW layout: exact counts
    snap = rd.read_parquet(f"{fixture_dir}/snapshot.parquet").map_batches(
        make_normalizer(num_buckets=16), batch_format="pyarrow"
    )
    _, _, counts = reconcile_lake_vs_snapshot(dest, snap, num_buckets=16, salt_for_repo=None)
    got_counts = dict(zip(counts["status"], counts["n"]))
    assert got_counts == {k: v for k, v in manifest["expected_status_counts"].items() if v}

    # a second migration into the same destination must refuse
    with _pt.raises(ValueError, match="already holds"):
        rebucket(cfg, dest, num_buckets=16)


def test_crash_mid_compact_orphan_pieces_ignored_then_vacuumed(fixture_small, tmp_path):
    """A compaction task that wrote its piece but crashed BEFORE the
    manifest commit leaves an orphan file at the next epoch number.
    Reads are manifest-driven so the orphan is invisible; a rerun
    compact converges to the same state (content-addressed names make
    the overlapping piece idempotent); vacuum reclaims the orphan once
    that epoch seals."""
    import os

    import pyarrow as pa

    from etl_reconciliate_ray.pipelines.replay import compact, lake_table, vacuum
    from etl_reconciliate_ray.stages.writer import write_piece_local

    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_crashcompact", manifest)
    cfg.pipeline_epochs = 4  # all-delta epochs -> chains of length > 1
    replay(fixture_dir, cfg)
    before = lake_state_hash(cfg.lake_root)
    log = CommitLog.open(cfg.lake_root)
    crash_epoch = log.latest_sealed_epoch() + 1

    # fake the crash: one finished piece (real resolved bytes would be
    # identical — use garbage rows to prove reads never look at it)
    garbage = pa.table({
        "repo": ["zzz-orphan"], "path": ["x"], "commit": ["c"],
        "lang": ["l"], "content": ["GARBAGE"], "seq": pa.array([1], pa.int64()),
        "op": ["U"], "content_sha256": ["0" * 64],
        "bucket": pa.array([0], pa.int32()),
    })
    orphan = write_piece_local(cfg.lake_root, crash_epoch, 0, garbage, "full")
    orphan_file = orphan["file"]  # write_piece_local returns the full path
    assert os.path.exists(orphan_file)
    assert lake_state_hash(cfg.lake_root) == before  # manifest-driven reads

    m = compact(cfg)
    assert not m["skipped"] and m["epoch"] == crash_epoch
    assert lake_state_hash(cfg.lake_root) == before
    tbl = lake_table(cfg.lake_root)
    assert "zzz-orphan" not in set(tbl["repo"].to_pylist())

    # the orphan is unreferenced in a sealed epoch -> vacuum reclaims it
    v = vacuum(cfg)
    assert v["deleted"] >= 1
    assert not os.path.exists(orphan_file)
    assert lake_state_hash(cfg.lake_root) == before


def test_auto_salt_splits_hot_bucket_preserving_state(fixture_small, tmp_path):
    """Threshold-triggered skew remediation: replaying the skewed
    fixture UNSALTED concentrates the monorepo (50% of rows) in one
    bucket; auto_salt_plan must finger that repo from measured bucket
    stats (reading only the hot chains), and auto_rebucket must migrate
    to a salted layout with identical state sha and lower skew."""
    from etl_reconciliate_ray.pipelines.replay import (
        auto_rebucket,
        auto_salt_plan,
        bucket_stats,
    )

    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = ReplayConfig(
        lake_root=str(tmp_path / "lake_hot"),
        num_buckets=8,
        salt_for_repo={},  # UNSALTED: the monorepo lands in one bucket
        post_compact=True,  # chain rows ~ state rows, not raw deltas
    )
    replay(fixture_dir, cfg)
    before = lake_state_hash(cfg.lake_root)
    skew0 = bucket_stats(cfg.lake_root)["summary"]["skew"]

    plan = auto_salt_plan(cfg.lake_root, skew_threshold=1.5)
    assert "org0/monorepo" in plan["salt_for_repo"], plan
    assert plan["salt_for_repo"]["org0/monorepo"] >= 2
    assert plan["hot_parts"]

    dest = str(tmp_path / "lake_salted")
    m = auto_rebucket(cfg.lake_root, dest, skew_threshold=1.5)
    assert not m["skipped"] and m["parts"] > 0
    assert lake_state_hash(dest) == before  # layout-independent state
    skew1 = bucket_stats(dest)["summary"]["skew"]
    assert skew1 < skew0, (skew0, skew1)

    # below-threshold lake: the trigger must NOT fire
    calm = auto_rebucket(dest, str(tmp_path / "lake_noop"), skew_threshold=1e9)
    assert calm["skipped"] and not calm["plan"]["salt_for_repo"]


def test_bucket_stats_metadata_only_audit(fixture_small, tmp_path):
    """bucket_stats must report every partition's chain volume from the
    commit log alone, shrink delta depth to zero after compaction, and
    expose the skew signal feeding salt/rebucket decisions."""
    from etl_reconciliate_ray.pipelines.replay import bucket_stats, compact

    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_stats", manifest)
    cfg.pipeline_epochs = 4  # all-delta epochs -> chains of length > 1
    replay(fixture_dir, cfg)

    st = bucket_stats(cfg)
    s = st["summary"]
    tbl = st["parts"].to_pandas()
    assert s["parts"] == len(tbl) > 0
    assert (tbl["chain_rows"] > 0).all()
    assert s["max_delta_depth"] >= 1          # pre-compaction deltas exist
    assert s["skew"] >= 1.0
    assert s["total_chain_rows"] == tbl["chain_rows"].sum()

    compact(cfg)
    st2 = bucket_stats(cfg)
    assert st2["summary"]["max_delta_depth"] == 0
    assert (st2["parts"].to_pandas()["delta_depth"] == 0).all()


def test_trigger_server_single_flight_and_status():
    """REST trigger parity (ReconciliationController.java:35-52):
    GET /execute launches the job and answers immediately; a second
    /execute while one is active answers 409 (single-flight); /status
    exposes the run's outcome, including failures."""
    import json
    import threading
    import time
    import urllib.error
    import urllib.request

    from etl_reconciliate_ray.trigger import TriggerServer

    gate = threading.Event()

    def job():
        gate.wait(timeout=10)
        return {"rows": 42}

    srv = TriggerServer(job)
    host, port = srv.start()
    base = f"http://{host}:{port}"
    try:
        with urllib.request.urlopen(f"{base}/execute") as r:
            assert r.status == 202
            first = json.loads(r.read())
            assert first["status"] == "JOB_STARTED"
        try:
            urllib.request.urlopen(f"{base}/execute")
            raise AssertionError("second /execute must 409 while running")
        except urllib.error.HTTPError as e:
            assert e.code == 409
            assert json.loads(e.read())["run_id"] == first["run_id"]
        gate.set()
        for _ in range(100):
            st = json.loads(urllib.request.urlopen(f"{base}/status").read())
            if st["state"] == "done":
                break
            time.sleep(0.05)
        assert st["state"] == "done" and st["metrics"] == {"rows": 42}
        assert st["run_id"] == first["run_id"]

        # a crashing job surfaces as failed, and the server accepts a rerun
        srv._job = lambda: (_ for _ in ()).throw(RuntimeError("boom"))
        urllib.request.urlopen(f"{base}/execute")
        for _ in range(100):
            st = json.loads(urllib.request.urlopen(f"{base}/status").read())
            if st["state"] == "failed":
                break
            time.sleep(0.05)
        assert st["state"] == "failed" and "boom" in st["error"]
        with urllib.request.urlopen(f"{base}/execute") as r:
            assert r.status == 202  # failure released the single-flight lock
    finally:
        srv.stop()


def test_trigger_executes_real_reconcile_job(fixture_small, tmp_path, ray_session):
    """The trigger wired to the actual CLI job body: /execute replays
    the fixture and reconciles, /status carries the same summary the
    batch CLI prints."""
    import json
    import time
    import urllib.request

    from etl_reconciliate_ray.run import main
    from etl_reconciliate_ray.trigger import TriggerServer

    fixture_dir, cfg_gen, manifest = fixture_small
    lake = str(tmp_path / "lake_trigger")
    srv = TriggerServer(lambda: main([
        "--fixture", fixture_dir, "--lake", lake, "--num-buckets", "8",
    ]))
    host, port = srv.start()
    try:
        urllib.request.urlopen(f"http://{host}:{port}/execute")
        st = {}
        for _ in range(600):
            st = json.loads(urllib.request.urlopen(f"http://{host}:{port}/status").read())
            if st["state"] in ("done", "failed"):
                break
            time.sleep(0.1)
        assert st["state"] == "done", st
        assert st["metrics"]["status_counts"]["MATCHED"] > 0
        assert lake_state_hash(lake)  # the lake really got built
    finally:
        srv.stop()


def test_cli_auto_salt_flag(fixture_small, tmp_path, ray_session, capsys):
    """--auto-salt migrates a skewed lake to a salted layout with the
    state sha preserved (the fixture replays UNSALTED via --binlog-dir,
    so the monorepo concentrates and trips the threshold)."""
    import glob
    import json
    import os
    import shutil

    from etl_reconciliate_ray.run import main

    fixture_dir, cfg_gen, manifest = fixture_small
    tail_dir = str(tmp_path / "autosalt_binlog")
    os.makedirs(tail_dir)
    for f in sorted(glob.glob(f"{fixture_dir}/binlog/*.parquet")):
        shutil.copy(f, os.path.join(tail_dir, os.path.basename(f)))
    lake = str(tmp_path / "lake_cli_autosalt")
    dest = str(tmp_path / "lake_cli_autosalt_dest")
    main([
        "--binlog-dir", tail_dir, "--lake-seed", f"{fixture_dir}/lake_seed.parquet",
        "--lake", lake, "--num-buckets", "8", "--compact",
        "--auto-salt", dest, "--auto-salt-threshold", "1.5",
    ])
    lines = [l for l in capsys.readouterr().out.splitlines() if "auto_salt" in l]
    assert lines, "auto_salt summary printed"
    s = json.loads(lines[0])["auto_salt"]
    assert not s["skipped"] and "org0/monorepo" in s["salt_for_repo"]
    assert lake_state_hash(dest) == lake_state_hash(lake)


def test_cli_bucket_stats_flag(fixture_small, tmp_path, ray_session, capsys):
    """--bucket-stats prints the metadata-only skew audit summary."""
    import json

    from etl_reconciliate_ray.run import main

    fixture_dir, cfg_gen, manifest = fixture_small
    lake = str(tmp_path / "lake_cli_stats")
    main([
        "--fixture", fixture_dir, "--lake", lake,
        "--num-buckets", "8", "--bucket-stats",
    ])
    lines = [l for l in capsys.readouterr().out.splitlines() if "bucket_stats" in l]
    assert lines, "audit summary printed"
    s = json.loads(lines[0])["bucket_stats"]
    assert s["parts"] > 0 and s["total_chain_rows"] > 0 and s["skew"] >= 1.0


def test_trigger_interval_scheduler_single_flight():
    """The --every cron wrapper (the reference's disabled @Scheduled,
    SchedulerConfig.java:6-9): ticks fire the same single-flight launch
    as /execute, so ticks overlapping an active run yield exactly one
    run plus counted skips, and a later tick runs again once released."""
    import threading
    import time

    from etl_reconciliate_ray.trigger import TriggerServer

    gate = threading.Event()
    runs = []

    def job():
        runs.append(time.time())
        gate.wait(timeout=10)
        return {"ok": True}

    srv = TriggerServer(job, every=0.05)
    srv.start()
    try:
        deadline = time.time() + 5
        while time.time() < deadline:
            st = srv.status()
            if st.get("skipped_ticks", 0) >= 1:
                break
            time.sleep(0.02)
        assert len(runs) == 1, runs  # overlapping ticks never stacked
        assert srv.status()["skipped_ticks"] >= 1
        assert srv.status()["every"] == 0.05
        gate.set()
        deadline = time.time() + 5
        while len(runs) < 2 and time.time() < deadline:
            time.sleep(0.02)
        assert len(runs) >= 2  # the schedule resumed after completion
    finally:
        srv.stop()


def test_trigger_rejects_nonpositive_interval():
    """Event.wait(0) returns immediately — a non-positive --every would
    busy-spin the cron thread against the launch lock, so the server
    refuses it at construction (and the CLI refuses it at parse)."""
    import pytest

    from etl_reconciliate_ray.trigger import TriggerServer

    for bad in (0, -1, 0.0):
        with pytest.raises(ValueError, match="positive"):
            TriggerServer(lambda: {}, every=bad)


def test_broadcast_fetch_parameterized_builds_dont_alias(ray_session):
    """Two differently-parameterized builds over the SAME broadcast ref
    must occupy separate cache slots: the `key` tuple disambiguates
    builds whose callable has no stable qualname (partial/lambda)."""
    from functools import partial

    import ray

    from etl_reconciliate_ray.functions.broadcast import fetch

    ref = ray.put({"base": 10})

    def build(obj, scale):
        return obj["base"] * scale

    a = fetch(ref, build=partial(build, scale=2), key=("scale", 2))
    b = fetch(ref, build=partial(build, scale=3), key=("scale", 3))
    assert (a, b) == (20, 30)
    # repeat fetches hit the cached values, not a re-run of build
    assert fetch(ref, build=partial(build, scale=2), key=("scale", 2)) == 20
    assert fetch(ref) == {"base": 10}  # bare fetch is its own slot


def test_discover_epochs_edge_files(tmp_path):
    """Binlog discovery edges: a zero-row NAMED epoch file orders by
    its ordinal (quiet window); a zero-row UNNAMED file is refused (its
    rank would be arbitrary and could fence another file's events out);
    an ordinal collision between a rank-derived and an explicit epoch=N
    name is refused loudly."""
    import pyarrow as pa

    from etl_reconciliate_ray.pipelines.replay import _discover_epochs

    d = tmp_path / "binlog"
    d.mkdir()
    full = pa.table({"seq": pa.array([0, 1], pa.int64()),
                     "repo": ["r", "r"], "path": ["a", "b"],
                     "op": ["I", "I"], "content": ["x", "y"]})
    empty = full.slice(0, 0)
    pq.write_table(full, str(d / "epoch=0.parquet"))
    pq.write_table(empty, str(d / "epoch=1.parquet"))
    descs = _discover_epochs(str(d))
    assert [e["epoch"] for e in descs] == [0, 1]
    assert descs[1]["seq_range"] is None and descs[1]["rows"] == 0

    pq.write_table(empty, str(d / "unnamed.parquet"))
    with pytest.raises(ValueError, match="no usable seq statistics"):
        _discover_epochs(str(d))
    os.remove(str(d / "unnamed.parquet"))

    # unnamed RANGED file whose rank collides with the explicit epoch=1
    ranged = pa.table({"seq": pa.array([5, 6], pa.int64()),
                       "repo": ["r", "r"], "path": ["c", "d"],
                       "op": ["I", "I"], "content": ["z", "w"]})
    pq.write_table(ranged, str(d / "later.parquet"))
    with pytest.raises(ValueError, match="both map to epoch ordinal"):
        _discover_epochs(str(d))


@pytest.mark.parametrize("odd", ["zero_row", "stats_less"])
def test_discover_epochs_rangeless_unnamed_file_cuts_lenient_scan(tmp_path, odd):
    """An unnamed file with no seq range (zero rows, or statistics
    disabled) cannot be ordered: one-shot discovery refuses it, while
    follow-mode discovery treats it as a mid-copy arrival and cuts at
    it — the complete prefix before it still processes."""
    import pyarrow as pa

    from etl_reconciliate_ray.pipelines.replay import _discover_epochs

    d = tmp_path / "binlog"
    d.mkdir()

    def events(seqs):
        n = len(seqs)
        return pa.table({"seq": pa.array(seqs, pa.int64()), "repo": ["r"] * n,
                         "path": [f"p{s}" for s in seqs], "op": ["I"] * n,
                         "content": ["x"] * n})

    pq.write_table(events([0, 1]), str(d / "a.parquet"))
    if odd == "zero_row":
        pq.write_table(events([]), str(d / "b.parquet"))
    else:
        pq.write_table(events([2, 3]), str(d / "b.parquet"), write_statistics=False)
    pq.write_table(events([4, 5]), str(d / "c.parquet"))

    with pytest.raises(ValueError, match="no usable seq statistics"):
        _discover_epochs(str(d))
    descs = _discover_epochs(str(d), stop_at_unreadable=True)
    assert [(e["file"], e["epoch"], e["seq_range"]) for e in descs] == [
        (str(d / "a.parquet"), 0, [0, 2])
    ]


def test_compact_refuses_crashed_replay_epoch_but_resumes_own(
    fixture_small, tmp_path, ray_session
):
    """compact() must not seal over a crashed REPLAY's unsealed fenced
    entries (the restarted replay would see its epoch sealed and skip —
    silent event loss); its OWN crashed maintenance epoch (entries
    stamped with the maintenance input_seq marker) still resumes."""
    from etl_reconciliate_ray.pipelines.replay import (
        _MAINT_SEQ, ReplayConfig, compact, replay,
    )
    from etl_reconciliate_ray.state.commitlog import CommitLog, PartEntry

    fixture_dir, _, manifest = fixture_small
    cfg = ReplayConfig(lake_root=str(tmp_path / "lake"), num_buckets=4,
                       salt_for_repo=manifest["salt_hot_repos"])
    replay(fixture_dir, cfg)
    log = CommitLog.open(cfg.lake_root)
    head = log.latest_sealed_epoch()
    # simulate a crashed replay: a fenced partial commit at head+1
    log.commit_part(PartEntry(epoch=head + 1, part=0, kind="delta",
                              files=("/crashed.parquet",), rows=1,
                              state_sha256="x", input_seq=(999, 1000)))
    with pytest.raises(ValueError, match="committed-unsealed entries"):
        compact(cfg)

    # drop the leftover; simulate compaction's OWN crash instead
    log2 = CommitLog.open(cfg.lake_root)
    log2.drop_unsealed_epoch(head + 1)
    log3 = CommitLog.open(cfg.lake_root)
    log3.commit_part(PartEntry(epoch=head + 1, part=0, kind="full",
                               files=("/maint.parquet",), rows=0,
                               state_sha256="y", input_seq=_MAINT_SEQ))
    m = compact(cfg)  # resumes: the leftover carries the marker
    assert m["mode"] == "compact" and m["epoch"] == head + 1
