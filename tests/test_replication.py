"""Lake-to-lake CDC replication over the export-feed spool.

The consumer half of the engine's outbound feed (the reference's
downstream is a human report — ``ReportGenerationTasklet``; a 100 TB
deployment's downstream is another lake): ``replicate_feed`` applies
an ``export_changelog`` spool into a REPLICA lake through the normal
replay engine, exactly-once, resumable, across mid-stream schema
evolution. ``follow_feed`` is the continuous-tail version.
"""

from __future__ import annotations

import glob
import os
import shutil

import pandas as pd

from etl_reconciliate_ray.pipelines.replay import (
    ReplayConfig,
    export_changelog,
    follow_feed,
    lake_state_hash,
    lake_table,
    replay_stream,
    replicate_feed,
)

PAYLOAD = ["repo", "path", "commit", "lang", "content", "content_sha256"]


def _state_df(root, cols) -> pd.DataFrame:
    df = lake_table(root).to_pandas()
    for c in cols:
        if c not in df.columns:
            df[c] = None
    return df[cols].sort_values(["repo", "path"]).reset_index(drop=True)


def _assert_replica_equal(src_root: str, rep_root: str) -> None:
    assert lake_state_hash(src_root) == lake_state_hash(rep_root)
    cols = PAYLOAD + ["size_bytes"]
    a, b = _state_df(src_root, cols), _state_df(rep_root, cols)
    assert len(a) == len(b) > 0
    for c in PAYLOAD:
        assert (a[c].values == b[c].values).all(), c
    # evolved column: null pattern + values both survive the feed
    assert a["size_bytes"].isna().equals(b["size_bytes"].isna())
    assert a["size_bytes"].fillna(-1).astype("int64").equals(
        b["size_bytes"].fillna(-1).astype("int64")
    )


def test_replicate_feed_lake_to_lake(fixture_small, tmp_path, ray_session):
    """Snapshot + delta segments (spanning the fixture's mid-stream
    ``size_bytes`` evolution) applied into a replica lake reproduce the
    source state exactly; re-application is a no-op; a crash between
    segments resumes from the replica's own commit log."""
    fixture_dir, cfg_gen, manifest = fixture_small
    files = sorted(glob.glob(f"{fixture_dir}/binlog/*.parquet"))
    assert len(files) >= 3
    tail = str(tmp_path / "tail")
    os.makedirs(tail)
    shutil.copy(files[0], tail)
    src = ReplayConfig(lake_root=str(tmp_path / "src_lake"), num_buckets=8)
    replay_stream(tail, src, lake_seed=f"{fixture_dir}/lake_seed.parquet")
    out = str(tmp_path / "feed_out")

    m1 = export_changelog(src.lake_root, out, image_cols="all")
    assert m1["snapshot"]
    # pre-evolution snapshot carries no size_bytes images at all
    import pyarrow.parquet as pq

    snap_cols = pq.read_schema(
        sorted(glob.glob(os.path.join(m1["segment"], "*.parquet")))[0]
    ).names
    assert "content_new" in snap_cols and "size_bytes_new" not in snap_cols

    rep = ReplayConfig(lake_root=str(tmp_path / "replica"), num_buckets=4)
    r1 = replicate_feed(out, rep)
    assert len(r1["applied"]) == 1 and r1["replica_head"] == 0
    assert lake_state_hash(src.lake_root) == lake_state_hash(rep.lake_root)

    # rest of the stream (size_bytes appears) -> delta segment with the
    # evolved column as typed images
    for f in files[1:]:
        shutil.copy(f, tail)
    replay_stream(tail, src, lake_seed=f"{fixture_dir}/lake_seed.parquet")
    m2 = export_changelog(src.lake_root, out, image_cols="all")
    assert not m2["snapshot"]
    delta_cols = pq.read_schema(
        sorted(glob.glob(os.path.join(m2["segment"], "*.parquet")))[0]
    ).names
    assert "size_bytes_new" in delta_cols

    r2 = replicate_feed(out, rep)
    assert len(r2["applied"]) == 1 and r2["replica_head"] == 1
    _assert_replica_equal(src.lake_root, rep.lake_root)

    # exactly-once: nothing new -> nothing applied
    assert replicate_feed(out, rep)["applied"] == []
    # the durable map records segment name -> assigned replica epoch
    import json

    with open(os.path.join(rep.lake_root, "feed_map.json")) as fh:
        fmap = json.load(fh)
    snap_keys = [k for k in fmap if k.startswith("epochs=0-snapshot")]
    assert len(snap_keys) == 1 and fmap[snap_keys[0]] == 0
    assert fmap[os.path.basename(m2["segment"])] == 1

    # crash-sim consumer: apply one segment, "crash", resume applies
    # only the rest (the replica's commit log is the cursor)
    rep2 = ReplayConfig(lake_root=str(tmp_path / "replica2"), num_buckets=4)
    first = replicate_feed(out, rep2, max_segments=1)
    assert len(first["applied"]) == 1
    rest = replicate_feed(out, rep2)
    assert len(rest["applied"]) == 1  # snapshot NOT re-applied
    _assert_replica_equal(src.lake_root, rep2.lake_root)


def test_export_and_replicate_a_window_without_changes(tmp_path, ray_session):
    """A zero-row named epoch changes nothing: its export segment holds
    one zero-row file that reads back with the feed schema (Ray writes
    no file for an empty Dataset; the seal used to fail on the missing
    directory), and replicating it seals an empty replica epoch whose
    state hash still equals the source's."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from etl_reconciliate_ray.pipelines.replay import lake_changelog

    binlog = tmp_path / "binlog"
    binlog.mkdir()
    events = pa.table({
        "seq": pa.array([0, 1, 2], pa.int64()), "op": ["I", "I", "I"],
        "repo": ["r0", "r1", "r2"], "path": ["a", "b", "c"],
        "content": ["x", "y", "z"],
    })
    pq.write_table(events, str(binlog / "epoch=00000.parquet"))
    src = ReplayConfig(lake_root=str(tmp_path / "src"), num_buckets=8)
    replay_stream(str(binlog), src)
    out = str(tmp_path / "feed_out")
    assert export_changelog(src.lake_root, out, image_cols="all")["snapshot"]

    pq.write_table(events.slice(0, 0), str(binlog / "epoch=00001.parquet"))
    replay_stream(str(binlog), src)
    m = export_changelog(src.lake_root, out, image_cols="all")
    assert not m["skipped"] and not m["snapshot"]
    files = glob.glob(os.path.join(m["segment"], "*.parquet"))
    assert len(files) == 1 and pq.read_metadata(files[0]).num_rows == 0
    want = lake_changelog(src.lake_root, from_epoch=m["from_epoch"],
                          to_epoch=m["to_epoch"], image_cols="all").schema()
    got = pq.read_schema(files[0])
    assert got.names == want.names and got.types == want.types

    rep = ReplayConfig(lake_root=str(tmp_path / "replica"), num_buckets=4)
    r = replicate_feed(out, rep)
    assert len(r["applied"]) == 2 and r["replica_head"] == 1
    assert lake_state_hash(src.lake_root) == lake_state_hash(rep.lake_root)


def test_replica_maintenance_epochs_interleave(
    fixture_small, tmp_path, ray_session
):
    """Replica-side maintenance (compact) takes epoch numbers of its
    own; the feed must keep applying around them. Regression: the old
    positional segment->epoch mapping collided with the sealed
    maintenance epoch and SILENTLY SKIPPED the next delta segment —
    data loss with applied=[] reported as success."""
    from etl_reconciliate_ray.pipelines.replay import compact

    fixture_dir, cfg_gen, manifest = fixture_small
    files = sorted(glob.glob(f"{fixture_dir}/binlog/*.parquet"))
    tail = str(tmp_path / "m_tail")
    os.makedirs(tail)
    shutil.copy(files[0], tail)
    src = ReplayConfig(lake_root=str(tmp_path / "m_src"), num_buckets=8)
    replay_stream(tail, src, lake_seed=f"{fixture_dir}/lake_seed.parquet")
    out = str(tmp_path / "m_out")
    export_changelog(src.lake_root, out, image_cols="all")

    rep = ReplayConfig(lake_root=str(tmp_path / "m_rep"), num_buckets=4)
    r1 = replicate_feed(out, rep)
    assert [m["epoch"] for m in r1["applied"]] == [0]

    # replica housekeeping between feed applications: the maintenance
    # epoch seals as epoch 1 on the replica
    c = compact(rep)
    assert c["epoch"] == 1

    # producer moves on; the next segment must land AFTER the
    # maintenance epoch, not collide with it
    for f in files[1:]:
        shutil.copy(f, tail)
    replay_stream(tail, src, lake_seed=f"{fixture_dir}/lake_seed.parquet")
    export_changelog(src.lake_root, out, image_cols="all")
    r2 = replicate_feed(out, rep)
    assert [m["epoch"] for m in r2["applied"]] == [2]
    _assert_replica_equal(src.lake_root, rep.lake_root)

    # steady state: nothing new, nothing re-applied, map is stable
    assert replicate_feed(out, rep)["applied"] == []


def test_replicate_crash_between_map_publish_and_seal(
    fixture_small, tmp_path, ray_session
):
    """The durable-intent window: feed_map.json records a segment's
    epoch BEFORE the epoch seals. A crash in between leaves an
    assigned-but-unsealed epoch; the restart must finish THAT epoch
    (not assign a fresh number, which would leak the reserved epoch and
    desync the map from the log)."""
    import json

    fixture_dir, cfg_gen, manifest = fixture_small
    files = sorted(glob.glob(f"{fixture_dir}/binlog/*.parquet"))
    tail = str(tmp_path / "c_tail")
    os.makedirs(tail)
    shutil.copy(files[0], tail)
    src = ReplayConfig(lake_root=str(tmp_path / "c_src"), num_buckets=8)
    replay_stream(tail, src, lake_seed=f"{fixture_dir}/lake_seed.parquet")
    out = str(tmp_path / "c_out")
    export_changelog(src.lake_root, out, image_cols="all")

    # simulate the crash: publish the map entry by hand, never seal
    rep = ReplayConfig(lake_root=str(tmp_path / "c_rep"), num_buckets=4)
    os.makedirs(rep.lake_root, exist_ok=True)
    from etl_reconciliate_ray.pipelines.replay import _feed_segments

    seg_name = os.path.basename(_feed_segments(out)[0])
    with open(os.path.join(rep.lake_root, "feed_map.json"), "w") as fh:
        json.dump({seg_name: 0}, fh)

    r = replicate_feed(out, rep)
    assert [m["epoch"] for m in r["applied"]] == [0]
    assert lake_state_hash(src.lake_root) == lake_state_hash(rep.lake_root)
    # the map still records the recovered assignment, once
    with open(os.path.join(rep.lake_root, "feed_map.json")) as fh:
        assert json.load(fh) == {seg_name: 0}


def test_export_cursor_crash_recovery(fixture_small, tmp_path, ray_session):
    """export_changelog's crash window: _SEALED lands, the process dies
    before _CURSOR advances, and the lake head moves on before the
    retry. The sealed segment names are the authoritative cursor — the
    retry must export FROM the sealed to-epoch (and heal _CURSOR), not
    write an overlapping segment (or a second bootstrap snapshot) whose
    name-order fold would resurrect deleted/reverted keys."""
    fixture_dir, cfg_gen, manifest = fixture_small
    files = sorted(glob.glob(f"{fixture_dir}/binlog/*.parquet"))
    tail = str(tmp_path / "x_tail")
    os.makedirs(tail)
    shutil.copy(files[0], tail)
    src = ReplayConfig(lake_root=str(tmp_path / "x_src"), num_buckets=8)
    replay_stream(tail, src, lake_seed=f"{fixture_dir}/lake_seed.parquet")
    out = str(tmp_path / "x_out")
    m1 = export_changelog(src.lake_root, out, image_cols="all")
    assert m1["snapshot"]
    snap_to = int(os.path.basename(m1["segment"]).rsplit("-", 1)[1])

    # crash-sim: the cursor rename never happened
    os.remove(os.path.join(out, "_CURSOR"))
    # the lake advances before the retry (includes D/U churn)
    for f in files[1:]:
        shutil.copy(f, tail)
    replay_stream(tail, src, lake_seed=f"{fixture_dir}/lake_seed.parquet")

    m2 = export_changelog(src.lake_root, out, image_cols="all")
    # NOT a second snapshot, and the delta starts at the sealed to-epoch
    assert not m2["snapshot"]
    assert m2["from_epoch"] == snap_to
    from etl_reconciliate_ray.pipelines.replay import _feed_segments

    segs = [os.path.basename(s) for s in _feed_segments(out)]
    assert len(segs) == 2
    assert sum(s.startswith("epochs=0-snapshot") for s in segs) == 1

    # same crash again between delta segments: stale (lagging) cursor
    delta_to = int(os.path.basename(m2["segment"]).rsplit("-", 1)[1])
    with open(os.path.join(out, "_CURSOR"), "w") as fh:
        fh.write(f"{snap_to}\n")  # lagging value, as a pre-rename crash leaves
    m3 = export_changelog(src.lake_root, out, image_cols="all")
    assert m3["skipped"] and m3["cursor"] == delta_to  # healed, no overlap

    # the fold of the sealed segments reproduces the source exactly
    rep = ReplayConfig(lake_root=str(tmp_path / "x_rep"), num_buckets=4)
    replicate_feed(out, rep)
    _assert_replica_equal(src.lake_root, rep.lake_root)


def test_replicate_random_interleave_converges(
    fixture_small, tmp_path, ray_session
):
    """Model-based interleaving (same discipline as the commit-log and
    txn fuzzes): a seeded schedule of producer exports, replica-side
    compactions, bounded drains (max_segments=1), and re-drives
    converges the replica to the source state with every segment
    applied exactly once, whatever the interleaving."""
    import json
    import random

    from etl_reconciliate_ray.pipelines.replay import compact

    fixture_dir, cfg_gen, manifest = fixture_small
    files = sorted(glob.glob(f"{fixture_dir}/binlog/*.parquet"))
    rng = random.Random(0xFEED)
    tail = str(tmp_path / "r_tail")
    os.makedirs(tail)
    src = ReplayConfig(lake_root=str(tmp_path / "r_src"), num_buckets=8)
    out = str(tmp_path / "r_out")
    rep = ReplayConfig(lake_root=str(tmp_path / "r_rep"), num_buckets=4)

    produced = 0
    for f in files:
        shutil.copy(f, tail)
        replay_stream(tail, src, lake_seed=f"{fixture_dir}/lake_seed.parquet")
        m = export_changelog(src.lake_root, out, image_cols="all")
        produced += 1
        # consumer-side chaos between producer steps
        for _ in range(rng.randint(0, 3)):
            action = rng.choice(["drain1", "drain", "compact", "noop"])
            if action == "drain1":
                replicate_feed(out, rep, max_segments=1)
            elif action == "drain":
                replicate_feed(out, rep)
            elif action == "compact" and os.path.exists(rep.lake_root):
                compact(rep)
    # final drain: everything applied exactly once
    replicate_feed(out, rep)
    with open(os.path.join(rep.lake_root, "feed_map.json")) as fh:
        fmap = json.load(fh)
    assert len(fmap) == produced
    assert len(set(fmap.values())) == produced  # distinct epochs, no reuse
    _assert_replica_equal(src.lake_root, rep.lake_root)
    assert replicate_feed(out, rep)["applied"] == []


def test_follow_feed_continuous_replica(fixture_small, tmp_path, ray_session):
    """follow_feed drains a finished spool (``_EOS``) into a replica
    identical to the source — the consumer mirror of follow_stream."""
    fixture_dir, cfg_gen, manifest = fixture_small
    src = ReplayConfig(lake_root=str(tmp_path / "f_src"), num_buckets=8)
    tail = str(tmp_path / "f_tail")
    os.makedirs(tail)
    files = sorted(glob.glob(f"{fixture_dir}/binlog/*.parquet"))
    out = str(tmp_path / "f_out")
    # producer: two export points -> snapshot + one delta segment
    shutil.copy(files[0], tail)
    replay_stream(tail, src, lake_seed=f"{fixture_dir}/lake_seed.parquet")
    export_changelog(src.lake_root, out, image_cols="all")
    for f in files[1:]:
        shutil.copy(f, tail)
    replay_stream(tail, src, lake_seed=f"{fixture_dir}/lake_seed.parquet")
    export_changelog(src.lake_root, out, image_cols="all")
    with open(os.path.join(out, "_EOS"), "w") as fh:
        fh.write("done\n")

    rep = ReplayConfig(lake_root=str(tmp_path / "f_replica"), num_buckets=4)
    applied = follow_feed(out, rep, poll_sec=0.05, idle_polls=3)
    assert len(applied) == 2
    _assert_replica_equal(src.lake_root, rep.lake_root)

    # replica is a full lake: it can chain its OWN export feed, and a
    # second-hop replica converges to the same state
    out2 = str(tmp_path / "f_out2")
    export_changelog(rep.lake_root, out2, image_cols="all")
    rep2 = ReplayConfig(lake_root=str(tmp_path / "f_replica2"), num_buckets=2)
    replicate_feed(out2, rep2)
    _assert_replica_equal(src.lake_root, rep2.lake_root)


def test_full_topology_ingest_feed_replica_view(fixture_small, tmp_path, ray_session):
    """The production topology end to end, every hop exactly-once:
    binlog tail -> source lake (follow_stream) -> export spool
    (on_batch hook) -> replica lake (follow_feed) -> maintained
    aggregate view advanced on the REPLICA (follow_feed's on_batch).
    After two producer rounds (snapshot, then incremental delta) the
    replica equals the source and the view equals a direct recompute
    of the replica head — certifying the view really advanced from
    changelog deltas of a lake that is itself fed by changelog
    segments."""
    import pandas as pd
    import pyarrow.compute as pc

    from etl_reconciliate_ray.pipelines.replay import follow_stream
    from etl_reconciliate_ray.stages.ivm import MaintainedView

    fixture_dir, cfg_gen, manifest = fixture_small
    files = sorted(glob.glob(f"{fixture_dir}/binlog/*.parquet"))
    tail = str(tmp_path / "t_tail")
    os.makedirs(tail)
    src = ReplayConfig(lake_root=str(tmp_path / "t_src"), num_buckets=8)
    out = str(tmp_path / "t_out")
    rep = ReplayConfig(lake_root=str(tmp_path / "t_rep"), num_buckets=4)
    view = MaintainedView(
        str(tmp_path / "t_view"), keys=["repo"], count_name="n_paths",
        sums={"content_len": ("content", "utf8_length")},
    )
    exporter = lambda cfg: export_changelog(  # noqa: E731
        cfg.lake_root, out, image_cols="all"
    )
    viewer = lambda cfg: view.advance(cfg.lake_root)  # noqa: E731

    # round 1: first epoch lands -> snapshot segment -> replica -> view
    shutil.copy(files[0], tail)
    follow_stream(tail, src, lake_seed=f"{fixture_dir}/lake_seed.parquet",
                  poll_sec=0.05, idle_polls=1, on_batch=exporter)
    applied = follow_feed(out, rep, poll_sec=0.05, idle_polls=1, on_batch=viewer)
    assert len(applied) == 1
    assert lake_state_hash(src.lake_root) == lake_state_hash(rep.lake_root)
    epoch_after_snapshot = view.current_epoch()
    assert epoch_after_snapshot == 0

    # round 2: the rest of the stream -> one delta segment -> replica
    # advances incrementally -> view advances from the replica deltas
    for f in files[1:]:
        shutil.copy(f, tail)
    with open(os.path.join(tail, "_EOS"), "w") as fh:
        fh.write("done\n")
    follow_stream(tail, src, lake_seed=f"{fixture_dir}/lake_seed.parquet",
                  poll_sec=0.05, idle_polls=3, on_batch=exporter)
    with open(os.path.join(out, "_EOS"), "w") as fh:
        fh.write("done\n")
    applied = follow_feed(out, rep, poll_sec=0.05, idle_polls=3, on_batch=viewer)
    assert len(applied) == 1
    assert "snapshot" not in applied[0]["segment"]  # a true delta hop
    _assert_replica_equal(src.lake_root, rep.lake_root)
    assert view.current_epoch() == 1  # advanced, not re-bootstrapped

    # the maintained view == a direct recompute of the replica head
    got = (
        view.state().to_pandas()[["repo", "n_paths", "content_len"]]
        .sort_values("repo").reset_index(drop=True)
    )
    state = lake_table(rep.lake_root)
    want = (
        pd.DataFrame({
            "repo": state["repo"].to_pylist(),
            "content_len": pc.utf8_length(state["content"]).to_pylist(),
        })
        .groupby("repo", as_index=False)
        .agg(n_paths=("content_len", "size"), content_len=("content_len", "sum"))
        [["repo", "n_paths", "content_len"]]
        .sort_values("repo").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def _readable_hits(root: str, text: str) -> int:
    """Files under ``root`` holding a readable copy of ``text`` in any
    string column (decoded scan — same discipline as test_erase)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    hits = 0
    for f in glob.glob(os.path.join(root, "**", "*.parquet"), recursive=True):
        t = pq.read_table(f)
        for col in t.columns:
            if (
                pa.types.is_string(col.type) or pa.types.is_large_string(col.type)
            ) and pc.any(pc.match_substring(pc.fill_null(col, ""), text)).as_py():
                hits += 1
                break
    return hits


def test_erasure_propagates_across_replication_chain(
    fixture_small, tmp_path, ray_session
):
    """Right-to-be-forgotten across the full replication chain: erasure
    is physical history rewrite (it never advances the sealed head), so
    it does NOT ride the changelog — a compliant deployment erases at
    every hop: source lake, feed spool, replica lake. After the three
    erasures no hop holds a readable copy, the states still agree on
    every other key, and the chain keeps replicating afterwards."""
    import pyarrow.compute as pc

    from etl_reconciliate_ray.pipelines.replay import (
        erase_key,
        erase_key_from_feed,
    )

    fixture_dir, cfg_gen, manifest = fixture_small
    files = sorted(glob.glob(f"{fixture_dir}/binlog/*.parquet"))
    tail = str(tmp_path / "e_tail")
    os.makedirs(tail)
    for f in files[:2]:
        shutil.copy(f, tail)
    src = ReplayConfig(lake_root=str(tmp_path / "e_src"), num_buckets=8)
    replay_stream(tail, src, lake_seed=f"{fixture_dir}/lake_seed.parquet")
    out = str(tmp_path / "e_out")
    export_changelog(src.lake_root, out, image_cols="all")
    rep = ReplayConfig(lake_root=str(tmp_path / "e_rep"), num_buckets=4)
    replicate_feed(out, rep)

    state = lake_table(src.lake_root)
    repo = state["repo"][0].as_py()
    path = state["path"][0].as_py()
    content = state["content"][0].as_py()
    needle = content[:48]
    assert _readable_hits(src.lake_root, needle) >= 1
    assert _readable_hits(out, needle) >= 1
    assert _readable_hits(rep.lake_root, needle) >= 1

    r_src = erase_key(src.lake_root, repo, path)
    r_feed = erase_key_from_feed(out, repo, path)
    r_rep = erase_key(rep.lake_root, repo, path)
    assert r_src["rows_erased"] >= 1
    assert r_rep["rows_erased"] >= 1
    assert r_feed["feed_rows_erased"] >= 1

    for root in (src.lake_root, out, rep.lake_root):
        assert _readable_hits(root, needle) == 0, root
    for root in (src.lake_root, rep.lake_root):
        t = lake_table(root)
        assert t.filter(
            pc.and_(pc.equal(t["repo"], repo), pc.equal(t["path"], path))
        ).num_rows == 0
    assert lake_state_hash(src.lake_root) == lake_state_hash(rep.lake_root)

    # the chain keeps working after erasure at every hop: later epochs
    # replay, export and replicate; states converge again (the erased
    # key may legitimately reappear if the stream rewrites it)
    for f in files[2:]:
        shutil.copy(f, tail)
    replay_stream(tail, src, lake_seed=f"{fixture_dir}/lake_seed.parquet")
    export_changelog(src.lake_root, out, image_cols="all")
    replicate_feed(out, rep)
    _assert_replica_equal(src.lake_root, rep.lake_root)


def _mk_binlog(dirpath: str, epochs) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(dirpath, exist_ok=True)
    seq = 1
    for i, rows in enumerate(epochs):
        t = pa.table({
            "seq": pa.array(range(seq, seq + len(rows)), type=pa.int64()),
            "op": pa.array([r[0] for r in rows]),
            "repo": pa.array([r[1] for r in rows]),
            "path": pa.array([r[2] for r in rows]),
            "content": pa.array([r[3] for r in rows], pa.string()),
        })
        pq.write_table(t, os.path.join(dirpath, f"epoch={i:05d}.parquet"))
        seq += len(rows)


def test_compact_feed_rebaselines_spool(tmp_path, ray_session):
    """Kafka-style spool compaction: after compact_feed the spool is
    ONE snapshot; a fresh consumer bootstraps from it alone; later
    exports diff from the compacted head."""
    from etl_reconciliate_ray.pipelines.replay import (
        _feed_segments,
        compact_feed,
    )

    binlog = str(tmp_path / "k_binlog")
    _mk_binlog(binlog, [
        [("I", "r", "a", "va"), ("I", "r", "b", "vb"), ("I", "r", "c", "vc")],
    ])
    src = ReplayConfig(lake_root=str(tmp_path / "k_src"), num_buckets=4)
    replay_stream(binlog, src)
    out = str(tmp_path / "k_out")
    export_changelog(src.lake_root, out, image_cols="all")
    _mk_binlog(binlog, [
        [("I", "r", "a", "va"), ("I", "r", "b", "vb"), ("I", "r", "c", "vc")],
        [("D", "r", "b", None), ("U", "r", "a", "va2")],
        [("I", "r", "d", "vd")],
    ])
    replay_stream(binlog, src)
    export_changelog(src.lake_root, out, image_cols="all")
    assert len(_feed_segments(out)) == 2

    res = compact_feed(src.lake_root, out, image_cols="all")
    assert not res["skipped"] and res["deleted"] == 2
    segs = _feed_segments(out)
    assert len(segs) == 1 and "snapshot" in os.path.basename(segs[0])

    # fresh consumer: one-segment bootstrap reproduces the source
    rep = ReplayConfig(lake_root=str(tmp_path / "k_rep"), num_buckets=2)
    replicate_feed(out, rep)
    assert lake_state_hash(src.lake_root) == lake_state_hash(rep.lake_root)

    # compaction is idempotent; post-compaction exports diff from head
    assert compact_feed(src.lake_root, out, image_cols="all")["skipped"]
    _mk_binlog(binlog, [
        [("I", "r", "a", "va"), ("I", "r", "b", "vb"), ("I", "r", "c", "vc")],
        [("D", "r", "b", None), ("U", "r", "a", "va2")],
        [("I", "r", "d", "vd")],
        [("U", "r", "d", "vd2")],
    ])
    replay_stream(binlog, src)
    m = export_changelog(src.lake_root, out, image_cols="all")
    assert not m["snapshot"] and m["from_epoch"] == res["head"]
    replicate_feed(out, rep)
    _assert_keys_equal(src.lake_root, rep.lake_root)


def _assert_keys_equal(a_root: str, b_root: str) -> None:
    assert lake_state_hash(a_root) == lake_state_hash(b_root)


def test_compact_feed_partial_consumer_replace_semantics(tmp_path, ray_session):
    """The consumer that matters: a replica stuck mid-history (applied
    only the original bootstrap) sees the compacted snapshot as an
    unknown segment. Insert-only application would RESURRECT key b
    (deleted in history the compaction folded away); replace semantics
    tombstone it."""
    import pyarrow.compute as pc

    from etl_reconciliate_ray.pipelines.replay import compact_feed, lake_table

    binlog = str(tmp_path / "p_binlog")
    _mk_binlog(binlog, [
        [("I", "r", "a", "va"), ("I", "r", "b", "vb")],
    ])
    src = ReplayConfig(lake_root=str(tmp_path / "p_src"), num_buckets=4)
    replay_stream(binlog, src)
    out = str(tmp_path / "p_out")
    export_changelog(src.lake_root, out, image_cols="all")

    rep = ReplayConfig(lake_root=str(tmp_path / "p_rep"), num_buckets=2)
    replicate_feed(out, rep)  # replica now holds a AND b

    _mk_binlog(binlog, [
        [("I", "r", "a", "va"), ("I", "r", "b", "vb")],
        [("D", "r", "b", None), ("I", "r", "c", "vc")],
    ])
    replay_stream(binlog, src)
    export_changelog(src.lake_root, out, image_cols="all")
    compact_feed(src.lake_root, out, image_cols="all")  # deletes the delta

    replicate_feed(out, rep)
    t = lake_table(rep.lake_root)
    assert t.filter(pc.equal(t["path"], "b")).num_rows == 0, "b resurrected"
    _assert_keys_equal(src.lake_root, rep.lake_root)
    # steady state afterwards
    assert replicate_feed(out, rep)["applied"] == []


def test_compact_feed_crash_window_fold_stays_correct(tmp_path, ray_session):
    """Crash between cursor advance and segment deletion: old snapshot,
    deltas, and the new snapshot coexist. A from-scratch fold in name
    order must still reproduce the source (snapshot names sort before
    delta names; every delta re-applies at a LATER replica epoch, so
    per-key LWW resolves to the true head). The next compact_feed
    completes the deletion."""
    from etl_reconciliate_ray.pipelines.replay import (
        _feed_segments,
        compact_feed,
    )

    binlog = str(tmp_path / "c_binlog")
    _mk_binlog(binlog, [
        [("I", "r", "a", "va"), ("I", "r", "b", "vb")],
    ])
    src = ReplayConfig(lake_root=str(tmp_path / "cw_src"), num_buckets=4)
    replay_stream(binlog, src)
    out = str(tmp_path / "cw_out")
    export_changelog(src.lake_root, out, image_cols="all")
    _mk_binlog(binlog, [
        [("I", "r", "a", "va"), ("I", "r", "b", "vb")],
        [("D", "r", "b", None), ("U", "r", "a", "va2"), ("I", "r", "c", "vc")],
        [("D", "r", "c", None), ("I", "r", "c", "vc2"), ("I", "r", "d", "vd")],
    ])
    replay_stream(binlog, src)
    export_changelog(src.lake_root, out, image_cols="all")

    res = compact_feed(src.lake_root, out, image_cols="all", stop_before_delete=True)
    assert not res["skipped"] and len(_feed_segments(out)) == 3

    rep = ReplayConfig(lake_root=str(tmp_path / "cw_rep"), num_buckets=2)
    replicate_feed(out, rep)  # folds old snap + new snap + delta
    _assert_keys_equal(src.lake_root, rep.lake_root)

    res2 = compact_feed(src.lake_root, out, image_cols="all")
    assert res2["deleted"] == 2 and len(_feed_segments(out)) == 1
    # the caught-up replica sees nothing new (its sealed epochs cover
    # the surviving snapshot via feed_map)
    assert replicate_feed(out, rep)["applied"] == []


def test_cli_compact_feed_maintenance_mode(tmp_path, ray_session, capsys):
    """`--compact-feed OUT` without replay inputs is a maintenance-only
    invocation: the spool collapses to one snapshot segment."""
    import json

    from etl_reconciliate_ray.pipelines.replay import _feed_segments
    from etl_reconciliate_ray.run import main

    binlog = str(tmp_path / "cli_binlog")
    _mk_binlog(binlog, [
        [("I", "r", "a", "va")],
    ])
    src = ReplayConfig(lake_root=str(tmp_path / "cli_src"), num_buckets=4)
    replay_stream(binlog, src)
    out = str(tmp_path / "cli_out")
    export_changelog(src.lake_root, out, image_cols="all")
    _mk_binlog(binlog, [
        [("I", "r", "a", "va")],
        [("U", "r", "a", "va2"), ("I", "r", "b", "vb")],
    ])
    replay_stream(binlog, src)
    export_changelog(src.lake_root, out, image_cols="all")
    assert len(_feed_segments(out)) == 2

    res = main(["--lake", src.lake_root, "--compact-feed", out])
    assert not res["skipped"] and res["deleted"] == 2
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed["deleted"] == 2
    assert len(_feed_segments(out)) == 1


def test_compact_refuses_while_feed_apply_in_flight(
    fixture_small, tmp_path, ray_session
):
    """A feed_map reservation whose epoch is unsealed is an IN-FLIGHT
    apply; replica maintenance must refuse rather than steal the epoch
    number (the stolen seal would make the restarted apply skip its
    segment — silent data loss)."""
    import json

    import pytest

    from etl_reconciliate_ray.pipelines.replay import _feed_segments, compact

    fixture_dir, cfg_gen, manifest = fixture_small
    files = sorted(glob.glob(f"{fixture_dir}/binlog/*.parquet"))
    tail = str(tmp_path / "g_tail")
    os.makedirs(tail)
    shutil.copy(files[0], tail)
    src = ReplayConfig(lake_root=str(tmp_path / "g_src"), num_buckets=8)
    replay_stream(tail, src, lake_seed=f"{fixture_dir}/lake_seed.parquet")
    out = str(tmp_path / "g_out")
    export_changelog(src.lake_root, out, image_cols="all")

    rep = ReplayConfig(lake_root=str(tmp_path / "g_rep"), num_buckets=4)
    replicate_feed(out, rep)  # epoch 0 sealed

    # next segment's reservation published, epoch never sealed (crash)
    for f in files[1:]:
        shutil.copy(f, tail)
    replay_stream(tail, src, lake_seed=f"{fixture_dir}/lake_seed.parquet")
    m2 = export_changelog(src.lake_root, out, image_cols="all")
    with open(os.path.join(rep.lake_root, "feed_map.json")) as fh:
        fmap = json.load(fh)
    fmap[os.path.basename(m2["segment"])] = 1
    with open(os.path.join(rep.lake_root, "feed_map.json"), "w") as fh:
        json.dump(fmap, fh)

    with pytest.raises(ValueError, match="reserved but"):
        compact(rep)

    # draining the feed completes the reserved epoch; compact then runs
    r = replicate_feed(out, rep)
    assert [m["epoch"] for m in r["applied"]] == [1]
    _assert_replica_equal(src.lake_root, rep.lake_root)
    assert compact(rep)["epoch"] == 2


def test_legacy_feed_map_format_migrates(fixture_small, tmp_path, ray_session):
    """A replica created by the pre-authoritative code carries
    feed_map.json as {epoch_str: {"segment": name}}; the first drain
    after upgrading must read it (not crash), skip the already-applied
    segments, and keep applying new ones."""
    import json

    fixture_dir, cfg_gen, manifest = fixture_small
    files = sorted(glob.glob(f"{fixture_dir}/binlog/*.parquet"))
    tail = str(tmp_path / "l_tail")
    os.makedirs(tail)
    shutil.copy(files[0], tail)
    src = ReplayConfig(lake_root=str(tmp_path / "l_src"), num_buckets=8)
    replay_stream(tail, src, lake_seed=f"{fixture_dir}/lake_seed.parquet")
    out = str(tmp_path / "l_out")
    m1 = export_changelog(src.lake_root, out, image_cols="all")
    rep = ReplayConfig(lake_root=str(tmp_path / "l_rep"), num_buckets=4)
    replicate_feed(out, rep)

    # rewrite the map in the legacy shape
    map_path = os.path.join(rep.lake_root, "feed_map.json")
    with open(map_path, "w") as fh:
        json.dump({"0": {"segment": os.path.basename(m1["segment"])}}, fh)

    assert replicate_feed(out, rep)["applied"] == []  # no re-apply

    for f in files[1:]:
        shutil.copy(f, tail)
    replay_stream(tail, src, lake_seed=f"{fixture_dir}/lake_seed.parquet")
    export_changelog(src.lake_root, out, image_cols="all")
    r = replicate_feed(out, rep)
    assert [m["epoch"] for m in r["applied"]] == [1]
    _assert_replica_equal(src.lake_root, rep.lake_root)
    with open(map_path) as fh:  # republished in the new shape
        fmap = json.load(fh)
    assert all(isinstance(v, int) for v in fmap.values()) and len(fmap) == 2


def test_compact_refuses_a_legacy_map_reservation_in_flight(tmp_path, ray_session):
    """``compact`` and ``replicate_feed`` read ``feed_map.json`` the same
    way: an unsealed reservation held in the legacy {epoch: {"segment":
    name}} shape is an in-flight apply too, so compact refuses rather
    than steal its epoch; draining the feed then lets it run."""
    import json

    import pytest

    from etl_reconciliate_ray.pipelines.replay import compact

    binlog = str(tmp_path / "lg_binlog")
    _mk_binlog(binlog, [[("I", "r", "a", "va"), ("I", "r", "b", "vb")]])
    src = ReplayConfig(lake_root=str(tmp_path / "lg_src"), num_buckets=4)
    replay_stream(binlog, src)
    out = str(tmp_path / "lg_out")
    m0 = export_changelog(src.lake_root, out, image_cols="all")
    rep = ReplayConfig(lake_root=str(tmp_path / "lg_rep"), num_buckets=2)
    replicate_feed(out, rep)  # replica epoch 0 sealed

    _mk_binlog(binlog, [
        [("I", "r", "a", "va"), ("I", "r", "b", "vb")],
        [("U", "r", "a", "va2"), ("D", "r", "b", None)],
    ])
    replay_stream(binlog, src)
    m1 = export_changelog(src.lake_root, out, image_cols="all")
    # a legacy-shape map whose second reservation never sealed (crash)
    with open(os.path.join(rep.lake_root, "feed_map.json"), "w") as fh:
        json.dump({
            "0": {"segment": os.path.basename(m0["segment"])},
            "1": {"segment": os.path.basename(m1["segment"])},
        }, fh)
    with pytest.raises(ValueError, match="reserved but"):
        compact(rep)

    r = replicate_feed(out, rep)
    assert [m["epoch"] for m in r["applied"]] == [1]
    _assert_keys_equal(src.lake_root, rep.lake_root)
    assert compact(rep)["epoch"] == 2
