"""Debezium-style envelope ingest: the JSONL envelope path must
converge to the sha-identical lake state as the native parquet binlog,
including schema evolution and resumable conversion."""

from __future__ import annotations

import glob
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from etl_reconciliate_ray.datagen import DatagenConfig, write_fixture
from etl_reconciliate_ray.pipelines.replay import (
    ReplayConfig,
    lake_state_hash,
    lake_table,
    replay,
    replay_stream,
)
from etl_reconciliate_ray.sources.cdc_envelope import (
    binlog_epoch_to_envelope_jsonl,
    convert_envelope_dir,
    envelope_to_binlog,
)


@pytest.fixture(scope="module")
def env_fixture(ray_session, tmp_path_factory):
    """Fixture with mid-stream schema evolution, rendered BOTH as the
    native parquet binlog and as Debezium-style JSONL envelopes."""
    root = tmp_path_factory.mktemp("envfix")
    man = write_fixture(
        DatagenConfig(
            seed=13, lake_rows=150, num_events=1200, num_epochs=4,
            evolve_from_epoch=2,
        ),
        str(root / "fix"),
    )
    env_dir = root / "env"
    env_dir.mkdir()
    for f in sorted(glob.glob(str(root / "fix" / "binlog" / "*.parquet"))):
        stem = os.path.basename(f).replace(".parquet", "")
        n = binlog_epoch_to_envelope_jsonl(f, str(env_dir / f"{stem}.jsonl"))
        assert n > 0
    return {"root": root, "man": man}


def test_envelope_replay_matches_native(env_fixture, ray_session):
    root, man = env_fixture["root"], env_fixture["man"]
    # native path
    native_cfg = ReplayConfig(lake_root=str(root / "lake_native"), num_buckets=8)
    replay(str(root / "fix"), native_cfg)
    # envelope path: convert JSONL -> binlog parquet, then the standard
    # discovery-based stream replay
    conv = convert_envelope_dir(str(root / "env"), str(root / "binlog_conv"))
    assert len(conv) == 4 and all(os.path.exists(p) for p in conv)
    env_cfg = ReplayConfig(lake_root=str(root / "lake_env"), num_buckets=8)
    replay_stream(
        str(root / "binlog_conv"), env_cfg,
        lake_seed=str(root / "fix" / "lake_seed.parquet"),
    )
    assert lake_table(env_cfg.lake_root).num_rows == man["final_rows"]
    assert lake_state_hash(env_cfg.lake_root) == lake_state_hash(native_cfg.lake_root)
    # evolved column survived the JSON round trip
    assert "size_bytes" in lake_table(env_cfg.lake_root).column_names


def test_convert_is_resumable_and_atomic(env_fixture, ray_session):
    root = env_fixture["root"]
    out = str(root / "binlog_conv2")
    first = convert_envelope_dir(str(root / "env"), out)
    mtimes = {p: os.path.getmtime(p) for p in first}
    again = convert_envelope_dir(str(root / "env"), out)
    assert again == first
    assert {p: os.path.getmtime(p) for p in first} == mtimes  # skipped, not rewritten
    assert not [d for d in os.listdir(out) if ".tmp" in d]


def test_convert_recovers_from_crashed_tmp(env_fixture, ray_session):
    """A crash mid-convert leaves a ``<stem>.parquet.tmp<pid>`` file
    (possibly with garbage); the retry must rebuild that epoch cleanly,
    publish byte-identical output and remove the stale tmp."""
    import hashlib

    root = env_fixture["root"]
    clean = str(root / "binlog_conv3")
    want = {
        os.path.basename(p): hashlib.sha256(open(p, "rb").read()).hexdigest()
        for p in convert_envelope_dir(str(root / "env"), clean)
    }
    crashed = str(root / "binlog_conv4")
    os.makedirs(crashed)
    with open(os.path.join(crashed, "epoch=00001.parquet.tmp999"), "w") as fh:
        fh.write("not parquet")
    got_paths = convert_envelope_dir(str(root / "env"), crashed)
    got = {
        os.path.basename(p): hashlib.sha256(open(p, "rb").read()).hexdigest()
        for p in got_paths
    }
    assert got == want
    assert not [d for d in os.listdir(crashed) if ".tmp" in d]


def test_envelope_kernel_flat_and_nested(ray_session):
    flat = pa.table({
        "op": pa.array(["c", "u", "d", "r"]),
        "ts_ms": pa.array([1000, 2000, 3000, 4000], pa.int64()),
        "before": pa.array(
            [None, None, {"repo": "r1", "path": "p1"}, None],
            pa.struct([("repo", pa.string()), ("path", pa.string())]),
        ),
        "after": pa.array(
            [
                {"repo": "r1", "path": "p1", "content": "a"},
                {"repo": "r2", "path": "p2", "content": "b"},
                None,
                {"repo": "r3", "path": "p3", "content": "c"},
            ],
            pa.struct([
                ("repo", pa.string()), ("path", pa.string()),
                ("content", pa.string()),
            ]),
        ),
        "source": pa.array(
            [{"seq": 0}, {"seq": 1}, {"seq": 2}, {"seq": 3}],
            pa.struct([("seq", pa.int64())]),
        ),
    })
    out = envelope_to_binlog(flat)
    assert out["op"].to_pylist() == ["I", "U", "D", "I"]
    assert out["repo"].to_pylist() == ["r1", "r2", "r1", "r3"]
    assert out["content"].to_pylist() == ["a", "b", None, "c"]
    assert out["seq"].to_pylist() == [0, 1, 2, 3]
    nested = pa.table({"payload": pa.array(
        [{"op": "c", "seq": 7,
          "after": {"repo": "x", "path": "y", "content": "z"}}],
        pa.struct([
            ("op", pa.string()), ("seq", pa.int64()),
            ("after", pa.struct([
                ("repo", pa.string()), ("path", pa.string()),
                ("content", pa.string()),
            ])),
        ]),
    )})
    out2 = envelope_to_binlog(nested)
    assert out2["repo"].to_pylist() == ["x"] and out2["seq"].to_pylist() == [7]


def test_envelope_contract_refusals(ray_session):
    base = {
        "after": pa.array(
            [{"repo": "r", "path": "p"}],
            pa.struct([("repo", pa.string()), ("path", pa.string())]),
        ),
        "seq": pa.array([1], pa.int64()),
    }
    # row-level violations: raise mode refuses the batch loudly
    with pytest.raises(ValueError, match="violate the envelope contract"):
        envelope_to_binlog(pa.table({"op": pa.array(["x"]), **base}))
    with pytest.raises(ValueError, match="violate the envelope contract"):
        envelope_to_binlog(pa.table({"op": pa.array(["d"]), **base}))  # keyless tombstone
    # feed-schema violations always raise, even in quarantine mode
    with pytest.raises(ValueError, match="no sequence field"):
        envelope_to_binlog(pa.table({
            "op": pa.array(["c"]), "after": base["after"],
        }))


def test_envelope_dead_letter_split(ray_session):
    from etl_reconciliate_ray.sources.cdc_envelope import split_envelope_batch

    t = pa.table({
        "op": pa.array(["c", "x", "d", "c"]),
        "before": pa.array(
            [None, None, None, None],  # the 'd' row is a keyless tombstone
            pa.struct([("repo", pa.string()), ("path", pa.string())]),
        ),
        "after": pa.array(
            [
                {"repo": "r1", "path": "p1", "content": "a"},
                {"repo": "r2", "path": "p2", "content": "b"},
                None,
                {"repo": None, "path": "p4", "content": "c"},  # null key
            ],
            pa.struct([
                ("repo", pa.string()), ("path", pa.string()),
                ("content", pa.string()),
            ]),
        ),
        "seq": pa.array([0, 1, 2, 3], pa.int64()),
    })
    good, dead = split_envelope_batch(t)
    assert good["seq"].to_pylist() == [0]  # only the clean create survives
    assert sorted(dead["reason"].to_pylist()) == ["null_key", "null_key", "unknown_op"]
    assert dead["seq"].to_pylist() == [1, 2, 3]
    assert all("op" in r for r in dead["record"].to_pylist())


def test_convert_quarantine_mode(ray_session, tmp_path):
    recs = [
        {"op": "c", "before": None,
         "after": {"repo": "r", "path": f"p{i}", "content": "x"},
         "source": {"seq": i}}
        for i in range(4)
    ]
    recs[2]["op"] = "bogus"
    with open(tmp_path / "epoch=00000.jsonl", "w") as fh:
        for r in recs:
            fh.write(json.dumps(r) + "\n")
    out = str(tmp_path / "out")
    # raise mode fails the epoch
    with pytest.raises(Exception):
        convert_envelope_dir(str(tmp_path), out)
    import shutil
    shutil.rmtree(out, ignore_errors=True)
    # quarantine mode converts the clean rows and dead-letters the rest
    outs = convert_envelope_dir(str(tmp_path), out, on_error="quarantine")
    t = pq.read_table(outs[0])
    assert t.num_rows == 3 and t["op"].to_pylist() == ["I"] * 3
    q = pq.read_table(os.path.join(out, "_quarantine", "epoch=00000.parquet"))
    assert q.num_rows == 1 and q["reason"].to_pylist() == ["unknown_op"]
    assert q["seq"].to_pylist() == [2]


def test_convert_quarantine_all_bad_epoch(ray_session, tmp_path):
    """An epoch whose EVERY row dead-letters publishes an .empty marker
    (not an unreadable statless parquet) and never re-converts."""
    with open(tmp_path / "epoch=00000.jsonl", "w") as fh:
        for i in range(3):
            fh.write(json.dumps({
                "op": "bogus", "before": None,
                "after": {"repo": "r", "path": f"p{i}"}, "source": {"seq": i},
            }) + "\n")
    out = str(tmp_path / "out")
    outs = convert_envelope_dir(str(tmp_path), out, on_error="quarantine")
    assert outs == []  # nothing discoverable
    assert os.path.exists(os.path.join(out, "epoch=00000.parquet.empty"))
    assert not os.path.exists(os.path.join(out, "epoch=00000.parquet"))
    q = pq.read_table(os.path.join(out, "_quarantine", "epoch=00000.parquet"))
    assert q.num_rows == 3
    mtime = os.path.getmtime(os.path.join(out, "epoch=00000.parquet.empty"))
    assert convert_envelope_dir(str(tmp_path), out, on_error="quarantine") == []
    assert os.path.getmtime(os.path.join(out, "epoch=00000.parquet.empty")) == mtime


def test_cli_envelope_dir_mode(env_fixture, tmp_path, ray_session):
    """CLI surface: --envelope-dir converts the JSONL feed into
    <lake>/_binlog_conv and replays it to the same state as the native
    fixture path."""
    from etl_reconciliate_ray.pipelines.replay import lake_state_hash
    from etl_reconciliate_ray.run import main

    root, man = env_fixture["root"], env_fixture["man"]
    lake_native = str(tmp_path / "lake_native")
    main(["--fixture", str(root / "fix"), "--lake", lake_native, "--num-buckets", "8"])
    lake_env = str(tmp_path / "lake_env")
    summary = main([
        "--envelope-dir", str(root / "env"), "--lake", lake_env,
        "--num-buckets", "8",
        "--lake-seed", str(root / "fix" / "lake_seed.parquet"),
    ])
    assert summary["epochs"] >= 1
    assert lake_state_hash(lake_env) == lake_state_hash(lake_native)


def test_cli_envelope_follow_mode(env_fixture, tmp_path, ray_session):
    """--envelope-dir --follow: envelopes landing mid-tail convert and
    replay as they arrive; the upstream _EOS marker is forwarded only
    once every landed envelope is converted; final state matches the
    one-shot path."""
    import shutil
    import threading
    import time

    from etl_reconciliate_ray.pipelines.replay import lake_state_hash
    from etl_reconciliate_ray.run import main

    root = env_fixture["root"]
    src = sorted(glob.glob(str(root / "env" / "*.jsonl")))
    feed = tmp_path / "feed"
    feed.mkdir()
    # first two epochs are present at start; the rest land mid-tail
    for f in src[:2]:
        shutil.copy(f, feed / os.path.basename(f))

    def producer():
        for f in src[2:]:
            time.sleep(0.8)
            shutil.copy(f, str(feed / (os.path.basename(f) + ".tmp")))
            os.replace(str(feed / (os.path.basename(f) + ".tmp")),
                       str(feed / os.path.basename(f)))
        (feed / "_EOS").touch()

    t = threading.Thread(target=producer)
    t.start()
    lake = str(tmp_path / "lake_follow")
    main([
        "--envelope-dir", str(feed), "--lake", lake, "--num-buckets", "8",
        "--lake-seed", str(root / "fix" / "lake_seed.parquet"), "--follow",
    ])
    t.join()
    # one-shot reference over the full feed
    lake_ref = str(tmp_path / "lake_ref")
    main([
        "--envelope-dir", str(root / "env"), "--lake", lake_ref,
        "--num-buckets", "8",
        "--lake-seed", str(root / "fix" / "lake_seed.parquet"),
    ])
    assert lake_state_hash(lake) == lake_state_hash(lake_ref)


def test_split_envelope_matches_row_oracle():
    """Property: split_envelope_batch's vectorized conversion equals a
    per-row Python reference on arbitrary envelope batches — every row
    lands in exactly one of (good, dead) with the right content."""
    import hypothesis.strategies as st
    from hypothesis import HealthCheck, given, settings

    from etl_reconciliate_ray.sources.cdc_envelope import split_envelope_batch

    key = st.one_of(st.none(), st.sampled_from(["r1", "r2", "p1", "p2"]))
    image = st.one_of(
        st.none(),
        st.fixed_dictionaries({"repo": key, "path": key,
                               "content": st.one_of(st.none(), st.text(max_size=5))}),
    )
    row = st.fixed_dictionaries({
        "op": st.sampled_from(["c", "u", "d", "r", "bogus"]),
        "before": image,
        "after": image,
        "seq": st.one_of(st.none(), st.integers(0, 1000)),
    })

    img_t = pa.struct([("repo", pa.string()), ("path", pa.string()),
                       ("content", pa.string())])

    def reference(rows):
        good, dead = [], []
        for r in rows:
            opm = {"c": "I", "r": "I", "u": "U", "d": "D"}.get(r["op"])
            img = r["before"] if opm == "D" else r["after"]
            repo = (img or {}).get("repo")
            path = (img or {}).get("path")
            if opm is None:
                dead.append((r["seq"], "unknown_op"))
            elif r["seq"] is None:
                dead.append((None, "null_seq"))
            elif repo is None or path is None:
                dead.append((r["seq"], "null_key"))
            else:
                good.append((r["seq"], opm, repo, path,
                             None if opm == "D" else (r["after"] or {}).get("content")))
        return good, dead

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(row, min_size=1, max_size=30))
    def check(rows):
        t = pa.table({
            "op": pa.array([r["op"] for r in rows], pa.string()),
            "before": pa.array([r["before"] for r in rows], img_t),
            "after": pa.array([r["after"] for r in rows], img_t),
            "seq": pa.array([r["seq"] for r in rows], pa.int64()),
        })
        good, dead = split_envelope_batch(t)
        want_good, want_dead = reference(rows)
        got_good = list(zip(good["seq"].to_pylist(), good["op"].to_pylist(),
                            good["repo"].to_pylist(), good["path"].to_pylist(),
                            good["content"].to_pylist()))
        assert got_good == want_good
        got_dead = list(zip(dead["seq"].to_pylist(), dead["reason"].to_pylist()))
        assert got_dead == want_dead
        assert good.num_rows + dead.num_rows == len(rows)

    check()


def test_cli_envelope_dlq_flag(tmp_path, ray_session):
    """--envelope-dlq end-to-end: a feed with a contract-violating row
    replays the clean rows and dead-letters the bad one under
    <lake>/_binlog_conv/_quarantine; without the flag the run fails."""
    from etl_reconciliate_ray.pipelines.replay import lake_table
    from etl_reconciliate_ray.run import main

    feed = tmp_path / "feed"
    feed.mkdir()
    recs = [
        {"op": "c", "before": None,
         "after": {"repo": "r", "path": f"p{i}", "content": f"x{i}"},
         "source": {"seq": i}}
        for i in range(5)
    ]
    recs[3]["op"] = "bogus"
    with open(feed / "epoch=00000.jsonl", "w") as fh:
        for r in recs:
            fh.write(json.dumps(r) + "\n")

    lake_strict = str(tmp_path / "lake_strict")
    with pytest.raises(Exception):
        main(["--envelope-dir", str(feed), "--lake", lake_strict,
              "--num-buckets", "4"])

    lake = str(tmp_path / "lake_dlq")
    main(["--envelope-dir", str(feed), "--lake", lake, "--num-buckets", "4",
          "--envelope-dlq"])
    assert lake_table(lake).num_rows == 4
    q = pq.read_table(
        os.path.join(lake, "_binlog_conv", "_quarantine", "epoch=00000.parquet")
    )
    assert q["reason"].to_pylist() == ["unknown_op"] and q["seq"].to_pylist() == [3]


def test_export_feed_envelopes_consumer_fold(env_fixture, tmp_path, ray_session):
    """Outbound surface: a NON-engine consumer folding the JSONL
    envelope segments in plain name order (r/c/u upsert, d delete)
    reproduces the lake state exactly; re-export after new epochs is
    incremental (old segment dirs untouched) and idempotent."""
    from etl_reconciliate_ray.pipelines.replay import (
        ReplayConfig, export_changelog, lake_table, replay,
    )
    from etl_reconciliate_ray.sources.cdc_envelope import export_feed_envelopes

    root = env_fixture["root"]
    cfg = ReplayConfig(lake_root=str(tmp_path / "lake"), num_buckets=8)
    # two sealed epochs first, export, then the rest, export again
    replay(str(root / "fix"), cfg, stop_after_epoch=2)
    feed = str(tmp_path / "feed")
    export_changelog(cfg, feed, image_cols="all")
    env_out = str(tmp_path / "env_out")
    first = export_feed_envelopes(feed, env_out)
    assert first and all(os.path.exists(os.path.join(d, "_SEALED")) for d in first)
    replay(str(root / "fix"), cfg)
    export_changelog(cfg, feed, image_cols="all")
    second = export_feed_envelopes(feed, env_out)
    assert len(second) > len(first)
    mtimes = {d: os.path.getmtime(os.path.join(d, "_SEALED")) for d in first}
    assert export_feed_envelopes(feed, env_out) == second  # idempotent
    assert all(
        os.path.getmtime(os.path.join(d, "_SEALED")) == m
        for d, m in mtimes.items()
    )

    # consumer simulation: fold every sealed segment in name order
    state = {}
    for seg in sorted(os.listdir(env_out)):
        for part in sorted(glob.glob(os.path.join(env_out, seg, "*.jsonl"))):
            with open(part) as fh:
                for line in fh:
                    rec = json.loads(line)
                    if rec["op"] == "d":
                        state.pop(
                            (rec["before"]["repo"], rec["before"]["path"]), None
                        )
                    else:
                        a = rec["after"]
                        state[(a["repo"], a["path"])] = a["content_sha256"]
    lake = lake_table(cfg.lake_root).select(["repo", "path", "content_sha256"])
    want = {
        (r["repo"], r["path"]): r["content_sha256"] for r in lake.to_pylist()
    }
    assert state == want


def _rendered_two_segments(env_fixture, tmp_path):
    """A spool of two sealed segments (a snapshot at epoch 2, then the
    rest of the stream), rendered once. Returns (cfg, feed, env_out)."""
    from etl_reconciliate_ray.pipelines.replay import export_changelog
    from etl_reconciliate_ray.sources.cdc_envelope import export_feed_envelopes

    fix = str(env_fixture["root"] / "fix")
    cfg = ReplayConfig(lake_root=str(tmp_path / "lake"), num_buckets=8)
    feed, env_out = str(tmp_path / "feed"), str(tmp_path / "env_out")
    replay(fix, cfg, stop_after_epoch=2)
    export_changelog(cfg, feed, image_cols="all")
    replay(fix, cfg)
    export_changelog(cfg, feed, image_cols="all")
    assert len(export_feed_envelopes(feed, env_out)) == 2
    return cfg, feed, env_out


def _sealed(seg: str) -> dict:
    with open(os.path.join(seg, "_SEALED")) as fh:
        return json.load(fh)


def test_envelopes_follow_compaction(env_fixture, tmp_path, ray_session):
    """After ``compact_feed`` a re-render leaves exactly the spool's
    sealed segments rendered: the directories of deleted segments go."""
    from etl_reconciliate_ray.pipelines.replay import _feed_segments, compact_feed
    from etl_reconciliate_ray.sources.cdc_envelope import export_feed_envelopes

    cfg, feed, env_out = _rendered_two_segments(env_fixture, tmp_path)
    assert compact_feed(cfg, feed)["deleted"] == 2
    rendered = export_feed_envelopes(feed, env_out)
    names = [os.path.basename(s) for s in _feed_segments(feed)]
    assert sorted(os.listdir(env_out)) == names == [os.path.basename(d) for d in rendered]


def test_envelopes_follow_erasure(env_fixture, tmp_path, ray_session):
    """After ``erase_key_from_feed`` a re-render scrubs the key from the
    rendered envelopes, and each rendered ``_SEALED`` counts its spool
    segment's rows again."""
    from etl_reconciliate_ray.pipelines.replay import _feed_segments, erase_key_from_feed
    from etl_reconciliate_ray.sources.cdc_envelope import export_feed_envelopes

    _, feed, env_out = _rendered_two_segments(env_fixture, tmp_path)
    first = _feed_segments(feed)[0]
    row = pq.read_table(glob.glob(os.path.join(first, "*.parquet"))[0]).slice(0, 1).to_pylist()[0]
    key = (row["repo"], row["path"])
    assert erase_key_from_feed(feed, *key)["feed_rows_erased"] >= 1
    export_feed_envelopes(feed, env_out)

    for seg in _feed_segments(feed):
        dest = os.path.join(env_out, os.path.basename(seg))
        assert _sealed(dest)["rows"] == _sealed(seg)["rows"]
        for part in glob.glob(os.path.join(dest, "*.jsonl")):
            with open(part) as fh:
                for line in fh:
                    rec = json.loads(line)
                    img = rec["after"] or rec["before"]
                    assert (img["repo"], img["path"]) != key


def test_all_insert_epoch_null_before(ray_session, tmp_path):
    """A JSON-inferred all-null ``before`` (every row an insert) must
    convert cleanly — the null-typed image has no fields to gather."""
    f = tmp_path / "epoch=00000.jsonl"
    with open(f, "w") as fh:
        for i in range(5):
            fh.write(json.dumps({
                "op": "c", "ts_ms": i, "before": None,
                "after": {"repo": "r", "path": f"p{i}", "content": "x"},
                "source": {"seq": i},
            }) + "\n")
    outs = convert_envelope_dir(str(tmp_path), str(tmp_path / "out"))
    t = pq.read_table(outs[0])
    assert t.num_rows == 5 and t["op"].to_pylist() == ["I"] * 5


def test_reserved_after_field_refused(ray_session):
    """An after-image field named seq/op/ts would silently overwrite
    the engine's reserved binlog columns (corrupting LWW order /
    tombstone semantics) — the feed must refuse loudly as a schema
    violation, not dead-letter rows."""
    for bad in ("seq", "op", "ts"):
        t = pa.table({
            "op": pa.array(["c"]),
            "before": pa.array([None], pa.struct([("repo", pa.string())])),
            "after": pa.array(
                [{"repo": "r", "path": "p", bad: "boom"}],
                pa.struct([
                    ("repo", pa.string()), ("path", pa.string()),
                    (bad, pa.string()),
                ]),
            ),
            "source": pa.array([{"seq": 1}], pa.struct([("seq", pa.int64())])),
        })
        with pytest.raises(ValueError, match="engine-reserved"):
            envelope_to_binlog(t)


def test_exported_envelopes_reingest_roundtrip(env_fixture, tmp_path, ray_session):
    """The outbound JSONL envelopes carry a deterministic PER-KEY
    strict order under source.seq (cross-key digest ties are allowed —
    LWW never compares seq across keys), so they are RE-INGESTABLE
    through the inbound --envelope-dir path: export the feed of a
    replayed lake, flatten each sealed segment dir to one epoch file
    (preserving name order), convert + replay into a fresh empty lake,
    and the replica's (repo, path) -> content_sha256 state must equal
    the source's."""
    from etl_reconciliate_ray.pipelines.replay import (
        ReplayConfig, export_changelog, replay,
    )
    from etl_reconciliate_ray.sources.cdc_envelope import export_feed_envelopes

    root = env_fixture["root"]
    cfg = ReplayConfig(lake_root=str(tmp_path / "lake"), num_buckets=8)
    # two exports so the feed has a snapshot segment AND delta segments
    replay(str(root / "fix"), cfg, stop_after_epoch=2)
    feed = str(tmp_path / "feed")
    export_changelog(cfg, feed, image_cols="all")
    replay(str(root / "fix"), cfg)
    export_changelog(cfg, feed, image_cols="all")
    env_out = str(tmp_path / "env_out")
    segs = export_feed_envelopes(feed, env_out)
    assert len(segs) >= 2

    # seq contract: within a segment each KEY appears at most once
    # (its seq is then trivially unique per key), and a key's seqs
    # strictly increase across segments in fold (name) order — the
    # exact property per-key LWW needs. Global distinctness is NOT
    # asserted: two different keys may digest-collide at scale.
    prev_hi = -1
    per_key: dict = {}
    for seg in sorted(segs):
        seqs = []
        seg_keys = []
        for part in sorted(glob.glob(os.path.join(seg, "*.jsonl"))):
            with open(part) as fh:
                for l in fh:
                    r = json.loads(l)
                    img = r["after"] or r["before"]
                    k = (img["repo"], img["path"])
                    seqs.append(r["source"]["seq"])
                    seg_keys.append(k)
                    per_key.setdefault(k, []).append(r["source"]["seq"])
        assert len(set(seg_keys)) == len(seg_keys)  # <=1 change per key
        assert min(seqs) > prev_hi  # segment ordinal dominates
        prev_hi = max(seqs)
    for k, ks in per_key.items():
        assert ks == sorted(ks) and len(set(ks)) == len(ks), k

    # consumer concatenates each segment dir into one epoch jsonl
    reindir = tmp_path / "reingest"
    reindir.mkdir()
    for seg in sorted(segs):
        with open(reindir / f"{os.path.basename(seg)}.jsonl", "w") as out:
            for part in sorted(glob.glob(os.path.join(seg, "*.jsonl"))):
                with open(part) as fh:
                    out.write(fh.read())
    conv = convert_envelope_dir(str(reindir), str(tmp_path / "conv"))
    assert len(conv) == len(segs)
    rcfg = ReplayConfig(lake_root=str(tmp_path / "replica"), num_buckets=4)
    replay_stream(str(tmp_path / "conv"), rcfg)

    src = lake_table(cfg.lake_root).select(["repo", "path", "content_sha256"])
    rep = lake_table(rcfg.lake_root).select(["repo", "path", "content_sha256"])
    key = lambda t: {(r["repo"], r["path"]): r["content_sha256"] for r in t.to_pylist()}
    assert key(rep) == key(src)


def test_trigger_envelope_ingest_export_chain(env_fixture, tmp_path, ray_session):
    """The served trigger driving the full envelope loop (the
    reference's REST-triggered 4-step job, BatchConfig.java:59-68,
    mapped onto the CDC path): POST-free GET /execute with an
    --envelope-dir job body must leave lake state + feed segments
    identical to the plain CLI invocation."""
    import time
    import urllib.request

    from etl_reconciliate_ray.pipelines.replay import lake_state_hash
    from etl_reconciliate_ray.run import main
    from etl_reconciliate_ray.trigger import TriggerServer

    root = env_fixture["root"]
    seed = str(root / "fix" / "lake_seed.parquet")

    def argv(lake, feed):
        return [
            "--envelope-dir", str(root / "env"), "--lake-seed", seed,
            "--lake", lake, "--num-buckets", "8", "--export-feed", feed,
        ]

    lake_cli, feed_cli = str(tmp_path / "lake_cli"), str(tmp_path / "feed_cli")
    main(argv(lake_cli, feed_cli))

    lake_t, feed_t = str(tmp_path / "lake_t"), str(tmp_path / "feed_t")
    srv = TriggerServer(lambda: main(argv(lake_t, feed_t)))
    host, port = srv.start()
    try:
        urllib.request.urlopen(f"http://{host}:{port}/execute")
        st = {}
        for _ in range(600):
            st = json.loads(
                urllib.request.urlopen(f"http://{host}:{port}/status").read()
            )
            if st["state"] in ("done", "failed"):
                break
            time.sleep(0.1)
        assert st["state"] == "done", st
    finally:
        srv.stop()

    assert lake_state_hash(lake_t) == lake_state_hash(lake_cli)
    segs = sorted(os.listdir(os.path.join(feed_t, "feed")))
    assert segs and segs == sorted(os.listdir(os.path.join(feed_cli, "feed")))
    for s in segs:
        assert os.path.exists(os.path.join(feed_t, "feed", s, "_SEALED"))


def _convert_on_driver(monkeypatch) -> None:
    """Run ``_per_part`` bodies in this process, where monkeypatches
    and the ``renames`` fixture see them."""
    import ray

    from etl_reconciliate_ray.pipelines import replay as replay_mod

    monkeypatch.setattr(replay_mod, "_per_part",
                        lambda items, fn: [ray.put(replay_mod._run_parts(fn, items))])


def test_convert_publishes_only_fsynced_files(ray_session, tmp_path, renames, monkeypatch):
    """Every file conversion publishes (the epoch parquet, its
    dead-letter parquet, an all-dead-letter epoch's ``.empty`` marker)
    is renamed into place after its bytes were fsynced: a torn epoch
    parquet left by a host crash would wedge follow mode for good. The
    per-file task body runs on the driver here, where ``renames``
    sees its renames."""
    _convert_on_driver(monkeypatch)
    env = tmp_path / "env"
    env.mkdir()
    for epoch, bad in ((0, {1}), (1, {0, 1})):  # one mixed, one all-bad epoch
        with open(env / f"epoch={epoch:05d}.jsonl", "w") as fh:
            for i in range(2):
                fh.write(json.dumps({
                    "op": "bogus" if i in bad else "c", "before": None,
                    "after": {"repo": "r", "path": f"p{i}", "content": "x"},
                    "source": {"seq": epoch * 10 + i},
                }) + "\n")
    out = str(tmp_path / "out")
    convert_envelope_dir(str(env), out, on_error="quarantine")
    published = dict(renames)

    on_disk = {
        os.path.abspath(p) for p in glob.glob(os.path.join(out, "**", "*"), recursive=True)
        if os.path.isfile(p)
    }
    assert on_disk == {
        os.path.join(out, n) for n in (
            "epoch=00000.parquet", "epoch=00001.parquet.empty",
            "_quarantine/epoch=00000.parquet", "_quarantine/epoch=00001.parquet",
        )
    }
    assert on_disk <= set(published) and all(published.values()), published


def test_convert_reads_a_row_longer_than_the_default_block(ray_session, tmp_path, monkeypatch):
    """One JSONL row past pyarrow's 1 MiB default block converts: the
    file is read as one block that spans it, once per file."""
    import pyarrow.json as pajson

    _convert_on_driver(monkeypatch)
    calls = []
    read_json = pajson.read_json
    monkeypatch.setattr(pajson, "read_json", lambda *a, **kw: calls.append(a) or read_json(*a, **kw))
    env = tmp_path / "env"
    env.mkdir()
    long = "x" * (3 << 20)
    for epoch in range(2):
        with open(env / f"epoch={epoch:05d}.jsonl", "w") as fh:
            for i, content in enumerate((long, "short")):
                fh.write(json.dumps({
                    "op": "c", "before": None,
                    "after": {"repo": "r", "path": f"p{epoch}-{i}", "content": content},
                    "source": {"seq": epoch * 10 + i},
                }) + "\n")
    outs = convert_envelope_dir(str(env), str(tmp_path / "out"))
    assert len(calls) == 2
    t = pq.read_table(outs[0])
    assert t["content"].to_pylist() == [long, "short"] and t["seq"].to_pylist() == [0, 1]


def test_convert_zero_byte_file_publishes_empty_marker(ray_session, tmp_path):
    """A zero-byte JSONL epoch (pyarrow refuses it as an empty JSON
    file) has no rows: it publishes ``<stem>.parquet.empty``, and a
    later call neither converts it again nor lists it."""
    env = tmp_path / "env"
    env.mkdir()
    (env / "epoch=00000.jsonl").write_text("")
    with open(env / "epoch=00001.jsonl", "w") as fh:
        fh.write(json.dumps({"op": "c", "after": {"repo": "r", "path": "p"},
                             "source": {"seq": 1}}) + "\n")
    out = str(tmp_path / "out")
    outs = convert_envelope_dir(str(env), out)
    assert outs == [os.path.join(out, "epoch=00001.parquet")]
    marker = os.path.join(out, "epoch=00000.parquet.empty")
    assert os.path.exists(marker)
    mtime = os.path.getmtime(marker)
    assert convert_envelope_dir(str(env), out) == outs
    assert os.path.getmtime(marker) == mtime
    assert sorted(os.listdir(out)) == ["epoch=00000.parquet.empty", "epoch=00001.parquet"]
