"""Binlog read blocks and the one-piece epoch write.

- a single-file epoch reads as one block under the default block rule,
  so each touched (epoch, bucket) link holds exactly one piece: that
  epoch's LWW winners in the bucket;
- a forced split (``read_parallelism``) writes multi-piece links that
  resolve to the same lake, and in both cases ``content_sha256`` is
  derived for the winners (null on tombstones) or kept when the input
  carries it.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from etl_reconciliate_ray.functions.hashing import bucket_of
from etl_reconciliate_ray.pipelines.replay import (
    ReplayConfig,
    lake_state_hash,
    lake_table,
    replay_stream,
)
from etl_reconciliate_ray.state.commitlog import CommitLog

NUM_BUCKETS = 8


def _write_binlog(root: str, n_epochs: int = 3, per_epoch: int = 1500) -> list[pd.DataFrame]:
    """Single-file epochs over 120 keys, half the events on 3 hot keys,
    ~15% deletes; ``size_bytes`` is added from the second epoch on."""
    rng = np.random.RandomState(11)
    keys = [(f"org/repo{k % 6}", f"src/f{k}.py") for k in range(120)]
    os.makedirs(os.path.join(root, "binlog"))
    frames, seq = [], 0
    for e in range(n_epochs):
        hot = rng.rand(per_epoch) < 0.5
        k = np.where(hot, rng.randint(0, 3, per_epoch), rng.randint(0, len(keys), per_epoch))
        ops = np.where(rng.rand(per_epoch) < 0.15, "D", np.where(rng.rand(per_epoch) < 0.3, "I", "U"))
        content = [None if o == "D" else f"body {e} {s} " + "x" * int(rng.randint(20, 200))
                   for o, s in zip(ops, range(seq, seq + per_epoch))]
        df = pd.DataFrame({
            "seq": np.arange(seq, seq + per_epoch, dtype=np.int64),
            "op": ops,
            "repo": [keys[i][0] for i in k],
            "path": [keys[i][1] for i in k],
            "commit": [f"c{s}" for s in range(seq, seq + per_epoch)],
            "lang": "py",
            "content": content,
        })
        if e >= 1:
            df["size_bytes"] = [None if c is None else len(c) for c in content]
            df["size_bytes"] = df["size_bytes"].astype("Int64")
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                       os.path.join(root, "binlog", f"epoch={e:05d}.parquet"))
        frames.append(df)
        seq += per_epoch
    return frames


def _delta_rows(lake_root: str) -> pd.DataFrame:
    """Every row of every delta piece the lake's log references."""
    log = CommitLog.open(lake_root)
    out = []
    for ent in log.all_entries():
        if ent.kind != "delta":
            continue
        for f, rg in zip(ent.files, ent.rgs or (-1,) * len(ent.files)):
            pf = pq.ParquetFile(f)
            t = pf.read_row_group(rg) if rg >= 0 else pf.read()
            out.append(t.select(["repo", "path", "op", "content", "content_sha256"]).to_pandas())
    return pd.concat(out, ignore_index=True)


def _assert_winner_hashes(lake_root: str) -> None:
    rows = _delta_rows(lake_root)
    assert len(rows) > 0
    tomb = rows["op"] == "D"
    assert tomb.any() and rows.loc[tomb, "content_sha256"].isna().all()
    live = rows[~tomb]
    want = live["content"].map(lambda s: hashlib.sha256(s.encode()).hexdigest())
    assert (live["content_sha256"].values == want.values).all()


@pytest.mark.parametrize("pipeline_epochs", [1, 3])
def test_single_file_epoch_writes_one_piece_per_bucket(tmp_path, pipeline_epochs):
    """Default block rule: each single-file epoch is one read block, so
    each (epoch, bucket) link it touches is ONE piece holding exactly
    the epoch's distinct keys in that bucket, the epoch's ``pieces``
    equals the buckets it touched, and ``read_blocks`` (metrics and
    lineage.json) is 1 per window."""
    root = str(tmp_path)
    frames = _write_binlog(root)
    cfg = ReplayConfig(lake_root=os.path.join(root, "lake"), num_buckets=NUM_BUCKETS,
                       pipeline_epochs=pipeline_epochs)
    metrics = replay_stream(os.path.join(root, "binlog"), cfg)
    assert [m["epoch"] for m in metrics] == [1, 2, 3]

    log = CommitLog.open(cfg.lake_root)
    for m, df in zip(metrics, frames):
        b = bucket_of(pa.array(df["repo"]), pa.array(df["path"]), NUM_BUCKETS, {})
        keys = df.assign(bucket=b.to_numpy(zero_copy_only=False))
        want = keys.groupby("bucket")[["repo", "path"]].apply(
            lambda g: len(g.drop_duplicates())
        ).to_dict()
        got = {
            e.part: e for e in log.all_entries() if e.epoch == m["epoch"]
        }
        assert sorted(got) == sorted(want)
        for part, ent in got.items():
            assert len(ent.files) == 1, (m["epoch"], part, ent.files)
            assert ent.rows == want[part]
        assert m["pieces"] == len(want) == m["parts_committed"]
        assert m["read_blocks"] == 1
        assert m["rows_written"] == sum(want.values())
    with open(os.path.join(cfg.lake_root, "lineage.json")) as fh:
        assert json.load(fh)["last_epoch_metrics"]["read_blocks"] == 1
    _assert_winner_hashes(cfg.lake_root)


def test_forced_split_matches_default_read(tmp_path):
    """The same binlog (hot keys, deletes, a column added mid-window)
    replayed with ``read_parallelism=4`` — multi-piece links, each block
    writing its own partial winners — and with the default one-block
    read resolves to the same lake. Every written delta row's
    ``content_sha256`` is sha256(content), null on tombstones. A
    sha-only feed replicated from the lake keeps the hashes it carries
    (it has no content to derive them from)."""
    from etl_reconciliate_ray.pipelines.replay import export_changelog, replicate_feed

    root = str(tmp_path)
    _write_binlog(root)
    binlog = os.path.join(root, "binlog")
    forced = ReplayConfig(lake_root=os.path.join(root, "forced"), num_buckets=NUM_BUCKETS,
                          read_parallelism=4, pipeline_epochs=3)
    default = ReplayConfig(lake_root=os.path.join(root, "default"), num_buckets=NUM_BUCKETS,
                           pipeline_epochs=3)
    mf = replay_stream(binlog, forced)
    md = replay_stream(binlog, default)
    assert all(m["read_blocks"] > 1 for m in mf)
    assert all(m["read_blocks"] == 1 for m in md)
    # the forced read really split the links
    assert sum(m["pieces"] for m in mf) > sum(m["pieces"] for m in md)
    assert any(len(e.files) > 1 for e in CommitLog.open(forced.lake_root).all_entries())

    assert lake_state_hash(forced.lake_root) == lake_state_hash(default.lake_root)
    tf = lake_table(forced.lake_root)
    td = lake_table(default.lake_root)
    assert "size_bytes" in td.column_names
    cols = sorted(td.column_names)
    assert sorted(tf.column_names) == cols
    keyed = [("repo", "ascending"), ("path", "ascending")]
    assert tf.select(cols).sort_by(keyed).equals(td.select(cols).sort_by(keyed))
    for lake in (forced, default):
        _assert_winner_hashes(lake.lake_root)

    feed = os.path.join(root, "feed")
    export_changelog(default.lake_root, feed)  # image_cols=None: sha-only
    seg_cols = [pq.read_schema(f).names
                for f in glob.glob(os.path.join(feed, "feed", "*", "*.parquet"))]
    assert seg_cols and all("content" not in names for names in seg_cols)
    replica = ReplayConfig(lake_root=os.path.join(root, "replica"), num_buckets=4)
    replicate_feed(feed, replica)
    assert "content" not in lake_table(replica.lake_root).column_names
    assert lake_state_hash(replica.lake_root) == lake_state_hash(default.lake_root)
