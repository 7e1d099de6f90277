"""Flagship pipeline for the driver's ``entry()`` smoke check:
full CDC replay + reconcile driven from the driver's ``documents``
table (sf0.001), end to end through the real engine path
(normalize -> task-side LWW delta write -> commit log -> reconcile
cogroup -> status counts).

The binlog is a DETERMINISTIC function of the input table (no RNG, no
wall clock): per doc_id, ops are chosen by residue classes, so the
expected final state is computable and the run is reproducible.
"""

from __future__ import annotations

import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..sources.catalog import read_table_pandas
from ..stages.normalize import make_normalizer
from .reconcile_run import reconcile_lake_vs_snapshot
from .replay import ReplayConfig, bootstrap, run_epoch


def docs_to_lake(docs: pd.DataFrame) -> pd.DataFrame:
    """documents(doc_id, text, lang, source) -> lake rows keyed by
    (repo=source, path=doc/<id>)."""
    return pd.DataFrame(
        {
            "repo": docs["source"].astype(str),
            "path": "doc/" + docs["doc_id"].astype(str) + ".txt",
            "commit": "c0" + docs["doc_id"].astype(str),
            "lang": docs["lang"].astype(str),
            "content": docs["text"].astype(str),
        }
    )


def docs_to_binlog(docs: pd.DataFrame) -> pd.DataFrame:
    """Deterministic epoch of change events: doc_id%5==0 -> U (content
    appended), doc_id%7==3 -> D, doc_id%11==4 -> I of a new key."""
    lake = docs_to_lake(docs)
    d = docs["doc_id"].to_numpy()
    rows = []
    seq = 0
    for i in range(len(docs)):
        repo, path, content = lake["repo"].iat[i], lake["path"].iat[i], lake["content"].iat[i]
        if d[i] % 5 == 0:
            rows.append(("U", repo, path, f"c1{d[i]}", lake["lang"].iat[i], content + " v2"))
        if d[i] % 7 == 3:
            rows.append(("D", repo, path, f"cd{d[i]}", None, None))
        if d[i] % 11 == 4:
            rows.append(("I", repo, f"doc/new{d[i]}.txt", f"cn{d[i]}", "md", f"new doc {d[i]}"))
    out = pd.DataFrame(rows, columns=["op", "repo", "path", "commit", "lang", "content"])
    out.insert(0, "seq", range(len(out)))
    out["ts"] = pd.Timestamp("2025-06-01") + pd.to_timedelta(out["seq"], unit="s")
    return out


def run_flagship(sf_dir: str, workdir: str = "/tmp/etl_rec_flagship"):
    """Replay the derived binlog over the derived lake and reconcile the
    result against the pre-replay snapshot. Returns the per-status
    counts DataFrame (columns: status, n)."""
    import ray.data as rd

    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir, exist_ok=True)
    docs = read_table_pandas(sf_dir, "documents", columns=["doc_id", "text", "lang", "source"])
    lake_seed = docs_to_lake(docs)
    binlog = docs_to_binlog(docs)
    seed_path = os.path.join(workdir, "lake_seed.parquet")
    pq.write_table(pa.Table.from_pandas(lake_seed, preserve_index=False), seed_path)
    binlog_path = os.path.join(workdir, "binlog.parquet")
    pq.write_table(pa.Table.from_pandas(binlog, preserve_index=False), binlog_path)

    cfg = ReplayConfig(lake_root=os.path.join(workdir, "lake"), num_buckets=8)
    bootstrap(seed_path, cfg)
    run_epoch(rd.read_parquet(binlog_path), 1, cfg, input_seq=(0, len(binlog)))

    # reconcile the replayed lake against the PRE-replay snapshot:
    # U rows -> VALUE_DIFF, D rows -> MISSING_LEFT, I rows -> MISSING_RIGHT
    snapshot = rd.read_parquet(seed_path).map_batches(
        make_normalizer(num_buckets=8), batch_format="pyarrow"
    )
    _, _, counts = reconcile_lake_vs_snapshot(cfg.lake_root, snapshot, num_buckets=8)
    return counts
