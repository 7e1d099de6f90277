"""Exactly-once parquet sink — task-side piece writes.

North-star requirement: exactly-once sink semantics (idempotent commit
log + per-partition epoch fencing). The reference has NO exactly-once
story (its report + email are simply re-sent on re-run,
``ReportAndEmailTasklet.java:46-47``); this stage is designed fresh for
Ray's retry model (SURVEY.md §4), and needs no stateful writer:

- the task that computed a piece writes it itself — no object-store
  hop, no actor round-trip, no writer-pool serialization point;
- file names are **content-addressed** (sha256 of the piece's
  key->hash state) and published tmp-file + atomic ``os.replace``: a
  retried task re-writes byte-identical bytes to the same name —
  idempotent under Ray task retries;
- visibility is manifest-gated: tasks only WRITE; the driver appends
  the returned commit records to the commit log under the
  **per-partition (epoch, part) fence** and seals the epoch
  (single-writer log; state/commitlog.py), so a re-delivered piece is
  never committed twice.

Epoch deltas are written by ``replay._apply_epochs`` (one file per
task and epoch, one row group per bucket, holding that block's LWW
winners with ``content_sha256`` derived after LWW; the binlog read sizes
its blocks by CPUs and bytes, so a small single-file epoch is one task
and each (epoch, bucket) link one piece), and so are the lake-to-lake
writes, rebucketing included, whose read blocks are a source lake's
parts; full bases — compaction and the pre-commit chain fold — go
through ``write_piece_local``.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.hashing import table_state_sha256


def write_piece_local(lake_root: str, epoch: int, part: int, tbl: pa.Table,
                      kind: str = "full") -> dict:
    """Task-side piece write: the file name is content-addressed (sha
    of the key->hash state), published tmp + atomic replace, so a
    retried task that recomputes the same state rewrites
    byte-identical bytes to the same name. The run-level fence stays
    with the driver's commit log (``_commit_manifest_rows``)."""
    piece_sha = table_state_sha256(tbl, ("repo", "path"), "content_sha256")
    out_dir = os.path.join(lake_root, f"epoch={epoch:05d}", f"part={part:05d}")
    os.makedirs(out_dir, exist_ok=True)
    fname = os.path.join(
        out_dir, f"{'state' if kind == 'full' else 'delta'}-{piece_sha[:16]}.parquet"
    )
    if not os.path.exists(fname):  # idempotent: same content -> same name
        tmp = fname + f".tmp{os.getpid()}"
        pq.write_table(tbl, tmp)
        os.replace(tmp, fname)  # atomic publish of the file itself
    return {
        "epoch": epoch,
        "part": part,
        "file": fname,
        "rows": tbl.num_rows,
        "state_sha256": piece_sha,
        "kind": kind,
    }
