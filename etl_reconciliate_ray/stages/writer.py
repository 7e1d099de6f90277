"""Exactly-once parquet sink — the one task-side publish of a data file.

North-star requirement: exactly-once sink semantics (idempotent commit
log + per-partition epoch fencing). The reference has NO exactly-once
story (its report + email are simply re-sent on re-run,
``ReportAndEmailTasklet.java:46-47``); this stage is designed fresh for
Ray's retry model (SURVEY.md §4), and needs no stateful writer:

- the task that computed a file's rows writes the file itself — no
  object-store hop, no actor round-trip, no writer-pool serialization
  point;
- ``publish_parquet`` owns the publish policy: one row group per
  slice, a **content-addressed** name (the sha256 of the slices' Arrow
  IPC bytes) unless the caller names the file, a tmp file in the same
  directory that is fsynced and then atomically ``os.replace``d. A
  retried task re-derives the same name, and a content-addressed file
  that already exists is not written again — idempotent under Ray task
  retries. A stale tmp file from a crashed attempt is never read;
- visibility is manifest-gated: tasks only WRITE; the driver appends
  the returned commit records to the commit log under the
  **per-partition (epoch, part) fence** and seals the epoch
  (single-writer log; state/commitlog.py), so a re-delivered piece is
  never committed twice. Spools outside the lake publish the same way
  and become visible by their own fsynced driver-side marker.

Every data file the engine writes goes through ``publish_parquet``:

- epoch deltas (``replay._apply_epochs``' direct write: one file per
  task and epoch, one row group per bucket, holding that block's LWW
  winners), the lake-to-lake writes included;
- full bases — compaction and the pre-commit chain fold —
  through ``write_piece_local``;
- erasure's rewrites of lake files (caller-named) and of export-spool
  files (rewritten in place, ``erase_key_from_feed``);
- export segments (``export_changelog``, ``compact_feed``): each diff
  task writes its own file, one row group per changed part;
- the reconcile snapshot spool (``_spool_bucketed``, one row group per
  bucket) and the per-part detail spill (caller-named per part);
- quarantine's dead-letter files.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.hashing import table_state_sha256


def _digest(slices: list[pa.Table]) -> str:
    """sha256 (16 hex digits) of the slices' Arrow IPC streams, in
    order: equal slices give equal names."""
    h = hashlib.sha256()
    for sl in slices:
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, sl.schema) as w:
            w.write_table(sl)
        h.update(sink.getvalue())
    return h.hexdigest()[:16]


def publish_parquet(out_dir: str, slices: list[pa.Table], prefix: str = "part",
                    name: str | None = None) -> str:
    """Publish ``slices`` (one schema) as ONE parquet file in
    ``out_dir``, one row group per slice — also a 0-row slice and past
    pyarrow's 1Mi-row default, so callers can address row groups by
    ordinal. The file is ``name``, or ``<prefix>-<digest>.parquet``
    named by its content, which is skipped if it already exists. The
    bytes go to a tmp file beside the target, fsynced, then
    ``os.replace``d over it. Returns the file's path."""
    path = os.path.join(out_dir, name or f"{prefix}-{_digest(slices)}.parquet")
    if name is None and os.path.exists(path):
        return path
    os.makedirs(out_dir, exist_ok=True)
    tmp = f"{path}.tmp{os.getpid()}"
    with pq.ParquetWriter(tmp, slices[0].schema) as w:
        for sl in slices:
            w.write_table(sl, row_group_size=max(1, sl.num_rows))
    with open(tmp, "rb") as fh:
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def write_piece_local(lake_root: str, epoch: int, part: int, tbl: pa.Table,
                      kind: str = "full") -> dict:
    """Task-side piece write of one part's ``tbl`` into
    ``<lake>/epoch=<epoch>/part=<part>/`` (``publish_parquet``), with
    its commit record. The run-level fence stays with the driver's
    commit log (``_commit_manifest_rows``)."""
    out_dir = os.path.join(lake_root, f"epoch={epoch:05d}", f"part={part:05d}")
    return {
        "epoch": epoch,
        "part": part,
        "file": publish_parquet(out_dir, [tbl], "state" if kind == "full" else "delta"),
        "rows": tbl.num_rows,
        "state_sha256": table_state_sha256(tbl, ("repo", "path"), "content_sha256"),
        "kind": kind,
    }
