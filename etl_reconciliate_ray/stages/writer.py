"""Exactly-once parquet sink — the one task-side publish of a data file.

North-star requirement: exactly-once sink semantics (idempotent commit
log + per-partition epoch fencing). The reference has NO exactly-once
story (its report + email are simply re-sent on re-run,
``ReportAndEmailTasklet.java:46-47``); this stage is designed fresh for
Ray's retry model (SURVEY.md §4), and needs no stateful writer:

- the task that computed a file's rows writes the file itself — no
  object-store hop, no actor round-trip, no writer-pool serialization
  point;
- ``publish_parquet`` owns the publish policy: each slice in row
  groups of at most ``ROW_GROUP_BYTES`` of Arrow data (``group_spans``
  names them), min/max statistics only on ``STATS_COLUMNS``, a
  **content-addressed** name (the sha256 of the slices' Arrow IPC
  bytes) unless the caller names the file, a tmp file in the same
  directory that is fsynced and then atomically ``os.replace``d, and
  the directory fsynced after the rename (``publish_file``). A
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
  task and epoch, one key-sorted slice per bucket, holding that
  block's LWW winners), the lake-to-lake writes included;
- full bases — compaction and the pre-commit chain fold, sorted by
  key — through ``write_piece_local``;
- erasure's rewrites of lake files (caller-named) and of export-spool
  files (rewritten in place, ``erase_key_from_feed``);
- export segments (``export_changelog``, ``compact_feed``): each diff
  task writes its own file, one slice per changed part;
- the reconcile snapshot spool (``_spool_bucketed``, one slice per
  bucket) and the per-part detail spill (caller-named per part);
- quarantine's dead-letter files;
- a maintained view's state files (``MaintainedView._publish``, on
  the driver, one per block of the state, before ``_CURRENT`` moves);
- converted envelope epochs and their dead letters (caller-named);
- the report's tables.

Every sealed directory outside the lake — an export segment
(``_SEALED``), a rendered envelope segment (``_SEALED``) and a report
table (``_DONE``) — publishes through ``publish_sealed``: a sealed
directory is never written again, an unsealed one is cleared and
rewritten by the caller's tasks, and ``seal`` publishes its
``{rows, files}`` marker last. ``erase_key_from_feed`` reseals the
spool segments it rewrites through ``seal``.

Other files — the exported JSONL envelope parts, the report's csv and
xlsx renders, and every ``state.commitlog.Journal`` file and marker
(``Journal._write_atomic``) — publish by the same fsync, rename and
directory fsync, ``publish_file``: the engine's one rename of a
published name (the fixture generators rename their own outputs).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.hashing import table_state_sha256

#: the columns whose row-group min/max some reader uses: the chain
#: reader prunes on ``repo``/``path`` (key) and ``bucket`` (whole-file
#: links), binlog discovery orders epochs by ``seq``
#: (``replay._discover_epochs``). Every other column's statistics (the
#: payload's min/max, in the footer and again in each page header)
#: would be bytes no reader looks at.
STATS_COLUMNS = ("repo", "path", "bucket", "seq")

#: a row group holds at most this many bytes of Arrow data, at its
#: slice's average row size (``_group_cuts``)
ROW_GROUP_BYTES = 1 << 20


def _group_cuts(sl: pa.Table) -> list[int]:
    """The row offsets that cut slice ``sl`` into its row groups, from
    0 to its row count. A group holds at most ``ROW_GROUP_BYTES`` of
    Arrow data and is cut only where ``repo`` changes value, unless one
    repo's run alone is longer than a group: that run is cut into equal
    parts and shares no group. So a group of a key-sorted slice holds
    whole repos or one part of a repo's run, and its repo and path
    min/max admit no key that another group holds."""
    n = sl.num_rows
    cap = max(1, ROW_GROUP_BYTES * n // max(1, sl.nbytes))
    if n <= cap:
        return [0, n]
    if "repo" in sl.column_names:
        r = sl["repo"]
        starts = np.flatnonzero(
            pc.fill_null(pc.not_equal(r.slice(1), r.slice(0, n - 1)), True).to_numpy(
                zero_copy_only=False)
        ) + 1
    else:
        starts = np.arange(1, n)
    cuts = [0]
    while n - cuts[-1] > cap:
        lo = cuts[-1]
        i = int(np.searchsorted(starts, lo + cap, side="right"))
        c = int(starts[i - 1]) if i else 0
        if c > lo:  # whole runs up to the last start that fits
            cuts.append(c)
            continue
        end = int(starts[i]) if i < len(starts) else n  # one run longer than a group
        k = -(-(end - lo) // cap)
        cuts += [lo + (end - lo) * j // k for j in range(1, k + 1)]
    return cuts if cuts[-1] == n else cuts + [n]


def group_spans(slices: list[pa.Table]) -> list[tuple[int, int]]:
    """``(first, count)``: the row groups ``publish_parquet`` writes
    each of ``slices`` as."""
    out, first = [], 0
    for sl in slices:
        count = len(_group_cuts(sl)) - 1
        out.append((first, count))
        first += count
    return out


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
    ``out_dir``. Each slice is its own run of row groups (one for a
    0-row slice; ``_group_cuts``), so callers address a slice by the
    span ``group_spans`` gives; min/max statistics are written for
    ``STATS_COLUMNS`` only. The file is ``name``, or
    ``<prefix>-<digest>.parquet`` named by its content, which is
    skipped if it already exists. The bytes go to a tmp file beside the
    target, which ``publish_file`` renames over it durably. Returns the
    file's path."""
    path = os.path.join(out_dir, name or f"{prefix}-{_digest(slices)}.parquet")
    if name is None and os.path.exists(path):
        return path
    os.makedirs(out_dir, exist_ok=True)
    tmp = f"{path}.tmp{os.getpid()}"
    schema = slices[0].schema
    stats = [c for c in STATS_COLUMNS if c in schema.names]
    with pq.ParquetWriter(tmp, schema, write_statistics=stats or False) as w:
        for sl in slices:
            cuts = _group_cuts(sl)
            for a, b in zip(cuts, cuts[1:]):
                w.write_table(sl.slice(a, b - a), row_group_size=max(1, b - a))
    publish_file(tmp, path)
    return path


def publish_file(tmp: str, path: str) -> None:
    """Rename the finished file ``tmp`` over ``path`` once its bytes
    are on disk (fsync, then ``os.replace``), then fsync the directory
    so the rename itself is on disk before this returns: after a host
    crash no published name holds a torn file, and none a later
    publish refers to is missing."""
    with open(tmp, "rb") as fh:
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_dir(path)


def fsync_dir(path: str) -> None:
    """fsync the directory holding ``path``, so a name just made there
    (by a rename or a create) is on disk."""
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def publish_sealed(out_dir: str, write, marker: str = "_SEALED") -> dict:
    """Publish ``out_dir`` as a sealed directory: files, then the
    ``marker`` that makes them visible. A directory whose marker exists
    is sealed and is not written again; its marker's record is
    returned. Otherwise the leftovers of a crashed attempt are cleared
    (its tasks may have split the rows into other files), ``write()``
    runs (tasks that publish their own files into ``out_dir`` and
    return a table of each file's ``file`` and ``rows``) and ``seal``
    publishes the marker. Returns the marker's ``{rows, files}``."""
    path = os.path.join(out_dir, marker)
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    return seal(path, write())


def seal(marker_path: str, written: pa.Table) -> dict:
    """Publish the marker ``{rows, files}`` of the files ``written``
    lists (columns ``file`` and ``rows``; a file listed twice, such as
    two tasks' equal zero-row files, counts once) through
    ``Journal._write_atomic``, so a consumer can check what it reads.
    Returns the record."""
    from ..state.commitlog import Journal

    cols = written.to_pydict()  # no columns when nothing was written
    files = dict(zip(cols.get("file", []), cols.get("rows", [])))
    rec = {"rows": sum(files.values()), "files": len(files)}
    Journal._write_atomic(marker_path, [rec])
    return rec


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
