"""Normalize stage: typed projection + content sha256 + partition id.

Ray-Data-first replacement for the reference's null-tolerant row
mappers (M1-M4, e.g. ``AsMonitoringMessagesDAOImpl.java:66-79`` wraps
every field get in try/catch and emits partially-populated DTOs) —
Arrow nulls flow through natively, so normalization is a pure
vectorized ``map_batches(fn, batch_format="pyarrow")`` stage:

- rebind null-typed string-contract columns (``bind_null_strings``),
- derive ``content_sha256`` (F6 / north-rule per-row invariant),
- derive ``bucket`` — the physical partition id (hash of ``repo`` with
  salted-key splitting for hot monorepos, SURVEY.md §4).

``make_normalizer`` serves the snapshot and catalog readers, which
keep every row. The replay write path does NOT use it: its epoch-tag
step binds the strings and adds the bucket, and ``content_sha256`` is
derived after LWW, for the winners only (``replay._apply_epochs``), so
a key updated k times in an epoch is hashed once, not k times. An input
that already carries ``content_sha256`` (a replicated feed) keeps it on
both paths.

Stateless task stage: no per-worker state to amortize, so a plain
function (not an actor pool) is the right Ray Data shape.
"""

from __future__ import annotations

from typing import Callable

import pyarrow as pa

from ..functions.hashing import bucket_of, sha256_hex_array


def bind_null_strings(batch: pa.Table, content_col: str = "content") -> pa.Table:
    """Rebind the engine's string-contract columns that arrive as Arrow
    ``null`` type to ``string``.

    A batch whose string column is entirely null can carry the ``null``
    type (e.g. an all-delete epoch written by a schema-inferring
    producer); every downstream hash/aggregate kernel needs a real type.
    Only the engine's known string columns are rebound — rebinding an
    arbitrary payload column (say an optional int64) would give THIS
    block a string schema while other blocks keep the real type,
    breaking cross-block unification, whereas the null type promotes
    cleanly under permissive concat."""
    string_contract = {"repo", "path", "commit", "op", content_col, "content_sha256"}
    for c in batch.column_names:
        if c in string_contract and pa.types.is_null(batch.schema.field(c).type):
            batch = batch.set_column(
                batch.column_names.index(c), c, pa.nulls(batch.num_rows, pa.string())
            )
    return batch


def make_normalizer(
    num_buckets: int,
    salt_for_repo: dict[str, int] | None = None,
    content_col: str = "content",
) -> Callable[[pa.Table], pa.Table]:
    """Build the per-batch normalize fn (zero-copy Arrow in/out)."""

    def normalize(batch: pa.Table) -> pa.Table:
        batch = bind_null_strings(batch, content_col)
        if "content_sha256" not in batch.column_names:
            batch = batch.append_column("content_sha256", sha256_hex_array(batch[content_col]))
        if "bucket" not in batch.column_names:
            batch = batch.append_column(
                "bucket", bucket_of(batch["repo"], batch["path"], num_buckets, salt_for_repo)
            )
        return batch

    return normalize
