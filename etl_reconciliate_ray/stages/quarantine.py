"""Dead-letter quarantine: split invalid rows out of a stream into a
durable side-channel instead of crashing or silently dropping them.

The reference wraps every row-mapper field access in try/catch and
emits partially-populated DTOs, losing the bad rows' identity
(``AsMonitoringMessagesDAOImpl.java:66-79``, SURVEY §2 M1-M4); here
the contract is stronger: every rejected row is written to
``quarantine_dir/`` tagged with the FIRST validity rule it failed, so
an operator can inspect, fix, and re-ingest — nothing is lost, nothing
bad reaches the lake.

Scale shape: checks are vectorized Arrow/numpy masks evaluated per
batch; rejected rows are written TASK-SIDE (``publish_parquet``, name
keyed on (task id, within-task batch ordinal, content digest) —
retry-idempotent AND collision-free, no object-store hop, the same
publish as replay's direct_write); the clean stream flows on unchanged. Cost
is O(bad rows) extra I/O, zero extra passes.

At multi-node scale ``quarantine_dir`` must be shared storage (the
lake root) — the writes are task-side, so a node-local path would
scatter dead letters across workers."""

from __future__ import annotations

import os
from typing import Callable, Sequence

import numpy as np
import pyarrow as pa

from .writer import publish_parquet

#: a check: (reason, fn(batch) -> pa/np boolean mask of BAD rows)
Check = tuple[str, Callable[[pa.Table], "pa.Array | np.ndarray"]]

# within-task batch ordinals, keyed by (task_id, attempt): a retried
# task replays the same blocks in the same order, so (task_id, ordinal)
# is stable across attempts while distinct batches — even with
# byte-identical content — never share a name.
_batch_ordinals: dict[tuple[str, int], int] = {}


def _batch_identity() -> tuple[str, int]:
    """(task_id, within-task batch ordinal), stable across task retries."""
    import ray

    ctx = ray.get_runtime_context()
    task_id = ctx.get_task_id() or "driver"
    try:
        attempt = ctx.get_attempt_number()
    except Exception:
        attempt = 0
    key = (task_id, attempt)
    ordinal = _batch_ordinals.get(key, 0)
    _batch_ordinals[key] = ordinal + 1
    return task_id, ordinal


def quarantine_split(ds, checks: Sequence[Check], quarantine_dir: str):
    """Route rows failing any check to ``quarantine_dir`` (with a
    ``reason`` column, first failing rule wins, rule order is the
    priority order); return the clean Dataset.

    Within one run, task retries are idempotent (stable names, atomic
    replace). Across runs, ``quarantine_dir`` must be run-scoped (or
    cleared) — a rerun appends rather than dedupes, because dedupe by
    content alone would merge genuinely distinct duplicate dead
    letters and break losslessness."""
    checks = list(checks)
    os.makedirs(quarantine_dir, exist_ok=True)

    def split(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return batch
        reason = np.full(n, "", dtype=object)
        for name, fn in checks:
            m = fn(batch)
            if isinstance(m, (pa.Array, pa.ChunkedArray)):
                m = m.to_numpy(zero_copy_only=False)
            m = np.asarray(m, dtype=bool) & (reason == "")
            reason[m] = name
        bad_mask = reason != ""
        if bad_mask.any():
            bad = batch.filter(pa.array(bad_mask)).append_column(
                "reason", pa.array(reason[bad_mask], pa.string())
            )
            # name = (task id, within-task ordinal, content digest): a
            # retried task re-derives the same path and skips the write
            # — idempotent — while distinct batches with IDENTICAL
            # content (duplicate bad rows are normal in dead-letter
            # traffic) still get distinct names, so the split stays
            # lossless (bad rows are few, so digesting them is O(bad)
            # not O(stream))
            task_id, ordinal = _batch_identity()
            publish_parquet(quarantine_dir, [bad], f"dlq-{task_id[:16]}-{ordinal:05d}")
        return batch.filter(pa.array(~bad_mask))

    return ds.map_batches(split, batch_format="pyarrow")


def read_quarantine(quarantine_dir: str):
    """The dead-letter rows (original columns + ``reason``) as a lazy
    Dataset of the files published so far (``replay._read_dataset``);
    no files -> an empty Dataset with a ``reason`` column."""
    import glob

    import pyarrow.parquet as pq

    from ..pipelines.replay import _read_dataset

    files = sorted(glob.glob(os.path.join(quarantine_dir, "dlq-*.parquet")))
    return _read_dataset(files, pq.read_table, pa.table({"reason": pa.array([], pa.string())}))
