"""Incremental view maintenance (IVM) over the lake's own CDC feed.

A maintained aggregate view — per-key counts and sums kept current by
applying the SIGNED deltas of a ``lake_changelog`` feed instead of
recomputing from the full lake each epoch. This is the
downstream-consumer half of the engine's CDC story (the reference only
INGESTS change feeds — ``LoadJpatBatchesTasklet.java`` upserts by key;
emitting a feed and maintaining views over it is the graft-added
Debezium/Materialize-style completion of that loop).

Semantics (classic delta-aggregation, e.g. Gupta & Mumick's view
maintenance survey): for a view ``SELECT keys, COUNT(*), SUM(f(col))
GROUP BY keys`` over the lake, every change emits signed rows

    'I' contributes (+1, +f(new)) keyed by the NEW key values,
    'D' contributes (-1, -f(old)) keyed by the OLD key values,
    'U' contributes BOTH — so an update that moves a row between key
        groups debits the old group and credits the new one, and one
        that stays nets to (0, +f(new) - f(old)),

and a key group whose maintained count reaches 0 leaves the view —
exactly the result of recomputing the aggregate on the new state
(verified against direct recompute and a DuckDB oracle in
``tests/test_ivm.py`` / ``ivm_repo_stats``).

Scale shape: the changelog is already a per-bucket streaming diff (no
shuffle); delta extraction is a map-only Arrow pass; base rows and
delta rows then share ONE partial-aggregated shuffle
(``preagg_groupby``) whose exchange volume is O(distinct keys), not
O(rows). Only the new state, O(distinct keys), streams through the
driver, a block at a time, to be published.
"""

from __future__ import annotations

import glob
import os
import shutil
from typing import Callable, Mapping

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..state.commitlog import CommitLog
from .agg import preagg_groupby
from .writer import publish_parquet

# named transforms keep the map fn picklable and the call sites
# declarative; callables are accepted too
TRANSFORMS: dict[str, Callable[[pa.ChunkedArray], pa.ChunkedArray]] = {
    "identity": lambda a: a,
    "utf8_length": lambda a: pc.utf8_length(a),
    "binary_length": lambda a: pc.binary_length(a),
}


def _resolve(transform) -> Callable:
    if transform is None:
        return TRANSFORMS["identity"]
    if callable(transform):
        return transform
    return TRANSFORMS[transform]


def changelog_delta_rows(
    changelog_ds,
    keys: list[str],
    count_name: str,
    sums: Mapping[str, tuple[str, object]] | None = None,
):
    """Map a ``lake_changelog(..., image_cols=...)`` feed to signed
    per-row delta rows ``keys + [count_name] + sum names`` (all deltas
    int64). ``sums``: {out_name: (image_col, transform)} where
    ``image_col`` must have been requested via ``image_cols`` and
    transform is a ``TRANSFORMS`` key, a callable, or None (identity).

    Each change emits up to TWO rows (the classic signed-delta form):
    a negative row keyed by the OLD key values (count -1, -f(old)) for
    D/U, and a positive row keyed by the NEW key values (count +1,
    +f(new)) for I/U — so a view keyed on a mutable lake column (e.g.
    ``lang``) is maintained correctly when an update MOVES a row
    between key groups; a U that stays in its group nets to the usual
    (0, f(new) - f(old)) inside the aggregate. Key columns other than
    the lake primary key (repo, path) must have been requested via
    ``image_cols`` (``MaintainedView.advance`` does this
    automatically). Map-only; feed the result to an aggregate
    (``maintain_aggregate`` does, sharing one shuffle with the base
    state)."""
    keys = list(keys)
    sums = dict(sums or {})

    def signed_term(col, fn) -> pa.ChunkedArray | pa.Array:
        # an all-I or all-D slice of the feed can arrive with its
        # absent image column as Arrow null type (no values to infer
        # from); fn(all-null) is all-null, so skip the kernel — most
        # string fns have no null-type kernel and would crash
        if pa.types.is_null(col.type):
            return pa.nulls(len(col), pa.int64())
        return pc.cast(fn(col), pa.int64())

    def key_col(batch: pa.Table, k: str, side: str):
        # mutable key columns ride the feed as <k>_old/<k>_new images;
        # the lake primary key (repo, path) is immutable per row and
        # rides as itself
        name = f"{k}_{side}"
        return batch[name] if name in batch.column_names else batch[k]

    def side_rows(batch: pa.Table, side: str, sign: int) -> pa.Table:
        n = batch.num_rows
        cols: dict[str, object] = {
            k: key_col(batch, k, side) for k in keys
        }
        cols[count_name] = pa.repeat(pa.scalar(sign, pa.int64()), n)
        for out, (src, transform) in sums.items():
            fn = _resolve(transform)
            # the lake primary key (repo, path) is immutable per row
            # and rides as itself, never as <src>_old/<src>_new images
            # — same fallback as key_col (a sum over a pk column
            # otherwise KeyErrors inside the task)
            name = f"{src}_{side}"
            src_col = batch[name] if name in batch.column_names else batch[src]
            term = pc.fill_null(signed_term(src_col, fn), 0)
            cols[out] = term if sign > 0 else pc.negate_checked(term)
        return pa.table(cols)

    def to_deltas(batch: pa.Table) -> pa.Table:
        ch = batch["change"]
        pos = batch.filter(pc.not_equal(ch, "D"))  # I and U gain new
        neg = batch.filter(pc.not_equal(ch, "I"))  # D and U lose old
        # permissive: an all-I slice's *_old key images arrive as Arrow
        # null type (its negative half is then 0 rows but still typed)
        return pa.concat_tables(
            [side_rows(pos, "new", 1), side_rows(neg, "old", -1)],
            promote_options="permissive",
        )

    return changelog_ds.map_batches(to_deltas, batch_format="pyarrow")


def maintain_aggregate(
    base_ds,
    changelog_ds,
    keys: list[str],
    count_name: str,
    sums: Mapping[str, tuple[str, object]] | None = None,
):
    """Advance a maintained count/sum view from ``base_ds`` (rows with
    columns ``keys + [count_name] + sum names`` — either a previously
    maintained state or per-row contributions of the base lake state)
    by the signed deltas of ``changelog_ds``. Returns the new view
    state; groups whose count reaches 0 are dropped (the key left the
    lake). One partial-aggregated shuffle total — base rows and delta
    rows are unioned BEFORE the exchange, so maintenance costs one
    tiny aggregate, not two."""
    keys = list(keys)
    measure_names = [count_name] + list(sums or {})
    deltas = changelog_delta_rows(changelog_ds, keys, count_name, sums)
    merged = preagg_groupby(
        base_ds.union(deltas),
        keys,
        sums={m: m for m in measure_names},
    )

    def live_groups(t: pa.Table) -> pa.Table:
        # count == 0: the key left the lake — retire the group. A
        # NEGATIVE count can only mean the feed doesn't correspond to
        # this base state (wrong epoch range, or a replayed/duplicated
        # feed): refuse loudly — a silently dropped negative group
        # would leave the view wrong forever.
        if t.num_rows and pc.min(t[count_name]).as_py() < 0:
            bad = t.filter(pc.less(t[count_name], 0))
            raise ValueError(
                f"maintained count went negative for {bad.num_rows} "
                f"group(s) (e.g. {bad.slice(0, 3).to_pylist()}): the "
                "changelog feed does not correspond to the base state"
            )
        return t.filter(pc.greater(t[count_name], 0))

    return merged.map_batches(live_groups, batch_format="pyarrow")


class MaintainedView:
    """A persistent maintained aggregate over a lake — the continuous
    (follow-mode) face of ``maintain_aggregate``. The view bootstraps
    ONCE from a full lake scan, then each ``advance()`` brings it to
    the lake's sealed head purely from ``lake_changelog`` deltas:
    work per advance is O(changed keys), never a rescan, which is the
    whole point of IVM on a 100 TB lake where an epoch touches a sliver
    of the keys.

    State layout (crash-safe, mirroring the lake's own atomic-publish
    discipline): each state is a parquet directory
    ``<view_root>/epoch=<N>/``, one file per block of the state
    Dataset, streamed through the driver a block at a time (the state
    is O(distinct keys)) and published fsynced by
    ``stages.writer.publish_parquet``; then the fsynced ``_CURRENT``
    pointer file is atomically replaced. A crash between write and
    publish leaves the old pointer valid; the next ``advance``
    recomputes the same epoch range over the same sealed inputs and
    overwrites — deterministic, so convergence is idempotent
    (chaos-tested).

    ``keys`` must be lake columns; ``sums`` maps output measure name →
    (lake column, transform). Bootstrapping derives each lake row's
    contribution automatically (count 1, transform(col)), so the view
    definition is stated exactly once.

    If compaction/snapshot truncated history past the view's epoch
    (``lake_changelog`` refuses below the retention floor),
    ``advance`` falls back to a fresh bootstrap (or raises with
    ``on_truncated='raise'``)."""

    def __init__(
        self,
        view_root: str,
        keys: list[str],
        count_name: str,
        sums: Mapping[str, tuple[str, object]] | None = None,
    ):
        self.view_root = view_root
        self.keys = list(keys)
        self.count_name = count_name
        self.sums = dict(sums or {})
        os.makedirs(view_root, exist_ok=True)

    # -- state plumbing ------------------------------------------------
    def _pointer(self) -> str:
        return os.path.join(self.view_root, "_CURRENT")

    def current_epoch(self) -> int | None:
        p = self._pointer()
        if not os.path.exists(p):
            return None
        with open(p) as fh:
            return int(fh.read().strip())

    def _state_files(self) -> list[str]:
        ep = self.current_epoch()
        if ep is None:
            raise ValueError(f"view at {self.view_root} has no published state")
        return sorted(glob.glob(os.path.join(self.view_root, f"epoch={ep:05d}", "*.parquet")))

    def state(self):
        """The current view state as a lazy Dataset of exactly ``keys``
        + measures (raises if never bootstrapped); an empty view, where
        no group is live, has no state file and no columns."""
        from ..pipelines.replay import _read_dataset

        return _read_dataset(self._state_files(), pq.read_table, pa.table({}))

    def num_groups(self) -> int:
        """The state's group count, from its files' footers."""
        return sum(pq.read_metadata(f).num_rows for f in self._state_files())

    def _publish(self, new_state, epoch: int) -> None:
        out = os.path.join(self.view_root, f"epoch={epoch:05d}")
        shutil.rmtree(out, ignore_errors=True)  # crashed unpublished try
        # groups are unique across blocks, so no two non-empty blocks
        # share a content-addressed name
        for t in new_state.iter_batches(batch_format="pyarrow", batch_size=None):
            if t.num_rows:
                publish_parquet(out, [t], "state")
        # durable before the superseded states go: "<epoch>\n", fsynced
        CommitLog._write_atomic(self._pointer(), [epoch])
        # retire superseded states (the pointer is durable truth now)
        for d in os.listdir(self.view_root):
            if d.startswith("epoch=") and d != f"epoch={epoch:05d}":
                shutil.rmtree(os.path.join(self.view_root, d), ignore_errors=True)

    # -- lifecycle -----------------------------------------------------
    def _contrib_cols(self) -> list[str]:
        seen: list[str] = []
        for src, _ in self.sums.values():
            if src not in seen and src not in self.keys:
                seen.append(src)
        return self.keys + seen

    def bootstrap(self, lake_root: str) -> int:
        """Full-scan initialisation at the lake's sealed head; returns
        the epoch the view is now current to."""
        from ..pipelines.replay import _root_of, lake_dataset

        log = CommitLog.open(_root_of(lake_root))
        head = log.latest_sealed_epoch()
        if head is None:
            raise ValueError(f"lake at {lake_root} has no sealed epoch")
        keys, count_name, sums = self.keys, self.count_name, self.sums

        def contrib(t: pa.Table) -> pa.Table:
            cols: dict[str, object] = {k: t[k] for k in keys}
            cols[count_name] = pa.array([1] * t.num_rows, pa.int64())
            for out, (src, transform) in sums.items():
                # fill_null(0) MATCHES the delta path's signed terms: a
                # null-source row must contribute 0 on both paths, or a
                # bootstrap-built view (nulls skipped by the sum) and a
                # changelog-built one (null -> +0) would disagree on
                # identical lake state
                cols[out] = pc.fill_null(
                    pc.cast(_resolve(transform)(t[src]), pa.int64()), 0
                )
            return pa.table(cols)

        rows = lake_dataset(
            lake_root, columns=self._contrib_cols(), as_of_epoch=head
        ).map_batches(contrib, batch_format="pyarrow")
        state = preagg_groupby(
            rows, keys, sums={m: m for m in [count_name, *sums]}
        )
        self._publish(state, head)
        return head

    def advance(self, lake_root: str, on_truncated: str = "bootstrap") -> int:
        """Maintain the view to the lake's sealed head; returns the new
        current epoch (no-op if already there)."""
        from ..pipelines.replay import _root_of, lake_changelog

        ep = self.current_epoch()
        if ep is None:
            return self.bootstrap(lake_root)
        head = CommitLog.open(_root_of(lake_root)).latest_sealed_epoch()
        if head is None or head <= ep:
            return ep
        # the feed must carry images for the sum sources AND for any
        # key column that is not the lake primary key (a 'U' can move a
        # row between key groups; changelog_delta_rows reads both sides)
        image_cols = sorted(
            {src for src, _ in self.sums.values()}
            | {k for k in self.keys if k not in ("repo", "path")}
        )
        try:
            feed = lake_changelog(
                lake_root, from_epoch=ep, to_epoch=head, image_cols=image_cols
            )
        except ValueError:
            if on_truncated != "bootstrap":
                raise
            return self.bootstrap(lake_root)
        new_state = maintain_aggregate(
            self.state(), feed, keys=self.keys,
            count_name=self.count_name, sums=self.sums,
        )
        self._publish(new_state, head)
        return head
