"""Merge-on-read resolution: per-bucket last-writer-wins over a
chain of lake pieces, with additive schema evolution.

This is the Ray-Data-native replacement for the reference's in-heap
hash index + per-message loop (N3 ``LoadJpatBatchesTasklet.java:53,112``
builds a ``HashMap<String, List<BpBatchDTO>>`` over the whole right
side; the graft's north rule turns that into key-partitioned upserts).
An epoch writes only DELTAS — its LWW winners per (epoch, bucket),
delete tombstones included (``replay._apply_epochs``), O(epoch) and
never O(lake). State materializes where it is read: ``read_chain``
resolves a bucket's chain (newest full base + later deltas) and
compaction or the pre-commit fold write it back as one base.

Semantics (SURVEY.md §2.6 "graft adds true dedup-like semantics"):
per key (repo, path), the event with max (epoch, ``seq``) wins; ``D``
removes the key; ``I``/``U`` upsert (a ``U`` on an absent key inserts —
upsert semantics, matching the oracle in datagen.oracle_replay).
Determinism under Ray task retries: resolution is pure (immutable
content-addressed files in -> state out), which is what makes the
exactly-once sink achievable (SURVEY.md §7 hard part 1).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.hashing import NULL_SENTINEL, key_strings
from .lww import winner_index

#: lake state column order (extras like evolved columns append after)
LAKE_COLS = ["repo", "path", "commit", "lang", "content", "content_sha256"]


def lww_reduce(events: pa.Table, order_col: str = "seq") -> pa.Table:
    """Collapse events to the winning (max-``order_col``) event per
    (repo, path): ``winner_index`` over ``key_codes``, a null order
    losing as in chain resolution. Delete rows win as-is (their null
    content/lang included); only the winners are gathered."""
    events, widened = _widen_big_offsets(events)
    idx = winner_index(key_codes(events["repo"], events["path"]), _order(events, order_col))
    return _narrow_offsets(events.take(pa.array(idx)), widened)


def _order(t: pa.Table, col: str) -> np.ndarray:
    """An int64 LWW order column, null (or absent) as int64 min: a
    whole-epoch pre-reduced row, which carries no ``seq``, loses to a
    seq-carrying partial-delta row of its epoch."""
    o = t[col] if col in t.column_names else pa.nulls(t.num_rows, pa.int64())
    return pc.fill_null(pc.cast(o, pa.int64()), np.iinfo(np.int64).min).to_numpy()


def _unify_concat(tables: list[pa.Table]) -> pa.Table:
    """Additive schema evolution: concat with permissive promotion —
    columns present in only some inputs are null-filled in the others
    (``pyarrow.unify_schemas`` semantics; SURVEY.md §1.2)."""
    tables = [t for t in tables if t is not None]
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables, promote_options="permissive")


# stay well under the int32 offset cap (2_147_483_647): take /
# combine_chunks CONCATENATE chunks internally, so a 32-bit-offset
# string/binary column whose chunks jointly near 2 GiB overflows even
# when the gathered OUTPUT is small (found by the sf1 stress run)
_INT32_OFFSET_BUDGET = 1_600_000_000


def _widen_array(arr, budget: int | None = None):
    """Widen ONE string/binary (chunked) array nearing the int32
    offset cap to its large_ (int64-offset) variant — the single place
    the overflow policy lives; a no-op otherwise."""
    if budget is None:
        budget = _INT32_OFFSET_BUDGET  # module global: tests shrink it
    if pa.types.is_string(arr.type) and arr.nbytes > budget:
        return pc.cast(arr, pa.large_string())
    if pa.types.is_binary(arr.type) and arr.nbytes > budget:
        return pc.cast(arr, pa.large_binary())
    return arr


def _widen_big_offsets(t: pa.Table, budget: int | None = None) -> tuple[pa.Table, list[str]]:
    """Cast any string/binary column whose buffers near the int32
    offset cap to its large_ (int64-offset) variant. Offsets-only
    rewrite per chunk — content bytes are not copied — and a no-op for
    every small-scale table, so the hot path is untouched. Returns the
    widened table plus the column names it touched (so the caller can
    narrow back exactly those, never a column that was large_ on
    input)."""
    widened = []
    for i, f in enumerate(t.schema):
        w = _widen_array(t.column(i), budget)
        if not w.type.equals(f.type):
            t = t.set_column(i, f.name, w)
            widened.append(f.name)
    return t, widened


def _narrow_offsets(t: pa.Table, names: list[str],
                    budget: int | None = None) -> pa.Table:
    """Inverse of ``_widen_big_offsets`` for the columns it widened
    that FIT 32-bit offsets again (winners are a small fraction of the
    chain), keeping the resolved schema identical to the unwidened
    path; a column still over budget stays large_ (parquet stores
    either as BYTE_ARRAY, and ``_unify_concat`` promotes mixed chains
    permissively)."""
    if budget is None:
        budget = _INT32_OFFSET_BUDGET
    for name in names:
        if name not in t.column_names:
            continue
        i = t.column_names.index(name)
        f = t.schema.field(i)
        if pa.types.is_large_string(f.type) and t.column(i).nbytes <= budget:
            t = t.set_column(i, name, pc.cast(t.column(i), pa.string()))
        elif pa.types.is_large_binary(f.type) and t.column(i).nbytes <= budget:
            t = t.set_column(i, name, pc.cast(t.column(i), pa.binary()))
    return t


def key_codes(repo, path) -> np.ndarray:
    """One int64 code per row of the merge key ``(repo, path)``, equal
    codes for equal keys: the LWW grouping of both the write path
    (``replay.direct_write``) and chain resolution. Null-safe: repo and
    path are null-filled SEPARATELY before joining, so (null, 'a'),
    (null, 'b') and ('a', null) stay distinct keys (Arrow's
    ``group_by`` null-group semantics) and no code is null; the
    sentinel holds a NUL byte, which no real repo or path may hold
    (documented key contract)."""
    keys = key_strings(pc.fill_null(repo, NULL_SENTINEL), pc.fill_null(path, NULL_SENTINEL))
    if isinstance(keys, pa.ChunkedArray):
        # joined keys can near the cap even when repo/path alone
        # don't; combine_chunks concatenates, so widen first
        keys = _widen_array(keys).combine_chunks()
    return pc.dictionary_encode(keys).indices.to_numpy(zero_copy_only=False).astype(np.int64)


def resolve_chain_tables(tables_by_epoch: list[tuple[int, pa.Table]]) -> pa.Table:
    """Resolve a merge-on-read chain (base + deltas, each tagged with
    its commit epoch) to the partition's current state.

    Last-writer-wins per (repo, path) ordered by (epoch, seq): delta
    rows override older epochs; within one epoch, partial deltas from
    different tasks may overlap keys and the greatest ``seq`` wins
    (deltas written without ``seq`` are whole-epoch pre-reduced, so
    they never overlap in-epoch and their null seq loses harmlessly).
    ``op == 'D'`` tombstones remove the key; base (full) rows carry no
    ``op`` — they unify to null, treated as live.
    """
    merged = _epoch_tagged(tables_by_epoch)
    if merged.num_rows == 0:
        return merged
    # huge chains (>~1.6 GiB in one column, e.g. a hot bucket's content
    # at sf1+) must gather through int64 offsets — see _widen_big_offsets
    merged, widened = _widen_big_offsets(merged)
    # the winners come from the SMALL columns only (key codes and
    # (__epoch, seq), ``winner_index``); the content payload is
    # gathered ONCE, winners-only, by a single ``take`` — chain
    # resolution is the whole of compaction and of merge-on-read scans
    idx = winner_index(
        key_codes(merged["repo"], merged["path"]),
        merged["__epoch"].to_numpy(zero_copy_only=False), _order(merged, "seq"),
    )
    winners = merged.take(pa.array(idx))  # the ONE content gather
    if "op" in winners.column_names:
        live = pc.fill_null(winners["op"], "I")
        winners = winners.filter(pc.not_equal(live, "D"))
    drop = [c for c in ("__epoch", "op", "seq", "ts") if c in winners.column_names]
    return _narrow_offsets(winners.drop_columns(drop), widened)


def _epoch_tagged(tables_by_epoch: list[tuple[int, pa.Table]]) -> pa.Table:
    """The chain's tables concatenated (``_unify_concat``), each row
    tagged with its link's epoch in an int64 ``__epoch`` column."""
    return _unify_concat([
        t.append_column("__epoch", pa.array(np.full(t.num_rows, epoch, np.int64)))
        for epoch, t in tables_by_epoch
    ])


from functools import lru_cache


@lru_cache(maxsize=256)
def _pqfile(path: str) -> pq.ParquetFile:
    """Per-worker ParquetFile cache: direct-mode delta files hold one
    row group per bucket, so a long chain re-opens the SAME files for
    many partitions — each open parses the footer (O(row groups)
    metadata). Lake files are content-addressed and immutable, so the
    cache can never serve stale metadata. Ray reuses worker processes
    across tasks, which is what makes this cache pay off at
    240-files-per-epoch layouts (a known 65s compaction pathology)."""
    return pq.ParquetFile(path)


@lru_cache(maxsize=4096)
def _file_schema(path: str) -> pa.Schema:
    """A lake file's Arrow schema from its parquet footer, read once per
    path per process: chain reads prune columns with it, and the
    changelog's payload schema unifies it over every live file. Safe
    to cache for the same reason as ``_pqfile``: lake file names are
    content-addressed (``erase_key`` writes new names)."""
    return pq.read_schema(path)


def read_chain(
    chain: list[dict],
    columns: list[str] | None = None,
    part: int | None = None,
    key_filter: tuple[str, str | None] | None = None,
) -> pa.Table | None:
    """Read + resolve one bucket's chain of ``{"epoch", "kind", "files"}``
    dicts (resolution is kind-agnostic: a base is the chain's first link).

    ``columns`` prunes the parquet read (merge keys, ``op`` and ``seq``
    are always read — resolution needs them); the result is projected
    to exactly the requested columns that exist. ``part`` adds a
    ``bucket == part`` parquet filter: direct-mode delta files hold one
    row group per bucket slice, so the filter prunes at row-group
    granularity and a file shared by many partitions is only decoded
    for the rows that matter.

    ``key_filter`` = (repo, path|None) pushes a point/repo equality
    predicate into the whole-file reads: compaction writes bases
    SORTED by (repo, path), so parquet row-group min/max stats skip
    every non-matching group/piece — a point lookup on a compacted
    bucket decodes O(one row group), not the bucket. Purely an
    optimization: callers still row-filter the result (parquet stats
    pruning is conservative, never wrong).

    A chain of one ``full`` link is returned as its pieces concatenated,
    with no LWW: the only writer of a full base (``replay._write_bases``)
    writes a resolved state, with unique keys and no tombstones."""
    tagged = read_links(chain, columns, part, key_filter)
    if not tagged:
        return None
    if len(chain) == 1 and chain[0].get("kind") == "full":
        out = _unify_concat([t for _, t in tagged])
    else:
        out = resolve_chain_tables(tagged)
    if columns is not None:
        out = out.select([c for c in columns if c in out.column_names])
    return out


def read_links(
    chain: list[dict],
    columns: list[str] | None = None,
    part: int | None = None,
    key_filter: tuple[str, str | None] | None = None,
) -> list[tuple[int, pa.Table]]:
    """``read_chain``'s per-link file loop, unresolved: one
    ``(epoch, table)`` per file of every ``{"epoch", "files", "rgs"}``
    link, with ``read_chain``'s column pruning and filters. A link
    whose ``files`` and ``rgs`` differ in length raises."""
    need = None
    if columns is not None:
        need = set(columns) | {"repo", "path", "op", "seq"}
    filters = [("bucket", "=", part)] if part is not None else None
    if key_filter is not None:
        kf = [("repo", "=", key_filter[0])]
        if key_filter[1] is not None:
            kf.append(("path", "=", key_filter[1]))
        filters = (filters or []) + kf
    tagged = []
    for link in chain:
        rgs = link.get("rgs") or [-1] * len(link["files"])
        if len(rgs) != len(link["files"]):
            # zip would silently skip trailing files — stale reads, no
            # error; a length-skewed link is a corrupt/foreign manifest
            raise ValueError(
                f"read_chain: manifest link epoch={link.get('epoch')} has "
                f"{len(link['files'])} files but {len(rgs)} row-group "
                "ordinals — refusing a partial chain read"
            )
        for f, rg in zip(link["files"], rgs):
            cols = None
            if need is not None:
                avail = _file_schema(f).names
                cols = [c for c in avail if c in need or c == "bucket"]
            if rg is not None and int(rg) >= 0:
                # direct-mode delta: this partition's rows are exactly
                # one row group — O(1) access, no scanner/filter pass;
                # the ParquetFile (footer parse) is cached per worker
                t = _pqfile(f).read_row_group(int(rg), columns=cols)
            else:
                t = pq.read_table(f, columns=cols, filters=filters)
            tagged.append((int(link["epoch"]), t))
    return tagged
