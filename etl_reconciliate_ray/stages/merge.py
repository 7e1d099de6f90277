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

import os
from functools import lru_cache

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.hashing import NULL_SENTINEL, key_strings
from .lww import winner_index
from .writer import STATS_COLUMNS

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
    (``pyarrow.unify_schemas`` semantics; SURVEY.md §1.2). The types it
    meets were already unified by ``evolve_type`` when they were
    written."""
    tables = [t for t in tables if t is not None]
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables, promote_options="permissive")


_INT_WIDTH = {pa.int8(): 8, pa.int16(): 16, pa.int32(): 32, pa.int64(): 64}
_UINT_WIDTH = {pa.uint8(): 8, pa.uint16(): 16, pa.uint32(): 32, pa.uint64(): 64}
_FLOAT_WIDTH = {pa.float16(): 16, pa.float32(): 32, pa.float64(): 64}


def _safe_widen(a: pa.DataType, b: pa.DataType) -> pa.DataType | None:
    """The LOSSLESS common type of two evolved column types, or None if
    no safe promotion exists. Same-kind widening only (Debezium-style
    additive type evolution): signed↔signed / unsigned↔unsigned /
    float↔float width bumps, (large_)string and (large_)binary offset
    widening, decimal128 precision growth at the SAME scale. Signed vs
    unsigned, int vs float (int64→float64 loses above 2^53), and
    timestamp unit changes stay refused."""
    for widths in (_INT_WIDTH, _UINT_WIDTH, _FLOAT_WIDTH):
        if a in widths and b in widths:
            return a if widths[a] >= widths[b] else b
    for offsets in ((pa.string(), pa.large_string()), (pa.binary(), pa.large_binary())):
        if a in offsets and b in offsets:
            return offsets[1]
    if pa.types.is_decimal128(a) and pa.types.is_decimal128(b) and a.scale == b.scale:
        return pa.decimal128(max(a.precision, b.precision), a.scale)
    return None


def evolve_type(column: str, a: pa.DataType, b: pa.DataType,
                where: str | None = None) -> pa.DataType:
    """THE schema-evolution rule, one step: column ``column`` seen as
    ``a`` and then as ``b`` (in file ``where``, when known) has this
    type. A null type (an all-null leg) yields to the other, equal
    types stay, ``_safe_widen`` widens losslessly, and anything else
    raises: silently coercing a CDC payload corrupts the lake. The
    binlog scan (``replay._binlog_footers``) and the lake's one type
    fold (``replay._fold_types``, behind the payload schema, the schema
    history and the epoch kernel's commit check) step through it, so a
    stream is refused or accepted whatever its window size."""
    if pa.types.is_null(a):
        return b
    if pa.types.is_null(b) or a.equals(b):
        return a
    wide = _safe_widen(a, b)
    if wide is None:
        raise ValueError(
            f"schema evolution changed the TYPE of column {column!r} ({a} -> {b}"
            f"{'' if where is None else ' in ' + where}) with no lossless promotion; "
            "rewrite upstream, refusing"
        )
    return wide


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


def key_mask(t: pa.Table, key: tuple[str, str | None]) -> pa.ChunkedArray:
    """The rows of ``t`` holding key ``key`` = (repo, path), or any
    path of the repo when path is None (null where a key column is
    null, which ``filter`` drops)."""
    m = pc.equal(t["repo"], key[0])
    return m if key[1] is None else pc.and_(m, pc.equal(t["path"], key[1]))


def resolve_chain_tables(tables_by_epoch: list[tuple[int, pa.Table]],
                         key: tuple[str, str | None] | None = None) -> pa.Table:
    """Resolve a merge-on-read chain (base + deltas, each tagged with
    its commit epoch) to the partition's current state; with ``key``,
    the state of that one key (or repo) only, the chain's other rows
    dropped before LWW.

    Last-writer-wins per (repo, path) ordered by (epoch, seq): delta
    rows override older epochs; within one epoch, partial deltas from
    different tasks may overlap keys and the greatest ``seq`` wins
    (deltas written without ``seq`` are whole-epoch pre-reduced, so
    they never overlap in-epoch and their null seq loses harmlessly).
    ``op == 'D'`` tombstones remove the key; base (full) rows carry no
    ``op`` — they unify to null, treated as live.
    """
    merged = _epoch_tagged(tables_by_epoch)
    if key is not None and merged.num_rows:
        merged = merged.filter(key_mask(merged, key))
    drop = [c for c in ("__epoch", "op", "seq", "ts") if c in merged.column_names]
    if merged.num_rows == 0:
        return merged.drop_columns(drop)
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
    return _narrow_offsets(winners.drop_columns(drop), widened)


def _epoch_tagged(tables_by_epoch: list[tuple[int, pa.Table]]) -> pa.Table:
    """The chain's tables concatenated (``_unify_concat``), each row
    tagged with its link's epoch in an int64 ``__epoch`` column, which
    is appended once to the concatenation."""
    if not tables_by_epoch:
        return pa.table({})
    epochs = np.repeat(np.array([e for e, _ in tables_by_epoch], np.int64),
                       [t.num_rows for _, t in tables_by_epoch])
    return _unify_concat([t for _, t in tables_by_epoch]).append_column(
        "__epoch", pa.array(epochs))


@lru_cache(maxsize=1024)
def _footer_at(path: str, ino: int, size: int, mtime_ns: int) -> tuple[pq.FileMetaData, list]:
    """A parquet file's parsed footer and, per row group, the
    ``{column: (min, max, has nulls)}`` of its ``STATS_COLUMNS`` that
    have min/max, cached per process: a long chain re-reads the SAME
    files for many partitions (a direct-mode delta file holds one slice
    per bucket), and each parse is O(row groups) metadata. Keyed by the file's
    inode, size and mtime as well as its path, so a file rewritten
    under its own name is parsed again. The cache holds no open file:
    ``read_slice`` opens one per read, so a deleted file is gone once
    its last read returns."""
    md = pq.read_metadata(path)
    leaf = {md.schema.column(i).path: i for i in range(md.num_columns)}
    bounds = []
    for g in range(md.num_row_groups):
        rg, b = md.row_group(g), {}
        for c in STATS_COLUMNS:
            st = rg.column(leaf[c]).statistics if c in leaf else None
            if st is not None and st.has_min_max:
                b[c] = (st.min, st.max, st.null_count != 0)
        bounds.append(b)
    return md, bounds


def _footer(path: str) -> tuple[pq.FileMetaData, list]:
    st = os.stat(path)
    return _footer_at(path, st.st_ino, st.st_size, st.st_mtime_ns)


@lru_cache(maxsize=4096)
def _file_schema(path: str) -> pa.Schema:
    """A lake file's Arrow schema from its parquet footer, read once per
    path per process: chain reads prune columns with it, and the lake's
    type fold (``replay._fold_types``: the changelog's payload schema,
    the schema history, each window's commit check) steps it over every
    live file. Safe
    to cache by path: lake file names are content-addressed
    (``erase_key`` writes new names)."""
    return pq.read_schema(path)


def rg_spec(first: int, count: int):
    """A slice's ``rgs`` element in a commit record: its row group's
    ordinal when the slice is one group, else ``(first, count)``."""
    return first if count == 1 else (first, count)


def _whole(spec) -> bool:
    """An ``rgs`` element naming the whole file: -1 or None."""
    return not isinstance(spec, (list, tuple)) and (spec is None or int(spec) < 0)


def _group_range(spec, num_row_groups: int) -> range:
    """The row groups an ``rgs`` element names: ``(first, count)``, one
    ordinal, or the whole file (``_whole``)."""
    if isinstance(spec, (list, tuple)):
        return range(int(spec[0]), int(spec[0]) + int(spec[1]))
    if _whole(spec):
        return range(num_row_groups)
    return range(int(spec), int(spec) + 1)


def _may_hold(bounds: dict, c: str, v) -> bool:
    """False iff a row group's ``bounds`` (``_footer_at``) exclude
    ``c == v``; a column without min/max keeps the group."""
    b = bounds.get(c)
    return b is None or not isinstance(b[0], type(v)) or b[0] <= v <= b[1]


def read_slice(
    path: str,
    spec=-1,
    columns: list[str] | None = None,
    key: tuple[str, str | None] | None = None,
    part: int | None = None,
) -> pa.Table:
    """THE read of a lake slice: the row groups ``spec`` names
    (``_group_range``) of the parquet file at ``path``, taken from its
    cached footer, with ``columns`` (None: all), in one call. A row
    group whose min/max exclude ``key`` = (repo, path|None) or a
    ``bucket == part`` row is not read. The rows read are masked to
    ``part`` unless every group's min/max already pin ``bucket`` to
    it, but not to ``key``: a reader of several slices masks the key
    once over all of them (``key_mask``; ``read_chain`` does it before
    LWW). A key-sorted slice is cut at repo boundaries
    (``writer._group_cuts``), so a point read of one decodes at most
    the one group that can hold the key."""
    md, bounds = _footer(path)
    preds = [] if key is None else [("repo", key[0]), ("path", key[1])]
    if part is not None:
        preds.append(("bucket", part))
    preds = [(c, v) for c, v in preds if v is not None]
    groups = [g for g in _group_range(spec, md.num_row_groups)
              if all(_may_hold(bounds[g], c, v) for c, v in preds)]
    if not groups:
        schema = md.schema.to_arrow_schema()
        names = schema.names if columns is None else [c for c in columns if c in schema.names]
        return pa.schema([schema.field(c) for c in names]).empty_table()
    with pa.OSFile(path) as fh:
        pf = pq.ParquetFile(fh, metadata=md)
        if len(groups) == 1:  # the call perfbench's tracer counts as io.read
            t = pf.read_row_group(groups[0], columns=columns)
        else:
            t = pf.read_row_groups(groups, columns=columns)
    if part is not None and "bucket" in t.column_names and any(
        bounds[g].get("bucket") != (part, part, False) for g in groups
    ):
        t = t.filter(pc.equal(t["bucket"], part))
    return t


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
    to exactly the requested columns that exist. ``part`` masks a
    whole-file link to its ``bucket == part`` rows (a ranged link's
    slice holds that bucket's rows only).

    ``key_filter`` = (repo, path|None) restricts the result to one key
    or repo: ``read_slice`` skips every row group whose repo/path
    min/max exclude it, and the rows read are masked to it once,
    before LWW. The lake's writers order each slice by (repo, path) and
    cap its row groups at ``ROW_GROUP_BYTES``, so a point lookup
    decodes at most one capped group per piece of each link, compacted
    or not, rather than the bucket; an older lake's unsorted
    single-group slice is read whole.

    A chain of one ``full`` link is returned as its pieces concatenated,
    with no LWW: the only writer of a full base (``replay._write_bases``)
    writes a resolved state, with unique keys and no tombstones."""
    tagged = read_links(chain, columns, part, key_filter)
    if not tagged:
        return None
    if len(chain) == 1 and chain[0].get("kind") == "full":
        out = _unify_concat([t for _, t in tagged])
        if key_filter is not None and out.num_rows:
            out = out.filter(key_mask(out, key_filter))
    else:
        out = resolve_chain_tables(tagged, key_filter)
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
    link, each file's slice read by ``read_slice`` with ``read_chain``'s
    column pruning and filters. A link whose ``files`` and ``rgs``
    differ in length raises."""
    need = None
    if columns is not None:
        need = set(columns) | {"repo", "path", "op", "seq"}
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
        for f, spec in zip(link["files"], rgs):
            cols = None
            if need is not None:
                avail = _file_schema(f).names
                cols = [c for c in avail if c in need or c == "bucket"]
            t = read_slice(f, spec, cols, key_filter, part if _whole(spec) else None)
            tagged.append((int(link["epoch"]), t))
    return tagged
