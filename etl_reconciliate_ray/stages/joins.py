"""Join operators: broadcast lookup join, bucketed hash join, and
broadcast semi/anti join.

Re-expresses the reference's lookup-join shapes Ray-Data-first
(SURVEY.md §2.4): the reference runs an N+1 JDBC point query per
message (J1 ``LoadSwiftMessagesTasklet.java:44``, J2
``LoadJpatBatchesTasklet.java:91-106``, J3 ``:109-110``). Here:

- **broadcast_join** — the small side is ``ray.put`` ONCE and merged
  per batch inside ``map_batches`` (no shuffle, no re-ship per batch):
  the right tool when one side is a dimension table.
- **hash_join** — both sides large: add ``__bucket__ = hash(key) % B``
  to each, union with a side tag, single shuffle by bucket, pandas
  merge within each bucket (explicit partitioned hash join;
  ray_guide.md "Joins and lookups" portable pattern).
- **broadcast_semi_join / anti_join** — membership filter against a
  broadcast key set. At 100 TB the exact set stops fitting an actor's
  heap: prune the stream first with ``functions.bloom.bloom_prefilter``
  (~10 bits/key, zero false negatives) and run the exact filter/join on
  the survivors.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.broadcast import fetch as _bfetch
from ..functions.hashing import hash64

# arrow -> pandas NULLABLE dtype map for per-bucket merges: keeps a
# null-bearing (or unmatched-outer) bucket's integer/bool columns at
# their arrow type instead of pandas' silent int64+null -> float64
# degrade, so every bucket emits one uniform schema and ids past 2^53
# never round through float
_NULLABLE_PD = {
    pa.int8(): pd.Int8Dtype(), pa.int16(): pd.Int16Dtype(),
    pa.int32(): pd.Int32Dtype(), pa.int64(): pd.Int64Dtype(),
    pa.uint8(): pd.UInt8Dtype(), pa.uint16(): pd.UInt16Dtype(),
    pa.uint32(): pd.UInt32Dtype(), pa.uint64(): pd.UInt64Dtype(),
    pa.bool_(): pd.BooleanDtype(),
}


def _bucket_expr(col: pa.ChunkedArray | pa.Array, num_buckets: int) -> pa.Array:
    # integer keys hash before the mod too: a plain ``key % n`` sends
    # ids strided by n (per-shard id allocation, stepped sequences) all
    # to ONE bucket
    return pa.array((hash64(col) % np.uint64(num_buckets)).astype(np.int32))


def broadcast_join(
    big_ds,
    small_df: pd.DataFrame,
    on: Sequence[str] | str,
    how: str = "inner",
    batch_size: int = 65536,
):
    """Join a large Dataset against a small pandas table without a
    shuffle: the small side rides the object store once and is fetched
    into a per-worker-process cache — a TASK pool that scales to every
    core (an actor pool here bought only a fixed concurrency cap).

    Only ``inner``/``left`` are valid: outer/right semantics need the
    small side's UNMATCHED rows exactly once globally, but a per-batch
    merge would replay them once per batch — use ``hash_join``."""
    import ray

    if how not in ("inner", "left"):
        raise ValueError(
            f"broadcast_join: how={how!r} unsupported — outer/right would "
            "duplicate the broadcast side's unmatched rows once per batch; "
            "use hash_join"
        )
    ref = ray.put(small_df)
    on = [on] if isinstance(on, str) else list(on)

    def join_small(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.merge(_bfetch(ref), on=on, how=how)

    return big_ds.map_batches(
        join_small, batch_format="pandas", batch_size=batch_size
    )


def _derive_num_buckets(
    left_ds, right_ds, target_bucket_bytes: int, floor: int = 32, cap: int = 4096
) -> int:
    """Size-derived bucket count for ``hash_join``: with a FIXED
    bucket count, per-bucket pandas merges grow linearly with input —
    a 100x-scale foot-gun. Estimate input bytes from the datasets'
    input FILES (metadata only — never triggers execution; parquet
    compression is compensated with a 4x in-memory factor) and pick
    enough buckets that each holds ~``target_bucket_bytes``. Datasets
    whose lineage hides the input files (from_pandas, post-shuffle)
    estimate as unknown and fall back to the floor — callers at known
    scale pass ``num_buckets`` explicitly, as the headline pipelines
    do."""
    total = 0
    for ds in (left_ds, right_ds):
        try:
            files = ds.input_files()
        except Exception:
            return floor
        if not files:
            return floor
        for f in files:
            try:
                total += os.path.getsize(f)
            except OSError:
                return floor
    est_mem = total * 4  # parquet -> Arrow in-memory expansion
    return max(floor, min(cap, -(-est_mem // max(1, target_bucket_bytes))))


def with_schema(ds):
    """``(ds, schema)`` without a partial execution: the schema the plan
    knows (a read, an in-memory or a materialized Dataset, a
    ``hash_join`` output), else ``ds`` materialized once, returned for
    the caller to use in place of ``ds``. ``ds.schema()`` on an
    unexecuted plan runs its first block and cancels the rest, and the
    rows are then computed again. A materialized input stays pinned in
    the object store while the Dataset built on it lives."""
    schema = ds.schema(fetch_if_missing=False)
    if schema is None:
        ds = ds.materialize()
        schema = ds.schema()
    return ds, schema


def _declare(ds, schema: pa.Schema | None):
    """``ds`` with ``schema`` cached on its plan (Ray's own
    ``Dataset.schema`` caches the same way), so ``with_schema`` reads
    it and nothing runs for it; None leaves ``ds`` as it is."""
    if schema is not None:
        ds._plan.cache_schema(schema)
    return ds


def hash_join(
    left_ds,
    right_ds,
    on: Sequence[str] | str,
    how: str = "inner",
    num_buckets: int | None = None,
    suffixes: tuple[str, str] = ("_l", "_r"),
    target_bucket_bytes: int = 256 << 20,
):
    """Partitioned hash join of two large Datasets (single shuffle).

    ``num_buckets=None`` (default) derives the bucket count from the
    inputs' file sizes targeting ~``target_bucket_bytes`` of in-memory
    data per bucket (floor 32) — see ``_derive_num_buckets``; pass an
    explicit count to pin the layout. The bucket count is semantically
    invisible (same rows either way).

    Colliding non-key column names get ``suffixes`` applied up front so
    the unioned stream has one uniform schema (Ray blocks must align).
    Each input runs once: its schema comes from ``with_schema``, which
    materializes an input whose plan does not know it rather than
    starting a partial execution. When both inputs' schemas are Arrow
    schemas and the key types agree, every bucket's output is cast to
    the declared schema — the keys, then each side's columns, with
    their input types — and the output Dataset carries it, so a chained
    ``hash_join`` takes it without running or pinning this join.
    """
    on = [on] if isinstance(on, str) else list(on)
    if num_buckets is None:
        num_buckets = _derive_num_buckets(left_ds, right_ds, target_bucket_bytes)
    left_ds, ls = with_schema(left_ds)  # ray.data Schema: .names/.types
    right_ds, rs = with_schema(right_ds)

    def _pa_type(t):
        # Ray reports numpy dtypes/classes for pandas-block datasets
        if isinstance(t, pa.DataType):
            return t
        try:
            return pa.from_numpy_dtype(t)
        except (pa.ArrowNotImplementedError, TypeError):
            return pa.string()

    l_types = {n: _pa_type(t) for n, t in zip(ls.names, ls.types)}
    r_types = {n: _pa_type(t) for n, t in zip(rs.names, rs.types)}
    l_only = [c for c in ls.names if c not in on]
    r_only = [c for c in rs.names if c not in on]
    collide = set(l_only) & set(r_only)
    l_names = {c: (c + suffixes[0] if c in collide else c) for c in l_only}
    r_names = {c: (c + suffixes[1] if c in collide else c) for c in r_only}
    l_fields = [(l_names[c], l_types[c]) for c in l_only]
    r_fields = [(r_names[c], r_types[c]) for c in r_only]
    all_fields = l_fields + r_fields
    l_final, r_final = [f for f, _ in l_fields], [f for f, _ in r_fields]
    exact = all(isinstance(t, pa.DataType) for t in ls.types + rs.types) and all(
        l_types[k] == r_types[k] for k in on)
    out_schema = pa.schema([(k, l_types[k]) for k in on] + all_fields) if exact else None

    def tag(side: str, rename: dict, missing: list):
        def fn(batch: pa.Table) -> pa.Table:
            batch = batch.rename_columns([rename.get(c, c) for c in batch.column_names])
            for name, typ in missing:
                batch = batch.append_column(name, pa.nulls(batch.num_rows, typ))
            batch = batch.select(on + [f for f, _ in all_fields])
            batch = batch.append_column("__side__", pa.array([side] * batch.num_rows))
            return batch.append_column("__bucket__", _bucket_expr(batch[on[0]], num_buckets))

        return fn

    tagged = left_ds.map_batches(tag("L", l_names, r_fields), batch_format="pyarrow").union(
        right_ds.map_batches(tag("R", r_names, l_fields), batch_format="pyarrow")
    )

    def join_bucket(t: pa.Table) -> pa.Table:
        # split sides while still Arrow: the other side's null-padded
        # columns stay TYPED nulls and are dropped before the pandas
        # conversion, so an int64 join key can never degrade to float64
        # (which would silently empty a chained join on that key).
        # Integer/bool columns convert to pandas NULLABLE dtypes so a
        # null-bearing or unmatched-outer bucket emits the SAME arrow
        # type as a fully-matched one (plain to_pandas would degrade
        # int64+null to float64 in some buckets only — mixed block
        # schemas and silent precision loss past 2^53)
        mask = pc.equal(t["__side__"], "L")
        left = t.filter(mask).select(on + l_final).to_pandas(
            types_mapper=_NULLABLE_PD.get
        )
        right = t.filter(pc.invert(mask)).select(on + r_final).to_pandas(
            types_mapper=_NULLABLE_PD.get
        )
        merged = left.merge(right, on=on, how=how)
        return pa.Table.from_pandas(merged, schema=out_schema, preserve_index=False)

    return _declare(
        tagged.groupby("__bucket__").map_groups(join_bucket, batch_format="pyarrow"),
        out_schema,
    )


def _hot_salts(keys: pa.Array | pa.ChunkedArray, hot: np.ndarray, num_salts: int) -> np.ndarray:
    """Per-row salt array: 0 for non-hot rows; hot rows cycle 0..k-1
    PER KEY (each hot key's occurrence ordinal mod k). A cycle over the
    combined hot mask would alias under interleaved hot keys (A,B,A,B
    with k=2 pins A to salt 0 and B to salt 1 — zero spread for both);
    a per-key ordinal is uniform for every hot key regardless of row
    layout. Any spread is CORRECT (the build side is fully replicated);
    this one is also balanced."""
    salt = np.zeros(len(hot), dtype=np.int64)
    hot_idx = np.flatnonzero(hot)
    if hot_idx.size == 0:
        return salt
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    hk = keys.take(pa.array(hot_idx))
    codes = (
        pc.dictionary_encode(hk).indices.to_numpy(zero_copy_only=False).astype(np.int64)
    )
    order = np.argsort(codes, kind="stable")
    sc = codes[order]
    starts = np.concatenate([[0], np.flatnonzero(sc[1:] != sc[:-1]) + 1]).astype(np.int64)
    is_start = np.zeros(len(sc), dtype=bool)
    is_start[starts] = True
    seg_of = np.cumsum(is_start) - 1
    ordinal_sorted = np.arange(len(sc), dtype=np.int64) - starts[seg_of]
    ordinal = np.empty(len(sc), dtype=np.int64)
    ordinal[order] = ordinal_sorted
    salt[hot_idx] = ordinal % num_salts
    return salt


def _salted_route(
    keys: pa.Array | pa.ChunkedArray, salt: np.ndarray, num_salts: int
) -> pa.Array:
    """Composite routing/join key for the salted join: ``hash64(key)``'s
    low 40 bits and the salt are packed, then FINAL-MIXED with the
    splitmix64 finalizer (``hashing._mix64`` — a bijection on uint64,
    so distinct (key-hash, salt) composites stay distinct and equality
    semantics hold). The avalanche is what makes bucket routing sound:
    ``hash_join`` buckets integer keys with a plain ``% num_buckets``,
    so an UNMIXED ``base*num_salts+salt`` layout leaves the salt in the
    low bits and concentrates every salt-0 (non-hot) row into
    num_buckets/num_salts reducers (a plain odd-multiply keeps the same
    low-bit factor structure), while a salt-in-high-bits layout sends
    all of a hot key's salts to the same bucket. Full mixing spreads
    both."""
    from ..functions.hashing import _mix64

    base = (hash64(keys) % np.uint64(1 << 40)) * np.uint64(num_salts)
    comp = base + salt.astype(np.uint64)
    return pa.array(_mix64(comp).view(np.int64), pa.int64())


def hash_semi_join(
    left_ds, right_ds, on: Sequence[str] | str, num_buckets: int | None = None
):
    """Partitioned semi join for BIG-BIG membership: left rows whose key
    appears in the right Dataset, when the right key set is too large to
    broadcast (the scale path past ``broadcast_semi_join`` /
    ``bloom_prefilter``'s actor-heap bound).

    The right side is collapsed to DISTINCT keys first — per-batch
    pyarrow distinct (combiner), then one keys-only groupby — so only
    deduplicated keys shuffle and the inner join cannot fan out left
    rows on duplicate right keys. Output schema == left schema.
    NULL-key caveat (same as ``hash_join``): pandas merge matches
    nulls to each other, unlike SQL IN — drop null keys upstream when
    SQL semantics matter."""
    from ray.data.aggregate import Count

    on_cols = [on] if isinstance(on, str) else list(on)

    def distinct_partial(t: pa.Table) -> pa.Table:
        return t.select(on_cols).group_by(on_cols, use_threads=False).aggregate([])

    keys = (
        right_ds.map_batches(distinct_partial, batch_format="pyarrow")
        .groupby(on_cols)
        .aggregate(Count(alias_name="__c"))
        .drop_columns(["__c"])
    )
    return hash_join(left_ds, keys, on=on_cols, how="inner", num_buckets=num_buckets)


def salted_hash_join(
    left_ds,
    right_ds,
    on: str,
    hot_keys,
    num_salts: int = 8,
    how: str = "inner",
    num_buckets: int | None = None,
    suffixes: tuple[str, str] = ("_l", "_r"),
):
    """Skew-safe partitioned hash join on a single column: DECLARED hot
    keys (known a priori or measured upstream — e.g. the monorepo list
    the replay path salts in ``normalize.make_normalizer``; a
    Misra-Gries pass (stages/sketch.heavy_hitters) over the key column
    yields them cheaply when unknown) are split across ``num_salts``
    shuffle sub-buckets on the PROBE (left) side, and the BUILD (right)
    side's hot-key rows are replicated once per salt so every sub-bucket
    joins independently. A single hot key's rows therefore spread over
    ``num_salts`` reducers instead of serializing one straggler — the
    skew pattern `ray_guide.md` prescribes, at the cost of
    O(hot_right_rows × num_salts) duplicated build rows.

    The output is row-identical to ``hash_join`` (every left row joins
    exactly its own salt's replica). Bucket routing uses a composite
    ``hash64(key)·num_salts + salt`` column; join EQUALITY still
    includes the real key, so a routing-hash collision costs balance,
    never correctness. Restricted to ``inner``/``left``: build-side
    replication would duplicate unmatched right-outer legs.
    """
    if how not in ("inner", "left"):
        raise ValueError(f"salted_hash_join supports inner/left, got {how!r}")
    hot_keys = set(hot_keys)
    if not hot_keys or num_salts <= 1:
        return hash_join(
            left_ds, right_ds, on=on, how=how, num_buckets=num_buckets,
            suffixes=suffixes,
        )
    hot_arr = pa.array(sorted(hot_keys))

    def salt_left(t: pa.Table) -> pa.Table:
        hot = pc.is_in(t[on], value_set=hot_arr).to_numpy(zero_copy_only=False)
        salt = _hot_salts(t[on], hot, num_salts)  # per-key cycle, see _hot_salts
        return t.append_column("__skey", _salted_route(t[on], salt, num_salts))

    def salt_right(t: pa.Table) -> pa.Table:
        zero = np.zeros(t.num_rows, dtype=np.int64)
        parts = [t.append_column("__skey", _salted_route(t[on], zero, num_salts))]
        hot_t = t.filter(pc.is_in(t[on], value_set=hot_arr))
        if hot_t.num_rows:
            for s in range(1, num_salts):
                sv = np.full(hot_t.num_rows, s, dtype=np.int64)
                parts.append(
                    hot_t.append_column("__skey", _salted_route(hot_t[on], sv, num_salts))
                )
        return pa.concat_tables(parts)

    def salted(ds, fn):
        # the salted side's schema is its input's plus __skey, declared
        # so the join neither runs nor pins it for its schema
        ds, schema = with_schema(ds)
        base = schema.base_schema
        return _declare(ds.map_batches(fn, batch_format="pyarrow"),
                        base.append(pa.field("__skey", pa.int64()))
                        if isinstance(base, pa.Schema) else None)

    out = hash_join(
        salted(left_ds, salt_left),
        salted(right_ds, salt_right),
        on=["__skey", on],
        how=how,
        num_buckets=num_buckets,
        suffixes=suffixes,
    )
    return out.drop_columns(["__skey"])


def broadcast_anti_join(big_ds, keys_df: pd.DataFrame, on: str, batch_size: int = 65536):
    """Rows of ``big_ds`` whose ``on`` value is NOT in the broadcast key
    set (reference J7 right-anti leg shape, done without a shuffle)."""
    import ray

    ref = ray.put(pa.array([v for v in set(keys_df[on].tolist()) if v is not None]))
    # nulls dropped from the value set: a NULL key matches nothing
    # (and sorted() would crash on mixed None/value sets)

    def anti_filter(batch: pa.Table) -> pa.Table:
        keys = _bfetch(ref)
        if len(keys) == 0:
            return batch  # empty set: nothing to exclude (is_in would
            # reject a null-typed empty value set)
        # vectorized membership (Arrow C kernel; null keys -> not in
        # set -> kept, matching Python `v not in keys` semantics)
        mask = pc.invert(pc.is_in(batch[on], value_set=keys))
        return batch.filter(mask)

    return big_ds.map_batches(
        anti_filter, batch_format="pyarrow", batch_size=batch_size
    )


def broadcast_semi_join(big_ds, keys_df: pd.DataFrame, on: str, batch_size: int = 65536):
    import ray

    ref = ray.put(pa.array([v for v in set(keys_df[on].tolist()) if v is not None]))
    # nulls dropped from the value set: a NULL key matches nothing
    # (and sorted() would crash on mixed None/value sets)

    def semi_filter(batch: pa.Table) -> pa.Table:
        keys = _bfetch(ref)
        if len(keys) == 0:
            return batch.slice(0, 0)  # empty set: nothing matches
        mask = pc.is_in(batch[on], value_set=keys)
        return batch.filter(mask)

    return big_ds.map_batches(
        semi_filter, batch_format="pyarrow", batch_size=batch_size
    )


def asof_join(
    left_ds,
    right_ds,
    on: str,
    by: str,
    right_cols: dict[str, str],
    num_buckets: int = 16,
    direction: str = "backward",
):
    """Distributed AS-OF join: for each left row, the newest right row
    of the same ``by`` key with ``right[on] <= left[on]``
    (``direction="backward"``, the default) or the OLDEST right row
    with ``right[on] >= left[on]`` (``direction="forward"`` — the
    "next event at or after" lookup, e.g. first purchase following a
    click). Same plan either way; only the per-bucket merge flips.

    Ray Data has no asof join; composed per the custom-operator recipe
    (map_batches bucket-tag -> union -> ONE shuffle on the ``by`` hash
    -> per-bucket vectorized ``pandas.merge_asof``). Determinism under
    ties: the right side is deduped per (by, on) keeping the greatest
    row (sorted by all its columns) BEFORE the asof, so equal-``on``
    candidates resolve identically at any parallelism.

    Contract: both inputs share ONE schema (select the same columns on
    both sides first — keeps the tagged union zero-copy Arrow with no
    null-type promotion). ``right_cols`` renames the right columns the
    output keeps, e.g. ``{"event_id": "purchase_event_id"}``; the
    output is all left columns + those. Partitioning assumption: all
    rows of one ``by`` key land in one bucket (hash on ``by``), same
    contract as hash_join.
    """

    def tag(side: str):
        def fn(batch: pa.Table) -> pa.Table:
            batch = batch.append_column("__side", pa.array([side] * batch.num_rows))
            return batch.append_column("__bucket", _bucket_expr(batch[by], num_buckets))

        return fn

    tagged_l = left_ds.map_batches(tag("L"), batch_format="pyarrow")
    tagged_r = right_ds.map_batches(tag("R"), batch_format="pyarrow")
    right_keep = sorted({by, on} | set(right_cols))

    def asof_bucket(df: pd.DataFrame) -> pd.DataFrame:
        data_cols = [c for c in df.columns if c not in ("__side", "__bucket")]
        l = df.loc[df["__side"] == "L", data_cols]
        r = df.loc[df["__side"] == "R", right_keep].copy()
        # deterministic tie-break, then exactly one right row per (by, on)
        r = r.sort_values(list(r.columns), kind="stable").drop_duplicates(
            [by, on], keep="last"
        )
        r = r.rename(columns=right_cols)
        bad = (set(r.columns) - {by, on}) & set(l.columns)
        if bad:
            # merge_asof would silently _x/_y-suffix both sides and the
            # promised output columns would never exist (interval_join
            # refuses its analogous collision too)
            raise ValueError(
                f"asof_join: right_cols target name(s) {sorted(bad)} "
                "collide with left columns — rename the right targets"
            )
        l = l.sort_values(on, kind="stable")
        # sort the right side by on + EVERY remaining column, not just
        # on: rows tied on `on` (necessarily different `by` after the
        # dedup above) would otherwise keep their shuffle-arrival order
        # — harmless to the per-by match, but this pins the frame
        # bit-for-bit at any parallelism
        r = r.sort_values([on] + [c for c in r.columns if c != on], kind="stable")
        return pd.merge_asof(l, r, on=on, by=by, direction=direction)

    return tagged_l.union(tagged_r).groupby("__bucket").map_groups(
        asof_bucket, batch_format="pandas"
    )


def interval_join(
    left_ds,
    right_ds,
    by: str,
    on: str,
    right_lower: str,
    right_upper: str,
    left_cols: dict[str, str],
    right_cols: dict[str, str],
    num_buckets: int = 16,
):
    """Range (interval) join: every left row paired with EVERY right
    interval ``[right_lower, right_upper)`` of the same ``by`` key that
    contains its ``on`` value — the multi-match generalization of
    ``asof_join`` (which keeps only the latest candidate; reference J2's
    range predicate ``LoadJpatBatchesTasklet.java:91-106`` keeps one).

    Shape: ONE hash shuffle on ``by`` co-locates each key's rows, then
    a per-bucket pandas merge on the key + vectorized interval filter.
    Partitioning assumption (documented, as all custom operators here):
    per-``by``-key data fits a task; a pathologically hot key needs
    salting on the interval's time-bin, which changes only the bucket
    fn, not the semantics.
    """

    def tag(side: str):
        def fn(t: pa.Table) -> pa.Table:
            b = (hash64(t[by]) % np.uint64(num_buckets)).astype(np.int32)
            t = t.append_column("__b", pa.array(b))
            return t.append_column("__side", pa.array([side] * t.num_rows))

        return fn

    both = left_ds.map_batches(tag("L"), batch_format="pyarrow").union(
        right_ds.map_batches(tag("R"), batch_format="pyarrow")
    )

    out_cols = list(left_cols.values()) + list(right_cols.values())

    if {right_lower, right_upper} & ({on, by} | set(left_cols)):
        raise ValueError(
            "interval bounds must not collide with the join key or left "
            "column names — rename them on the right side before joining"
        )

    def join_bucket(df: pd.DataFrame) -> pd.DataFrame:
        l = df[df["__side"] == "L"]
        r = df[df["__side"] == "R"]
        if len(l) == 0 or len(r) == 0:
            return pd.DataFrame(columns=out_cols)
        # pre-rename the right payload columns to reserved placeholder
        # names BEFORE the merge: no pandas suffix guessing, no way for
        # a left column named like the right's (or like `src__r`) to be
        # silently emitted as right-side output
        ph = {src: f"__rc{i}" for i, src in enumerate(right_cols)}
        r2 = r[[by, right_lower, right_upper, *right_cols]].rename(columns=ph)
        pairs = l[[by, on, *left_cols]].merge(r2, on=by, how="inner")
        keep = (pairs[right_lower] <= pairs[on]) & (pairs[on] < pairs[right_upper])
        pairs = pairs[keep]
        out = pd.DataFrame({dst: pairs[src].to_numpy() for src, dst in left_cols.items()})
        for src, dst in right_cols.items():
            out[dst] = pairs[ph[src]].to_numpy()
        return out

    return both.groupby("__b").map_groups(join_bucket, batch_format="pandas")
