"""Vectorized hashing / partitioning primitives.

Covers the graft's F6 scalar function (``sha256(content)``; reference
has no hashing — the north rule's ``input_hint`` replaces the
reference's BigDecimal amount equality at
``service/ReconciliationService.java:151`` with content-sha256
equality) and the explicit hash-partitioning + salted-key splitting
required at 10^10-event scale (SURVEY.md §4).

All functions are deterministic and zero-per-row-Python. The 64-bit
bucket hash has one scheme: polars ``Series.hash`` (seeded xxhash, one
SIMD pass over the Arrow buffers — measured 30-40x faster than any
numpy-composed alternative on string keys). Its values are stable
within a polars version but NOT guaranteed across versions, so
``HASH_IMPL`` embeds the polars version and the commit log's layout
fence refuses to resume a lake written under a different one: a lake
never meets a bucket routing it was not written with.

No wall clock, no process-local seeds.
"""

from __future__ import annotations

import hashlib

import numpy as np
import polars as _pl
import pyarrow as pa
import pyarrow.compute as pc

#: version tag of the bucket-hash scheme, persisted in the commit log's
#: layout fence (CommitLog.ensure_layout)
HASH_IMPL = f"xxh-polars-{_pl.__version__}"

_HASH_SEED = 42

#: Sentinel string NULL keys are mapped to for routing/joining — the same
#: value ``merge.key_codes`` fills into null repo/path before its key
#: join, so routing and merge agree on where null-keyed rows live.
NULL_SENTINEL = "\x00N"


def sha256_hex_array(col: pa.Array | pa.ChunkedArray) -> pa.Array:
    """sha256 hex digest per element of a string array; null -> null.

    hashlib releases the GIL per call and is C-speed; the Python loop is
    O(rows) with tiny constant vs. the O(bytes) digest work, so this is
    effectively vectorized for document-sized payloads.
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    out: list[str | None] = [
        None if v is None else hashlib.sha256(v.encode("utf-8", "surrogatepass")).hexdigest()
        for v in col.to_pylist()
    ]
    return pa.array(out, type=pa.string())


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (public-domain constant mix) — vectorized."""
    x = np.asarray(x, dtype=np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def hash64(values: np.ndarray | pa.Array | pa.ChunkedArray | list) -> np.ndarray:
    """Deterministic 64-bit hash of a column (uint64 ndarray), used for
    bucket routing / partitioning only (collisions cost balance, never
    correctness — both sides of every cogroup use this same function).
    Nulls hash to a fixed value. See the module docstring for the
    scheme and its version fence."""
    if not isinstance(values, (pa.Array, pa.ChunkedArray)):
        values = pa.array(np.asarray(values, dtype=object))
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    t = values.type
    if pa.types.is_integer(t) and t != pa.int64():
        # dtype-insensitive integer hashing: an int32 and an int64
        # column holding the same VALUES must hash identically — the
        # polars hash covers the physical width, so without this
        # cast a bloom built over int64 ids silently rejects an int32
        # probe column (false negatives) and a bucketed join whose two
        # sides differ in width routes matching keys to different
        # buckets. safe=False: uint64 > 2^63 wraps, deterministically
        # and identically on every side.
        values = pc.cast(values, pa.int64(), safe=False)
    return _pl.from_arrow(values).hash(seed=_HASH_SEED).to_numpy()


def bucket_of(
    repo: pa.Array | pa.ChunkedArray,
    path: pa.Array | pa.ChunkedArray,
    num_buckets: int,
    salt_for_repo: dict[str, int] | None = None,
) -> pa.Array:
    """Physical partition id for each row: hash-partition by ``repo``
    with salted-key splitting for skewed monorepos (SURVEY.md §4,
    north_star "explicit hash-partitioning on repo with salted-key
    splitting").

    effective key = (repo, hash64(path) % salt_for_repo.get(repo, 1)).
    The merge key ``(repo, path)`` is strictly finer than the effective
    key, so all rows of one merge key land in one bucket — salting is
    correctness-preserving; rollups re-aggregate across salts.

    Vectorized via dictionary encoding: ``repo`` is low-cardinality, so
    only the UNIQUE repo strings are hashed and the per-row hash is a
    gather by dictionary index — O(uniques) hash work per batch.
    """
    if isinstance(repo, pa.ChunkedArray):
        repo = repo.combine_chunks()
    # Nulls must route deterministically: fill the VALUE array with the
    # engine's null sentinel (same "\x00N" merge.key_codes uses)
    # BEFORE dictionary encoding. Filling at the index level (old code:
    # fill_null(indices, 0)) made a null repo hash like whatever string
    # happened to be first in that batch's dictionary — batch-dependent
    # routing — and crashed on all-null batches (empty dictionary).
    if pa.types.is_null(repo.type):
        repo = pa.array([NULL_SENTINEL] * len(repo), type=pa.string())
    elif repo.null_count:
        repo = pc.fill_null(repo, NULL_SENTINEL)
    denc = pc.dictionary_encode(repo)
    dict_hash = hash64(denc.dictionary)
    idx = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    # NOTE: the formula must depend only on (repo, path, salt config,
    # num_buckets) — never on batch composition — or the same key could
    # land in different buckets on different sides of a cogroup.
    eff = dict_hash[idx] * np.uint64(1000003)
    if salt_for_repo and any(s > 1 for s in salt_for_repo.values()):
        salt_by_dict = np.fromiter(
            (salt_for_repo.get(r, 1) for r in denc.dictionary.to_pylist()),
            dtype=np.uint64,
            count=len(denc.dictionary),
        )
        salts = salt_by_dict[idx]
        if (salts > 1).any():
            eff = eff + (hash64(path) % salts)
    return pa.array((eff % np.uint64(num_buckets)).astype(np.int32))


def retag_bucket(
    batch: pa.Table, num_buckets: int, salt_for_repo: dict[str, int] | None = None
) -> pa.Table:
    """``batch`` with ``bucket`` derived from its keys under the given
    layout (``bucket_of``). An incoming ``bucket`` column is dropped
    first, never trusted: it may come from another layout (a source
    lake's stored bucket, a snapshot normalized for another count)."""
    if "bucket" in batch.column_names:
        batch = batch.drop_columns(["bucket"])
    return batch.append_column(
        "bucket", bucket_of(batch["repo"], batch["path"], num_buckets, salt_for_repo)
    )


def buckets_for_key(
    repo: str,
    path: str | None,
    num_buckets: int,
    salt_for_repo: dict[str, int] | None = None,
) -> list[int]:
    """The candidate physical-bucket set for one key — the read-side
    inverse of ``bucket_of``, enabling pruned point/keyed reads: a
    lookup touches ONLY these chains, O(salt) buckets on a lake of any
    size.

    With ``path`` given the key routes to exactly one bucket (the same
    arithmetic ``bucket_of`` applies per row). With ``path=None`` (a
    whole-repo read) the set is every bucket a salted split of this
    repo can reach: ``{(h*M + j) % B for j in range(salt)}`` — the salt
    term ``hash64(path) % salt`` ranges over ``[0, salt)``. Unsalted
    repos live in one bucket."""
    salt = int((salt_for_repo or {}).get(repo, 1) or 1)
    if path is not None:
        b = bucket_of(
            pa.array([repo], pa.string()),
            pa.array([path], pa.string()),
            num_buckets,
            salt_for_repo,
        )
        return [int(b[0].as_py())]
    # array arithmetic for the same silent uint64 wraparound bucket_of's
    # vectorized path uses (numpy warns on scalar overflow, not array)
    h = hash64(pa.array([repo], pa.string())) * np.uint64(1000003)
    if salt <= 1:
        return [int((h % np.uint64(num_buckets))[0])]
    eff = (h + np.arange(salt, dtype=np.uint64)) % np.uint64(num_buckets)
    return sorted({int(b) for b in eff})


def key_strings(repo: pa.Array | pa.ChunkedArray, path: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Combined merge-key column ``repo\\x00path`` (string) — a single
    comparable/hashable column for joins, is_in membership and sorts."""
    if pa.types.is_large_string(repo.type) or pa.types.is_large_string(path.type):
        # the join kernel needs uniform input types; widened (int64-
        # offset) key columns from a huge chain keep their width
        return pc.binary_join_element_wise(
            pc.cast(repo, pa.large_string()), pc.cast(path, pa.large_string()),
            pa.scalar("\x00", pa.large_string()),
        )
    return pc.binary_join_element_wise(repo, path, "\x00")


def table_state_sha256(tbl: pa.Table, key_cols: tuple[str, ...], value_col: str,
                       ordered: bool = False) -> str:
    """Order-insensitive digest of a table's (key -> value-hash) state.

    Used for partition-level lineage hashes and for the kill/restart
    convergence check (north_star: "converges to the identical
    sha256-verified state").

    Vectorized: canonical sort by key, element-wise join of the key and
    value columns with separators (Arrow C kernel), then ONE sha256
    over the combined column's offsets+data buffers — no per-row
    Python. Every piece write calls this per bucket slice, so it must
    run at memory bandwidth, not interpreter speed. ``ordered``: ``tbl``
    is already in that canonical order (ascending keys, nulls last, as
    ``pc.sort_indices`` orders them), so the sort is skipped.
    """
    if tbl.num_rows == 0:
        return hashlib.sha256(b"EMPTY").hexdigest()
    # digest touches only key+value columns — select BEFORE the sort so
    # the canonical-order copy never moves the content payload bytes
    # (the digest runs per delta slice on the bandwidth-bound hot path)
    tbl = tbl.select([*key_cols, value_col])
    if not ordered:
        tbl = tbl.sort_by([(c, "ascending") for c in key_cols])
    cols = [
        pc.fill_null(pc.cast(tbl[c], pa.large_string()), "\x00NULL\x00")
        for c in (*key_cols, value_col)
    ]
    joined = pc.binary_join_element_wise(
        *cols, pa.scalar("\x01", pa.large_string())
    ).combine_chunks()
    h = hashlib.sha256()
    # offsets + data buffers canonically encode the string column
    for buf in joined.buffers():
        if buf is not None:
            h.update(buf)
    return h.hexdigest()
