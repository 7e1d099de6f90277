"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram
Jaccard verification — the training-data-pipeline dedup family.

Scale shapes (ray_guide.md "Aggregation at scale" / "Exact dedup"):

- **exact**: vectorized sha256 in ``map_batches`` -> per-batch partial
  min(doc_id) per hash -> one small ``groupby(hash).min`` shuffle.
- **MinHash LSH**: signature per doc (task pool; the permutation
  tables are cached per worker process — init is microseconds, so an
  actor pool would only add spin-up latency and a concurrency cap)
  -> explode to (band, band_hash, doc_id) rows -> groupby the
  band bucket (hot buckets capped, logged) -> candidate pairs ->
  exact Jaccard verify as a DISTRIBUTED pipeline (pairs ⋈ texts via
  two partitioned hash joins, per-batch verification) -> connected
  components by iterated min-label propagation (one hash join + one
  vectorized groupby-aggregate per round, no driver union-find;
  rounds ~ diameter of dup clusters, almost always <= 3).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import text as T
from ..functions.hashing import sha256_hex_array


def exact_dedup(
    docs_ds, id_col: str = "doc_id", text_col: str = "text",
    null_text: str = "collapse",
):
    """One representative (min id) per distinct content hash.
    Returns Dataset(doc_id, content_sha256).

    ``null_text`` sets the policy for rows whose text is NULL (their
    hash is null): ``"collapse"`` (default) groups them as ONE key —
    SQL GROUP BY semantics, what the DuckDB oracle computes; ``"keep"``
    treats unknown content as incomparable (the module's near-dup
    stages' policy: null text is never a candidate), so every null-text
    doc survives as its own representative with a null hash; it keys
    those docs by id, so ``"keep"`` refuses null ids."""
    from ray.data.aggregate import Min

    if null_text not in ("collapse", "keep"):
        raise ValueError(f"null_text must be 'collapse' or 'keep', got {null_text!r}")

    def hash_and_partial_min(batch: pa.Table) -> pa.Table:
        sha = sha256_hex_array(batch[text_col])
        if null_text == "keep":
            if batch[id_col].null_count:
                # a null id would key its null-text doc as a null hash,
                # and every such doc would collapse into ONE group
                raise ValueError(
                    f"exact_dedup(null_text='keep'): {batch[id_col].null_count} "
                    f"null {id_col}(s) — every document needs an id to stay "
                    "its own representative (pre-filter upstream)"
                )
            # per-doc sentinel key: "\x00<id>" can never collide with a
            # hex sha, so null-text rows pass the groupbys unmerged
            mask = pc.is_null(sha)
            if pc.any(mask).as_py():
                sent = pc.binary_join_element_wise(
                    pa.scalar("\x00"), pc.cast(batch[id_col], pa.string()),
                    pa.scalar(""),
                )
                sha = pc.if_else(mask, sent, sha)
        t = pa.table({id_col: batch[id_col], "content_sha256": sha})
        red = t.group_by(["content_sha256"], use_threads=False).aggregate([(id_col, "min")])
        return pa.table(
            {id_col: red[f"{id_col}_min"], "content_sha256": red["content_sha256"]}
        )

    out = (
        docs_ds.map_batches(hash_and_partial_min, batch_format="pyarrow")
        .groupby("content_sha256")
        .aggregate(Min(on=id_col, alias_name=id_col))
    )
    if null_text == "collapse":
        return out

    def restore_null(t: pa.Table) -> pa.Table:
        sha = t["content_sha256"]
        m = pc.starts_with(pc.fill_null(sha, ""), "\x00")
        return pa.table({
            "content_sha256": pc.if_else(m, pa.nulls(t.num_rows, pa.string()), sha),
            id_col: t[id_col],
        })

    return out.map_batches(restore_null, batch_format="pyarrow")


class MinHashBands:
    """Batch stage: shingle -> MinHash signature -> LSH band rows
    (wired as a task pool via ``_band_rows``; construction is cheap
    enough to cache per worker process instead of per actor)."""

    def __init__(self, num_perm: int = 128, num_bands: int = 16, shingle_k: int = 5, seed: int = 42):
        self.mh = T.MinHasher(num_perm=num_perm, seed=seed)
        self.num_bands = num_bands
        self.shingle_k = shingle_k

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        texts = batch["text"].combine_chunks()
        valid = pc.is_valid(texts)  # null text: never a candidate
        if not pc.all(valid).as_py():
            batch = batch.filter(valid)
            texts = batch["text"].combine_chunks()
        ids = batch["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        # whole-batch kernels over the zero-copy Arrow string column:
        # one shingle pass, one chunked permute + reduceat signature
        # pass, one band fold — no per-doc Python
        flat, offsets = T.char_shingle_hashes_batch(texts, self.shingle_k)
        sigs = self.mh.signature_matrix(flat, offsets)
        bh = self.mh.band_hash_matrix(sigs, self.num_bands)
        n, nb = bh.shape
        return pa.table({
            "doc_id": np.repeat(ids, nb),
            "band": np.tile(np.arange(nb, dtype=np.int64), n),
            "band_hash": bh.ravel(),
        })


# per-worker-process cache of constructed banding stages: MinHasher
# init is microseconds (one 128-entry multiply-shift table), so an
# actor pool would buy nothing but spin-up latency and a fixed
# concurrency cap — a TASK pool reuses Ray's long-lived worker
# processes (the cached table persists across batches and jobs) and
# scales to every core. Bounded: distinct mh_kwargs per process is tiny.
_BANDERS: dict[tuple, "MinHashBands"] = {}


def _band_rows(ds, mh_kwargs: dict):
    """Shared MinHash/LSH banding stage wiring (task pool with
    per-process cached permutation tables) for the self-join and
    incremental dedup paths."""
    key = tuple(sorted(mh_kwargs.items()))

    def band(batch: pa.Table) -> pa.Table:
        st = _BANDERS.get(key)
        if st is None:
            st = _BANDERS.setdefault(key, MinHashBands(**dict(key)))
        return st(batch)

    return ds.map_batches(band, batch_format="pyarrow", batch_size=2048)


def _dedupe_pairs(pairs):
    """Collapse candidate pairs produced by multiple colliding bands."""
    from ray.data.aggregate import Count

    return (
        pairs.groupby(["doc_a", "doc_b"])
        .aggregate(Count(alias_name="__n__"))
        .select_columns(["doc_a", "doc_b"])
    )


# how many hash parts the (band, band_hash) bucket space collapses to
# before map_groups: Ray's map_groups pays a per-GROUP dispatch cost, so
# grouping by raw bucket (one tiny group per bucket — tens of thousands
# of them) is dominated by dispatch, not work. Grouping by a hash PART
# keeps the shuffle volume identical while the within-part kernel walks
# bucket boundaries vectorized (lexsort + boundary flags). The default
# suits bench-scale corpora; per-part band rows grow as
# docs x num_bands / parts, so at much larger corpora raise
# ``pair_parts`` on the caller until one part's rows fit a worker —
# the same fixed-bucket scale rule as joins._derive_num_buckets.
_PAIR_PARTS = 64


def _with_part(bands, parts: int = _PAIR_PARTS):
    """Tag each band row with its shuffle part = band_hash-derived
    hash, so whole-part kernels replace per-bucket dispatch."""
    def tag(t: pa.Table) -> pa.Table:
        bh = t["band_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        band = t["band"].to_numpy(zero_copy_only=False).astype(np.uint64)
        mix = (bh * np.uint64(0x9E3779B97F4A7C15)) ^ (band << np.uint64(32))
        return t.append_column(
            "part", pa.array((mix % np.uint64(parts)).astype(np.int64))
        )

    return bands.map_batches(tag, batch_format="pyarrow")


def _bucket_bounds(band, bh, ids):
    """Sort band rows by (band, band_hash, doc_id), drop duplicate
    (bucket, id) rows, and return the deduped arrays plus each bucket's
    [start, end) bounds — the vectorized spine of the self-join pair
    kernel. The cross (incremental) kernel carries its own variant
    inline because it folds the ``side`` flag into the sort order
    (corpus rows before new rows within each bucket)."""
    order = np.lexsort((ids, bh, band))
    band, bh, ids = band[order], bh[order], ids[order]
    same_bucket = np.empty(len(ids), dtype=bool)
    same_bucket[0] = False
    same_bucket[1:] = (band[1:] == band[:-1]) & (bh[1:] == bh[:-1])
    dup_id = same_bucket.copy()
    dup_id[1:] &= ids[1:] == ids[:-1]
    keep = ~dup_id
    band, bh, ids, same_bucket = band[keep], bh[keep], ids[keep], same_bucket[keep]
    # recompute bucket starts on the deduped rows
    starts = np.flatnonzero(~same_bucket)
    ends = np.append(starts[1:], len(ids))
    return band, bh, ids, starts, ends


def lsh_candidate_pairs(
    docs_ds, max_bucket_size: int = 512, pair_parts: int = _PAIR_PARTS,
    **mh_kwargs,
):
    """Candidate near-dup pairs: docs sharing any LSH band bucket.
    Returns Dataset(doc_a, doc_b) with doc_a < doc_b, deduplicated.

    ``max_bucket_size`` caps the O(n^2) per-bucket pair expansion: a
    degenerate band hash (boilerplate docs) would otherwise produce one
    quadratic group. Oversized buckets contribute only pairs among
    their ``max_bucket_size`` smallest doc_ids (deterministic) and the
    drop is logged — never silent (ray_guide.md "no silent caps").
    ``pair_parts`` sizes the shuffle fan-out (see _PAIR_PARTS)."""
    import logging

    bands = _with_part(_band_rows(docs_ds, mh_kwargs), pair_parts)

    def pairs_in_part(g: pd.DataFrame) -> pd.DataFrame:
        band = g["band"].to_numpy().astype(np.int64)
        bh = g["band_hash"].to_numpy().astype(np.int64)
        ids = g["doc_id"].to_numpy().astype(np.int64)
        band, bh, ids, starts, ends = _bucket_bounds(band, bh, ids)
        out_a, out_b = [], []
        dropped = 0
        for s, e in zip(starts, ends):
            n = e - s
            if n < 2:
                continue
            if n > max_bucket_size:
                dropped += n - max_bucket_size
                logging.getLogger(__name__).warning(
                    "lsh_candidate_pairs: band bucket (band=%s hash=%s) has "
                    "%d docs; capping to %d smallest ids (%d dropped)",
                    band[s], bh[s], n, max_bucket_size, n - max_bucket_size,
                )
                e = s + max_bucket_size
                n = max_bucket_size
            ai, bj = np.triu_indices(n, k=1)
            out_a.append(ids[s:e][ai])
            out_b.append(ids[s:e][bj])
        if not out_a:
            return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64")})
        return pd.DataFrame({"doc_a": np.concatenate(out_a),
                             "doc_b": np.concatenate(out_b)})

    pairs = bands.groupby("part").map_groups(pairs_in_part, batch_format="pandas")
    return _dedupe_pairs(pairs)


def verify_jaccard_pairs(pairs_df: pd.DataFrame, docs_df: pd.DataFrame,
                         threshold: float = 0.8, shingle_k: int = 5) -> pd.DataFrame:
    """Exact shingle-Jaccard verification of candidate pairs over
    in-memory tables — the per-group kernel used by unit tests; the
    distributed path is ``verify_pairs_distributed``."""
    texts = dict(zip(docs_df["doc_id"], docs_df["text"]))
    rows = []
    cache: dict[int, set] = {}

    def sh(d):
        if d not in cache:
            cache[d] = set(T.char_shingles(texts[d], shingle_k).tolist())
        return cache[d]

    for a, b in zip(pairs_df["doc_a"], pairs_df["doc_b"]):
        j = T.jaccard(sh(a), sh(b))
        if j >= threshold:
            rows.append({"doc_a": int(a), "doc_b": int(b), "jaccard": round(float(j), 6)})
    return pd.DataFrame(rows, columns=["doc_a", "doc_b", "jaccard"])


def verify_pairs_distributed(
    pairs_ds,
    docs_ds,
    threshold: float = 0.8,
    shingle_k: int = 5,
    num_buckets: int = 16,
    bloom_bits_log2: int = 23,
    pair_budget: int = 10_000,
):
    """Exact shingle-Jaccard verification of candidate pairs, fully
    distributed: the corpus is first PRUNED to (approximately) the
    pair-endpoint docs by a Bloom filter built distributed over the
    pair ids and OR-reduced driver-side (O(bitmap) driver bytes, never
    O(pairs)); the surviving docs then enrich the pair list via two
    partitioned hash joins (pairs ⋈ docs on doc_a, then on doc_b).
    Without the prefilter both joins shuffle the ENTIRE corpus text —
    O(corpus bytes) exchange to verify an O(pairs) candidate set; with
    it only endpoint docs (plus the Bloom's tunable false-positive
    sliver, harmless — the joins stay exact) leave their blocks. Each
    joined batch verifies rows with a per-batch shingle cache (a doc
    repeated across many pairs in one batch is shingled once).

    ``pair_budget``: candidate sets at or under this size skip the
    Bloom + two-shuffle machinery entirely — ONE distributed map
    shingles just the endpoint docs and the O(pairs) jaccards compute
    driver-side (driver memory O(endpoint shingles), bounded by the
    budget; the choice is logged). At bench scale the dup tail is a few
    hundred pairs and the fixed cost of three exchanges dominates the
    whole pipeline; at 100 TB the distributed path engages unchanged.

    Returns Dataset(doc_a, doc_b, jaccard) with jaccard >= threshold.
    """
    import logging

    import ray

    from ..functions.bloom import bloom_contains, build_bloom
    from .joins import _declare, hash_join

    # O(pairs) narrow rows; consumed twice (bloom pass + join input)
    pairs_ds = pairs_ds.materialize()
    n_pairs = pairs_ds.count()
    if n_pairs <= pair_budget:
        logging.getLogger(__name__).info(
            "verify_pairs: %d pairs <= budget %d — small-side fast path",
            n_pairs, pair_budget,
        )
        return _verify_pairs_small(pairs_ds, docs_ds, threshold, shingle_k)
    # size the join fan-out to the candidate volume: a sparse pair set
    # through a fixed 16-way exchange is pure scheduling overhead, a
    # dense one still gets the full fan-out (caller's num_buckets caps)
    num_buckets = max(1, min(num_buckets, -(-n_pairs // 8192)))

    bloom_k = 7  # ONE constant for build and the reassembled probe dict

    def part_bloom(t: pa.Table) -> pa.Table:
        ids = np.concatenate([
            t["doc_a"].to_numpy(zero_copy_only=False).astype(np.int64),
            t["doc_b"].to_numpy(zero_copy_only=False).astype(np.int64),
        ])
        b = build_bloom(pa.array(ids), bits_log2=bloom_bits_log2, k=bloom_k)
        return pa.table({"bits": [b["bits"]]})

    parts = pairs_ds.map_batches(part_bloom, batch_format="pyarrow").to_pandas()
    bits = np.zeros((1 << bloom_bits_log2) // 64, dtype=np.uint64)
    for arr in parts["bits"]:
        bits |= np.asarray(arr, dtype=np.uint64)
    bloom_ref = ray.put({"bits": bits, "bits_log2": bloom_bits_log2, "k": bloom_k})

    def endpoint_docs(t: pa.Table) -> pa.Table:
        bloom = ray.get(bloom_ref)
        keep = bloom_contains(bloom, t["doc_id"])
        return t.filter(pa.array(keep))

    # materialized: consumed by BOTH join sides — without this the full
    # corpus scan + bloom probe would execute twice; the pruned set is
    # endpoint docs + the FP sliver, i.e. O(dup tail), safe to pin
    docs_pruned = docs_ds.map_batches(
        endpoint_docs, batch_format="pyarrow"
    ).materialize()

    types = docs_pruned.schema().base_schema  # materialized: nothing runs

    def docs_as(side: str):
        # (doc_<side>, text_<side>) with its schema declared, so the
        # join neither runs nor pins this renaming for its schema
        names = {"doc_id": f"doc_{side}", "text": f"text_{side}"}
        return _declare(
            docs_pruned.map_batches(
                lambda t: t.select(list(names)).rename_columns(list(names.values())),
                batch_format="pyarrow",
            ),
            pa.schema([(names[c], types.field(c).type) for c in names]),
        )

    j1 = hash_join(pairs_ds, docs_as("a"), on="doc_a", num_buckets=num_buckets)
    j2 = hash_join(j1, docs_as("b"), on="doc_b", num_buckets=num_buckets)

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        cache: dict[int, set] = {}

        def sh(d, txt):
            if d not in cache:
                cache[d] = set(T.char_shingles(txt, shingle_k).tolist())
            return cache[d]

        rows = []
        for a, b, ta, tb in zip(df["doc_a"], df["doc_b"], df["text_a"], df["text_b"]):
            j = T.jaccard(sh(int(a), ta), sh(int(b), tb))
            if j >= threshold:
                rows.append((int(a), int(b), round(float(j), 6)))
        return pd.DataFrame(rows, columns=["doc_a", "doc_b", "jaccard"]).astype(
            {"doc_a": "int64", "doc_b": "int64", "jaccard": "float64"}
        )

    return j2.map_batches(verify, batch_format="pandas")


def _verify_pairs_small(pairs_ds, docs_ds, threshold: float, shingle_k: int):
    """Small-side verify: broadcast the endpoint-id set, shingle ONLY
    the endpoint docs in one distributed map, compute the O(pairs)
    jaccards driver-side. Byte-identical output to the distributed
    path (same shingle kernel, same rounding)."""
    import ray
    import ray.data as rd

    plist = pairs_ds.take_all()
    empty = pa.table({
        "doc_a": pa.array([], pa.int64()),
        "doc_b": pa.array([], pa.int64()),
        "jaccard": pa.array([], pa.float64()),
    })
    if not plist:
        return rd.from_arrow(empty)
    endpoints = frozenset(
        int(r["doc_a"]) for r in plist
    ) | frozenset(int(r["doc_b"]) for r in plist)
    ep_ref = ray.put(endpoints)

    def endpoint_shingles(df: pd.DataFrame) -> pd.DataFrame:
        eps = ray.get(ep_ref)
        m = df["doc_id"].astype("int64").isin(eps)
        sel = df[m]
        return pd.DataFrame({
            "doc_id": sel["doc_id"].astype("int64"),
            # char_shingles already returns np.unique output
            "sh": [T.char_shingles(t, shingle_k) for t in sel["text"]],
        })

    sh_rows = docs_ds.map_batches(endpoint_shingles, batch_format="pandas").take_all()
    # set conversion ONCE per endpoint doc — a hot doc in thousands of
    # pairs must not rebuild its Python set per pair
    sh = {int(r["doc_id"]): set(np.asarray(r["sh"]).tolist()) for r in sh_rows}
    rows = []
    for r in plist:
        a, b = int(r["doc_a"]), int(r["doc_b"])
        sa, sb = sh.get(a), sh.get(b)
        if sa is None or sb is None:
            continue
        j = T.jaccard(sa, sb)
        if j >= threshold:
            rows.append((a, b, round(float(j), 6)))
    if not rows:
        return rd.from_arrow(empty)
    return rd.from_arrow(pa.table({
        "doc_a": pa.array([r[0] for r in rows], pa.int64()),
        "doc_b": pa.array([r[1] for r in rows], pa.int64()),
        "jaccard": pa.array([r[2] for r in rows], pa.float64()),
    }))


def _cc_driver_union_find(nodes_ds, edges_sym):
    """Budgeted fast path for connected components: collect the
    (symmetrized) dup-graph edges — O(duplicate pairs), never the
    corpus — run union-find with path compression driver-side, and
    broadcast the touched-node -> min-label map once via ``ray.put``;
    untouched nodes label themselves. One distributed map replaces
    rounds x (join + groupby)."""
    import ray

    et = edges_sym.to_pandas()
    src = et["src"].to_numpy().astype(np.int64)
    dst = et["node"].to_numpy().astype(np.int64)
    touched, idx = np.unique(np.concatenate([src, dst]), return_inverse=True)
    a, b = idx[: len(src)], idx[len(src):]
    parent = np.arange(len(touched), dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for i, j in zip(a, b):
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            # union by min original node id keeps labels deterministic
            if touched[ri] <= touched[rj]:
                parent[rj] = ri
            else:
                parent[ri] = rj
    roots = np.array([find(int(x)) for x in range(len(touched))], dtype=np.int64)
    labels = touched[roots]
    ref = ray.put((touched, labels))

    def assign(t: pa.Table) -> pa.Table:
        tt, ll = ray.get(ref)
        nodes = pc.cast(t["node"], pa.int64()).to_numpy(zero_copy_only=False)
        pos = np.searchsorted(tt, nodes)
        pos_c = np.minimum(pos, len(tt) - 1)
        hit = tt[pos_c] == nodes
        lab = np.where(hit, ll[pos_c], nodes)
        return pa.table({"node": nodes, "label": lab})

    return nodes_ds.map_batches(assign, batch_format="pyarrow")


def connected_components_min_label(nodes_ds, edges_ds, num_buckets: int = 16,
                                   max_rounds: int = 50,
                                   driver_edge_budget: int = 5_000_000):
    """Distributed connected components by iterated min-label
    propagation: each round every node takes the min label over itself
    and its neighbors (one hash join + one groupby per round; rounds ~
    diameter of the largest component — near-dup clusters are almost
    always <= 3 hops). Nothing corpus-sized touches the driver; the
    label table ((node, label) int64 pairs) is materialized per round,
    which is O(nodes) narrow rows spread across the cluster.

    Fast path: when the EDGE set fits ``driver_edge_budget`` (it is the
    verified dup graph — O(duplicate pairs), orders of magnitude
    smaller than the corpus; the Dolma/SlimPajama pipelines collect it
    the same way), a driver union-find labels the touched nodes in one
    pass and the labels broadcast back via ``ray.put`` — replacing
    rounds x (join + groupby) fixed cost with one map. Over budget, the
    iterative distributed path runs (logged); ``driver_edge_budget=0``
    forces it.

    ``nodes_ds``: Dataset with a ``node`` column (int64).
    ``edges_ds``: Dataset(doc_a, doc_b) undirected edges.
    Returns Dataset(node, label) with label = min node id of the
    component.
    """
    from ray.data.aggregate import Min, Sum

    from .joins import hash_join

    def symmetrize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "src": pd.concat([df["doc_a"], df["doc_b"]], ignore_index=True).astype("int64"),
            "node": pd.concat([df["doc_b"], df["doc_a"]], ignore_index=True).astype("int64"),
        })

    import pyarrow.compute as pc

    def _i64(col):
        return pc.cast(col, pa.int64())

    def symmetrize_arrow(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": pa.concat_arrays([_i64(t["doc_a"]).combine_chunks(),
                                     _i64(t["doc_b"]).combine_chunks()]),
            "node": pa.concat_arrays([_i64(t["doc_b"]).combine_chunks(),
                                      _i64(t["doc_a"]).combine_chunks()]),
        })

    edges_sym = edges_ds.map_batches(symmetrize_arrow, batch_format="pyarrow").materialize()
    identity = lambda t: pa.table(  # noqa: E731
        {"node": _i64(t["node"]), "label": _i64(t["node"])}
    )
    n_sym = edges_sym.count()
    if n_sym == 0:
        return nodes_ds.map_batches(identity, batch_format="pyarrow")

    if n_sym <= driver_edge_budget:
        return _cc_driver_union_find(nodes_ds, edges_sym)
    import logging

    logging.getLogger(__name__).info(
        "connected components: %d edges exceed driver budget %d — "
        "running the iterative distributed path", n_sym, driver_edge_budget,
    )

    # each node's own row carries its label twice: once as a Min
    # candidate, once in self_label (exactly one self row per node, so
    # Sum(self_label) recovers the previous label) — both rounds'
    # reduction steps are then plain vectorized hash aggregates, never
    # per-group Python. All stages emit Arrow blocks (union requires
    # one uniform block type).
    labels = nodes_ds.map_batches(
        lambda t: pa.table({"node": _i64(t["node"]), "label": _i64(t["node"]),
                            "self_label": _i64(t["node"])}),
        batch_format="pyarrow",
    ).materialize()

    changed = None
    for _ in range(max_rounds):
        # neighbor messages: edge (src -> node) carries src's label
        src_labels = labels.map_batches(
            lambda t: pa.table({"src": t["node"], "label": t["label"]}),
            batch_format="pyarrow",
        )
        msgs = hash_join(edges_sym, src_labels, on="src", num_buckets=num_buckets).map_batches(
            lambda t: pa.table({"node": _i64(t["node"]), "label": _i64(t["label"]),
                                "self_label": pa.array(np.zeros(t.num_rows, np.int64))}),
            batch_format="pyarrow",
        )
        red = labels.union(msgs).groupby("node").aggregate(
            Min(on="label", alias_name="label"),
            Sum(on="self_label", alias_name="prev"),
        )

        def finish(t: pa.Table) -> pa.Table:
            return pa.table({
                "node": _i64(t["node"]),
                "label": _i64(t["label"]),
                "self_label": _i64(t["label"]),
                "changed": pc.cast(pc.less(t["label"], t["prev"]), pa.int64()),
            })

        new_labels = red.map_batches(finish, batch_format="pyarrow").materialize()
        changed = new_labels.aggregate(Sum(on="changed", alias_name="n"))["n"]
        labels = new_labels.drop_columns(["changed"])
        if not changed:
            break
    else:
        # round budget exhausted with labels still moving: clusters of
        # diameter > max_rounds would come back SPLIT. Never silent
        # (repo rule: no silent caps) — raise; callers with genuinely
        # enormous components pass a larger budget (minhash_clusters
        # plumbs cc_max_rounds through).
        if changed is not None:
            raise RuntimeError(
                f"connected components did not converge within {max_rounds} "
                f"rounds ({changed} labels still changing) — raise max_rounds"
            )

    return labels.drop_columns(["self_label"])


def minhash_clusters(docs_ds, threshold: float = 0.8, cc_max_rounds: int = 50, **mh_kwargs):
    """Near-dup clusters: doc_id -> cluster_id (min doc_id of its
    component), via LSH candidates + distributed Jaccard verify +
    distributed min-label connected components. End-to-end Dataset
    pipeline: no corpus-sized ``to_pandas`` anywhere (the round-1
    driver-side materialization was the 100 TB scale-killer)."""
    pairs = lsh_candidate_pairs(docs_ds, **mh_kwargs)
    verified = verify_pairs_distributed(
        pairs, docs_ds, threshold=threshold,
        shingle_k=mh_kwargs.get("shingle_k", 5),
    )
    nodes = docs_ds.map_batches(
        lambda df: pd.DataFrame({"node": df["doc_id"].astype("int64")}),
        batch_format="pandas",
    )
    labels = connected_components_min_label(nodes, verified, max_rounds=cc_max_rounds)
    return labels.map_batches(
        lambda df: pd.DataFrame({"doc_id": df["node"].astype("int64"),
                                 "cluster_id": df["label"].astype("int64")}),
        batch_format="pandas",
    )


class SimHashStage:
    """doc_id, simhash (64-bit as int64-bitcast) per document."""

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        vals = np.array([T.simhash64(t) for t in batch["text"]], dtype=np.uint64)
        return pd.DataFrame(
            {"doc_id": batch["doc_id"].to_numpy(), "simhash": vals.view(np.int64)}
        )


def incremental_dup_check(
    new_ds,
    corpus_ds,
    threshold: float = 0.8,
    max_bucket_size: int = 512,
    num_buckets: int = 16,
    pair_parts: int = _PAIR_PARTS,
    **mh_kwargs,
):
    """Incremental (CDC-flavored) near-dup check: match an INCOMING
    batch of documents against an EXISTING corpus without re-pairing
    the corpus with itself — the steady-state dedup a continuously
    ingesting lake runs per epoch, where corpus×corpus work would be
    O(lake²) every batch.

    Both sides stream through the same MinHash/LSH banding actors; band
    buckets emit only CROSS pairs (new × corpus), capped per side at
    ``max_bucket_size`` with a logged drop; exact shingle-Jaccard
    verification reuses the distributed pair pipeline. Returns
    Dataset(new_doc_id, dup_of_doc_id, jaccard >= threshold). Doc ids
    must be disjoint between the two sides (they name different rows).
    """
    import logging

    shingle_k = mh_kwargs.get("shingle_k", 5)

    def banded(ds, side):
        b = _band_rows(ds, mh_kwargs)

        def tag(t: pa.Table) -> pa.Table:
            return t.append_column(
                "side", pa.array(np.full(t.num_rows, side, dtype=np.int8))
            )

        return b.map_batches(tag, batch_format="pyarrow")

    bands = _with_part(banded(corpus_ds, 0).union(banded(new_ds, 1)), pair_parts)

    def cross_pairs_in_part(g: pd.DataFrame) -> pd.DataFrame:
        band = g["band"].to_numpy().astype(np.int64)
        bh = g["band_hash"].to_numpy().astype(np.int64)
        side = g["side"].to_numpy().astype(np.int64)
        # fold side into the id order so each bucket's corpus rows
        # (side 0) precede its new rows (side 1), both id-ascending —
        # _bucket_bounds dedupes (bucket, id) rows; ids are disjoint
        # across sides (documented contract), so side never collides
        ids = g["doc_id"].to_numpy().astype(np.int64)
        order = np.lexsort((ids, side, bh, band))
        band, bh, side, ids = band[order], bh[order], side[order], ids[order]
        new_bucket = np.empty(len(ids), dtype=bool)
        new_bucket[0] = True
        new_bucket[1:] = (band[1:] != band[:-1]) | (bh[1:] != bh[:-1])
        dup_id = ~new_bucket
        dup_id[1:] &= ids[1:] == ids[:-1]
        keep = ~dup_id
        band, bh, side, ids, new_bucket = (
            band[keep], bh[keep], side[keep], ids[keep], new_bucket[keep]
        )
        starts = np.flatnonzero(new_bucket)
        ends = np.append(starts[1:], len(ids))
        out_a, out_b = [], []
        for s, e in zip(starts, ends):
            sl = side[s:e]
            split = s + int(np.searchsorted(sl, 1))
            old = ids[s:split]
            new = ids[split:e]
            for name, arr in (("corpus", old), ("new", new)):
                if len(arr) > max_bucket_size:
                    logging.getLogger(__name__).warning(
                        "incremental_dup_check: band bucket (band=%s hash=%s) "
                        "has %d %s docs; capping to %d smallest ids",
                        band[s], bh[s], len(arr), name, max_bucket_size,
                    )
            old = old[:max_bucket_size]
            new = new[:max_bucket_size]
            if len(old) == 0 or len(new) == 0:
                continue
            ni, oi = np.meshgrid(
                np.arange(len(new)), np.arange(len(old)), indexing="ij"
            )
            out_a.append(new[ni.ravel()])   # the incoming doc
            out_b.append(old[oi.ravel()])   # its corpus counterpart
        if not out_a:
            return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64")})
        return pd.DataFrame({"doc_a": np.concatenate(out_a),
                             "doc_b": np.concatenate(out_b)})

    pairs = _dedupe_pairs(
        bands.groupby("part").map_groups(cross_pairs_in_part, batch_format="pandas")
    )
    texts = corpus_ds.union(new_ds)
    verified = verify_pairs_distributed(
        pairs, texts, threshold=threshold, shingle_k=shingle_k,
        num_buckets=num_buckets,
    )

    def rename(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "new_doc_id": df["doc_a"].astype("int64"),
            "dup_of_doc_id": df["doc_b"].astype("int64"),
            "jaccard": df["jaccard"],
        })

    return verified.map_batches(rename, batch_format="pandas")
