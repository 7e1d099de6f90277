"""Iterative graph algorithms over edge-list Datasets.

PageRank as iterated Dataset rounds (Page et al. 1999; the Pregel-style
message formulation): each round is ONE execution — a hash join (edges
pick up their source's rank/out-degree) feeding a groupby-sum reduce
(messages land at the destination) — plus one tiny scalar read over the
materialized reduce output. No driver-side adjacency; nothing
corpus-sized leaves the cluster. Companion to the min-label connected
components in ``stages/dedup.py``; near-dup governance needs cluster
structure (CC) and a canonical-representative ranking (PageRank over
the similarity graph picks the most central duplicate to keep).

Two tricks keep the round count of executions at one-and-a-bit:

- the rank is never materialized as a column: state carries the
  incoming sum ``s`` and the round's uniform term ``add`` lives on the
  driver, so ``rank = d·s + add`` is applied lazily inside the next
  round's map stages;
- dangling mass (rank sitting on out-degree-0 nodes — the standard
  stochastic-matrix patch) is accumulated by per-batch SENTINEL rows
  (node = -1) inside the same reduce, then read back with one small
  vectorized pass over the already-materialized result.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_SENTINEL = -1  # dangling-mass accumulator key; real node ids are >= 0

# wedge-expansion chunk for the broadcast triangle fast path: peak
# transient memory per task is ~5 arrays of this many int64s (a single
# hub edge whose adjacency exceeds it still processes alone, bounded by
# max degree <= the edge budget)
_WEDGE_CHUNK = 4_000_000


def _i64(col):
    return pc.cast(col, pa.int64())


def _bucket_tag(col, num_buckets: int) -> pa.Array:
    """int32 hash-bucket id per row — ONE routing expression shared by
    every bucketed kernel in this module (hash64 is dtype-insensitive,
    so both sides of any cogroup built on this tag always agree)."""
    from ..functions.hashing import hash64

    return pa.array((hash64(col) % np.uint64(num_buckets)).astype(np.int32))


def pagerank(
    nodes_ds,
    edges_ds,
    damping: float = 0.85,
    iters: int = 10,
    num_buckets: int = 16,
    src_col: str = "doc_a",
    dst_col: str = "doc_b",
    undirected: bool = True,
):
    """PageRank over Dataset(node) + Dataset(src, dst) edges.

    Returns Dataset(node, rank float64, rank_e9 int64); ranks sum to 1.
    Fixed ``iters`` power iterations of

        r'(v) = (1-d)/N + d·(Σ_{u→v} r(u)/deg(u) + dangling/N)

    Node ids must be >= 0 (-1 is the internal dangling accumulator).
    """
    from ray.data.aggregate import Count, Sum

    from .joins import _declare, hash_join

    d = float(damping)

    def symmetrize(t: pa.Table) -> pa.Table:
        s = _i64(t[src_col]).combine_chunks()
        t2 = _i64(t[dst_col]).combine_chunks()
        if undirected:
            return pa.table({
                "src": pa.concat_arrays([s, t2]),
                "dst": pa.concat_arrays([t2, s]),
            })
        return pa.table({"src": s, "dst": t2})

    edges = edges_ds.map_batches(symmetrize, batch_format="pyarrow").materialize()

    deg = edges.groupby("src").aggregate(Count(alias_name="deg")).map_batches(
        lambda t: pa.table({"node": _i64(t["src"]), "deg": _i64(t["deg"])}),
        batch_format="pyarrow",
    )
    n_total = nodes_ds.count()
    empty = pa.table({
        "node": pa.array([], pa.int64()),
        "rank": pa.array([], pa.float64()),
        "rank_e9": pa.array([], pa.int64()),
    })
    if n_total == 0:
        if edges.count() > 0:
            # edges against an empty node set would otherwise skip the
            # loud undeclared-endpoint validation entirely
            raise ValueError(
                "pagerank: edges_ds is non-empty but nodes_ds declares no nodes"
            )
        return nodes_ds.map_batches(lambda t: empty, batch_format="pyarrow")

    # OUTER join so an edge source absent from nodes_ds surfaces as a
    # row with a null marker instead of silently vanishing from the
    # inner message join (its rank mass would just leak). Undirected
    # graphs route BOTH endpoints through deg, so this catches every
    # undeclared endpoint; directed-graph unknown destinations are
    # caught by the n_self check in the round reduce below.
    base = hash_join(
        nodes_ds.map_batches(
            lambda t: pa.table({
                "node": _i64(t["node"]),
                "is_node": pa.array(np.ones(t.num_rows, np.int64)),
            }),
            batch_format="pyarrow",
        ),
        deg,
        on="node",
        how="outer",
        num_buckets=num_buckets,
    )

    def init_state(t: pa.Table) -> pa.Table:
        marker = t["is_node"]
        missing = pc.is_null(marker, nan_is_null=True)
        bad = t.filter(missing)
        if bad.num_rows:
            raise ValueError(
                "pagerank: edge endpoint(s) not present in nodes_ds: "
                f"{bad['node'].to_pylist()[:5]}"
            )
        if t.num_rows:
            lo = pc.min(t["node"]).as_py()
            if lo is not None and lo < 0:
                # negative ids would be silently dropped by the round
                # filters (and -1 aliases the dangling sentinel), so
                # their rank mass would leak without this refusal
                raise ValueError(
                    f"pagerank: node ids must be >= 0, got {lo} — negative "
                    "ids collide with the internal dangling-mass sentinel"
                )
        return pa.table({
            "node": _i64(t["node"]),
            "s": pa.array(np.zeros(t.num_rows)),
            "deg": pc.fill_null(pc.cast(t["deg"], pa.int64()), 0),
        })

    # state: (node, s, deg) materialized; rank = d·s + add, add on the
    # driver. Init s = 0, add = 1/N → uniform rank_0.
    state = base.map_batches(init_state, batch_format="pyarrow").materialize()
    add = 1.0 / n_total

    def _rank(t: pa.Table, add: float):
        return pc.add(pc.multiply(pc.cast(t["s"], pa.float64()), pa.scalar(d)),
                      pa.scalar(add))

    for _ in range(iters):
        def src_state_fn(t: pa.Table, add=add) -> pa.Table:
            t = t.filter(pc.greater(t["node"], _SENTINEL))
            rank = _rank(t, add)
            w = pc.divide(
                rank, pc.cast(pc.max_element_wise(t["deg"], 1), pa.float64())
            )
            return pa.table({"src": _i64(t["node"]), "w": w, "deg": _i64(t["deg"])})

        msgs = hash_join(
            edges,
            # declared, so the join does not run or pin each round's side
            _declare(state.map_batches(src_state_fn, batch_format="pyarrow"),
                     pa.schema([("src", pa.int64()), ("w", pa.float64()),
                                ("deg", pa.int64())])),
            on="src",
            num_buckets=num_buckets,
        ).map_batches(
            lambda t: pa.table({
                "node": _i64(t["dst"]),
                "w": pc.cast(t["w"], pa.float64()),
                "self_deg": pa.array(np.zeros(t.num_rows, np.int64)),
                "n_self": pa.array(np.zeros(t.num_rows, np.int64)),
            }),
            batch_format="pyarrow",
        )

        def self_fn(t: pa.Table, add=add) -> pa.Table:
            # self rows keep every node (and its deg) alive through the
            # reduce; one sentinel row per batch accumulates the batch's
            # dangling rank so no separate dangling pass is needed
            t = t.filter(pc.greater(t["node"], _SENTINEL))
            rank = _rank(t, add)
            dang = pc.sum(
                pc.if_else(pc.equal(t["deg"], 0), rank, pa.scalar(0.0))
            )
            dang = 0.0 if dang.as_py() is None else float(dang.as_py())
            ones = pa.array(np.ones(t.num_rows + 1, np.int64))
            return pa.table({
                "node": pa.concat_arrays([
                    _i64(t["node"]).combine_chunks(),
                    pa.array([_SENTINEL], pa.int64()),
                ]),
                "w": pa.concat_arrays([
                    pa.array(np.zeros(t.num_rows)), pa.array([dang]),
                ]),
                "self_deg": pa.concat_arrays([
                    _i64(t["deg"]).combine_chunks(), pa.array([0], pa.int64()),
                ]),
                "n_self": ones,
            })

        red = (
            state.map_batches(self_fn, batch_format="pyarrow")
            .union(msgs)
            .groupby("node")
            .aggregate(
                Sum(on="w", alias_name="s"),
                Sum(on="self_deg", alias_name="deg"),
                Sum(on="n_self", alias_name="n_self"),
            )
            # cap the state's block count: union + groupby otherwise
            # grow blocks every round (state blocks + message blocks in,
            # as many out), making round k slower than round k-1
            .repartition(num_buckets)
            .materialize()
        )
        # one small vectorized pass over the materialized reduce output
        def dang_fn(t: pa.Table) -> pa.Table:
            # a node row with no self contribution is a message to a
            # destination that was never in nodes_ds — a directed-graph
            # contract violation the outer join can't see
            bad = t.filter(
                pc.and_(
                    pc.greater(t["node"], _SENTINEL), pc.equal(t["n_self"], 0)
                )
            )
            if bad.num_rows:
                raise ValueError(
                    "pagerank: edge destination(s) not present in nodes_ds: "
                    f"{bad['node'].to_pylist()[:5]}"
                )
            return pa.table({
                "m": pc.if_else(
                    pc.equal(t["node"], _SENTINEL),
                    pc.cast(t["s"], pa.float64()),
                    pa.scalar(0.0),
                )
            })

        dangling = red.map_batches(dang_fn, batch_format="pyarrow").sum("m")
        dangling = float(dangling or 0.0)
        state = red
        add = (1.0 - d) / n_total + d * dangling / n_total

    def finish(t: pa.Table, add=add) -> pa.Table:
        t = t.filter(pc.greater(t["node"], _SENTINEL))
        rank = _rank(t, add)
        return pa.table({
            "node": t["node"],
            "rank": rank,
            "rank_e9": pc.cast(pc.round(pc.multiply(rank, 1e9)), pa.int64()),
        })

    return state.map_batches(finish, batch_format="pyarrow")


def chain_edges(
    ds,
    part_col: str,
    node_col: str,
    ts_col: str,
    max_gap_days: int,
    num_buckets: int = 32,
):
    """Edges between CONSECUTIVE rows of each partition — ordered by
    (``ts_col``, ``node_col``) within ``part_col`` — whose calendar-date
    gap is <= ``max_gap_days`` (the "activity chain" graph: burst
    detection, repeat-purchase linkage). Hash-partition by ``part_col``
    so each bucket holds whole partitions; the per-bucket kernel is one
    vectorized sort + shift — no per-row Python, nothing leaves the
    bucket but the (usually sparse) edge list. Partitioning assumption:
    a single partition's rows fit one bucket task (same bound as every
    per-key window in this engine).

    Returns Dataset(doc_a, doc_b) with doc_a < doc_b; each consecutive
    pair appears exactly once (``node_col`` values are unique rows), so
    no global dedup pass is needed. Caller contract: ``part_col`` /
    ``ts_col`` / ``node_col`` must be non-null (enforced loudly per
    bucket — NaN partitions never compare equal in the shift and NaT
    casts to INT64_MIN days, silently dropping or fabricating edges);
    pre-filter upstream."""

    def tag(t: pa.Table) -> pa.Table:
        return pa.table({
            part_col: t[part_col],
            node_col: _i64(t[node_col]),
            ts_col: t[ts_col],
            "__b": _bucket_tag(t[part_col], num_buckets),
        })

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if df[[part_col, ts_col, node_col]].isna().any().any():
            # NaT/NaN here silently fabricate or drop edges (NaT casts
            # to INT64_MIN days; NaN partitions never compare equal) —
            # refuse instead
            raise ValueError(
                "chain_edges: null key/ts/node rows in bucket — "
                "pre-filter them (they can anchor no edge)"
            )
        df = df.sort_values([part_col, ts_col, node_col], kind="mergesort")
        same = df[part_col].values[1:] == df[part_col].values[:-1]
        days = df[ts_col].values.astype("datetime64[D]")
        gap = (days[1:] - days[:-1]).astype("int64")
        prev, cur = df[node_col].values[:-1], df[node_col].values[1:]
        m = same & (gap <= max_gap_days)
        return pd.DataFrame({
            "doc_a": np.minimum(prev[m], cur[m]).astype("int64"),
            "doc_b": np.maximum(prev[m], cur[m]).astype("int64"),
        })

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(
            lambda df: per_bucket(df.drop(columns=["__b"])),
            batch_format="pandas",
        )
    )


def cooccurrence_edges(ds, group_cols, node_col: str, num_buckets: int = 32):
    """Clique edges between nodes co-occurring in the same group (the
    standard cohesion-graph construction: users co-active in the same
    (event_type, hour), docs sharing a shingle bucket). Per-group
    expansion is O(k^2) pairs for group size k — bounded by co-activity
    per group, the same documented cap every bucketed-pairs stage in
    this engine carries (dedup LSH buckets log and cap theirs; here k
    is one partition key's co-active node count). One global distinct
    pass (a key-only groupby) collapses pairs repeated across groups.

    Returns Dataset(doc_a, doc_b), doc_a < doc_b, distinct. Caller
    contract: ``node_col`` must be non-null — enforced loudly here,
    because numpy's float->int64 astype of a NaN silently fabricates an
    INT64_MIN phantom node that would join every clique of its group.

    Physical shape: groups are hash-bucketed (``num_buckets`` kernels,
    whole groups per bucket) rather than one ``map_groups`` call per
    group — co-occurrence groups are tiny and numerous (hours x types),
    so per-group task overhead would dominate the numpy clique kernels
    at any scale."""
    from ray.data.aggregate import Count

    group_cols = list(group_cols)

    def tag(t: pa.Table) -> pa.Table:
        key = t[group_cols[0]]
        if len(group_cols) > 1:
            key = pc.binary_join_element_wise(
                *[pc.cast(t[c], pa.string()) for c in group_cols], "\x1f"
            )
        return t.append_column("__b", _bucket_tag(key, num_buckets))

    def cliques(df: pd.DataFrame) -> pd.DataFrame:
        if df[group_cols + [node_col]].isna().any().any():
            # null GROUP keys would be silently dropped by pandas
            # groupby (dropna=True) — rows contributing no edges with
            # no error; refuse loudly like the null-node case
            raise ValueError(
                f"cooccurrence_edges: null {group_cols + [node_col]} "
                "values in bucket (pre-filter nulls — they cannot "
                "co-occur)"
            )
        out_a, out_b = [], []
        for _, g in df.groupby(group_cols, sort=False):
            u = np.unique(g[node_col].values.astype("int64"))
            if len(u) < 2:
                continue
            i, j = np.triu_indices(len(u), k=1)
            out_a.append(u[i])
            out_b.append(u[j])
        if not out_a:
            return pd.DataFrame({
                "doc_a": np.array([], np.int64),
                "doc_b": np.array([], np.int64),
            })
        # bucket-local dedup BEFORE the global distinct exchange: a pair
        # co-occurring in many groups of this bucket would otherwise
        # ride the shuffle once per group — the pair volume entering the
        # groupby drops from sum(k^2) over groups to <= num_buckets
        # copies of the distinct edge set
        pairs = np.unique(
            np.stack([np.concatenate(out_a), np.concatenate(out_b)], axis=1),
            axis=0,
        )
        return pd.DataFrame({"doc_a": pairs[:, 0], "doc_b": pairs[:, 1]})

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(
            lambda df: cliques(df.drop(columns=["__b"])),
            batch_format="pandas",
        )
        .groupby(["doc_a", "doc_b"])
        .aggregate(Count(alias_name="__n"))
        .drop_columns(["__n"])
    )


def _triangles_broadcast(edges_ds):
    """Budgeted fast path for triangle counting: broadcast the oriented
    edge list ONCE via ``ray.put`` (it is O(co-activity pairs) — tiny
    next to the corpus, same budget argument as the CC union-find fast
    path in ``stages/dedup.py``), then ONE distributed map over the
    edges extends each (a,b) to wedges a-b-c against the broadcast
    sorted adjacency and probes the closing (a,c) in the same packed
    array — replacing the two hash-join shuffles with searchsorted
    kernels. Wedge expansion stays distributed and batch-bounded (the
    driver never holds wedges, only edges). Returns None when node ids
    don't fit the 32-bit pack (caller falls back to the join path)."""
    import ray

    et = edges_ds.to_pandas()
    ea = et["doc_a"].to_numpy().astype(np.int64)
    eb = et["doc_b"].to_numpy().astype(np.int64)
    if len(ea) and (ea.min() < 0 or max(ea.max(), eb.max()) >= 2**31):
        return None  # ids overflow the (a<<32)|b pack — join path
    order = np.lexsort((eb, ea))
    ea, eb = ea[order], eb[order]
    # monotone in (a, b) lex order for 0 <= b < 2^32, so ONE sorted
    # array serves both the adjacency ranges and the closure probe
    packed = (ea.astype(np.uint64) << np.uint64(32)) | eb.astype(np.uint64)
    ref = ray.put((ea, eb, packed))

    def count_part(t: pa.Table) -> pa.Table:
        ea_s, eb_s, packed_s = ray.get(ref)
        a = _i64(t["doc_a"]).to_numpy(zero_copy_only=False)
        b = _i64(t["doc_b"]).to_numpy(zero_copy_only=False)
        lo = np.searchsorted(ea_s, b, "left")
        hi = np.searchsorted(ea_s, b, "right")
        cnt = hi - lo
        if not int(cnt.sum()):
            return pa.table({
                "node": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
            })
        # wedge expansion CHUNKED by cumulative adjacency size: the
        # flat arrays are batch_rows x degree, so a skewed hub inside
        # one batch must not expand in a single multi-GB allocation
        csum = np.cumsum(cnt)
        closed_ids = []
        start = 0
        while start < len(a):
            base = csum[start - 1] if start else 0
            end = int(np.searchsorted(csum, base + _WEDGE_CHUNK, side="right"))
            end = max(end, start + 1)
            sl = slice(start, end)
            cnt_s = cnt[sl]
            tot = int(cnt_s.sum())
            start = end
            if not tot:
                continue
            # flat indices of each edge's adjacency-of-b slice
            starts = np.repeat(lo[sl], cnt_s)
            offs = np.arange(tot) - np.repeat(np.cumsum(cnt_s) - cnt_s, cnt_s)
            c = eb_s[starts + offs]  # wedge tips: c > b by orientation
            wa = np.repeat(a[sl], cnt_s)
            wb = np.repeat(b[sl], cnt_s)
            q = (wa.astype(np.uint64) << np.uint64(32)) | c.astype(np.uint64)
            pos = np.minimum(np.searchsorted(packed_s, q), len(packed_s) - 1)
            closed = packed_s[pos] == q
            closed_ids.append(np.concatenate([wa[closed], wb[closed], c[closed]]))
        ids = (np.concatenate(closed_ids) if closed_ids
               else np.array([], dtype=np.int64))
        u, n = np.unique(ids, return_counts=True)
        return pa.table({"node": pa.array(u.astype("int64")),
                         "n": pa.array(n.astype("int64"))})

    return edges_ds.map_batches(
        count_part, batch_format="pyarrow", batch_size=8192
    )


def triangle_counts(nodes_ds, edges_ds, num_buckets: int = 32,
                    driver_edge_budget: int = 5_000_000):
    """Per-node triangle participation counts via the node-iterator
    algorithm as two partitioned hash joins (Suri & Vassilvitskii 2011,
    "Counting triangles and the curse of the last reducer"): wedges
    a-b-c from edges (a,b)x(b,c) with a<b<c, closed against the edge
    set on (a,c). The edge orientation (doc_a < doc_b) means every
    triangle is generated exactly once and the wedge count is bounded
    by sum(deg_lo * deg_hi) — the standard skew-resistant split. Only
    (node, partial-count) rows leave the counting stage.

    Fast path: when the edge set fits ``driver_edge_budget`` (and node
    ids fit a 32-bit pack), the edges broadcast once and the wedge
    extension + closure probe run as ONE distributed map with
    searchsorted kernels (``_triangles_broadcast``) — two hash-join
    shuffles replaced by one map, the same budgeted small-side trade as
    the CC union-find fast path. Over budget the partitioned join path
    runs (logged); ``driver_edge_budget=0`` forces it.

    ``edges_ds``: Dataset(doc_a, doc_b), doc_a < doc_b, DISTINCT (feed
    ``cooccurrence_edges`` output); every endpoint must be declared in
    ``nodes_ds`` (undeclared endpoints are refused loudly, matching
    pagerank's contract). Returns Dataset(node, n_triangles) covering
    every node in ``nodes_ds`` (zero-filled)."""
    import logging

    from ray.data.aggregate import Sum

    from .joins import hash_join

    # the edge list fans out to THREE consumers (both wedge sides and
    # the closing probe); left lazy, Ray re-executes the whole upstream
    # edge derivation per consumer. Edges are O(co-activity pairs) —
    # tiny next to the corpus — so one materialization is the right
    # trade (same call the CC primitive makes on its symmetrized edges)
    edges_ds = edges_ds.materialize()

    def _finish(partials):
        # declared-node marker rides the small (node) aggregate so an
        # edge endpoint absent from nodes_ds surfaces LOUDLY (pagerank's
        # contract) instead of as a silent phantom output row. Every
        # distinct endpoint gets a marker-0 row, not just the nodes that
        # close a triangle: a pendant undeclared endpoint never reaches
        # the partials and would otherwise slip through.
        def endpoints(t: pa.Table) -> pa.Table:
            u = np.unique(np.concatenate([
                _i64(t["doc_a"]).to_numpy(zero_copy_only=False),
                _i64(t["doc_b"]).to_numpy(zero_copy_only=False),
            ]))
            z = pa.array(np.zeros(len(u), np.int64))
            return pa.table({"node": pa.array(u), "n": z, "__isn": z})

        zeros = nodes_ds.map_batches(
            lambda t: pa.table({
                "node": _i64(t["node"]),
                "n": pa.array(np.zeros(t.num_rows, np.int64)),
                "__isn": pa.array(np.ones(t.num_rows, np.int64)),
            }),
            batch_format="pyarrow",
        )
        tagged = partials.map_batches(
            lambda t: t.append_column(
                "__isn", pa.array(np.zeros(t.num_rows, np.int64))
            ),
            batch_format="pyarrow",
        )
        agg = (
            tagged.union(zeros, edges_ds.map_batches(endpoints, batch_format="pyarrow"))
            .groupby("node")
            .aggregate(Sum(on="n", alias_name="n_triangles"),
                       Sum(on="__isn", alias_name="__isn"))
        )

        def check(t: pa.Table) -> pa.Table:
            bad = t.filter(pc.equal(t["__isn"], 0))
            if bad.num_rows:
                raise ValueError(
                    "triangle_counts: edge endpoint(s) not present in "
                    f"nodes_ds: {bad['node'].to_pylist()[:5]}"
                )
            return t.drop_columns(["__isn"])

        return agg.map_batches(check, batch_format="pyarrow")

    n_edges = edges_ds.count()
    if 0 < n_edges <= driver_edge_budget:
        fast = _triangles_broadcast(edges_ds)
        if fast is not None:
            return _finish(fast)
    if n_edges > driver_edge_budget:
        logging.getLogger(__name__).info(
            "triangle_counts: %d edges > budget %d — partitioned join path",
            n_edges, driver_edge_budget,
        )

    lo = edges_ds.map_batches(
        lambda t: pa.table({"w_a": _i64(t["doc_a"]), "k": _i64(t["doc_b"])}),
        batch_format="pyarrow",
    )
    hi = edges_ds.map_batches(
        lambda t: pa.table({"k": _i64(t["doc_a"]), "w_c": _i64(t["doc_b"])}),
        batch_format="pyarrow",
    )
    wedges = hash_join(lo, hi, on="k", num_buckets=num_buckets)
    closing = edges_ds.map_batches(
        lambda t: pa.table({"w_a": _i64(t["doc_a"]), "w_c": _i64(t["doc_b"])}),
        batch_format="pyarrow",
    )
    tris = hash_join(wedges, closing, on=["w_a", "w_c"], num_buckets=num_buckets)

    def part_counts(t: pa.Table) -> pa.Table:
        ids = np.concatenate([
            t["w_a"].to_numpy(zero_copy_only=False),
            t["k"].to_numpy(zero_copy_only=False),
            t["w_c"].to_numpy(zero_copy_only=False),
        ]).astype("int64")
        u, c = np.unique(ids, return_counts=True)
        return pa.table({"node": pa.array(u), "n": pa.array(c.astype("int64"))})

    return _finish(tris.map_batches(part_counts, batch_format="pyarrow"))
