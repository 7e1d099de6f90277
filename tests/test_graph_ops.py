"""Planted-graph tests for the first-class graph operators.

``cc_orders`` / ``triangles_users`` get the exact DuckDB oracle in
test_queries_oracle.py (recursive-CTE closure / three-way self-join);
these tests pin the edge-derivation kernels and force the DISTRIBUTED
CC path the small oracle fixtures never reach (their sparse edge sets
take the budgeted union-find fast path).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _ds(df: pd.DataFrame):
    import ray.data as rd

    return rd.from_pandas(df)


def test_chain_edges_planted(ray_session):
    """Gap rule, partition isolation, and (min, max) orientation on a
    hand-built order history."""
    from etl_reconciliate_ray.stages.graph import chain_edges

    df = pd.DataFrame({
        "cust": [1, 1, 1, 1, 2, 2, 3],
        "key": [10, 11, 12, 13, 20, 21, 30],
        "ts": pd.to_datetime([
            # cust 1: 10-11 linked (3d), 11-12 broken (20d), 12-13 linked (7d exactly)
            "2024-01-01", "2024-01-04", "2024-01-24", "2024-01-31",
            # cust 2: same-day pair links; ties ordered by key
            "2024-02-01", "2024-02-01",
            # cust 3: singleton
            "2024-03-01",
        ]),
    })
    edges = (
        chain_edges(_ds(df), part_col="cust", node_col="key", ts_col="ts",
                    max_gap_days=7, num_buckets=4)
        .to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    )
    want = pd.DataFrame({"doc_a": [10, 12, 20], "doc_b": [11, 13, 21]})
    pd.testing.assert_frame_equal(edges.astype("int64"), want.astype("int64"))


def test_cooccurrence_edges_distinct_cliques(ray_session):
    """k-cliques per group, cross-group duplicates collapsed, no
    self-edges."""
    from etl_reconciliate_ray.stages.graph import cooccurrence_edges

    df = pd.DataFrame({
        "g": ["a", "a", "a", "b", "b", "c"],
        "node": [1, 2, 3, 2, 3, 9],  # (2,3) appears in groups a AND b
    })
    edges = (
        cooccurrence_edges(_ds(df), group_cols=["g"], node_col="node")
        .to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    )
    want = pd.DataFrame({"doc_a": [1, 1, 2], "doc_b": [2, 3, 3]})
    pd.testing.assert_frame_equal(edges.astype("int64"), want.astype("int64"))


def test_triangle_counts_planted(ray_session):
    """K4 on {0,1,2,3} (4 triangles, 3 per corner) + a pendant edge to
    4 (no triangle) + isolated node 5 (zero-filled) — on BOTH the
    budgeted broadcast fast path and the forced partitioned-join
    path."""
    from etl_reconciliate_ray.stages.graph import triangle_counts

    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges = pd.DataFrame(k4 + [(3, 4)], columns=["doc_a", "doc_b"])
    nodes = pd.DataFrame({"node": np.arange(6, dtype=np.int64)})
    want = pd.DataFrame({
        "node": np.arange(6, dtype=np.int64),
        "n_triangles": np.array([3, 3, 3, 3, 0, 0], dtype=np.int64),
    })
    for budget in (5_000_000, 0):  # fast path / forced join path
        got = (
            triangle_counts(_ds(nodes), _ds(edges), num_buckets=4,
                            driver_edge_budget=budget)
            .to_pandas().sort_values("node").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got.astype("int64"), want)


def test_triangle_counts_refuses_undeclared_pendant_endpoint(ray_session):
    """An undeclared endpoint that closes no triangle (pendant edge
    2-9, node 9 absent from nodes_ds) is refused on both paths, not
    only an undeclared node inside a triangle."""
    import pytest

    from etl_reconciliate_ray.stages.graph import triangle_counts

    edges = pd.DataFrame([(0, 1), (0, 2), (1, 2), (2, 9)],
                         columns=["doc_a", "doc_b"])
    nodes = pd.DataFrame({"node": np.arange(4, dtype=np.int64)})
    for budget in (5_000_000, 0):  # fast path / forced join path
        with pytest.raises(Exception, match="not present in nodes_ds"):
            triangle_counts(_ds(nodes), _ds(edges), num_buckets=4,
                            driver_edge_budget=budget).materialize()


def test_triangle_counts_fast_path_matches_join_path(ray_session):
    """The broadcast fast path and the partitioned-join path agree on a
    seeded random graph (the join path is what runs at over-budget edge
    volumes)."""
    from etl_reconciliate_ray.stages.graph import triangle_counts

    rng = np.random.default_rng(11)
    n = 60
    pairs = {(int(a), int(b)) for a, b in rng.integers(0, n, (400, 2))
             if a != b}
    edges = pd.DataFrame(
        sorted((min(a, b), max(a, b)) for a, b in pairs),
        columns=["doc_a", "doc_b"],
    ).drop_duplicates()
    nodes = pd.DataFrame({"node": np.arange(n, dtype=np.int64)})
    fast = (
        triangle_counts(_ds(nodes), _ds(edges), num_buckets=4)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    joined = (
        triangle_counts(_ds(nodes), _ds(edges), num_buckets=4,
                        driver_edge_budget=0)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    assert fast["n_triangles"].sum() > 0  # non-trivial graph
    pd.testing.assert_frame_equal(fast.astype("int64"), joined.astype("int64"))


def test_cc_orders_distributed_path_matches_fast_path(ray_session):
    """The iterated min-label path (driver_edge_budget=0) produces the
    same labels as the budgeted union-find fast path on the real
    fixture's chain graph — the distributed path is what runs at 100 TB
    edge volumes."""
    import pyarrow.compute as pc

    from etl_reconciliate_ray.pipelines.queries import read_table
    from etl_reconciliate_ray.stages.dedup import (
        connected_components_min_label,
    )
    from etl_reconciliate_ray.stages.graph import chain_edges

    sf = "/root/testdata/sf0.001"
    ds = read_table(sf, "orders",
                    columns=["o_orderkey", "o_custkey", "o_orderdate"])
    edges = chain_edges(ds, part_col="o_custkey", node_col="o_orderkey",
                        ts_col="o_orderdate", max_gap_days=7).materialize()
    nodes = ds.map_batches(
        lambda t: pa.table({"node": pc.cast(t["o_orderkey"], pa.int64())}),
        batch_format="pyarrow",
    ).materialize()
    fast = (
        connected_components_min_label(nodes, edges)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    dist = (
        connected_components_min_label(nodes, edges, driver_edge_budget=0)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    assert len(fast) == 1500
    pd.testing.assert_frame_equal(fast.astype("int64"), dist.astype("int64"))
    # the graph is non-trivial: some orders actually link
    assert fast["label"].nunique() < len(fast)


def test_graph_contract_refusals(ray_session):
    """Contract violations surface LOUDLY: negative node ids (they
    alias or fall below the dangling sentinel and their rank mass would
    silently leak), edges against an empty node set, and triangle edge
    endpoints absent from nodes_ds (previously silent phantom output
    rows)."""
    import pytest

    from etl_reconciliate_ray.stages.graph import pagerank, triangle_counts

    edges = pd.DataFrame({"doc_a": [0], "doc_b": [1]})

    neg_nodes = pd.DataFrame({"node": np.array([-5, 0, 1], dtype=np.int64)})
    neg_edges = pd.DataFrame({"doc_a": [-5], "doc_b": [1]})
    with pytest.raises(Exception, match="node ids must be >= 0"):
        pagerank(_ds(neg_nodes), _ds(neg_edges)).to_pandas()

    empty_nodes = pd.DataFrame({"node": np.array([], dtype=np.int64)})
    with pytest.raises(ValueError, match="nodes_ds declares no nodes"):
        pagerank(_ds(empty_nodes), _ds(edges))

    two_nodes = pd.DataFrame({"node": np.array([0, 1], dtype=np.int64)})
    phantom = pd.DataFrame({"doc_a": [7, 7, 8], "doc_b": [8, 9, 9]})
    for budget in (5_000_000, 0):
        with pytest.raises(Exception, match="not present in nodes_ds"):
            triangle_counts(
                _ds(two_nodes), _ds(phantom), driver_edge_budget=budget
            ).to_pandas()


def test_triangle_wedge_chunking_exact_on_hub(ray_session, monkeypatch):
    """The chunked wedge expansion (skew-hub memory bound) is exact:
    with the chunk forced tiny, a star-plus-closures graph whose hub
    adjacency spans many chunks still counts identically to the
    unchunked join path."""
    from etl_reconciliate_ray.stages import graph

    monkeypatch.setattr(graph, "_WEDGE_CHUNK", 7)  # force many chunks
    hub = 0
    leaves = np.arange(1, 40)
    star = [(hub, int(v)) for v in leaves]
    closures = [(int(a), int(b)) for a, b in zip(leaves[:-1], leaves[1:])]
    edges = pd.DataFrame(sorted(star + closures), columns=["doc_a", "doc_b"])
    nodes = pd.DataFrame({"node": np.arange(40, dtype=np.int64)})
    fast = (
        graph.triangle_counts(_ds(nodes), _ds(edges), num_buckets=4)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    joined = (
        graph.triangle_counts(_ds(nodes), _ds(edges), num_buckets=4,
                              driver_edge_budget=0)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    assert fast["n_triangles"].sum() > 0
    pd.testing.assert_frame_equal(fast.astype("int64"), joined.astype("int64"))
