"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash →
CORRECTNESS_r{N}.json).

Ray is initialised by the driver BEFORE this module is imported: no
``ray.init()`` / ``ray.shutdown()`` here or anywhere in
``etl_reconciliate_ray`` library code.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: full CDC replay of a
    deterministic binlog derived from the documents table through the
    real engine (normalize → task-side LWW delta write → commit log),
    then the reconcile cogroup vs the pre-replay
    snapshot. Returns the per-status counts DataFrame."""
    from etl_reconciliate_ray.pipelines.flagship import run_flagship

    return run_flagship("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2
    (+ the training-data extensions). See
    etl_reconciliate_ray/pipelines/queries.py for the inventory."""
    from etl_reconciliate_ray.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    """DuckDB-equivalent SQL for every SQL-expressible query; rows-only
    entries (minhash_clusters, simhash_docs, ngram_jaccard_pairs,
    semantic_clusters,
    ann_variants, media_pipeline, fingerprint_docs, embdup_clusters,
    pack_docs, approx_quantiles_events, hll_users_by_type, ...) are intentionally
    omitted — each carries a falsifiable recall/property/invariant/
    error-bound unit test instead (tests/test_queries_oracle.py,
    tests/test_analytics_ops.py)."""
    from etl_reconciliate_ray.pipelines.queries import ORACLE_SQL

    return dict(ORACLE_SQL)
