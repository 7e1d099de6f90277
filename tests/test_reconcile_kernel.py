"""Differential test of the reconcile kernel (``reconcile_pair_pdf``)
against a DuckDB oracle.

The oracle is ``queries._RECONCILE_ORACLE_CTE``'s status logic over any
key, value and attr columns: a full outer join on ``IS NOT DISTINCT
FROM`` (null keys group together), null values never match, and the
ordinals ordered by (value, attrs) ``NULLS LAST``. Kernel and oracle
must emit the same multiset of (keys, value/attrs left, value/attrs
right, status) rows.
"""

from __future__ import annotations

import random
from collections import Counter

import duckdb
import pyarrow as pa
import pytest

from etl_reconciliate_ray.stages.reconcile import reconcile_pair_pdf

KEYS = ["repo", "path"]
VAL = "content_sha256"
ATTRS = ["commit"]


def _oracle(left: pa.Table, right: pa.Table, keys, val, attrs) -> Counter:
    cols = [val] + list(attrs)
    key_sel = ", ".join(f"COALESCE(l.{k}, r.{k}) AS {k}" for k in keys)
    side_sel = ", ".join(
        [f"l.{c} AS {c}_l" for c in cols] + [f"r.{c} AS {c}_r" for c in cols]
    )
    on = " AND ".join(f"l.{k} IS NOT DISTINCT FROM r.{k}" for k in keys)
    part = ", ".join(keys)
    order = ", ".join(f"{c}_r NULLS LAST" for c in cols)
    out = ", ".join(keys + [f"{c}_l" for c in cols] + [f"{c}_r" for c in cols])
    sql = f"""
    WITH l AS (SELECT *, 1 AS l_present FROM lt),
    r AS (SELECT *, 1 AS r_present FROM rt),
    joined AS (
      SELECT {key_sel}, {side_sel}, l_present, r_present,
             CASE WHEN l.{val} = r.{val} THEN 1 ELSE 0 END AS is_match
      FROM l FULL OUTER JOIN r ON {on}),
    scored AS (
      SELECT *,
        SUM(is_match) OVER (PARTITION BY {part}) AS n_match,
        ROW_NUMBER() OVER (PARTITION BY {part}, is_match ORDER BY {order}) AS ord
      FROM joined)
    SELECT {out},
      CASE
        WHEN l_present IS NULL THEN 'MISSING_LEFT'
        WHEN r_present IS NULL THEN 'MISSING_RIGHT'
        WHEN is_match = 1 AND n_match = 1 THEN 'MATCHED'
        WHEN is_match = 1 THEN 'DUP_RIGHT_' || CAST(ord AS VARCHAR)
        WHEN n_match = 0 AND ord = 1 THEN 'VALUE_DIFF'
        ELSE 'MISSING_LEFT'
      END AS status
    FROM scored
    """
    con = duckdb.connect()
    con.register("lt", left)
    con.register("rt", right)
    rows = con.execute(sql).fetchall()
    con.close()
    return Counter(rows)


def _kernel(left, right, keys, val, attrs) -> Counter:
    out = reconcile_pair_pdf(left, right, keys, val, attrs)
    names = keys + [f"{c}_{s}" for s in "lr" for c in [val] + list(attrs)] + ["status"]
    assert out.column_names == names
    return Counter(tuple(r[c] for c in names) for r in out.to_pylist())


def _check(left, right, keys=KEYS, val=VAL, attrs=ATTRS):
    got, want = _kernel(left, right, keys, val, attrs), _oracle(left, right, keys, val, attrs)
    assert got == want, (got - want, want - got)
    return got


def _side(rows, typ=pa.string()):
    cols = KEYS + [VAL] + ATTRS
    return pa.table({c: pa.array([r[i] for r in rows], typ) for i, c in enumerate(cols)})


def _random_case(seed: int):
    """Small key and value pools so matches, value diffs, right
    duplicates, ties, null keys and null values all occur."""
    rng = random.Random(seed)
    repos, paths = ["r0", "r1", None], ["a", "b", "c", None]
    vals, commits = ["h0", "h1", "h2", None], ["c0", "c1", None]
    universe = [(r, p) for r in repos for p in paths]
    lkeys = rng.sample(universe, rng.randint(0, len(universe)))
    left = [(r, p, rng.choice(vals), rng.choice(commits)) for r, p in lkeys]
    right = [
        (*rng.choice(universe), rng.choice(vals), rng.choice(commits))
        for _ in range(rng.randint(0, 2 * len(universe)))
    ]
    # make some right rows copy their left row's value (and commit) so
    # MATCHED and tied DUP_RIGHT_n rows are common
    for (r, p, v, c) in rng.sample(left, len(left) // 2):
        right += [(r, p, v, c if rng.random() < 0.5 else rng.choice(commits))] * rng.randint(1, 3)
    rng.shuffle(right)
    return _side(left), _side(right)


@pytest.mark.parametrize("seed", range(40))
def test_kernel_matches_oracle_random(seed):
    _check(*_random_case(seed))


def test_kernel_null_keys_group_together():
    left = _side([(None, "a", "h", "c"), (None, None, "h", "c"), ("r", None, "x", "c")])
    right = _side([(None, "a", "h", "c9"), (None, None, "DIFF", "c"), ("r", None, "x", "c"),
                   ("r", None, "x", "c1"), (None, "b", "h", "c")])
    got = _check(left, right)
    statuses = Counter(row[-1] for row in got.elements())
    assert statuses == {"MATCHED": 1, "VALUE_DIFF": 1, "DUP_RIGHT_1": 1,
                        "DUP_RIGHT_2": 1, "MISSING_LEFT": 1}


def test_kernel_empty_sides():
    rows = [("r", "a", "h", "c"), ("r", "b", "h", "c")]
    empty = _side([])
    got = _check(empty, _side(rows))
    assert {row[-1] for row in got} == {"MISSING_LEFT"}
    got = _check(_side(rows), empty)
    assert {row[-1] for row in got} == {"MISSING_RIGHT"}
    out = reconcile_pair_pdf(empty, empty, KEYS, VAL, ATTRS)
    assert out.num_rows == 0
    assert out.schema.field("status").type == pa.string()
    assert out.schema.field("content_sha256_r").type == pa.string()


def test_kernel_tied_right_duplicates():
    left = _side([("r", "a", "h", "c0")])
    right = _side([("r", "a", "h", "c1")] * 3 + [("r", "a", "x", "c2")] * 2 + [("r", "a", "h", None)])
    got = _check(left, right)
    statuses = sorted(row[-1] for row in got.elements())
    assert statuses == ["DUP_RIGHT_1", "DUP_RIGHT_2", "DUP_RIGHT_3", "DUP_RIGHT_4",
                        "MISSING_LEFT", "MISSING_LEFT"]
    # the null commit sorts last, so it takes the last ordinal
    assert ("r", "a", "h", "c0", "h", None, "DUP_RIGHT_4") in got


def test_kernel_all_value_diff():
    left = _side([("r", p, "old", "c") for p in "abcd"])
    right = _side([("r", p, "new", "c") for p in "abcd"])
    got = _check(left, right)
    assert {row[-1] for row in got} == {"VALUE_DIFF"}


def test_kernel_null_values_never_match():
    left = _side([("r", "a", None, "c"), ("r", "b", None, "c"), ("r", "c", "h", "c")])
    right = _side([("r", "a", None, "c"), ("r", "b", "h", "c"), ("r", "c", None, "c"),
                   ("r", "c", None, "c")])
    got = _check(left, right)
    assert sorted(row[-1] for row in got.elements()) == [
        "MISSING_LEFT", "VALUE_DIFF", "VALUE_DIFF", "VALUE_DIFF"]


def test_kernel_string_against_large_string():
    rows_l = [("r", "a", "h", "c"), ("r", "b", "h", "c"), (None, "c", "h", "c")]
    rows_r = [("r", "a", "h", "c"), ("r", "b", "x", "c"), (None, "c", "h", "c"), ("r", "d", "h", "c")]
    got = _check(_side(rows_l), _side(rows_r, pa.large_string()))
    assert _check(_side(rows_l, pa.large_string()), _side(rows_r)) == got
    assert sorted(row[-1] for row in got) == [
        "MATCHED", "MATCHED", "MISSING_LEFT", "VALUE_DIFF"]


def test_kernel_int64_key_and_value():
    """The catalog's shape: one int64 key, an int64 value, no attrs."""
    rng = random.Random(7)
    lk = rng.sample(range(200), 120)
    left = pa.table({"k": pa.array(lk, pa.int64()),
                     "v": pa.array([rng.randint(0, 3) for _ in lk], pa.int64())})
    rk = [rng.randrange(200) for _ in range(180)]
    right = pa.table({"k": pa.array(rk, pa.int64()),
                      "v": pa.array([rng.randint(0, 3) for _ in rk], pa.int64())})
    got = _check(left, right, ["k"], "v", [])
    assert {row[-1] for row in got} >= {"MATCHED", "VALUE_DIFF", "MISSING_LEFT", "MISSING_RIGHT"}


def test_kernel_refuses_duplicate_left_key():
    left = _side([("r", "a", "h", "c0"), ("r", "a", "h", "c1")])
    with pytest.raises(ValueError, match="duplicate key"):
        reconcile_pair_pdf(left, _side([("r", "a", "h", "c")]), KEYS, VAL, ATTRS)
