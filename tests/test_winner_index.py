"""Property-based check of ``stages.lww.winner_index``, the one LWW
winner kernel, against a pandas reference: a stable sort by (group,
orders) keeping each group's last row (``drop_duplicates(keep="last")``).

Covered: duplicate keys, equal orders (ties go to the later row), null
key components (grouped through ``merge.key_codes``' sentinel, so
``(None, 'x')`` and ``('a', None)`` stay distinct), null ``seq``
(filled with int64 min by ``merge._order``, so it loses), sparse and
negative group ids, and the output order: ascending by group.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from etl_reconciliate_ray.stages.lww import winner_index
from etl_reconciliate_ray.stages.merge import _order, key_codes

events_st = st.lists(
    st.tuples(
        st.one_of(st.none(), st.sampled_from(["a", "b", "c"])),   # repo
        st.one_of(st.none(), st.sampled_from(["x", "y"])),        # path
        st.integers(0, 2),                                        # epoch
        st.one_of(st.none(), st.integers(0, 3)),                  # seq: ties + nulls
    ),
    max_size=40,
)


def _reference(df: pd.DataFrame, keys: list[str], orders: list[str]) -> set[int]:
    """Row positions of each key's winner: stable sort, keep last."""
    ranked = df.sort_values(keys + orders, kind="stable", na_position="first")
    return set(ranked.drop_duplicates(keys, keep="last").index)


@settings(max_examples=200, deadline=None)
@given(rows=events_st)
def test_winner_index_matches_pandas_on_chain_keys(rows):
    df = pd.DataFrame(rows, columns=["repo", "path", "epoch", "seq"], dtype=object)
    t = pa.table({
        "repo": pa.array(df["repo"].tolist(), pa.string()),
        "path": pa.array(df["path"].tolist(), pa.string()),
        "epoch": pa.array(df["epoch"].tolist(), pa.int64()),
        "seq": pa.array(df["seq"].tolist(), pa.int64()),
    })
    codes = key_codes(t["repo"], t["path"])
    idx = winner_index(codes, t["epoch"].to_numpy(), _order(t, "seq"))
    # pandas sorts None last in an object column: sort on the filled
    # keys and on a seq whose nulls come first
    ref = df.assign(
        repo=df["repo"].fillna("\x00N"), path=df["path"].fillna("\x00N"),
        seq=pd.array(df["seq"].tolist(), dtype="Int64"),
    )
    assert set(idx.tolist()) == _reference(ref, ["repo", "path"], ["epoch", "seq"])
    assert len(idx) == len(set(zip(ref["repo"], ref["path"])))
    assert np.all(np.diff(codes[idx]) > 0)  # ascending by group


groups_st = st.lists(
    st.tuples(
        st.sampled_from([0, 5, -3, 2**40]),   # sparse group ids
        st.integers(0, 2),
        st.integers(-1, 1),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(rows=groups_st)
def test_winner_index_matches_pandas_on_sparse_groups(rows):
    df = pd.DataFrame(rows, columns=["g", "o1", "o2"], dtype=np.int64)
    g, o1, o2 = (df[c].to_numpy() for c in ("g", "o1", "o2"))
    idx = winner_index(g, o1, o2)
    assert set(idx.tolist()) == _reference(df, ["g"], ["o1", "o2"])
    assert g[idx].tolist() == sorted(set(g.tolist()))
    # with no order at all, the last row of each group wins
    assert set(winner_index(g).tolist()) == set(df.drop_duplicates("g", keep="last").index)
