"""Unit tests for the round-2 analytic operators: window functions,
set ops, mergeable moments, HLL distinct sketch, melt. Each test
builds a small in-memory Dataset and checks against an independent
pandas/numpy computation (the queries themselves are oracle-checked
against DuckDB in test_queries_oracle.py)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _ds(df: pd.DataFrame):
    import ray.data as rd

    return rd.from_pandas(df)


def test_window_functions_partition_edges(ray_session):
    from etl_reconciliate_ray.stages.windowfns import window_functions

    df = pd.DataFrame({
        "k": [1, 1, 1, 2, 2, 3],
        "o": [10, 20, 30, 5, 6, 1],
        "v": [100, 200, 300, 7, 8, 9],
    })
    out = (
        window_functions(
            _ds(df), key="k", order_by=["o"],
            row_number="rn", lag={"prev": "v"}, lead={"nxt": "v"},
            cumsum={"cum": "v"}, keep=["k", "o"], num_buckets=4,
        )
        .to_pandas()
        .sort_values(["k", "o"])
        .reset_index(drop=True)
    )
    assert out["rn"].tolist() == [1, 2, 3, 1, 2, 1]
    # lag/lead are null exactly at partition edges
    assert out["prev"].tolist()[:3] == [None, 100, 200] or (
        pd.isna(out["prev"][0]) and out["prev"][1] == 100 and out["prev"][2] == 200
    )
    assert pd.isna(out["prev"][3]) and out["prev"][4] == 7 and pd.isna(out["prev"][5])
    assert out["nxt"][0] == 200 and pd.isna(out["nxt"][2]) and pd.isna(out["nxt"][5])
    assert out["cum"].tolist() == [100, 300, 600, 7, 15, 9]


def test_window_functions_single_row_partitions(ray_session):
    from etl_reconciliate_ray.stages.windowfns import window_functions

    df = pd.DataFrame({"k": [5], "o": [1], "v": [42]})
    out = window_functions(
        _ds(df), key="k", order_by=["o"], row_number="rn",
        lag={"prev": "v"}, cumsum={"cum": "v"}, num_buckets=2,
    ).to_pandas()
    assert out["rn"].tolist() == [1]
    assert pd.isna(out["prev"][0]) and out["cum"][0] == 42


def test_setops_ignore_duplicates(ray_session):
    from etl_reconciliate_ray.stages.setops import except_distinct, intersect_distinct

    left = _ds(pd.DataFrame({"k": [1, 1, 2, 3, 3, 3]}))
    right = _ds(pd.DataFrame({"k": [2, 2, 4]}))
    exc = sorted(except_distinct(left, right, ["k"]).to_pandas()["k"])
    inter = sorted(intersect_distinct(left, right, ["k"]).to_pandas()["k"])
    assert exc == [1, 3]
    assert inter == [2]


def test_grouped_stats_matches_numpy_across_batch_splits(ray_session):
    import ray.data as rd

    from etl_reconciliate_ray.stages.stats import grouped_stats

    rng = np.random.default_rng(7)
    n = 5000
    df = pd.DataFrame({
        "k": rng.integers(0, 3, n),
        "x": rng.normal(1e6, 3.0, n),  # large mean: naive E[x^2] would cancel
        "y": rng.normal(0, 1.0, n),
    })
    df["y"] += 0.5 * (df["x"] - 1e6)  # induce real correlation
    # force many small blocks so the Chan merge path is exercised
    ds = rd.from_pandas(df).repartition(13)
    out = grouped_stats(ds, keys=["k"], x="x", y="y").to_pandas().set_index("k")
    for k, g in df.groupby("k"):
        assert out.loc[k, "n"] == len(g)
        assert out.loc[k, "mean_x"] == pytest.approx(g["x"].mean(), rel=1e-12)
        assert out.loc[k, "var_x"] == pytest.approx(g["x"].var(ddof=1), rel=1e-9)
        assert out.loc[k, "corr_xy"] == pytest.approx(
            np.corrcoef(g["x"], g["y"])[0, 1], rel=1e-9
        )


def test_hll_error_bound_in_estimator_regime(ray_session):
    import ray.data as rd

    from etl_reconciliate_ray.stages.distinctcount import hll_count_distinct

    rng = np.random.default_rng(11)
    # 60k distinct values per key: well past linear counting at p=12
    df = pd.DataFrame({
        "k": np.repeat(["a", "b"], 60_000),
        "v": np.concatenate([np.arange(60_000), np.arange(100_000, 160_000)]),
    })
    df = df.sample(frac=1.0, random_state=3).reset_index(drop=True)
    ds = rd.from_pandas(df).repartition(9)
    out = hll_count_distinct(ds, keys=["k"], col="v", p=12).to_pandas().set_index("k")
    for k in ("a", "b"):
        err = abs(out.loc[k, "approx_distinct"] - 60_000) / 60_000
        assert err < 0.05, (k, out.loc[k, "approx_distinct"])


def test_hll_merge_is_idempotent_and_order_free():
    from etl_reconciliate_ray.stages.distinctcount import (
        _hll_estimate,
        _hll_partial_registers,
    )

    a = _hll_partial_registers(pa.array(np.arange(1000)), 12)
    b = _hll_partial_registers(pa.array(np.arange(500, 1500)), 12)
    ab = np.maximum(a, b)
    ba = np.maximum(np.maximum(b, a), a)  # re-merge a: idempotent
    assert np.array_equal(ab, ba)
    est = _hll_estimate(ab)
    assert abs(est - 1500) / 1500 < 0.05


def test_melt_roundtrips_wide_values(ray_session):
    from etl_reconciliate_ray.stages.nest import melt

    df = pd.DataFrame({"id": [1, 2], "a": [1.5, 2.5], "b": [10.0, 20.0]})
    out = melt(_ds(df), id_cols=["id"], value_cols=["a", "b"]).to_pandas()
    assert len(out) == 4
    back = out.pivot(index="id", columns="metric", values="val")
    assert back.loc[1, "a"] == 1.5 and back.loc[2, "b"] == 20.0


def test_rank_dense_rank_with_ties(ray_session):
    from etl_reconciliate_ray.stages.windowfns import window_functions

    df = pd.DataFrame({
        "k": ["a"] * 5 + ["b"] * 3,
        "o": [10, 10, 20, 20, 30, 7, 7, 7],
        "id": list(range(8)),
    })
    out = (
        window_functions(
            _ds(df), key="k", order_by=["o"], rank="r", dense_rank="d",
            keep=["k", "o", "id"], num_buckets=4,
        )
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    assert out["r"].tolist() == [1, 1, 3, 3, 5, 1, 1, 1]
    assert out["d"].tolist() == [1, 1, 2, 2, 3, 1, 1, 1]


def test_quarantine_split_lossless_and_idempotent(ray_session, tmp_path):
    import pyarrow.compute as pc

    from etl_reconciliate_ray.stages.quarantine import quarantine_split, read_quarantine

    qdir = str(tmp_path / "dlq")
    df = pd.DataFrame({
        "id": [1, 2, 3, 4, 5],
        "v": [0, 50, 200, 0, 999],  # 0 -> null_v rule, 999 -> too_big
    })
    checks = [
        ("null_v", lambda t: pc.equal(t["v"], 0)),
        ("too_big", lambda t: pc.greater(t["v"], 500)),
    ]
    clean = quarantine_split(_ds(df), checks, qdir).to_pandas()
    assert sorted(clean["id"]) == [2, 3]
    dlq = read_quarantine(qdir).to_pandas().sort_values("id")
    assert dlq["id"].tolist() == [1, 4, 5]
    assert dlq["reason"].tolist() == ["null_v", "null_v", "too_big"]
    # nothing lost: clean + quarantined == input
    assert len(clean) + len(dlq) == len(df)


def test_quarantine_duplicate_content_batches_not_merged(ray_session, tmp_path):
    """Two distinct batches with byte-identical bad rows must BOTH land
    in the DLQ (content-only naming would silently merge them); a new
    run is expected to use a fresh run-scoped dir for idempotence."""
    import pyarrow.compute as pc
    import ray.data as rd

    from etl_reconciliate_ray.stages.quarantine import quarantine_split, read_quarantine

    qdir = str(tmp_path / "dlq2")
    # two identical single-row blocks, identical bad content
    t = pa.table({"id": [7], "v": [0]})
    ds = rd.from_arrow([t, t])
    checks = [("null_v", lambda b: pc.equal(b["v"], 0))]
    clean = quarantine_split(ds, checks, qdir).to_pandas()
    assert len(clean) == 0
    dlq = read_quarantine(qdir).to_pandas()
    assert len(dlq) == 2  # lossless: both duplicates quarantined
    # a second run emits byte-identical batches from DIFFERENT tasks:
    # they must append (distinct names), not overwrite by content digest
    quarantine_split(rd.from_arrow([t, t]), checks, qdir).to_pandas()
    assert len(read_quarantine(qdir).to_pandas()) == 4


def test_cumsum_ignores_nulls_like_sql_sum(ray_session):
    """A null in the source column must contribute 0 to the running
    sum (SQL SUM skips NULLs) — not poison it with INT64_MIN via a
    float-NaN round-trip."""
    from etl_reconciliate_ray.stages.windowfns import window_functions

    df = pd.DataFrame({"k": [1, 1, 1], "o": [1, 2, 3], "v": [10, None, 5]})
    out = (
        window_functions(_ds(df), key="k", order_by=["o"], cumsum={"cum": "v"},
                         num_buckets=2)
        .to_pandas().sort_values("o")
    )
    assert out["cum"].tolist() == [10, 10, 15]


def test_rank_null_order_values_are_peers(ray_session):
    """SQL RANK treats NULL order values as equal peers; consecutive
    NaNs must share one tie-run, not each start their own."""
    from etl_reconciliate_ray.stages.windowfns import window_functions

    df = pd.DataFrame({"k": [1] * 4, "o": [1.0, None, None, None]})
    out = (
        window_functions(_ds(df), key="k", order_by=["o"], rank="r",
                         dense_rank="dr", num_buckets=2)
        .to_pandas()
    )
    # nulls sort last (Arrow default): ranks 1, 2, 2, 2
    assert sorted(out["r"].tolist()) == [1, 2, 2, 2]
    assert sorted(out["dr"].tolist()) == [1, 2, 2, 2]


def test_count_distinct_excludes_nulls(ray_session):
    """COUNT(DISTINCT col) semantics: NULL values don't count; a key
    whose values are all NULL still appears with count 0."""
    from etl_reconciliate_ray.stages.distinctcount import count_distinct

    df = pd.DataFrame({
        "k": ["a", "a", "a", "b", "b"],
        "v": [1.0, 1.0, None, None, None],
    })
    out = count_distinct(_ds(df), keys=["k"], col="v").to_pandas()
    got = dict(zip(out["k"], out["n_distinct"]))
    assert got == {"a": 1, "b": 0}


def test_grouped_stats_keeps_null_group_keys(ray_session):
    """GROUP BY emits a NULL group; null-keyed rows must not silently
    vanish from the partials."""
    from etl_reconciliate_ray.stages.stats import grouped_stats

    df = pd.DataFrame({"k": ["a", "a", None, None], "x": [1.0, 3.0, 10.0, 20.0]})
    out = grouped_stats(_ds(df), keys=["k"], x="x").to_pandas()
    assert len(out) == 2
    null_row = out[out["k"].isna()].iloc[0]
    assert null_row["n"] == 2 and null_row["mean_x"] == 15.0


def test_grouped_stats_divergent_null_patterns(ray_session):
    """x and y with DIFFERENT null patterns: mean/var of each column
    fold over its own valid rows (SQL AVG/VAR), corr/slope/intercept
    over the pairwise-valid rows (SQL CORR/REGR_*) — each moment set
    carries its own count through the Chan merge (ADVICE r3)."""
    import ray.data as rd

    from etl_reconciliate_ray.stages.stats import grouped_stats

    rng = np.random.default_rng(3)
    n = 2000
    df = pd.DataFrame({
        "k": rng.integers(0, 2, n),
        "x": rng.normal(5.0, 2.0, n),
        "y": rng.normal(1.0, 1.0, n),
    })
    df["y"] += 0.8 * df["x"]
    df.loc[rng.random(n) < 0.3, "x"] = np.nan   # 30% null x
    df.loc[rng.random(n) < 0.2, "y"] = np.nan   # 20% null y, overlapping
    out = (
        grouped_stats(rd.from_pandas(df).repartition(11), keys=["k"], x="x", y="y")
        .to_pandas().set_index("k")
    )
    for k, g in df.groupby("k"):
        pw = g.dropna(subset=["x", "y"])
        assert out.loc[k, "n"] == g["x"].notna().sum()
        assert out.loc[k, "mean_x"] == pytest.approx(g["x"].mean(), rel=1e-12)
        assert out.loc[k, "var_x"] == pytest.approx(g["x"].var(ddof=1), rel=1e-9)
        assert out.loc[k, "mean_y"] == pytest.approx(g["y"].mean(), rel=1e-12)
        assert out.loc[k, "var_y"] == pytest.approx(g["y"].var(ddof=1), rel=1e-9)
        assert out.loc[k, "corr_xy"] == pytest.approx(
            np.corrcoef(pw["x"], pw["y"])[0, 1], rel=1e-9
        )
        slope = np.cov(pw["x"], pw["y"], ddof=1)[0, 1] / pw["x"].var(ddof=1)
        assert out.loc[k, "slope_xy"] == pytest.approx(slope, rel=1e-9)
        assert out.loc[k, "icept_xy"] == pytest.approx(
            pw["y"].mean() - slope * pw["x"].mean(), rel=1e-9
        )


def test_misra_gries_approximation_guarantees(ray_session):
    """In the trimming regime (capacity << distinct), MG must still
    report every item with true frequency > n/(capacity+1), and every
    reported count is a lower bound within n/(capacity+1) of truth."""
    import ray.data as rd

    from etl_reconciliate_ray.stages.sketch import heavy_hitters

    rng = np.random.default_rng(5)
    # 3 heavy items on a long uniform tail of 2000 distinct values
    heavy = np.repeat(["h0", "h1", "h2"], [4000, 3000, 2500])
    tail = np.char.add("t", rng.integers(0, 2000, 8000).astype(str))
    vals = np.concatenate([heavy, tail])
    rng.shuffle(vals)
    n = len(vals)
    cap = 16
    df = pd.DataFrame({"v": vals})
    out = heavy_hitters(rd.from_pandas(df).repartition(7), col="v", capacity=cap)
    assert len(out) <= cap
    true = df["v"].value_counts()
    bound = n / (cap + 1)
    got = dict(zip(out["item"], out["n"]))
    for item, freq in true.items():
        if freq > bound:
            assert item in got, (item, freq, bound)
    for item, c in got.items():
        assert c <= true[item]
        assert true[item] - c <= bound


def test_rollup_levels_are_consistent(ray_session):
    """Every ROLLUP subtotal must equal the sum of its finer level, and
    the grand total must equal the raw input totals."""
    import ray.data as rd

    from etl_reconciliate_ray.stages.agg import group_by_rollup

    rng = np.random.default_rng(9)
    df = pd.DataFrame({
        "a": rng.choice(["x", "y"], 500),
        "b": rng.choice(["p", "q", "r"], 500),
        "v": rng.integers(0, 100, 500),
    })
    out = group_by_rollup(
        rd.from_pandas(df).repartition(5), keys=["a", "b"],
        sums={"sv": "v"}, count_alias="n",
    ).to_pandas()
    finest = out[(out["a"] != "ALL") & (out["b"] != "ALL")]
    mid = out[(out["a"] != "ALL") & (out["b"] == "ALL")].set_index("a")
    grand = out[(out["a"] == "ALL") & (out["b"] == "ALL")]
    assert len(grand) == 1
    assert grand["sv"].iloc[0] == df["v"].sum() and grand["n"].iloc[0] == len(df)
    for a, g in finest.groupby("a"):
        assert mid.loc[a, "sv"] == g["sv"].sum()
        assert mid.loc[a, "n"] == g["n"].sum()
    # finest level matches pandas exactly
    exp = df.groupby(["a", "b"])["v"].sum()
    for _, row in finest.iterrows():
        assert row["sv"] == exp[(row["a"], row["b"])]


def test_cube_covers_every_subset(ray_session):
    """CUBE must emit all four subset levels for two keys, each level
    internally consistent with the pandas groupby of the raw data."""
    import ray.data as rd

    from etl_reconciliate_ray.stages.agg import cube_groupby

    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "a": rng.choice(["x", "y"], 400),
        "b": rng.choice(["p", "q"], 400),
        "v": rng.integers(0, 50, 400),
    })
    out = cube_groupby(
        rd.from_pandas(df).repartition(4), keys=["a", "b"],
        sums={"sv": "v"}, count_alias="n",
    ).to_pandas()
    # b-only level (the set ROLLUP lacks) matches pandas
    b_only = out[(out["a"] == "ALL") & (out["b"] != "ALL")].set_index("b")
    exp_b = df.groupby("b")["v"].sum()
    assert set(b_only.index) == set(exp_b.index)
    for b, s in exp_b.items():
        assert b_only.loc[b, "sv"] == s
    # all four levels present with the right row counts
    finest = out[(out["a"] != "ALL") & (out["b"] != "ALL")]
    a_only = out[(out["a"] != "ALL") & (out["b"] == "ALL")]
    grand = out[(out["a"] == "ALL") & (out["b"] == "ALL")]
    assert len(finest) == df.groupby(["a", "b"]).ngroups
    assert len(a_only) == df["a"].nunique()
    assert len(grand) == 1 and grand["sv"].iloc[0] == df["v"].sum()


def test_grouping_sets_rejects_non_subset(ray_session):
    import ray.data as rd

    from etl_reconciliate_ray.stages.agg import grouping_sets_groupby

    ds = rd.from_pandas(pd.DataFrame({"a": ["x"], "v": [1]}))
    with pytest.raises(ValueError):
        grouping_sets_groupby(ds, keys=["a"], sets=[["b"]], sums={"sv": "v"})


def test_decontam_flags_planted_overlap(ray_session):
    """A corpus doc sharing a word 4-gram with the benchmark must get
    hits >= 1; a disjoint-vocabulary doc must get 0; gram counting is
    DISTINCT per doc (a repeated contaminated gram counts once)."""
    import ray
    import ray.data as rd

    from etl_reconciliate_ray.stages.textstage import DecontamCount, collect_ngram_set

    bench = rd.from_pandas(pd.DataFrame({
        "doc_id": [0], "text": ["alpha beta gamma delta epsilon"]
    }))
    grams = collect_ngram_set(bench, n=4)
    assert "alpha beta gamma delta" in grams and "beta gamma delta epsilon" in grams
    corpus = rd.from_pandas(pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": [
            # contains 'alpha beta gamma delta' twice -> 1 distinct hit
            "zz alpha beta gamma delta yy alpha beta gamma delta",
            "totally disjoint vocabulary here none shared",
            "tail overlap beta gamma delta epsilon",
        ],
    }))
    out = (
        corpus.map_batches(
            DecontamCount,
            fn_constructor_kwargs={"gram_ref": ray.put(grams), "n": 4},
            batch_format="pandas",
            concurrency=1,
        )
        .to_pandas()
        .set_index("doc_id")["n_contam_grams"]
    )
    assert out[1] == 1
    assert out[2] == 0
    assert out[3] == 1


def test_word_repetition_stats_counts(ray_session):
    """Repetition stats over literal-space tokens, including the empty
    string (one '' token, matching SQL string_split semantics)."""
    import ray.data as rd

    from etl_reconciliate_ray.stages.textstage import word_repetition_stats

    ds = rd.from_pandas(pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["a b a b a", "x", ""],
    }))
    out = (
        ds.map_batches(word_repetition_stats, batch_format="pyarrow")
        .to_pandas()
        .set_index("doc_id")
    )
    assert out.loc[1, "n_words"] == 5
    assert out.loc[1, "n_distinct_words"] == 2
    assert out.loc[1, "top_word_count"] == 3
    assert out.loc[2, "n_words"] == 1 and out.loc[2, "top_word_count"] == 1
    # '' splits to one empty token on both engine and SQL sides
    assert out.loc[3, "n_words"] == 1 and out.loc[3, "n_distinct_words"] == 1


def test_ntile_split_sizes(ray_session):
    """NTILE(k) tile sizes within each partition differ by at most one,
    larger tiles first, and tiles follow the order column."""
    import ray.data as rd

    from etl_reconciliate_ray.stages.windowfns import window_functions

    rng = np.random.default_rng(5)
    rows = []
    for key, m in [("a", 10), ("b", 7), ("c", 3), ("d", 1)]:
        for i in range(m):
            rows.append({"k": key, "o": i})
    df = pd.DataFrame(rows).sample(frac=1, random_state=3).reset_index(drop=True)
    out = window_functions(
        rd.from_pandas(df).repartition(3), key="k", order_by=["o"],
        ntile=("t", 4),
    ).to_pandas()
    for key, m in [("a", 10), ("b", 7), ("c", 3), ("d", 1)]:
        part = out[out["k"] == key].sort_values("o")
        sizes = part["t"].value_counts().sort_index()
        # sizes differ by at most one, larger first
        assert sizes.max() - sizes.min() <= 1
        assert list(sizes) == sorted(sizes, reverse=True)
        assert len(part) == m
        # tiles are monotone in the order column
        assert (part["t"].diff().fillna(0) >= 0).all()
        assert part["t"].max() == min(4, m)


def test_salted_join_equals_plain_join(ray_session):
    """salted_hash_join must be row-identical to the unsalted join on a
    skewed fixture (one hot key dominating), for inner and left joins,
    including duplicate build-side keys (cartesian per key)."""
    import ray.data as rd

    from etl_reconciliate_ray.stages.joins import hash_join, salted_hash_join

    rng = np.random.default_rng(13)
    left = pd.DataFrame({
        "k": np.concatenate([np.full(2000, 7), rng.integers(0, 50, 300)]),
        "lv": np.arange(2300),
    })
    right = pd.DataFrame({
        "k": [7, 7, 3, 12, 99],  # hot key duplicated -> 2x fanout; 99 unmatched
        "rv": [100, 200, 300, 400, 500],
    })

    def canon(df):
        return (
            df[sorted(df.columns)]
            .sort_values(sorted(df.columns), kind="stable")
            .reset_index(drop=True)
        )

    for how in ("inner", "left"):
        plain = hash_join(
            rd.from_pandas(left).repartition(4), rd.from_pandas(right),
            on="k", how=how,
        ).to_pandas()
        salted = salted_hash_join(
            rd.from_pandas(left).repartition(4), rd.from_pandas(right),
            on="k", hot_keys={7}, num_salts=4, how=how,
        ).to_pandas()
        pd.testing.assert_frame_equal(canon(plain), canon(salted), check_dtype=False)
    with pytest.raises(ValueError):
        salted_hash_join(
            rd.from_pandas(left), rd.from_pandas(right),
            on="k", hot_keys={7}, how="outer",
        )


def test_salted_route_spreads_hot_and_nonhot(ray_session):
    """Routing-level guarantees the output-equivalence test can't see:
    (a) a hot key's salts land in num_salts DISTINCT buckets (not one);
    (b) non-hot (salt-0) rows spread over ~all buckets, not the
    num_buckets/num_salts subset a low-bits salt layout collapses to;
    (c) the hot-row salt cycle covers all salts even when the hot key
    appears at a stride sharing a factor with num_salts."""
    from etl_reconciliate_ray.stages.joins import _salted_route, salted_hash_join
    import pyarrow.compute as pc_

    num_salts, num_buckets = 4, 32
    # (a) one hot key, every salt
    key = pa.array([7] * num_salts)
    salts = np.arange(num_salts, dtype=np.int64)
    skey = _salted_route(key, salts, num_salts).to_numpy()
    assert len(set(skey % num_buckets)) == num_salts
    # (b) non-hot keys cover most buckets
    keys = pa.array(np.arange(2000, dtype=np.int64))
    skey0 = _salted_route(keys, np.zeros(2000, dtype=np.int64), num_salts).to_numpy()
    assert len(set(skey0 % num_buckets)) == num_buckets
    # (c) periodic layouts can't alias the salt cycle: hot key at every
    # 4th row with num_salts=4, AND two hot keys interleaved A,B,A,B
    # with num_salts=2 — each hot key must still receive ALL salts
    from etl_reconciliate_ray.stages.joins import _hot_salts

    k_stride = pa.array([7 if i % 4 == 0 else 1000 + i for i in range(400)])
    hot_mask = np.array([i % 4 == 0 for i in range(400)])
    salts = _hot_salts(k_stride, hot_mask, 4)
    assert set(salts[hot_mask]) == {0, 1, 2, 3}
    assert (salts[~hot_mask] == 0).all()
    k_ab = pa.array([7, 8] * 50)
    salts_ab = _hot_salts(k_ab, np.ones(100, dtype=bool), 2)
    a_rows = np.arange(100) % 2 == 0
    assert set(salts_ab[a_rows]) == {0, 1}
    assert set(salts_ab[~a_rows]) == {0, 1}
    # and the join over the periodic layout stays row-correct
    import ray.data as rd

    left = pd.DataFrame({"k": [7 if i % 4 == 0 else 1000 + i for i in range(400)],
                         "lv": range(400)})
    right = pd.DataFrame({"k": [7], "rv": [1]})
    out = salted_hash_join(
        rd.from_pandas(left), rd.from_pandas(right),
        on="k", hot_keys={7}, num_salts=4, how="inner",
    ).to_pandas()
    assert len(out) == 100


def test_cube_integer_keys_stay_sortable(ray_session):
    """Integer grouping keys must come back as a uniform string column
    (value rows + 'ALL' label rows), never a mixed int/str object
    column that breaks sorts and parquet writes."""
    import ray.data as rd

    from etl_reconciliate_ray.stages.agg import cube_groupby

    df = pd.DataFrame({"year": [2024, 2024, 2025], "v": [1, 2, 4]})
    out = cube_groupby(rd.from_pandas(df), keys=["year"], sums={"sv": "v"}).to_pandas()
    assert all(isinstance(x, str) for x in out["year"])
    out.sort_values("year")  # must not raise
    assert set(out["year"]) == {"2024", "2025", "ALL"}
    assert out.set_index("year")["sv"].to_dict() == {"2024": 3, "2025": 4, "ALL": 7}


def test_decontam_null_text_rows(ray_session):
    """NULL text: contributes no benchmark grams and scores zero hits
    (matching the SQL oracle), instead of crashing the stage."""
    import ray
    import ray.data as rd

    from etl_reconciliate_ray.stages.textstage import DecontamCount, collect_ngram_set

    bench = rd.from_pandas(pd.DataFrame({
        "doc_id": [0, 1], "text": ["alpha beta gamma delta", None]
    }))
    grams = collect_ngram_set(bench, n=4)
    assert grams == frozenset({"alpha beta gamma delta"})
    corpus = rd.from_pandas(pd.DataFrame({
        "doc_id": [2, 3], "text": [None, "x alpha beta gamma delta"]
    }))
    out = (
        corpus.map_batches(
            DecontamCount,
            fn_constructor_kwargs={"gram_ref": ray.put(grams), "n": 4},
            batch_format="pandas", concurrency=1,
        )
        .to_pandas().set_index("doc_id")["n_contam_grams"]
    )
    assert out[2] == 0 and out[3] == 1


def test_cume_dist_percent_rank_tie_semantics(ray_session):
    """Ties are peers: CUME_DIST counts the whole peer group, and
    PERCENT_RANK uses (rank-1)/(m-1); single-row partition -> 0.0.
    Checked against pandas' implementations."""
    import ray.data as rd

    from etl_reconciliate_ray.stages.windowfns import window_functions

    df = pd.DataFrame({
        "k": ["a"] * 6 + ["b"],
        "o": [10, 10, 20, 20, 20, 30, 5],
        "id": range(7),
    })
    out = (
        window_functions(
            rd.from_pandas(df).repartition(3), key="k", order_by=["o"],
            cume_dist="cd", percent_rank="pr", keep=["k", "o", "id"],
        )
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    g = df.groupby("k")["o"]
    want_cd = g.transform(lambda s: s.rank(method="max") / len(s))
    want_pr = g.transform(
        lambda s: (s.rank(method="min") - 1) / max(len(s) - 1, 1)
    )
    assert np.allclose(out["cd"], want_cd, atol=0)
    assert np.allclose(out["pr"], want_pr, atol=0)


def test_hash_semi_join_no_fanout_on_duplicate_right(ray_session):
    """Duplicate right-side keys must not duplicate left rows, and the
    output schema is exactly the left schema."""
    import ray.data as rd

    from etl_reconciliate_ray.stages.joins import hash_semi_join

    left = pd.DataFrame({"k": [1, 2, 3, 4], "v": ["a", "b", "c", "d"]})
    right = pd.DataFrame({"k": [2, 2, 2, 4, 9]})
    out = (
        hash_semi_join(rd.from_pandas(left), rd.from_pandas(right), on="k")
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    assert list(out.columns) in (["k", "v"], ["v", "k"]) or set(out.columns) == {"k", "v"}
    assert out["k"].tolist() == [2, 4]
    assert out["v"].tolist() == ["b", "d"]


def test_chunker_edges(ray_session):
    """Chunk boundaries: exact multiples, short docs, empty and null
    text; last chunk may be shorter than width; overlap = width-stride."""
    import ray.data as rd

    from etl_reconciliate_ray.stages.textstage import make_chunker

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["abcdefghij", "abc", "", None],  # width 4, stride 3
    })
    out = (
        rd.from_pandas(df)
        .map_batches(make_chunker(4, 3), batch_format="pandas")
        .to_pandas()
    )
    d1 = out[out["doc_id"] == 1].sort_values("chunk_start")
    assert d1["chunk_start"].tolist() == [1, 4, 7, 10]
    assert d1["chunk_text"].tolist() == ["abcd", "defg", "ghij", "j"]
    assert out[out["doc_id"] == 2]["chunk_text"].tolist() == ["abc"]
    assert (out["doc_id"] == 3).sum() == 0 and (out["doc_id"] == 4).sum() == 0
    with pytest.raises(ValueError):
        make_chunker(0, 3)


def test_bigrams_never_cross_docs(ray_session):
    """Adjacent docs in one batch must not contribute a pair spanning
    the doc boundary; single-word and empty docs contribute nothing."""
    import ray.data as rd

    from etl_reconciliate_ray.stages.textstage import bigram_counts

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["end marker", "start here", "solo", "  "],
    })
    out = bigram_counts(rd.from_pandas(df), top_n=10).to_pandas()
    got = set(out["bigram"])
    assert got == {"end marker", "start here"}
    assert "marker start" not in got  # the cross-doc pair


def test_redactor_rule_chain_and_hit_counts(ray_session):
    """Rule 2 must see rule 1's OUTPUT (ordered chain, not a parallel
    apply), hits accumulate across rules, and non-matching text passes
    through byte-identical."""
    import pyarrow as pa

    from etl_reconciliate_ray.stages.textstage import make_redactor

    fn = make_redactor([
        (r"\b(customer|user)\b", "<PII>"),
        (r"<PII>( <PII>)+", "<PII>+"),
    ])
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "customer user pays",       # run of 2 -> collapsed by rule 2
            "a customer here",          # single hit, rule 2 no-op
            "nothing to scrub",         # untouched
            "user customer user done",  # run of 3
        ]),
    })
    out = fn(t)
    assert out["redacted"].to_pylist() == [
        "<PII>+ pays", "a <PII> here", "nothing to scrub", "<PII>+ done",
    ]
    # hits: rule1 matches + rule2 run-collapses (2+1, 1+0, 0+0, 3+1)
    assert out["n_hits"].to_pylist() == [3, 1, 0, 4]


def test_compression_ratio_orders_redundancy(ray_session):
    """Highly repetitive text must compress strictly better (lower
    permille) than high-entropy text; empty text is defined (ratio of
    the empty string's zlib header, not a crash); nulls stay null."""
    import pyarrow as pa

    from etl_reconciliate_ray.stages.textstage import compression_ratio

    import random

    rng = random.Random(7)
    noisy = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789 ") for _ in range(2000))
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array(["spam " * 400, noisy, "", None]),
    })
    out = compression_ratio(t)
    r = dict(zip(out["doc_id"].to_pylist(), out["zlib_permille"].to_pylist()))
    assert r[1] < r[2] < 1100  # repetitive << noisy; noisy near-incompressible
    assert r[3] > 1000  # empty: header bytes over max(1, 0) floor
    assert r[4] is None


def test_embdup_clusters_recover_planted_structure(ray_session):
    """Every planted clone (id+1e6, same direction) must share a
    cluster labelled by its original id; every other vector is a
    singleton labelled by itself."""
    import __ray_entry__ as e

    df = e.queries()["embdup_clusters"]("/root/testdata/sf0.001").to_pandas()
    lab = dict(zip(df["vec_id"], df["cluster"]))
    planted = [v for v in lab if v < 1_000_000 and v % 37 == 0]
    assert planted, "fixture should contain planted ids"
    for v in planted:
        assert lab[v] == v and lab[v + 1_000_000] == v, (v, lab[v], lab.get(v + 1_000_000))
    singles = [v for v in lab if v < 1_000_000 and v % 37 != 0]
    assert all(lab[v] == v for v in singles)


def test_null_semantics_match_oracle_on_planted_nulls(ray_session, tmp_path):
    """user_journeys and lexical_diversity_docs must agree with their
    DuckDB oracles on null-bearing data the sf fixtures never contain:
    NULL event_type inside a journey (string_agg skips it), an all-NULL
    journey group (NULL, not ""), a NULL user_id group (kept by SQL
    GROUP BY), and NULL document text (n_bigrams 0, distinct NULL)."""
    import duckdb
    import pyarrow.parquet as pq

    from etl_reconciliate_ray.pipelines.queries import ORACLE_SQL, QUERIES

    events = pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "ts": pa.array(
            pd.to_datetime(
                ["2024-01-01", "2024-01-02", "2024-01-03",
                 "2024-01-01", "2024-01-02", "2024-01-05"]
            ),
            pa.timestamp("us"),
        ),
        "user_id": pa.array([10, 10, 10, 11, 11, None], pa.int64()),
        "event_type": pa.array(["view", None, "buy", None, None, "view"]),
        "value": pa.array([1.0, 2.0, None, 4.0, 5.0, 6.0]),
        "props": pa.array(["{}"] * 6),
    })
    docs = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["aa bb aa bb", None, "solo"]),
        "lang": pa.array(["en", "en", "en"]),
        "source": pa.array(["s", "s", "s"]),
        "n_chars": pa.array([11, 0, 4], pa.int64()),
    })
    pq.write_table(events, tmp_path / "events.parquet")
    pq.write_table(docs, tmp_path / "documents.parquet")

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')")
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')")
    for name in (
        "user_journeys",
        "lexical_diversity_docs",
        "scd2_user_state",
        "event_transitions",
    ):
        got = QUERIES[name](str(tmp_path)).to_pandas()
        want = con.execute(ORACLE_SQL[name]).df()
        got = got[sorted(got.columns)].sort_values(sorted(got.columns)).reset_index(drop=True)
        want = want[sorted(want.columns)].sort_values(sorted(want.columns)).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
    con.close()


def test_funnel_cascade_ordering():
    """A user whose click precedes every view must NOT reach step 2:
    the cascade counts step i+1 only at-or-after the step-i reach
    time. Ties (same ts) DO advance (>= contract), and NULL users are
    excluded."""
    from etl_reconciliate_ray.stages.funnel import funnel_partial

    t = pd.to_datetime
    df = pd.DataFrame({
        "user_id": [1, 1, 2, 2, 3, 3, 3, None],
        "ts": t([
            "2024-01-02", "2024-01-01",      # u1: view@2, click@1 → no step2
            "2024-01-01", "2024-01-01",      # u2: view & click same instant → step2
            "2024-01-01", "2024-01-02", "2024-01-03",  # u3: full funnel
            "2024-01-01",
        ]),
        "event_type": ["view", "click", "view", "click",
                       "view", "click", "purchase", "view"],
    })
    out = funnel_partial(df, ["view", "click", "purchase"])
    got = dict(zip(out["step"], out["n_users"]))
    assert got == {"1:view": 3, "2:click": 2, "3:purchase": 1}


def test_cohort_partial_counts_distinct_user_days():
    """Two events of one user on one day collapse to a single cell
    count; a later-day return lands in days_since > 0 of the SAME
    cohort day."""
    from etl_reconciliate_ray.stages.funnel import cohort_partial

    t = pd.to_datetime
    df = pd.DataFrame({
        "user_id": [1, 1, 1, 2],
        "ts": t(["2024-01-01 03:00", "2024-01-01 09:00",
                 "2024-01-03 12:00", "2024-01-02 01:00"]),
    })
    out = cohort_partial(df)
    cells = {
        (r.cohort_day.strftime("%m-%d"), r.days_since): r.n_users
        for r in out.itertuples()
    }
    assert cells == {("01-01", 0): 1, ("01-01", 2): 1, ("01-02", 0): 1}


def test_resample_locf_gapfill_semantics(ray_session):
    """Planted stream: user 1 has a 2-day gap (0-event days appear
    with the value carried forward), a leading null value (locf stays
    0 until the first observation), and a same-day pair where the
    later (ts, event_id) wins; null-keyed rows are dropped."""
    import ray.data as rd

    from etl_reconciliate_ray.stages.timeseries import resample_locf

    t = pd.to_datetime
    df = pd.DataFrame({
        "event_id": [1, 2, 3, 4, 5, 6],
        "user_id": pd.array([1, 1, 1, 1, 2, None], dtype="Int64"),
        "ts": t([
            "2024-01-01 05:00", "2024-01-01 07:00",  # same day: id 2 wins
            "2024-01-04 01:00",                       # after a 2-day gap
            "2024-01-05 01:00", "2024-01-02 01:00", None,
        ]),
        "value": [None, 2.5, 7.0, None, 9.0, 1.0],
    })
    out = (
        resample_locf(rd.from_pandas(df), key="user_id", unit="day")
        .to_pandas()
        .sort_values(["user_id", "day"])
        .reset_index(drop=True)
    )
    got = [
        (int(r.user_id), r.day.strftime("%m-%d"), int(r.n_events), int(r.locf_cents))
        for r in out.itertuples()
    ]
    assert got == [
        (1, "01-01", 2, 250),   # null value ignored, id 2's 2.50 wins
        (1, "01-02", 0, 250),   # gap day, carried forward
        (1, "01-03", 0, 250),
        (1, "01-04", 1, 700),
        (1, "01-05", 1, 700),   # day present but value null: LOCF holds
        (2, "01-02", 1, 900),
    ]


def test_fuzzy_self_join_exact_with_short_pool(ray_session):
    """Planted values exercise both candidate paths: normal strings
    through the prefix-filter grams, and strings below q*(k+1) chars
    through the short all-pairs pool. Result must equal a brute-force
    banded-DP oracle over all distinct pairs."""
    import itertools

    import ray.data as rd

    from etl_reconciliate_ray.stages.fuzzy import (
        _edit_distance_banded,
        fuzzy_self_join,
    )

    vals = [
        "red widget", "red wigdet", "red widgets",  # dist 2 / 1 chains
        "blue bolt", "blue belt", "glue belt",
        "abc", "abd", "xyz", "ab",                   # short pool (< 6)
        "abcd", "abcdef",                            # short-LONG boundary pair
        "completely different string", None, "red widget",  # dup + null
    ]
    ds = rd.from_items([{"p_name": v} for v in vals])
    got = {
        (r.name_a, r.name_b, r.dist)
        for r in fuzzy_self_join(ds, "p_name", k=2, q=2).to_pandas().itertuples()
    }
    distinct = sorted(set(v for v in vals if v is not None))
    want = set()
    for a, b in itertools.combinations(distinct, 2):
        d = _edit_distance_banded(a, b, 2)
        if d <= 2:
            want.add((a, b, d))
    assert got == want and len(want) >= 4


def test_edit_distance_banded_matches_unbanded():
    """Banded DP agrees with a plain Wagner-Fischer reference on a
    grid of word pairs, including > k early exits."""
    from etl_reconciliate_ray.stages.fuzzy import _edit_distance_banded

    def full(a, b):
        prev = list(range(len(a) + 1))
        for j, cb in enumerate(b, 1):
            cur = [j]
            for i, ca in enumerate(a, 1):
                cur.append(
                    prev[i - 1] if ca == cb
                    else 1 + min(prev[i - 1], prev[i], cur[-1])
                )
            prev = cur
        return prev[-1]

    words = ["", "a", "ab", "abc", "abcd", "hot gear", "red gear",
             "red bolt", "small ring", "smal ring", "small rings"]
    for a in words:
        for b in words:
            for k in (1, 2, 3):
                d = full(a, b)
                got = _edit_distance_banded(a, b, k)
                assert got == (d if d <= k else k + 1), (a, b, k, d, got)


def test_higher_moments_merge_matches_single_pass(ray_session):
    """Pébay M3/M4 merge across many small batches must equal pandas'
    single-pass adjusted skew/kurt exactly (to e6 rounding), including
    a skewed heavy-tailed group and a group with nulls."""
    import ray.data as rd

    from etl_reconciliate_ray.stages.stats import grouped_higher_moments

    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "k": np.repeat(["a", "b", "c"], 400),
        "v": np.concatenate([
            rng.normal(5, 2, 400),
            rng.lognormal(0, 1.2, 400),       # heavy right tail
            rng.uniform(-1, 1, 400),
        ]),
    })
    df.loc[df.sample(60, random_state=0).index, "v"] = np.nan
    # many small blocks → many partials per key → real merge work
    ds = rd.from_pandas(df).repartition(16)
    out = (
        grouped_higher_moments(ds, keys=["k"], x="v")
        .to_pandas()
        .set_index("k")
        .sort_index()
    )
    for k, g in df.groupby("k"):
        v = g["v"].dropna()
        assert out.loc[k, "n"] == len(v)
        assert out.loc[k, "skew_e6"] == int(round(v.skew() * 1e6))
        assert out.loc[k, "kurt_e6"] == int(round(v.kurt() * 1e6))


def test_ewma_matches_recursion_and_is_partition_invariant(ray_session):
    """ewma_events must equal the literal recursion e_1 = v_1,
    e_i = a·v_i + (1-a)·e_{i-1} per user in (ts, event_id) order, and
    be identical regardless of input partitioning."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from etl_reconciliate_ray.pipelines.queries import q_ewma_events

    sf = "/root/testdata/sf0.001"
    out = (
        q_ewma_events(sf)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    raw = (
        pq.read_table(f"{sf}/events.parquet",
                      columns=["event_id", "user_id", "ts", "value"])
        .to_pandas()
        .dropna(subset=["user_id", "value"])
        .sort_values(["user_id", "ts", "event_id"], kind="stable")
    )
    want = {}
    for uid, g in raw.groupby("user_id"):
        e = None
        for r in g.itertuples():
            e = r.value if e is None else 0.3 * r.value + 0.7 * e
            want[r.event_id] = int(round(e * 1e6))
    assert len(out) == len(want)
    got = dict(zip(out["event_id"], out["ewma_e6"]))
    assert got == want


def _pagerank_numpy(n, edges, d=0.85, iters=10):
    """Dense reference implementation of the exact same iteration."""
    deg = np.zeros(n)
    for s, t in edges:
        deg[s] += 1
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        dang = r[deg == 0].sum()
        nxt = np.full(n, (1.0 - d) / n + d * dang / n)
        for s, t in edges:
            nxt[t] += d * r[s] / deg[s]
        r = nxt
    return r


def test_pagerank_star_cycle_and_reference(ray_session):
    """Star: the hub outranks every leaf. Cycle: exactly uniform.
    Random graph: matches a dense numpy power iteration of the same
    formula to 1e-9. Ranks always sum to 1."""
    import itertools
    import random

    import ray.data as rd

    from etl_reconciliate_ray.stages.graph import pagerank

    def run(n, und_edges, iters=10, undirected=True):
        nodes = rd.from_items(
            [{"node": i} for i in range(n)], override_num_blocks=2
        )
        edges = rd.from_items(
            [{"doc_a": a, "doc_b": b} for a, b in und_edges],
            override_num_blocks=2,
        )
        out = (
            pagerank(nodes, edges, iters=iters, undirected=undirected,
                     num_buckets=2)
            .to_pandas()
            .set_index("node")["rank"]
            .sort_index()
        )
        return out

    # star 0-1..0-5 (undirected)
    star = run(6, [(0, i) for i in range(1, 6)], iters=3)
    assert abs(star.sum() - 1.0) < 1e-9
    assert star[0] > star[1] * 2
    assert np.allclose(star[1:], star[1], atol=1e-12)

    # directed 4-cycle → exactly uniform
    cyc = run(4, [(i, (i + 1) % 4) for i in range(4)], iters=2, undirected=False)
    assert np.allclose(cyc, 0.25, atol=1e-12)

    # random sparse graph incl. a dangling node, vs numpy reference
    rng = random.Random(7)
    n = 30
    dir_edges = sorted({
        (rng.randrange(n), rng.randrange(n)) for _ in range(60)
    })
    dir_edges = [(a, b) for a, b in dir_edges if a != b and a != n - 1]
    got = run(n, dir_edges, iters=5, undirected=False)
    want = _pagerank_numpy(n, dir_edges, iters=5)
    assert abs(got.sum() - 1.0) < 1e-9
    assert np.allclose(got.to_numpy(), want, atol=1e-9)


def test_pagerank_rejects_undeclared_edge_endpoints(ray_session):
    """Edges pointing at (or from) nodes absent from nodes_ds must fail
    loudly, not silently leak rank mass."""
    import ray.data as rd

    from etl_reconciliate_ray.stages.graph import pagerank

    nodes = rd.from_items([{"node": 0}, {"node": 1}], override_num_blocks=1)
    # unknown source (undirected routes both endpoints through deg)
    e_src = rd.from_items([{"doc_a": 7, "doc_b": 0}], override_num_blocks=1)
    with pytest.raises(Exception, match="not present in nodes_ds"):
        pagerank(nodes, e_src, iters=1, num_buckets=2).to_pandas()
    # unknown destination on a DIRECTED graph (src-side join can't see it)
    e_dst = rd.from_items([{"doc_a": 0, "doc_b": 9}], override_num_blocks=1)
    with pytest.raises(Exception, match="not present in nodes_ds"):
        pagerank(
            nodes, e_dst, iters=1, num_buckets=2, undirected=False
        ).to_pandas()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fuzzy_self_join_fuzz_vs_bruteforce(ray_session, k):
    """Randomized corpus over a tiny alphabet (lots of short strings,
    duplicates, empties) — the prefix-filter + short-pool candidate
    generation must be EXACT vs brute force at every k."""
    import itertools
    import random

    import ray.data as rd

    from etl_reconciliate_ray.stages.fuzzy import (
        _edit_distance_banded,
        fuzzy_self_join,
    )

    rng = random.Random(100 + k)
    vals = [
        "".join(rng.choice("ab ") for _ in range(rng.randint(0, 10)))
        for _ in range(80)
    ]
    ds = rd.from_items([{"p_name": v} for v in vals])
    got = {
        (r.name_a, r.name_b, r.dist)
        for r in fuzzy_self_join(ds, "p_name", k=k, q=2).to_pandas().itertuples()
    }
    want = set()
    for a, b in itertools.combinations(sorted(set(vals)), 2):
        d = _edit_distance_banded(a, b, k)
        if d <= k:
            want.add((a, b, d))
    assert got == want


def test_dedup_plan_keeps_longest_per_cluster(ray_session, tmp_path):
    """Planted corpus: three near-identical docs (one longer) must form
    one cluster keeping exactly the longest; a distinct doc keeps
    itself."""
    import pyarrow.parquet as pq_mod

    from etl_reconciliate_ray.pipelines.queries import q_dedup_plan_docs

    base = "the quick brown fox jumps over the lazy dog " * 8
    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": [base, base + "tail", base + "tail more", "completely unrelated short text"],
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq_mod.write_table(docs, str(d / "documents.parquet"))
    out = q_dedup_plan_docs(str(d)).to_pandas().sort_values("doc_id")
    by_doc = out.set_index("doc_id")
    assert len(set(by_doc.loc[[1, 2, 3], "cluster_id"])) == 1  # one cluster
    assert by_doc.loc[4, "cluster_id"] != by_doc.loc[1, "cluster_id"]
    kept = sorted(out[out["keep"] == 1]["doc_id"])
    assert kept == [3, 4]  # longest of the trio + the singleton
    assert out.groupby("cluster_id")["keep"].sum().eq(1).all()


def test_langid_heuristic_properties():
    """Language-ID must pick the language with the most stopword hits,
    fall back to 'und' on zero hits, and break ties deterministically
    (sorted language order, strict improvement wins)."""
    from etl_reconciliate_ray.functions.text import langid

    assert langid("the cat sat and it is that simple for me to see") == "en"
    assert langid("el que la de y en un los del se habla") == "es"
    assert langid("le chat et les des une du que paris") == "fr"
    assert langid("der die das und den von zu mit ist haus") == "de"
    assert langid("12345 !!! ??? zzz qqq") == "und"
    assert langid("") == "und"
    # exact tie ('de'/'en' both hit only on shared stopwords 'in'/'und'?
    # construct: 'la' (es+fr) — sorted order keeps the FIRST maximum (es)
    assert langid("la") == "es"


def test_incremental_dedup_matches_planted_sources(ray_session):
    """Every planted incoming doc (source + ' tail') must be matched
    back to its source; unrelated incoming docs must not match; the
    corpus is never paired with itself."""
    from etl_reconciliate_ray.pipelines.queries import q_incremental_dedup_docs

    out = q_incremental_dedup_docs("/root/testdata/sf0.001").to_pandas()
    assert len(out) > 0
    # planted construction: new id = source id + offset (>= 1e6)
    assert ((out["new_doc_id"] >= 1_000_000)).all()
    # each planted doc matches AT LEAST its own source; allow the
    # theoretical LSH band-miss tail (~1e-4/pair) rather than asserting
    # an exact count the banding doesn't guarantee
    own = out[out["new_doc_id"] - 1_000_000 == out["dup_of_doc_id"]]
    import pyarrow.parquet as pq_mod

    n_sources = (
        pq_mod.read_table(
            "/root/testdata/sf0.001/documents.parquet", columns=["doc_id"]
        )["doc_id"].to_pandas() % 10 == 0
    ).sum()
    assert len(own) >= max(1, int(0.95 * n_sources))
    assert (out["jaccard"] >= 0.8).all()


def test_hash_join_derives_num_buckets_from_input_size(ray_session, tmp_path):
    """num_buckets=None sizes the bucket split from the inputs' file
    bytes (metadata only, ~target bytes per bucket, floor 32) — the
    100x-scale guard against linear per-bucket merge growth — and the
    bucket count is semantically invisible: a tiny-target derived run
    returns exactly the rows of an explicit num_buckets=32 run."""
    import pyarrow.parquet as pq_mod
    import ray.data as rd

    from etl_reconciliate_ray.stages.joins import _derive_num_buckets, hash_join

    left = pa.table({
        "k": pa.array(np.arange(3000, dtype=np.int64) % 500),
        "lv": pa.array(np.arange(3000, dtype=np.int64)),
    })
    right = pa.table({
        "k": pa.array(np.arange(500, dtype=np.int64)),
        "rv": pa.array(np.arange(500, dtype=np.int64) * 7),
    })
    lp, rp = str(tmp_path / "l.parquet"), str(tmp_path / "r.parquet")
    pq_mod.write_table(left, lp)
    pq_mod.write_table(right, rp)

    # derived count scales with bytes/target: a tiny target must push
    # past the 32 floor, a huge target sits at the floor
    ldd, rdd = rd.read_parquet(lp), rd.read_parquet(rp)
    assert _derive_num_buckets(ldd, rdd, target_bucket_bytes=1024) > 32
    assert _derive_num_buckets(ldd, rdd, target_bucket_bytes=1 << 40) == 32
    # lineage without file provenance falls back to the floor
    assert _derive_num_buckets(
        rd.from_arrow(left), rd.from_arrow(right), target_bucket_bytes=1024
    ) == 32

    def canon(df):
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    derived = hash_join(
        rd.read_parquet(lp), rd.read_parquet(rp), on="k",
        target_bucket_bytes=1024,
    ).to_pandas()
    pinned = hash_join(
        rd.read_parquet(lp), rd.read_parquet(rp), on="k", num_buckets=32
    ).to_pandas()
    pd.testing.assert_frame_equal(canon(derived), canon(pinned))
