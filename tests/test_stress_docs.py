"""Small-scale validation of the docs-path stress probe (`bench.py
--stress-docs`): the planted-corpus generator's closed-form invariants
must hold through the REAL dedup stages, and generation must be
batch-layout independent (content a pure function of doc_id)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from etl_reconciliate_ray.bench_fixture import (
    _doc_vocab,
    _docs_batch,
    boiler_text,
    docs_plan,
    write_docs_fixture,
)

N = 3000


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("docs_stress") / "corpus")
    plan = write_docs_fixture(out, N)
    return f"{out}/data", plan


def _read(out):
    import ray.data as rd

    return rd.read_parquet(out, columns=["doc_id", "text"])


def test_generation_is_batch_layout_independent():
    plan = docs_plan(N)
    vocab = _doc_vocab()
    ids = np.arange(0, N, 7)  # spans every planted range
    whole = _docs_batch(ids, plan, vocab).to_pandas()
    parts = pd.concat(
        [_docs_batch(c, plan, vocab).to_pandas() for c in np.array_split(ids, 11)],
        ignore_index=True,
    )
    pd.testing.assert_frame_equal(whole, parts)


def test_planted_structure(corpus):
    _, plan = corpus
    vocab = _doc_vocab()
    h, e = plan["hot"], plan["exact"]
    he, hem = h + e, h + e + plan["near"]
    ids = np.array([0, 1, h, h + 1, he, he + 1, hem, hem + plan["span"]])
    t = _docs_batch(ids, plan, vocab).to_pandas().set_index("doc_id")["text"]
    assert t[0] == t[1]                      # hot family: identical
    assert t[h] == t[h + 1]                  # exact pair: identical
    assert t[he] != t[he + 1]                # near pair: never byte-equal
    # ...but ~2.5% mutated: word-level overlap stays high
    a, b = t[he].split(" "), t[he + 1].split(" ")
    assert len(a) == len(b)
    same = sum(x == y for x, y in zip(a, b)) / len(a)
    assert 0.9 < same < 1.0
    assert t[hem].startswith(boiler_text())  # span doc: boilerplate prefix
    assert not t[hem + plan["span"]].startswith(boiler_text())  # control


def test_exact_dedup_matches_closed_form(corpus):
    from etl_reconciliate_ray.stages.dedup import exact_dedup

    out, plan = corpus
    assert exact_dedup(_read(out)).count() == plan["expected_unique"]


def test_span_dedup_sharded_invariants(corpus):
    from etl_reconciliate_ray.stages.textstage import span_dedup

    out, plan = corpus
    h, e = plan["hot"], plan["exact"]
    hem = h + e + plan["near"]
    hems = hem + plan["span"]
    df = span_dedup(_read(out), probe="sharded", num_buckets=4).to_pandas()
    assert len(df) == N
    ids = df["doc_id"].to_numpy()
    nd = df["n_dropped"].to_numpy()
    # each span-range doc drops EXACTLY its boilerplate window
    assert int(nd[(ids >= hem) & (ids < hems)].sum()) == plan["span"]
    # control docs untouched; hot/exact families fully emptied
    assert int(nd[ids >= hems].sum()) == 0
    he_texts = df.loc[ids < h + e, "text"]
    assert (he_texts == "").all()
    assert not df["text"].str.contains(boiler_text(), regex=False).any()


def test_minhash_recall_on_planted_near_pairs(corpus):
    from etl_reconciliate_ray.stages.dedup import minhash_clusters

    out, plan = corpus
    base = plan["hot"] + plan["exact"]
    k = plan["near"] // 2
    want = set(range(base, base + plan["near"]))
    lab = minhash_clusters(_read(out)).map_batches(
        lambda df: df[df["doc_id"].isin(want)], batch_format="pandas"
    ).to_pandas()
    lm = dict(zip(lab["doc_id"], lab["cluster_id"]))
    hits = sum(
        1 for i in range(k)
        if lm.get(base + 2 * i) is not None
        and lm.get(base + 2 * i) == lm.get(base + 2 * i + 1)
    )
    assert hits / k >= 0.8, f"recall {hits}/{k}"


def test_vec_generation_is_batch_layout_independent():
    from etl_reconciliate_ray.bench_fixture import vec_dirs, vec_plan, vecs_batch

    plan = vec_plan(4000)
    dirs = vec_dirs()
    ids = np.arange(0, 4000, 3)  # spans clone pairs and singletons
    whole = vecs_batch(ids, plan, dirs).to_pandas()
    parts = pd.concat(
        [vecs_batch(c, plan, dirs).to_pandas() for c in np.array_split(ids, 7)],
        ignore_index=True,
    )
    assert (whole["vec_id"] == parts["vec_id"]).all()
    assert all(
        np.array_equal(a, b)
        for a, b in zip(whole["embedding"], parts["embedding"])
    )


def test_semantic_dedup_planted_vec_invariants(ray_session):
    """The stress probe's closed-form planted-vector invariants hold
    through the REAL semantic_dedup stage at small scale: exactly the
    odd clone ids prune, each onto its even partner; every singleton
    and every even partner survives as its own rep."""
    import ray.data as rd

    from etl_reconciliate_ray.bench_fixture import vec_dirs, vec_plan, vecs_batch
    from etl_reconciliate_ray.stages.similarity import semantic_dedup

    n = 4000
    plan = vec_plan(n)
    dirs = vec_dirs()

    def gen(b):
        return vecs_batch(b["id"].to_numpy(zero_copy_only=False), plan, dirs)

    vecs = rd.range(n).map_batches(gen, batch_format="pyarrow", batch_size=512)
    train = pd.DataFrame({
        "vec_id": np.arange(len(dirs), dtype=np.int64),
        "embedding": list(dirs),
    })
    out = semantic_dedup(
        vecs, train, k=plan["clusters"], threshold=plan["threshold"]
    ).to_pandas().sort_values("vec_id").reset_index(drop=True)

    ids = out["vec_id"].to_numpy()
    odd_fam = (ids < 2 * plan["n_fam"]) & (ids % 2 == 1)
    assert len(out) == n
    assert int(out["keep"].sum()) == plan["expected_kept"]
    assert (out["rep"].to_numpy() == np.where(odd_fam, ids - 1, ids)).all()
    assert (out["keep"].to_numpy() == ~odd_fam).all()


def test_semantic_dedup_fuzz_vs_bruteforce(ray_session):
    """Differential fuzz: semantic_dedup (distributed, chunked edge
    pass, min-label propagation) must equal a plain numpy reference
    (same quantizer, per-cluster union-find) on random geometry with
    borderline-threshold pairs — catches chunk-boundary and
    propagation defects the planted fixtures can't."""
    import ray.data as rd

    from etl_reconciliate_ray.stages.similarity import (
        _kmeans, _normalize, semantic_dedup,
    )

    for seed in range(8):
        rng = np.random.default_rng(seed)
        n, d, k, thr = 300, 8, 4, 0.9
        # lumpy geometry: half the points are jittered copies of a few
        # anchors (dense near-threshold pairs), half are free
        anchors = rng.standard_normal((12, d))
        emb = np.vstack([
            anchors[rng.integers(12, size=n // 2)]
            + rng.standard_normal((n // 2, d)) * rng.uniform(0.05, 0.4),
            rng.standard_normal((n - n // 2, d)),
        ])
        ids = rng.permutation(n * 2)[:n].astype(np.int64)
        df = pd.DataFrame({"vec_id": ids, "embedding": list(emb)})
        train = df.sample(60, random_state=seed).reset_index(drop=True)

        got = (
            semantic_dedup(rd.from_pandas(df), train, k=k, threshold=thr,
                           seed=seed, chunk=64)  # force chunk boundaries
            .to_pandas().sort_values("vec_id").reset_index(drop=True)
        )

        # reference: same quantizer math, per-cluster union-find
        cents = _kmeans(_normalize(np.stack(train["embedding"].to_numpy())),
                        k, seed=seed)
        nemb = _normalize(emb)
        assign = (nemb @ cents.T).argmax(axis=1)
        order = np.argsort(ids, kind="stable")
        sids, semb, sassign = ids[order], nemb[order], assign[order]
        parent = dict(zip(sids.tolist(), sids.tolist()))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for c in range(k):
            m = sassign == c
            cide, cemb = sids[m], semb[m]
            s = cemb @ cemb.T
            for i, j in zip(*np.nonzero(np.triu(s >= thr, k=1))):
                a, b = find(int(cide[i])), find(int(cide[j]))
                if a != b:
                    lo, hi = min(a, b), max(a, b)
                    parent[hi] = lo
        exp_rep = np.array([find(int(i)) for i in got["vec_id"]])
        assert (got["rep"].to_numpy() == exp_rep).all(), seed
        assert (got["keep"].to_numpy() == (exp_rep == got["vec_id"].to_numpy())).all(), seed


def test_exact_dedup_null_text_policies(ray_session):
    """null-text rows: default 'collapse' groups them as one key (SQL
    GROUP BY semantics, what the DuckDB oracle computes); 'keep' treats
    unknown content as incomparable — every null-text doc survives as
    its own representative with a null hash."""
    import ray.data as rd

    from etl_reconciliate_ray.stages.dedup import exact_dedup

    df = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": ["same", "same", None, None, "only", None],
    })
    ds = rd.from_pandas(df)

    col = exact_dedup(ds).to_pandas()
    assert sorted(col["doc_id"]) == [0, 2, 4]  # nulls collapsed onto id 2

    keep = exact_dedup(ds, null_text="keep").to_pandas()
    assert sorted(keep["doc_id"]) == [0, 2, 3, 4, 5]
    by_id = keep.set_index("doc_id")["content_sha256"]
    assert by_id[[2, 3, 5]].isna().all()  # null hash restored, not sentinel
    assert by_id[[0, 4]].notna().all()


def test_exact_dedup_keep_refuses_null_ids(ray_session):
    """null_text='keep' keys each null-text doc by its id; docs with
    null ids would all collapse into ONE null group, so null ids are
    refused (as split_assign and pack_batch refuse them)."""
    import ray.data as rd

    from etl_reconciliate_ray.stages.dedup import exact_dedup

    df = pd.DataFrame({
        "doc_id": pd.array([1, None, None, 4], dtype="Int64"),
        "text": ["a", None, None, "b"],
    })
    with pytest.raises(Exception, match="null doc_id"):
        exact_dedup(rd.from_pandas(df), null_text="keep").to_pandas()


def test_bloom_membership_is_integer_dtype_insensitive():
    """A bloom built over int64 ids must accept an int32 (or uint64)
    probe column holding the same values: hash64 normalizes integer
    width, otherwise the polars fast path hashes the physical
    representation and every probe is a silent false negative (the
    verify_pairs_distributed endpoint prune would drop all docs)."""
    from etl_reconciliate_ray.functions.bloom import bloom_contains, build_bloom

    ids = np.array([5, 99, 12345, 2**40], dtype=np.int64)
    bloom = build_bloom(pa.array(ids), bits_log2=16)
    for typ, vals in (
        (pa.int32(), [5, 99, 12345]),
        (pa.uint64(), [5, 99, 12345, 2**40]),
        (pa.int16(), [5, 99, 12345]),
    ):
        probe = pa.array(vals, typ)
        assert bloom_contains(bloom, probe).all(), typ
    # and misses still miss
    assert not bloom_contains(bloom, pa.array([7, 8, 1000], pa.int32())).any()
