"""Vectorized bench-scale fixture generator (10^6+ events in seconds).

Same logical shape as datagen.write_fixture (lake seed + epoch-sliced
binlog + oracle snapshot) but fully numpy-vectorized: contents come
from a seeded pool, keys from a bounded pathid space with a skewed
monorepo share. Deterministic in (seed, sizes) — safe to cache across
the N- and 4N-CPU scaling runs so both see identical input and a warm
page cache.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

_POOL_SIZE = 1024


def _write_sharded(df: pd.DataFrame, out_dir: str, rows_per_file: int = 50_000) -> None:
    """Write a directory of parquet shards (min 8, 8192-row row groups)
    so the replay scan has many (file, row group) fragments to deal to
    its read blocks, each block reading only its own share. With fewer
    row groups than blocks the scan splits rows instead, and every
    block holding a share of a row group decodes that whole row group.
    The default block rule (``replay._read_blocks``) gives a small
    one-file epoch exactly 1 block; ``bench.py`` forces
    ``read_parallelism`` instead."""
    os.makedirs(out_dir, exist_ok=True)
    n_files = max(8, (len(df) + rows_per_file - 1) // rows_per_file)
    per = (len(df) + n_files - 1) // n_files
    for i in range(n_files):
        sl = df.iloc[i * per : (i + 1) * per]
        if len(sl) == 0:
            continue
        pq.write_table(
            pa.Table.from_pandas(sl, preserve_index=False),
            os.path.join(out_dir, f"shard-{i:04d}.parquet"),
            row_group_size=8192,
        )


def _content_pool(rng: np.random.Generator, n_chars: int = 300) -> np.ndarray:
    import string

    letters = np.array(list(string.ascii_lowercase + "      "))
    pool = ["".join(rng.choice(letters, size=n_chars)) for _ in range(_POOL_SIZE)]
    return np.array(pool, dtype=object)


def _key_arrays(pathids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (repo, path) per pathid; ~30% of the key space
    lives in one hot monorepo (skew for salted-key splitting) and the
    rest spreads over 128 normal repos — realistic cardinality, so
    hash-partitioning has real fan-out. Fully vectorized (no per-row
    Python) so 10^7-event fixtures generate in seconds."""
    mono = (pathids % 10) < 3
    rid = pathids % 128
    repo = np.where(
        mono,
        "org0/monorepo",
        np.char.add(
            np.char.add("org", (rid % 5 + 1).astype("U1")),
            np.char.add("/repo", rid.astype("U3")),
        ),
    ).astype(object)
    path = np.char.add(
        np.char.add(
            np.char.add("src/pkg", (pathids % 97).astype("U2")),
            np.char.add("/file", pathids.astype("U12")),
        ),
        ".py",
    ).astype(object)
    return repo, path


def write_bench_fixture(
    out_dir: str,
    num_events: int = 1_000_000,
    lake_rows: int = 100_000,
    num_epochs: int = 4,
    seed: int = 42,
    content_chars: int = 300,
) -> dict:
    os.makedirs(f"{out_dir}/binlog", exist_ok=True)
    rng = np.random.default_rng(seed)
    pool = _content_pool(rng, n_chars=content_chars)

    # lake seed: pathids 0..lake_rows-1
    ids = np.arange(lake_rows)
    repo, path = _key_arrays(ids)
    lake = pd.DataFrame(
        {
            "repo": repo,
            "path": path,
            "commit": np.char.add("c", ids.astype("U12")).astype(object),
            "lang": "py",
            "content": pool[ids % _POOL_SIZE],
        }
    )
    _write_sharded(lake, f"{out_dir}/lake_seed.parquet")

    # binlog: uniform pathids over 1.2x the seed key space (some inserts)
    ev_ids = rng.integers(0, int(lake_rows * 1.2), size=num_events)
    ops = rng.choice(np.array(["I", "U", "D"], dtype=object), size=num_events, p=[0.3, 0.6, 0.1])
    erepo, epath = _key_arrays(ev_ids)
    content = pool[(ev_ids * 31 + np.arange(num_events)) % _POOL_SIZE].copy()
    lang = np.full(num_events, "py", dtype=object)
    dmask = ops == "D"
    content[dmask] = None
    lang[dmask] = None
    binlog = pd.DataFrame(
        {
            "seq": np.arange(num_events, dtype=np.int64),
            "op": ops,
            "repo": erepo,
            "path": epath,
            "commit": np.char.add("c", (ev_ids * 7 + np.arange(num_events)).astype("U16")).astype(object),
            "lang": lang,
            "content": content,
        }
    )
    binlog["ts"] = pd.Timestamp("2025-01-01") + pd.to_timedelta(binlog["seq"], unit="ms")

    per = num_events // num_epochs
    epochs = []
    for e in range(num_epochs):
        lo, hi = e * per, (e + 1) * per if e < num_epochs - 1 else num_events
        sl = binlog.iloc[lo:hi]
        f = f"{out_dir}/binlog/epoch={e:05d}"
        _write_sharded(sl, f)
        epochs.append({"epoch": e, "file": f, "seq_range": [lo, hi], "rows": len(sl)})

    # oracle snapshot = pandas LWW replay of the full stream
    last = binlog.drop_duplicates(subset=["repo", "path"], keep="last")
    base = lake.set_index(["repo", "path"])
    touched = last.set_index(["repo", "path"])
    keep = base[~base.index.isin(touched.index)].reset_index()
    winners = touched[touched["op"] != "D"].reset_index()
    cols = ["repo", "path", "commit", "lang", "content"]
    snap = pd.concat([keep[cols], winners[cols]], ignore_index=True)
    _write_sharded(snap, f"{out_dir}/snapshot.parquet")

    manifest = {
        "seed": seed,
        "epochs": epochs,
        "num_events": num_events,
        "lake_rows": lake_rows,
        "final_rows": len(snap),
        "expected_status_counts": {"MATCHED": len(snap)},
        "salt_hot_repos": {"org0/monorepo": 16},
    }
    with open(f"{out_dir}/fixture.json", "w") as fh:
        json.dump(manifest, fh)
    return manifest


# ---------------------------------------------------------------------------
# documents-path stress fixture: a corpus with PLANTED dup structure whose
# invariants (exact-unique count, span-drop counts, near-dup pairs) are
# closed-form in n — so exactness of the dedup family is assertable at
# 100x the per-round bench scale, the same way the events stress asserts
# reconcile exactness. Every text is a pure function of its doc_id
# (splitmix64-derived word indices), so generation is deterministic under
# ANY batching/parallelism and the fixture is safe to cache.

_DOC_VOCAB_SIZE = 4096
_SPAN_WIDTH = 20  # must match span_dedup's default width
_BOILER_IDX = np.arange(7, 7 + _SPAN_WIDTH) * 13 % _DOC_VOCAB_SIZE  # fixed 20-word boilerplate


def _doc_vocab() -> np.ndarray:
    """Deterministic pseudo-word vocabulary. A 3-char base-26 index
    suffix makes every word UNIQUE by construction — the forced
    last-word substitution in near-dup pairs relies on distinct word
    indices meaning distinct strings."""
    rng = np.random.default_rng(20260818)
    letters = "abcdefghijklmnopqrstuvwxyz"
    larr = np.array(list(letters))
    lens = rng.integers(3, 6, size=_DOC_VOCAB_SIZE)
    words = []
    for i in range(_DOC_VOCAB_SIZE):
        stem = "".join(rng.choice(larr, size=int(lens[i])))
        code = letters[i // 676] + letters[i // 26 % 26] + letters[i % 26]
        words.append(stem + code)
    return np.array(words, dtype=object)


def docs_plan(n_docs: int) -> dict:
    """Planted-range layout for an n-doc corpus. Disjoint id ranges:
    [0,hot): one text repeated hot times (degenerate-skew probe for the
    exact-dedup groupby and the LSH bucket cap); [hot,+exact): exact-dup
    pairs; [+near): near-dup pairs (~2.5% word substitutions + a forced
    last-word change so members are NEVER byte-equal); [+span): docs
    opening with a fixed 20-word boilerplate span (cross-doc repeated
    span, aligned to span_dedup's stride); the rest unique."""
    hot = max(2, n_docs // 100)
    exact = max(2, n_docs // 25) // 2 * 2
    near = max(2, n_docs // 25) // 2 * 2
    span = max(1, n_docs // 50)
    if hot + exact + near + span >= n_docs:
        raise ValueError(f"n_docs={n_docs} too small for the planted plan")
    return {
        "n_docs": n_docs, "hot": hot, "exact": exact, "near": near,
        "span": span, "width": _SPAN_WIDTH,
        # hot collapses to 1 distinct text; each exact pair loses 1
        "expected_unique": n_docs - (hot - 1) - exact // 2,
    }


def _docs_batch(ids: np.ndarray, plan: dict, vocab: np.ndarray) -> pa.Table:
    """Synthesize the batch's documents — fully vectorized, content a
    pure function of doc_id (batch-layout independent)."""
    from .functions.hashing import _mix64

    h, e, m = plan["hot"], plan["exact"], plan["near"]
    he, hem = h + e, h + e + m
    hems = hem + plan["span"]
    ids = np.asarray(ids, dtype=np.int64)

    # content-id: which id's base text this doc carries
    cid = ids.copy()
    cid[ids < h] = 0
    in_e = (ids >= h) & (ids < he)
    cid[in_e] = h + (ids[in_e] - h) // 2 * 2
    in_m = (ids >= he) & (ids < hem)
    cid[in_m] = he + (ids[in_m] - he) // 2 * 2
    mutate = in_m & ((ids - he) % 2 == 1)
    spanned = (ids >= hem) & (ids < hems)

    cid_u = cid.astype(np.uint64)
    # word counts are MULTIPLES of the span width: a partial tail
    # window (1-4 words) would collide across docs at vocab-size rates,
    # breaking the closed-form span invariants (full 20-word windows
    # collide with probability ~4096^-20 — never)
    n_words = (120 + (_mix64(cid_u * np.uint64(0xA24BAED4963EE407)) % np.uint64(7))
               * np.uint64(_SPAN_WIDTH)).astype(np.int64)
    parent = np.repeat(np.arange(len(ids), dtype=np.int64), n_words)
    ends = np.cumsum(n_words)
    jpos = np.arange(int(ends[-1]) if len(ends) else 0, dtype=np.int64) - np.repeat(ends - n_words, n_words)

    ju = jpos.astype(np.uint64)
    widx = _mix64(cid_u[parent] * np.uint64(0x9E3779B97F4A7C15) + ju + np.uint64(1)) % np.uint64(_DOC_VOCAB_SIZE)

    # near-dup odd members: ~1/40 positional substitutions + forced last word
    mrow = mutate[parent]
    if mrow.any():
        idu = ids.astype(np.uint64)
        roll = _mix64(idu[parent] * np.uint64(0xC2B2AE3D27D4EB4F) + ju)
        mut = mrow & ((roll % np.uint64(40) == 0) | (jpos == n_words[parent] - 1))
        widx[mut] = (widx[mut] + np.uint64(1) + roll[mut] % np.uint64(_DOC_VOCAB_SIZE - 1)) % np.uint64(
            _DOC_VOCAB_SIZE)

    # span docs: words 0..width-1 are the fixed boilerplate sequence
    srow = spanned[parent] & (jpos < plan["width"])
    if srow.any():
        widx[srow] = _BOILER_IDX.astype(np.uint64)[jpos[srow]]

    import pyarrow.compute as pc

    flat = pa.array(vocab[widx.astype(np.int64)], pa.string())
    off = np.zeros(len(ids) + 1, dtype=np.int32)
    np.cumsum(n_words, out=off[1:])
    texts = pc.binary_join(pa.ListArray.from_arrays(pa.array(off), flat), " ")
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "source": pa.array(np.char.add("s", (ids % 8).astype("U1")), pa.string()),
        "text": texts,
    })


def boiler_text() -> str:
    """The planted boilerplate span as a string (for containment asserts)."""
    return " ".join(_doc_vocab()[_BOILER_IDX])


def write_docs_fixture(out_dir: str, n_docs: int) -> dict:
    """Distributed fixture write: ray.data.range -> vectorized synth ->
    sharded parquet (generation itself is a 100 TB-shaped pipeline —
    nothing corpus-sized touches the driver)."""
    import ray.data as rd

    plan = docs_plan(n_docs)
    vocab = _doc_vocab()

    def gen(batch: pa.Table) -> pa.Table:
        return _docs_batch(batch["id"].to_numpy(), plan, vocab)

    import shutil

    tmp = out_dir + ".tmp"
    for d in (tmp, out_dir):
        if os.path.exists(d):
            shutil.rmtree(d)
    # parquet lives in data/ so the manifest never sits in the scan dir
    (rd.range(n_docs, override_num_blocks=max(32, n_docs // 50_000))
       .map_batches(gen, batch_format="pyarrow")
       .write_parquet(os.path.join(tmp, "data")))
    with open(os.path.join(tmp, "fixture.json"), "w") as fh:
        json.dump(plan, fh)  # written LAST: marks the dir complete
    os.replace(tmp, out_dir)
    return plan


def ensure_docs_fixture(cache_root: str, n_docs: int) -> tuple[str, dict]:
    """Create-or-reuse the cached docs corpus for this size. Returns
    ``(parquet_data_dir, plan)``."""
    d = os.path.join(cache_root, f"docs_n{n_docs}_g2")  # g = generator version
    marker = os.path.join(d, "fixture.json")
    if os.path.exists(marker):
        with open(marker) as fh:
            return os.path.join(d, "data"), json.load(fh)
    plan = write_docs_fixture(d, n_docs)
    return os.path.join(d, "data"), plan


# ---- planted-vector corpus for the SemDeDup stress stage ------------
# Closed-form invariants through stages/similarity.semantic_dedup: the
# planted cluster directions ARE the quantizer's train sample (k ==
# clusters: Lloyd converges immediately and deterministically), every
# odd id < 2*n_fam is an EXACT x2-scaled copy of its even partner
# (cosine exactly 1 — the x2 scale is lossless in fp — and identical
# cluster assignment by construction), and per-id noise is splitmix64
# (independent across ids; sinusoidal pseudo-noise is NOT usable here —
# its Dirichlet-kernel resonances produce near-parallel id pairs). A
# non-clone pair reaching the 0.999 threshold needs noise cosine >
# 0.997: P ~ exp(-dim/2) per pair, negligible at any n. Every vector is
# a pure function of vec_id (batch-layout independent, safe under any
# parallelism).

_VEC_DIM = 64
_VEC_CLUSTERS = 256
_VEC_THRESHOLD = 0.999


def vec_plan(n_vec: int) -> dict:
    """Planted layout: ids [0, 2*n_fam) are clone PAIRS (2t, 2t+1);
    the rest are hash-noise singletons. Closed form: exactly n_fam rows
    prune, each clone's rep is its even partner."""
    n_fam = n_vec // 20  # 5% of the corpus is clone pairs
    if 2 * n_fam >= n_vec:
        raise ValueError(f"n_vec={n_vec} too small for the planted plan")
    return {
        "n_vec": n_vec, "n_fam": n_fam, "dim": _VEC_DIM,
        "clusters": _VEC_CLUSTERS, "threshold": _VEC_THRESHOLD,
        "expected_kept": n_vec - n_fam,
    }


def vec_dirs() -> np.ndarray:
    """The planted cluster directions — also the k-means train sample."""
    dirs = np.random.default_rng(123).standard_normal((_VEC_CLUSTERS, _VEC_DIM))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _vec_noise(u: np.ndarray) -> np.ndarray:
    """Deterministic unit noise per id: splitmix64 of (id, col)."""
    from .functions.hashing import _mix64

    x = (u[:, None].astype(np.uint64) << np.uint64(32)) | np.arange(
        _VEC_DIM, dtype=np.uint64
    )[None, :]
    m = _mix64(x + np.uint64(0x9E3779B97F4A7C15)).astype(np.float64)
    m = m / 2.0**63 - 1.0  # uniform [-1, 1)
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def vecs_batch(ids: np.ndarray, plan: dict, dirs: np.ndarray) -> pa.Table:
    """Synthesize the batch's embedding rows — fully vectorized,
    content a pure function of vec_id."""
    ids = np.asarray(ids, dtype=np.int64)
    odd_fam = (ids < 2 * plan["n_fam"]) & (ids % 2 == 1)
    u = np.where(odd_fam, ids - 1, ids)  # clone source id
    v = dirs[u % plan["clusters"]] + 0.8 * _vec_noise(u)
    v *= np.where(odd_fam, 2.0, 1.0)[:, None]  # cos(clone, src) == 1
    return pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(v.ravel(), pa.float64()), plan["dim"]
        ),
    })


def ensure_bench_fixture(
    cache_root: str,
    num_events: int,
    lake_rows: int,
    seed: int = 42,
    num_epochs: int = 4,
    content_chars: int = 300,
) -> str:
    """Create-or-reuse the cached fixture dir for these parameters."""
    d = os.path.join(cache_root, f"fix_e{num_events}_l{lake_rows}_s{seed}_c{content_chars}_p{num_epochs}")
    marker = os.path.join(d, "fixture.json")
    if os.path.exists(marker):
        return d
    write_bench_fixture(d, num_events=num_events, lake_rows=lake_rows, seed=seed,
                        num_epochs=num_epochs, content_chars=content_chars)
    return d
