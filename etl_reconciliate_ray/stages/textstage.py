"""Text-analysis map_batches stages over a documents table:
token counting, quality scoring, language-ID, sha256 fingerprint,
rolling-hash fingerprints.

Stateful pieces (compiled regexes, stopword tables) live in actor
``__init__`` — built once per actor, applied per batch (the Ray Data
actor-pool pattern; the reference has no analogous stages, these are
the training-data-pipeline extensions the graft adds as first-class
operators).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..functions import text as T
from ..functions.hashing import sha256_hex_array


def _whitespace_explode(batch: pa.Table, text_col: str):
    """THE corpus tokenization — lowercase whitespace split with empty
    tokens dropped (matches every text oracle's
    ``regexp_split_to_array(lower(text), '\\s+') ... term <> ''``).
    One definition shared by term_stats / postings / BM25 / bigram
    stages so their tokenizations can never drift apart. Returns
    ``(tokens, parent_row_indices)`` — a StringArray and the int
    ndarray mapping each token back to its batch row."""
    import numpy as np
    import pyarrow.compute as pc

    col = batch[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if len(col) == 0 or pa.types.is_null(col.type):
        # an all-null block arrives as a null-typed column (same guard
        # as _span_explode); utf8_lower would raise on it
        return pa.array([], pa.string()), np.empty(0, dtype=np.int64)
    lists = pc.split_pattern_regex(pc.utf8_lower(col), r"\s+")
    flat = pc.list_flatten(lists)
    parent = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False)
    keep = pc.not_equal(flat, "")
    return pc.filter(flat, keep), parent[keep.to_numpy(zero_copy_only=False)]


class TokenStats:
    """doc_id, n_tokens (whitespace tokens), n_chars. NULL text emits
    NULL stats (SQL ``length(NULL)`` semantics) instead of crashing."""

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        txt = batch["text"]
        out = pd.DataFrame({"doc_id": batch["doc_id"]})
        if txt.notna().all():
            out["n_tokens"] = txt.map(T.whitespace_token_count).astype("int64")
            out["n_chars"] = txt.str.len().astype("int64")
        else:
            out["n_tokens"] = pd.array(
                [T.whitespace_token_count(s) if isinstance(s, str) else None
                 for s in txt], dtype="Int64")
            out["n_chars"] = pd.array(
                [len(s) if isinstance(s, str) else None for s in txt],
                dtype="Int64")
        return out


class QualityScore:
    """Pre-training quality heuristics: stopword/punct ratios etc.

    ``n_tokens``/``stop_ratio`` use WHITESPACE tokens of the lowercased
    trimmed text — the exact tokenization of the DuckDB oracle
    (``regexp_split_to_array(lower(trim(text)), '\\s+')``), so the
    correctness cell holds on punctuation-bearing text too ('the,' is
    one whitespace token on both sides). punct/mean-token-len signals
    keep the regex tokenization (not oracle-compared)."""

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        txt = batch["text"]
        out = pd.DataFrame({"doc_id": batch["doc_id"]})
        if txt.notna().all():
            sig = txt.map(T.quality_signals)
            ws = txt.map(T.whitespace_quality)
            out["n_tokens"] = ws.map(lambda s: s[0]).astype("int64")
            out["stop_ratio"] = ws.map(lambda s: s[1])
            for k in ("punct_ratio", "mean_token_len"):
                out[k] = sig.map(lambda s, k=k: s[k])
        else:
            # NULL text -> NULL signals (SQL semantics), never a crash
            ws = [T.whitespace_quality(s) if isinstance(s, str) else None
                  for s in txt]
            sig = [T.quality_signals(s) if isinstance(s, str) else None
                   for s in txt]
            out["n_tokens"] = pd.array(
                [w[0] if w else None for w in ws], dtype="Int64")
            out["stop_ratio"] = [w[1] if w else None for w in ws]
            for k in ("punct_ratio", "mean_token_len"):
                out[k] = [s[k] if s else None for s in sig]
        return out


class LangId:
    """Stopword-hit-rate language ID (deterministic tie-break; state
    lives in functions.text.STOPWORDS — nothing per-actor to build).
    NULL text -> 'und' (the oracle's CASE falls to its ELSE)."""

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": batch["doc_id"],
            "pred_lang": batch["text"].map(
                lambda s: T.langid(s) if isinstance(s, str) else "und"
            ),
        })


def sha256_stage(batch: pa.Table) -> pa.Table:
    """doc_id, content_sha256 — F6 hashing over driver documents."""
    return pa.table(
        {"doc_id": batch["doc_id"], "content_sha256": sha256_hex_array(batch["text"])}
    )


class RollingFingerprint:
    """Winnowing-style fingerprints; emits one row per (doc, hash)."""

    def __init__(self, window: int = 64):
        self.window = window

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        ids, hashes = [], []
        for did, txt in zip(batch["doc_id"], batch["text"]):
            if not isinstance(txt, str):
                continue  # NULL text has no fingerprints
            for h in T.rolling_fingerprint(txt, window=self.window):
                ids.append(did)
                hashes.append(h)
        return pd.DataFrame({"doc_id": ids, "fingerprint": pd.array(hashes, dtype="int64")})


def word_repetition_stats(batch: pa.Table) -> pa.Table:
    """Gopher-style per-document repetition signals over literal-space
    word tokens: total word count, distinct word count, and the count
    of the most frequent word. High duplicate-word fraction
    (1 - distinct/total) or top-word share flags boilerplate /
    degenerate documents in a pre-training corpus (Rae et al. 2021,
    "Scaling Language Models" §A1.1 repetition filters).

    Tokenization is a LITERAL single-space split (matching SQL
    ``string_split(text, ' ')`` including empty tokens) so the DuckDB
    oracle compares exactly. Fully vectorized: Arrow ``split_pattern``
    → ``list_flatten`` + ``list_parent_indices`` gather, then two
    pyarrow hash aggregations. Each document is one row, so the whole
    computation is per-batch — map-only, zero shuffle at any scale.
    """
    import pyarrow.compute as pc

    col = batch["text"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if len(col) == 0 or pa.types.is_null(col.type):
        # all-null block: null-typed column (same guard as _span_explode)
        return pa.table({
            "doc_id": batch["doc_id"].slice(0, 0),
            "n_words": pa.array([], pa.int64()),
            "n_distinct_words": pa.array([], pa.int64()),
            "top_word_count": pa.array([], pa.int64()),
        })
    lists = pc.split_pattern(col, " ")
    flat = pc.list_flatten(lists)
    parent = pc.list_parent_indices(lists)
    ids = pc.take(batch["doc_id"], parent)
    pairs = pa.table({"doc_id": ids, "w": flat})
    wc = pairs.group_by(["doc_id", "w"], use_threads=False).aggregate([("w", "count")])
    per = (
        pa.table({"doc_id": wc["doc_id"], "c": wc["w_count"]})
        .group_by(["doc_id"], use_threads=False)
        .aggregate([("c", "sum"), ("c", "count"), ("c", "max")])
    )
    return pa.table(
        {
            "doc_id": per["doc_id"],
            "n_words": per["c_sum"],
            "n_distinct_words": pc.cast(per["c_count"], pa.int64()),
            "top_word_count": pc.cast(per["c_max"], pa.int64()),
        }
    )


def collect_ngram_set(bench_ds, n: int = 4, text_col: str = "text") -> frozenset:
    """Distinct word n-grams of a BENCHMARK dataset, collected to the
    driver for broadcast. Benchmark/eval sets are small by definition
    (decontamination compares a huge train corpus against a bounded
    test set), so the distinct-gram set is driver-safe; the distinct
    is still computed distributed (per-batch set + Dataset.unique) so
    only deduplicated grams ever reach the driver. At 100 TB-corpus /
    large-benchmark scale, store 64-bit gram hashes instead of strings
    and front the set with a Bloom filter (functions/bloom.py) — same
    broadcast contract."""
    def grams(batch: pd.DataFrame) -> pd.DataFrame:
        out: set[str] = set()
        for txt in batch[text_col]:
            if txt is None or (isinstance(txt, float) and txt != txt):
                continue  # NULL text has no grams (SQL string_split(NULL))
            ws = txt.split(" ")
            for i in range(len(ws) - n + 1):
                out.add(" ".join(ws[i : i + n]))
        return pd.DataFrame({"gram": sorted(out)})

    return frozenset(bench_ds.map_batches(grams, batch_format="pandas").unique("gram"))


class DecontamCount:
    """Benchmark-decontamination stage: per corpus document, the number
    of distinct word ``n``-grams shared with a broadcast benchmark
    gram set (docs with hits > 0 are contaminated and should be
    dropped before training). The set is shipped ONCE per actor via
    ``ray.put`` + ``__init__`` ``ray.get`` (zero-copy from the local
    object store), never per batch."""

    def __init__(self, gram_ref, n: int = 4):
        import ray

        self.grams = ray.get(gram_ref) if not isinstance(gram_ref, frozenset) else gram_ref
        self.n = n

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        n = self.n
        hits = []
        for txt in batch["text"]:
            if txt is None or (isinstance(txt, float) and txt != txt):
                hits.append(0)  # NULL text: no grams, zero hits (SQL oracle)
                continue
            ws = txt.split(" ")
            gs = {" ".join(ws[i : i + n]) for i in range(len(ws) - n + 1)}
            hits.append(len(gs & self.grams))
        return pd.DataFrame(
            {"doc_id": batch["doc_id"], "n_contam_grams": pd.array(hits, dtype="int64")}
        )


def _span_explode(texts: pa.Array | pa.ChunkedArray, width: int):
    """Non-overlapping ``width``-word segments of each NON-NULL row,
    Arrow-vectorized (the span contract splits on single spaces with
    empty tokens kept — ``str.split(" ")`` parity, matching the DuckDB
    ``string_split(text, ' ')`` oracle): split once, regroup the flat
    word array into width-sized windows via offset arithmetic, and
    rebuild segment strings with ONE ``pc.binary_join`` — no per-row
    Python. Returns ``(segments StringArray, parent row indices,
    within-row segment ordinals)``. Rows must be non-null (filter
    upstream); every row yields >= 1 segment ('' -> [''])."""
    import numpy as np
    import pyarrow.compute as pc

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if len(texts) == 0 or pa.types.is_null(texts.type):
        # an all-null block arrives as a null-typed column; after the
        # caller's drop-null/is-valid filter that is always empty
        empty = np.empty(0, dtype=np.int64)
        return pa.array([], pa.string()), empty, empty
    lists = pc.split_pattern(texts, " ")
    flat = pc.list_flatten(lists)
    off = np.asarray(lists.offsets)
    n = np.diff(off)  # words per row (>= 1: split of '' is [''])
    nseg = -(-n // width)
    parent = np.repeat(np.arange(len(n), dtype=np.int64), nseg)
    total = int(nseg.sum())
    ordv = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(nseg) - nseg, nseg
    )
    starts = off[:-1][parent] + width * ordv
    seg_off = np.append(starts, off[-1] if len(off) else 0)
    seg_list = pa.ListArray.from_arrays(pa.array(seg_off, pa.int32()), flat)
    return pc.binary_join(seg_list, " "), parent, ordv


def _dup_span_ds(ds, width: int, text_col: str):
    """Dataset of span sha256 hexes occurring in >1 DISTINCT document:
    per-doc-distinct span hashes emitted map-side (a doc is one row, so
    each (hash, doc) pair exists at most once globally and the count
    per hash == distinct-doc count), then ONE hash shuffle. Only the
    duplicated tail survives the filter — it never leaves the cluster
    here (callers choose broadcast vs sharded probing)."""
    import pyarrow.compute as pc

    from .agg import preagg_groupby

    def spans(batch: pa.Table) -> pa.Table:
        texts = pc.drop_null(batch[text_col])
        segs, parent, _ = _span_explode(texts, width)
        t = pa.table({"h": sha256_hex_array(segs),
                      "p": pa.array(parent, pa.int64())})
        red = t.group_by(["h", "p"], use_threads=False).aggregate([])
        return pa.table({"h": red["h"]})

    counts = preagg_groupby(
        ds.map_batches(spans, batch_format="pyarrow"), keys=["h"], count_alias="n"
    )
    return counts.map_batches(
        lambda t: t.filter(pa.compute.greater(t["n"], 1)).select(["h"]),
        batch_format="pyarrow",
    )


def _sorted_member(sorted_keys, probe):
    """Vectorized membership of ``probe`` in a SORTED key array
    (np.searchsorted + one gather) — the broadcast probe's kernel."""
    import numpy as np

    if len(sorted_keys) == 0:
        return np.zeros(len(probe), dtype=bool)
    idx = np.minimum(np.searchsorted(sorted_keys, probe), len(sorted_keys) - 1)
    return sorted_keys[idx] == probe


def _rebuild_from_drops(docs: pa.Table, drop_parent, drop_ord, width: int,
                        text_col: str, doc_id_col: str,
                        exploded=None) -> pa.Table:
    """Shared output assembly for both probe paths: explode the given
    non-null-text doc rows (or reuse a caller's already-computed
    ``exploded`` = (segs, parent, ordv) — the broadcast probe computed
    it for hashing and must not pay the split twice), mask the
    (parent, ordinal) pairs listed in ``drop_parent``/``drop_ord``, and
    rejoin kept segments in order with one ``pc.binary_join``
    (all-dropped docs come back as '', matching the oracle's
    COALESCE('') leg)."""
    import numpy as np
    import pyarrow.compute as pc

    segs, parent, ordv = (
        exploded if exploded is not None
        else _span_explode(docs[text_col], width)
    )
    nrows = docs.num_rows
    n_spans = np.bincount(parent, minlength=nrows).astype(np.int64)
    if len(drop_parent):
        m = int(ordv.max()) + 1 if len(ordv) else 1
        drop = np.isin(parent * m + ordv,
                       np.asarray(drop_parent) * m + np.asarray(drop_ord))
    else:
        drop = np.zeros(len(parent), dtype=bool)
    n_dropped = np.bincount(parent[drop], minlength=nrows).astype(np.int64)
    kept = segs.filter(pa.array(~drop))
    kcounts = np.bincount(parent[~drop], minlength=nrows)
    koff = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(kcounts, out=koff[1:])
    texts = pc.binary_join(
        pa.ListArray.from_arrays(pa.array(koff, pa.int32()), kept), " "
    )
    return pa.table({
        doc_id_col: docs[doc_id_col],
        text_col: texts,
        "n_spans": pa.array(n_spans, pa.int64()),
        "n_dropped": pa.array(n_dropped, pa.int64()),
    })


# per-worker-process probe cache for the broadcast span-dedup path
# (see span_dedup): keyed on the broadcast ObjectRef, capped tiny
_SPAN_PROBES: dict[tuple, "SpanDedup"] = {}


class SpanDedup:
    """Repeated-span removal (the paragraph-dedup step of public
    training-data pipelines — e.g. Dolma's duplicate-paragraph filter
    generalized to fixed word windows): drop every ``width``-word span
    whose exact content occurs in more than one document, keep the
    rest in order. BROADCAST probe: the dup-hash set ships ONCE per
    worker process via ``ray.put`` + ``__init__`` (task pool with a
    per-process cache — see ``span_dedup``) as a sorted fixed-width
    bytes array (16 B/key heap vs ~120 B/key as a str set) and
    membership is one vectorized searchsorted per batch — no per-row
    Python."""

    def __init__(self, dup_ref, width: int = 20,
                 text_col: str = "text", doc_id_col: str = "doc_id"):
        import numpy as np
        import ray

        dups = ray.get(dup_ref) if not isinstance(dup_ref, frozenset) else dup_ref
        self.dup_sorted = (
            np.sort(np.asarray(list(dups), dtype="S64"))
            if dups else np.empty(0, dtype="S64")
        )
        self.width = width
        self.text_col = text_col
        self.doc_id_col = doc_id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc

        # NULL texts yield no output row (string_split(NULL) semantics)
        docs = batch.filter(pc.is_valid(batch[self.text_col]))
        segs, parent, ordv = _span_explode(docs[self.text_col], self.width)
        hb = sha256_hex_array(segs).to_numpy(zero_copy_only=False).astype("S64")
        drop = _sorted_member(self.dup_sorted, hb)
        return _rebuild_from_drops(
            docs, parent[drop], ordv[drop], self.width,
            self.text_col, self.doc_id_col,
            exploded=(segs, parent, ordv),  # computed above: don't re-split
        )


def _span_dedup_sharded(ds, dup_ds, width: int, text_col: str,
                        doc_id_col: str, num_buckets: int,
                        bloom_bits_log2: int):
    """SHARDED probe — nothing data-scale ever lands on one node:

    1. a FIXED-SIZE Bloom filter over the dup-span hashes is built
       distributively (one bitmap per block map-side, OR-reduced on the
       driver: O(blocks x 2^bits/8) bytes, independent of dup-tail
       size) and broadcast once;
    2. one corpus scan emits candidate (hash, doc, ordinal) rows for
       Bloom hits only — false positives pass, misses (the bulk of the
       corpus) never enter the shuffle;
    3. a partitioned exact semi-join against the dup-hash Dataset
       (hash_semi_join — Bloom FPs die here) yields the true drop set;
    4. a bucket-tag cogroup on hash(doc_id) joins drops back to the
       corpus and reassembles texts per bucket.

    Costs vs broadcast: one extra full-corpus shuffle (step 4) and a
    candidate-sized exchange (step 3); buys an O(1)-driver, O(1)-actor
    memory profile however large the dup tail grows."""
    import numpy as np
    import pyarrow.compute as pc
    import ray

    from ..functions.bloom import bloom_contains, build_bloom
    from ..functions.hashing import hash64
    from .joins import hash_semi_join

    def part_bloom(t: pa.Table) -> pa.Table:
        b = build_bloom(t["h"], bits_log2=bloom_bits_log2)
        return pa.table(
            {"bits": pa.array([b["bits"].tobytes()], pa.large_binary())}
        )

    parts = dup_ds.map_batches(part_bloom, batch_format="pyarrow").to_pandas()
    bits = np.zeros((1 << bloom_bits_log2) // 64, dtype=np.uint64)
    for raw in parts["bits"]:
        bits |= np.frombuffer(raw, dtype=np.uint64)
    bloom_ref = ray.put({"bits": bits, "bits_log2": bloom_bits_log2, "k": 7})

    def emit_candidates(batch: pa.Table) -> pa.Table:
        # plain task (not an actor pool): ray.get of the Bloom dict is
        # a zero-copy plasma read of the bitmap, and task pools keep
        # the downstream lazy union deadlock-free at small CPU budgets
        bloom = ray.get(bloom_ref)
        docs = batch.filter(pc.is_valid(batch[text_col]))
        segs, parent, ordv = _span_explode(docs[text_col], width)
        h = sha256_hex_array(segs)
        m = bloom_contains(bloom, h)
        sel = pa.array(m)
        return pa.table({
            "h": h.filter(sel),
            doc_id_col: docs[doc_id_col].take(pa.array(parent[m])),
            "__ord": pa.array(ordv[m], pa.int64()),
        })

    cand = ds.map_batches(emit_candidates, batch_format="pyarrow")
    drops = hash_semi_join(cand, dup_ds, on="h", num_buckets=num_buckets)

    def tag(side: str):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            if side == "d":
                text = pc.cast(t[text_col], pa.string())
                ordc = pa.nulls(n, pa.int64())
            else:
                text = pa.nulls(n, pa.string())
                ordc = t["__ord"]
            b = (hash64(t[doc_id_col]) % np.uint64(num_buckets)).astype(np.int64)
            return pa.table({
                doc_id_col: t[doc_id_col], "__text": text, "__ord": ordc,
                "__side": pa.array([side] * n, pa.string()),
                "__b": pa.array(b, pa.int64()),
            })
        return fn

    tagged = ds.map_batches(tag("d"), batch_format="pyarrow").union(
        drops.map_batches(tag("r"), batch_format="pyarrow")
    )

    def rebuild(g: pa.Table) -> pa.Table:
        side = g["__side"]
        docs = g.filter(pc.equal(side, "d"))
        docs = docs.filter(pc.is_valid(docs["__text"]))
        dr = g.filter(pc.equal(side, "r"))
        docs = pa.table({doc_id_col: docs[doc_id_col],
                         text_col: docs["__text"]})
        if docs.num_rows == 0:
            return pa.table({
                doc_id_col: pa.chunked_array([], g.schema.field(doc_id_col).type),
                text_col: pa.array([], pa.string()),
                "n_spans": pa.array([], pa.int64()),
                "n_dropped": pa.array([], pa.int64()),
            })
        # map drop doc_ids to the group-local doc row index (each doc
        # is exactly one row and all its rows share this bucket)
        ids_idx = pd.Index(docs[doc_id_col].to_pandas())
        drop_parent = ids_idx.get_indexer(dr[doc_id_col].to_pandas())
        drop_ord = dr["__ord"].to_numpy(zero_copy_only=False)
        keep = drop_parent >= 0  # drops for null-text docs have no row
        return _rebuild_from_drops(
            docs, drop_parent[keep], drop_ord[keep], width,
            text_col, doc_id_col,
        )

    return tagged.groupby("__b").map_groups(rebuild, batch_format="pyarrow")


def span_dedup(ds, width: int = 20, text_col: str = "text",
               doc_id_col: str = "doc_id", probe: str = "auto",
               broadcast_budget: int = 2_000_000, num_buckets: int = 32,
               bloom_bits_log2: int = 23):
    """Two-pass cross-document repeated-span removal over a corpus
    Dataset: distributed dup-span discovery (one hash shuffle), then a
    probe pass that removes duplicated spans. Exact up to sha256
    collision — the same integrity assumption as the engine's content
    digests.

    ``probe`` picks the scale shape:
    - ``"broadcast"``: collect the dup tail to a sorted bytes array,
      ``ray.put`` once, vectorized searchsorted per batch. Right when
      the dup tail fits one actor's heap (16 B/key).
    - ``"sharded"``: Bloom front + partitioned exact semi-join + one
      corpus cogroup (``_span_dedup_sharded``) — nothing data-scale on
      the driver or in any single actor, for boilerplate-heavy corpora
      whose dup tail outgrows a broadcast object.
    - ``"auto"``: materialize the (dup-tail-sized) hash Dataset, count
      it, and broadcast iff count <= ``broadcast_budget``.
    Both probes produce byte-identical output (tested)."""
    import ray

    dup = _dup_span_ds(ds, width, text_col)
    if probe not in ("auto", "broadcast", "sharded"):
        raise ValueError(f"unknown probe mode: {probe!r}")
    if probe != "broadcast":
        dup = dup.materialize()  # O(dup tail), consumed 1-2x below
    if probe == "sharded" or (probe == "auto"
                              and dup.count() > broadcast_budget):
        return _span_dedup_sharded(
            ds, dup, width, text_col, doc_id_col, num_buckets,
            bloom_bits_log2,
        )
    dup_ref = ray.put(frozenset(dup.to_pandas()["h"]))
    # task pool, not an actor pool: the probe state is one ray.get of a
    # plasma-shared object + one sort, cached per worker process (keyed
    # on the broadcast ref, small LRU), so tasks pay it once per worker
    # — same amortization as an actor pool without the spin-up latency
    # or the fixed concurrency cap
    key = (dup_ref.hex(), width, text_col, doc_id_col)

    def probe(batch):
        st = _SPAN_PROBES.get(key)
        if st is None:
            if len(_SPAN_PROBES) >= 4:  # stale refs from earlier runs
                _SPAN_PROBES.clear()
            st = _SPAN_PROBES.setdefault(
                key, SpanDedup(dup_ref, width, text_col, doc_id_col)
            )
        return st(batch)

    return ds.map_batches(probe, batch_format="pyarrow")


def bigram_counts(ds, top_n: int = 20, text_col: str = "text", doc_id_col: str = "doc_id"):
    """Corpus bigram collocations: the ``top_n`` most frequent adjacent
    lowercase word pairs — the counting backbone of collocation / PMI
    phrase mining over a training corpus.

    Vectorized: the Arrow explode from ``doc_term_counts``'s family is
    reused at the PAIR level — per batch, adjacent (w_i, w_{i+1}) pairs
    within each doc are joined into one ``a\\x20b`` string via offset
    arithmetic (no per-row Python), counted by pyarrow hash aggregation
    (combiner), then one small (bigram) shuffle + a driver-safe global
    top-n (``top_n`` rows, not corpus-sized)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def explode_pairs(t: pa.Table) -> pa.Table:
        flat, parent = _whitespace_explode(t, text_col)
        n = len(flat)
        if n < 2:
            return pa.table({"bigram": pa.array([], pa.string()),
                             "c": pa.array([], pa.int64())})
        # adjacent pairs within the same doc: rows i, i+1 with equal parent
        same = parent[1:] == parent[:-1]
        a = flat.slice(0, n - 1).filter(pa.array(same))
        b = flat.slice(1).filter(pa.array(same))
        pairs = pc.binary_join_element_wise(a, b, " ")
        red = pa.table({"bigram": pairs}).group_by(
            ["bigram"], use_threads=False
        ).aggregate([("bigram", "count")])
        return pa.table({"bigram": red["bigram"],
                         "c": pc.cast(red["bigram_count"], pa.int64())})

    counts = (
        ds.map_batches(explode_pairs, batch_format="pyarrow")
        .groupby("bigram")
        .aggregate(Sum(on="c", alias_name="n"))
    )
    # global top-n: deterministic (n desc, bigram asc); top_n rows only
    return counts.sort(["n", "bigram"], descending=[True, False]).limit(top_n)


def make_chunker(width: int = 120, stride: int = 100):
    """Fixed-width overlapping document chunking — the pre-tokenization
    windowing step of a training pipeline (long doc → model-context
    pieces with ``width - stride`` chars of overlap). Emits one row per
    chunk: (doc_id, chunk_start [1-based, SQL substr convention],
    chunk_text). Map-only — each doc is one input row, so chunking
    never shuffles and output size is O(L/stride) per doc; NULL text
    yields no chunks (SQL UNNEST-over-NULL semantics)."""
    if stride <= 0 or width <= 0:
        raise ValueError("width and stride must be positive")

    def chunk(batch: pd.DataFrame) -> pd.DataFrame:
        ids, starts, texts = [], [], []
        for did, txt in zip(batch["doc_id"], batch["text"]):
            if txt is None or (isinstance(txt, float) and txt != txt):
                continue
            for s in range(0, len(txt), stride):
                ids.append(did)
                starts.append(s + 1)
                texts.append(txt[s : s + width])
        return pd.DataFrame({
            "doc_id": ids,
            "chunk_start": pd.array(starts, dtype="int64"),
            "chunk_text": texts,
        })

    return chunk


def term_stats(ds, text_col: str = "text", doc_id_col: str = "doc_id"):
    """Corpus vocabulary statistics: per lowercase whitespace term, the
    total occurrence count (tf) and distinct-document count (df) — the
    building block for vocab construction / IDF weighting / stopword
    discovery over a training corpus.

    Fully vectorized explode: Arrow ``utf8_lower`` →
    ``split_pattern_regex`` → ``list_flatten`` with a parallel
    ``list_parent_indices`` gather of doc ids, then a single
    empty-term filter — no per-row Python, and no trim step (engine
    and SQL trim() disagree on unicode whitespace, so edge whitespace
    is handled by dropping the empty tokens the split produces, which
    both sides define identically). Each batch is collapsed to
    distinct (term, doc) partial
    counts (pyarrow hash aggregation) before the single (term, doc)
    shuffle, so exchange volume is O(distinct pairs); the final per-term
    rollup is a tiny second groupby of partials.
    """
    from ray.data.aggregate import Count, Sum

    pairs = (
        doc_term_counts(ds, text_col=text_col, doc_id_col=doc_id_col)
        .groupby(["term", "doc_id"])
        .aggregate(Sum(on="c", alias_name="c"))
    )
    return pairs.groupby("term").aggregate(
        Sum(on="c", alias_name="tf"), Count(alias_name="df")
    )


def doc_term_counts(ds, text_col: str = "text", doc_id_col: str = "doc_id"):
    """Per-document term counts ``(term, doc_id, c)`` — the exploded
    building block shared by ``term_stats`` (corpus tf/df) and per-doc
    term selection (``queries.q_top_terms_per_doc``). Same vectorized
    Arrow explode + per-batch pyarrow hash aggregation; each document
    is ONE input row, so per-batch counts are already per-doc-complete
    (map-only — downstream consumers may still re-aggregate for
    associativity)."""
    import pyarrow.compute as pc

    def explode(t: pa.Table) -> pa.Table:
        # empty tokens from edge whitespace are dropped inside the
        # shared explode (both here and in the SQL oracle) instead of
        # trimming, which Arrow and SQL define differently
        flat, parent = _whitespace_explode(t, text_col)
        pairs = pa.table(
            {"term": flat, "doc_id": pc.take(t[doc_id_col], pa.array(parent))}
        )
        red = pairs.group_by(["term", "doc_id"], use_threads=False).aggregate(
            [("term", "count")]
        )
        return pa.table({
            "term": red["term"], "doc_id": red["doc_id"], "c": red["term_count"]
        })

    return ds.map_batches(explode, batch_format="pyarrow")


def make_redactor(rules: list[tuple[str, str]] | None = None, text_col: str = "text"):
    """PII-style regex scrubber: apply ``rules`` = [(pattern,
    replacement), ...] in order to ``text_col``, emitting the redacted
    text plus the total hit count (audit trail for a compliance
    pipeline). Map-only and fully vectorized: Arrow's
    ``replace_substring_regex`` / ``count_substring_regex`` run RE2
    over the column buffers — the same regex engine DuckDB uses, so
    the oracle comparison is engine-exact. Keep patterns RE2-safe (no
    backrefs/lookarounds) so the operator stays portable.

    Generalizes the reference's field-normalization mappers (M1-M4,
    `AsMonitoringPaymentsDAOImpl.java:34-51` trim/format cleanup) to
    arbitrary rule chains."""
    import pyarrow.compute as pc

    rules = rules if rules is not None else [
        (r"[0-9]+(\.[0-9]+)?", "<NUM>"),
        (r"<NUM>(-<NUM>)+", "<ID>"),
    ]

    def fn(t: pa.Table) -> pa.Table:
        red = t[text_col]
        hits = None
        for pat, rep in rules:
            c = pc.count_substring_regex(red, pat)
            hits = c if hits is None else pc.add(hits, c)
            red = pc.replace_substring_regex(red, pattern=pat, replacement=rep)
        out = t.drop_columns([text_col])
        out = out.append_column("redacted", red)
        return out.append_column("n_hits", pc.cast(hits, pa.int64()))

    return fn


def compression_ratio(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """zlib compression ratio per document (permille, integer) — the
    classic redundancy/quality signal (boilerplate and repeated spans
    compress far better than natural prose; C4/Gopher-style filters cut
    on it). Per-row zlib calls dominate the cost exactly like sha256
    does in the hashing stage — the Python loop is a thin dispatcher
    around C. Deterministic for a fixed zlib level, but not
    SQL-expressible: rows-only check + property tests."""
    import zlib

    ids = batch["doc_id"]
    ratios = [
        (len(zlib.compress(b, 6)) * 1000) // max(1, len(b))
        if b is not None else None
        for b in (
            t.encode("utf-8") if t is not None else None
            for t in batch[text_col].to_pylist()
        )
    ]
    return pa.table({
        "doc_id": ids,
        "zlib_permille": pa.array(ratios, pa.int64()),
    })


def bm25_topk(
    ds,
    query_terms: list[str],
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
    text_col: str = "text",
    doc_id_col: str = "doc_id",
):
    """BM25 ranked retrieval (Robertson & Zaragoza 2009): top-k
    documents for a bag of query terms, scored

        sum_t idf(t) * tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl)),
        idf(t) = ln((N - df + 0.5)/(df + 0.5) + 1)

    over lowercase whitespace tokens (the corpus-wide tokenization
    every text query here shares). Two passes, both scale-safe:

    1. corpus stats — map-only per-doc token counts reduced to the two
       scalars (N, avgdl); at 100 TB these are computed once and
       cached, exactly like an IR system's index-time stats.
    2. candidates — the explode is filtered to ``query_terms`` BEFORE
       anything leaves the batch, so only the postings working set
       (doc_id, term, tf, dl) survives: O(matching postings), never
       O(corpus tokens). df per term is a ≤|Q|-row aggregate of that
       set; scoring joins the tiny idf table broadcast-style inside
       ``map_groups`` per doc.

    Scores are emitted as ``score_e4`` integers (round(score*1e4)) and
    the ranking orders on the ROUNDED score — float-sum associativity
    can differ between engines by an ulp, so ranking on the integer
    makes the (score_e4 DESC, doc_id ASC) order engine-exact against
    the SQL oracle. The candidate set is materialized once (it is the
    small side); the corpus is never collected.
    """
    import numpy as np
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Mean

    qset = pa.array(sorted(set(t.lower() for t in query_terms)), pa.string())

    def doc_len(t: pa.Table) -> pa.Table:
        # null-text docs are outside the corpus (N and avgdl both skip
        # them — the SQL oracle's WHERE text IS NOT NULL does the same)
        t = t.filter(pc.is_valid(t[text_col]))
        _, parent = _whitespace_explode(t, text_col)
        dl = np.bincount(parent, minlength=t.num_rows)
        return pa.table({"dl": pa.array(dl, pa.int64())})

    stats = ds.map_batches(doc_len, batch_format="pyarrow").aggregate(
        Count(alias_name="n_docs"), Mean(on="dl", alias_name="avgdl")
    )
    if not stats or not stats.get("n_docs") or stats.get("avgdl") is None:
        # empty (or all-null-text) corpus: no docs to rank; the empty
        # result stays lazy and takes doc_id's type from the corpus
        return ds.map_batches(lambda t: pa.table({
            doc_id_col: t[doc_id_col].slice(0, 0),
            "score_e4": pa.array([], pa.int64()),
        }), batch_format="pyarrow")
    n_docs, avgdl = float(stats["n_docs"]), float(stats["avgdl"])

    def candidates(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[text_col]))
        flat, parent = _whitespace_explode(t, text_col)
        dl = np.bincount(parent, minlength=t.num_rows)
        hit = pc.is_in(flat, value_set=qset)
        hit_np = hit.to_numpy(zero_copy_only=False)
        # group on the batch-local row ordinal so doc_id and dl can
        # both be gathered positionally afterwards — no per-row dict
        pairs = pa.table({
            "term": pc.filter(flat, hit),
            "row": pa.array(parent[hit_np], pa.int64()),
        })
        red = pairs.group_by(["term", "row"], use_threads=False).aggregate(
            [("term", "count")]
        )
        row = red["row"].to_numpy(zero_copy_only=False)
        return pa.table({
            "term": red["term"],
            "doc_id": pc.take(t[doc_id_col], red["row"]),
            "tf": pc.cast(red["term_count"], pa.int64()),
            "dl": pa.array(dl[row], pa.int64()),
        })

    cand = ds.map_batches(candidates, batch_format="pyarrow").materialize()
    df_rows = cand.groupby("term").aggregate(Count(alias_name="df")).take_all()
    idf = {
        r["term"]: float(np.log((n_docs - r["df"] + 0.5) / (r["df"] + 0.5) + 1.0))
        for r in df_rows
    }

    def score_doc(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("term", kind="stable")
        tf = g["tf"].to_numpy(dtype=np.float64)
        dl = float(g["dl"].iloc[0])
        w = np.array([idf[t] for t in g["term"]])
        s = float(
            (w * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))).sum()
        )
        return pd.DataFrame({
            # keep the id value as-is: doc_id_col may be non-integer
            "doc_id": [g["doc_id"].iloc[0]],
            "score_e4": [int(round(s * 10000))],
        })

    return (
        cand.groupby("doc_id")
        .map_groups(score_doc, batch_format="pandas")
        .sort(["score_e4", "doc_id"], descending=[True, False])
        .limit(k)
    )


# ------------------------------------------------------- trigram LM scoring
_TRI_M = 0x110001  # > max unicode codepoint: a trigram id fits int64 (M^3 < 2^63)


def _trigram_ids(texts, np):
    """Vectorized char-trigram ids for a batch of documents: ONE
    utf-32 decode of the joined batch, one fused multiply-add over the
    codepoint array, seam windows masked by POSITION (not separator
    value, so a genuine separator char inside a text cannot corrupt
    the stream). Returns (ids, doc_of) for every in-document trigram."""
    lens = np.array([len(s) for s in texts], dtype=np.int64)
    joined = " ".join(texts)
    cps = np.frombuffer(joined.encode("utf-32-le"), "<u4").astype(np.int64)
    if len(cps) < 3:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    ids = cps[:-2] * (_TRI_M * _TRI_M) + cps[1:-1] * _TRI_M + cps[2:]
    # doc i occupies [start_i, start_i + len_i); +1 per separator
    starts = np.concatenate(([0], np.cumsum(lens + 1)[:-1]))
    ends = starts + lens
    pos = np.arange(len(cps) - 2, dtype=np.int64)
    doc_of = np.minimum(np.searchsorted(ends, pos, side="right"), len(ends) - 1)
    # window fully inside its doc: starts-at-separator windows (pos ==
    # starts[doc]-1) and end-crossing windows are both excluded
    valid = (pos >= starts[doc_of]) & (pos + 2 < ends[doc_of])
    return ids[valid], doc_of[valid]


class TrigramCounts:
    """Per-batch partial char-trigram counts (tri, n) — the count pass
    of the CCNet/KenLM-style n-gram LM quality scorer."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        texts = [s for s in batch[self.text_col].to_pylist() if s and len(s) >= 3]
        if not texts:
            return pa.table({"tri": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        ids, _ = _trigram_ids(texts, np)
        tri, n = np.unique(ids, return_counts=True)
        return pa.table({"tri": pa.array(tri), "n": pa.array(n.astype(np.int64))})


class TrigramLMScore:
    """Score pass: mean negative log-likelihood per document under the
    corpus char-trigram LM with add-1 smoothing over a 256-char
    third-position alphabet: p(c3|c1c2) = (c3_count+1)/(c2_count+256).
    The broadcast model (sorted trigram ids + counts + derived prefix
    counts) is fetched and derived ONCE per worker process (cached
    construction via ``functions.broadcast.fetch``, task-pool wiring
    below); every scored trigram was seen by the count pass (same
    corpus), so lookups always hit."""

    def __init__(self, model, text_col: str = "text", doc_id_col: str = "doc_id"):
        import numpy as np

        tri, n = model
        self.tri, self.n = tri, n
        pref = tri // _TRI_M
        cuts = np.concatenate(([0], np.flatnonzero(np.diff(pref)) + 1))
        self.pref = pref[cuts]
        self.pref_n = np.add.reduceat(n, cuts)
        self.text_col, self.doc_id_col = text_col, doc_id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        rows = batch[self.text_col].to_pylist()
        id_col = batch[self.doc_id_col]
        if isinstance(id_col, pa.ChunkedArray):
            id_col = id_col.combine_chunks()
        keep = [i for i, s in enumerate(rows) if s and len(s) >= 3]
        if not keep:
            # id dtype preserved (doc_id_col may be non-integer)
            return pa.table({"doc_id": id_col.slice(0, 0),
                             "nll_e4": pa.array([], pa.int64())})
        texts = [rows[i] for i in keep]
        ids, doc_of = _trigram_ids(texts, np)
        c3 = self.n[np.searchsorted(self.tri, ids)]
        c2 = self.pref_n[np.searchsorted(self.pref, ids // _TRI_M)]
        logp = np.log((c3 + 1.0) / (c2 + 256.0))
        sums = np.bincount(doc_of, weights=-logp, minlength=len(texts))
        cnts = np.bincount(doc_of, minlength=len(texts))
        nll = sums / np.maximum(cnts, 1)
        return pa.table({
            "doc_id": id_col.take(pa.array(keep, pa.int64())),
            "nll_e4": pa.array(np.round(nll * 1e4).astype(np.int64)),
        })


def trigram_lm_scores(ds, text_col: str = "text", doc_id_col: str = "doc_id"):
    """CCNet-style n-gram LM quality scoring, oracle-backed: two passes
    over the corpus — (1) distributed partial trigram counts reduced
    through one tiny groupby (the distinct-trigram table is bounded by
    the alphabet cubed, ~1e5-1e6 rows for real text, broadcast once via
    ``ray.put``), then (2) a map-only score pass emitting each
    document's e4-rounded mean negative log-likelihood. High nll =
    improbable character sequences (boilerplate, encoding garbage,
    non-language) — the classic perplexity filter for pretraining
    corpora, here with the LM trained on the corpus itself."""
    import numpy as np

    import ray

    from ..stages.agg import preagg_groupby

    counts = preagg_groupby(
        ds.map_batches(TrigramCounts(text_col), batch_format="pyarrow"),
        keys=["tri"], sums={"n": "n"},
    ).take_all()  # bounded: the alphabet's trigrams, not corpus rows
    tri = np.array([r["tri"] for r in counts], dtype=np.int64)
    order = np.argsort(tri)
    n = np.array([r["n"] for r in counts], dtype=np.float64)[order]
    model_ref = ray.put((tri[order], n))

    # task pool over the shared per-worker-process broadcast cache: the
    # scorer's setup (one ray.get + prefix-count reduceat) runs once per
    # process, not once per batch, and the stage scales to every core
    # instead of a fixed actor cap; (text_col, doc_id_col) ride the
    # cache key so differently-parameterized scorers never alias
    from functools import partial

    from ..functions.broadcast import fetch as _fetch

    def score(batch, _ref=model_ref, _t=text_col, _d=doc_id_col):
        st = _fetch(
            _ref,
            build=partial(TrigramLMScore, text_col=_t, doc_id_col=_d),
            key=("trigram_lm", _t, _d),
        )
        return st(batch)

    return ds.map_batches(score, batch_format="pyarrow")
