"""Text-analysis primitives for large-scale training-data pipelines:
tokenization, quality signals, language-ID, shingles, MinHash, SimHash,
rolling-hash fingerprints.

All deterministic (fixed seeds / fixed hash keys), all designed to be
called per-batch from ``map_batches`` — vectorized or C-speed per row,
never per-row Python in a driver loop.
"""

from __future__ import annotations

import re
import zlib

import numpy as np

TOKEN_RE = re.compile(r"\w+", re.UNICODE)
PUNCT_RE = re.compile(r"[^\w\s]", re.UNICODE)

STOPWORDS = {
    "en": {"the", "a", "and", "of", "to", "in", "is", "it", "that", "for"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "los", "del", "se"},
    "fr": {"le", "la", "de", "et", "les", "des", "un", "une", "du", "que"},
    "de": {"der", "die", "das", "und", "in", "den", "von", "zu", "mit", "ist"},
}

_MERSENNE = np.uint64((1 << 61) - 1)


def tokens(text: str) -> list[str]:
    return TOKEN_RE.findall(text.lower())


# RE2's \s (what DuckDB's regexp functions use): ASCII [\t\n\f\r ] only
# — NOT Python str.split()'s Unicode whitespace. The oracle-compared
# token counts must match RE2 exactly, including edge empty tokens
# (RE2 split of '\ta' yields ['', 'a']) and SQL trim() trimming SPACES
# only. Divergence is invisible on ASCII corpora and silent elsewhere.
_RE2_WS = re.compile(r"[ \t\n\f\r]+")


def whitespace_token_count(text: str) -> int:
    """Token count matching SQL ``CASE WHEN trim(text) = '' THEN 0 ELSE
    length(regexp_split_to_array(trim(text), '\\s+')) END`` exactly —
    RE2 \\s semantics, space-only trim, edge empties counted."""
    t = text.strip(" ")
    if t == "":
        return 0
    return len(_RE2_WS.split(t))


def whitespace_quality(text: str) -> tuple[int, float]:
    """(n_tokens, stopword_ratio) over WHITESPACE tokens of the
    lowercased trimmed text — bit-identical to the DuckDB oracle's
    ``regexp_split_to_array(lower(trim(text)), '\\s+')`` tokenization
    (a token like 'the,' counts as one token and is NOT a stopword on
    either side; RE2 \\s + space-only trim, see ``_RE2_WS``)."""
    t = text.lower().strip(" ")
    if t == "":
        return 0, 0.0
    toks = _RE2_WS.split(t)
    n = len(toks)
    stop = STOPWORDS["en"]
    return n, sum(tk in stop for tk in toks) / n


def quality_signals(text: str) -> dict:
    """Cheap quality-scoring signals: length, token stats, punctuation
    and stopword ratios (the classic pre-training heuristics)."""
    toks = tokens(text)
    n = len(toks)
    n_stop = sum(t in STOPWORDS["en"] for t in toks)
    n_punct = len(PUNCT_RE.findall(text))
    return {
        "n_chars": len(text),
        "n_tokens": n,
        "stop_ratio": (n_stop / n) if n else 0.0,
        "punct_ratio": (n_punct / len(text)) if text else 0.0,
        "mean_token_len": (sum(len(t) for t in toks) / n) if n else 0.0,
    }


def langid(text: str) -> str:
    """N-gram/stopword-heuristic language ID. Deterministic tie-break:
    languages in sorted order, highest stopword hit-rate wins."""
    toks = set(tokens(text))
    best_lang, best_score = "und", 0
    for lang in sorted(STOPWORDS):
        score = len(toks & STOPWORDS[lang])
        if score > best_score:
            best_lang, best_score = lang, score
    return best_lang


_SHINGLE_B = np.uint64(1099511628211)  # FNV-1a prime: poly-hash base


def char_shingle_hashes_batch(texts, k: int = 5):
    """k-shingle hashes for a WHOLE batch of documents in one
    vectorized pass: the batch normalizes through three Arrow kernels
    (lower, whitespace-collapse, right-pad), the utf-8 byte stream of
    ALL docs is viewed zero-copy out of the string array's data
    buffer, and every k-window position gets a polynomial rolling hash
    (k vectorized multiply-adds, natural mod-2^64 wraparound) finished
    with an avalanche mix for MinHash-grade uniformity. Windows that
    would cross a doc boundary are masked out with offset arithmetic.

    Returns ``(hashes, offsets)``: a flat uint64 array (duplicates
    KEPT — a min over permuted hashes is unchanged by multiplicity)
    and int64 offsets such that doc ``i``'s shingles are
    ``hashes[offsets[i]:offsets[i+1]]``. Every doc yields >= 1 shingle
    (short texts are right-padded to ``k``). Shingles are k-BYTE
    windows of the normalized utf-8 (== k chars on ASCII text); the
    whole batch normalizes in three Arrow kernels and the byte stream
    is read zero-copy out of the string array's data buffer."""
    import pyarrow as _pa
    import pyarrow.compute as _pc

    from .hashing import _mix64

    arr = texts if isinstance(texts, (_pa.Array, _pa.ChunkedArray)) else _pa.array(
        texts, _pa.string()
    )
    if isinstance(arr, _pa.ChunkedArray):
        arr = arr.combine_chunks()
    if len(arr) == 0:
        return np.empty(0, dtype=np.uint64), np.zeros(1, dtype=np.int64)
    if not (_pa.types.is_string(arr.type) or _pa.types.is_large_string(arr.type)):
        arr = _pc.cast(arr, _pa.string())
    # nulls hash like empty docs (the pad below gives them one blank
    # shingle) — a null's zero-length offset slot would otherwise make
    # nsh negative and corrupt every later doc's offsets silently
    arr = _pc.fill_null(arr, "")
    arr = _pc.utf8_rpad(
        _pc.utf8_trim_whitespace(
            _pc.replace_substring_regex(_pc.utf8_lower(arr), r"\s+", " ")
        ),
        width=k, padding=" ",
    )
    if isinstance(arr, _pa.ChunkedArray):
        arr = arr.combine_chunks()
    # Arrow string kernels preserve large_string; its offsets are int64
    # (reading them as int32 would interleave garbage words)
    odt = np.int64 if _pa.types.is_large_string(arr.type) else np.int32
    off32 = np.frombuffer(arr.buffers()[1], odt)[
        arr.offset : arr.offset + len(arr) + 1
    ]
    concat = np.frombuffer(arr.buffers()[2], np.uint8)[
        off32[0] : off32[-1]
    ].astype(np.uint64)
    lens = np.diff(off32).astype(np.int64)
    n = len(concat)
    h = np.zeros(n - k + 1, dtype=np.uint64)
    for j in range(k):
        h = h * _SHINGLE_B + concat[j : n - k + 1 + j]
    ends = np.cumsum(lens)
    starts = ends - lens
    # window at global position p belongs to doc i iff p+k <= ends[i]
    nsh = lens - (k - 1)  # >= 1 by the pad
    valid = np.ones(n - k + 1, dtype=bool)
    for i in range(1, len(lens)):  # mask the (k-1)-wide seams
        valid[ends[i - 1] - (k - 1) : starts[i]] = False
    offsets = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(nsh, out=offsets[1:])
    return _mix64(h[valid]), offsets


def char_shingles(text: str, k: int = 5) -> np.ndarray:
    """Distinct k-char shingle hashes (uint64) of one document — the
    single-doc view of ``char_shingle_hashes_batch`` (same hash family,
    so kernel-side Jaccard sets and the banding stage can never
    drift)."""
    flat, _ = char_shingle_hashes_batch([text], k)
    return np.unique(flat)


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    u = len(a | b)
    return len(a & b) / u if u else 0.0


class MinHasher:
    """Seeded universal-hash MinHash: ``num_perm`` permutations via
    multiply-shift ``(a*x) >> 32`` over the 64-bit mixed shingle hashes
    (Dietzfelbinger et al.'s multiply-shift family — odd ``a``, top 32
    bits). Two ops per permuted element and 32-bit minima (half the
    reduce traffic of a 64-bit modular family), which is what makes the
    whole-batch `signature_matrix` memory-lean. Build ONCE (per actor)
    — the ``a`` table is the stateful part."""

    def __init__(self, num_perm: int = 128, seed: int = 42):
        rng = np.random.default_rng(seed)
        self.num_perm = num_perm
        self.a = (
            rng.integers(1, 1 << 63, size=num_perm, dtype=np.uint64)
            << np.uint64(1)
        ) | np.uint64(1)

    def signature(self, shingle_hashes: np.ndarray) -> np.ndarray:
        """Single-doc view of ``signature_matrix`` (same family, values
        agree element-for-element)."""
        if len(shingle_hashes) == 0:
            return np.zeros(self.num_perm, dtype=np.uint32)
        # (P, S) matrix of permuted hashes -> min over shingles
        prod = self.a[:, None] * shingle_hashes[None, :]
        return (prod >> np.uint64(32)).astype(np.uint32).min(axis=1)

    def signature_matrix(self, flat_hashes: np.ndarray,
                         offsets: np.ndarray,
                         shingle_chunk: int = 512) -> np.ndarray:
        """Signatures for a WHOLE batch at once: permute shingles in
        doc-aligned blocks of ~``shingle_chunk`` and take per-doc
        minima with one ``np.minimum.reduceat`` per block — no per-doc
        Python. Blocking runs along the SHINGLE axis (all permutations
        at once) so the (num_perm x chunk) temporaries stay
        cache-resident instead of streaming the whole batch through
        DRAM ``num_perm`` times. ``offsets`` as from
        ``char_shingle_hashes_batch``; every doc must have >= 1
        shingle (the batch kernel guarantees it). Row ``i`` ==
        ``signature(flat_hashes[offsets[i]:offsets[i+1]])``."""
        ndocs = len(offsets) - 1
        out = np.empty((ndocs, self.num_perm), dtype=np.uint32)
        if ndocs == 0:
            return out
        if len(flat_hashes) > 512 * ndocs:
            # long/repetitive docs: one vectorized per-doc dedup
            # (lexsort + neighbor-diff) costs less than permuting the
            # duplicate shingles num_perm times; short docs skip it
            parent = np.repeat(np.arange(ndocs), np.diff(offsets))
            order = np.lexsort((flat_hashes, parent))
            sh, sp = flat_hashes[order], parent[order]
            keep = np.ones(len(sh), dtype=bool)
            keep[1:] = (sh[1:] != sh[:-1]) | (sp[1:] != sp[:-1])
            flat_hashes = sh[keep]
            offsets = np.zeros(ndocs + 1, dtype=np.int64)
            np.cumsum(np.bincount(sp[keep], minlength=ndocs), out=offsets[1:])
        a = self.a[:, None]
        i = 0
        while i < ndocs:
            j = i + 1
            while j < ndocs and offsets[j + 1] - offsets[i] <= shingle_chunk:
                j += 1
            seg = flat_hashes[offsets[i] : offsets[j]]
            prod = a * seg[None, :]  # wraps mod 2^64; top 32 bits kept
            prod >>= np.uint64(32)
            out[i:j] = np.minimum.reduceat(
                prod.astype(np.uint32), offsets[i : j] - offsets[i], axis=1
            ).T
            i = j
        return out

    def bands(self, sig: np.ndarray, num_bands: int = 16) -> list[int]:
        """LSH band hashes (one per band) for bucketing — single-doc
        view of ``band_hash_matrix`` (same fold, values agree)."""
        return self.band_hash_matrix(sig[None, :], num_bands)[0].tolist()

    def band_hash_matrix(self, sigs: np.ndarray, num_bands: int = 16) -> np.ndarray:
        """Band hashes for a (docs x num_perm) signature matrix:
        reshape to (docs, bands, rows) and fold each band's rows with a
        vectorized xor-multiply avalanche (rows passes over the whole
        matrix). Returns (docs, bands) int64, non-negative."""
        from .hashing import _mix64

        rows = self.num_perm // num_bands
        if rows == 0:
            # zero rows/band would fold every doc to hash 0 in every
            # band — all-pairs LSH collisions, silently
            raise ValueError(
                f"num_bands={num_bands} exceeds num_perm={self.num_perm}"
            )
        # truncate a non-dividing signature tail (num_perm % num_bands
        # leftover perms), matching the historical slicing semantics —
        # reshape would raise instead
        cube = sigs[:, : num_bands * rows].reshape(len(sigs), num_bands, rows)
        acc = np.zeros((len(sigs), num_bands), dtype=np.uint64)
        for r in range(rows):
            acc = _mix64(acc ^ cube[:, :, r])
        return (acc >> np.uint64(1)).astype(np.int64)  # non-negative


def simhash64(text: str) -> int:
    """64-bit SimHash over token hashes (unweighted)."""
    acc = np.zeros(64, dtype=np.int64)
    for t in tokens(text):
        h = np.uint64(zlib.crc32(t.encode()) | (zlib.crc32(t[::-1].encode()) << 32))
        bits = (np.uint64(h) >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        acc += np.where(bits.astype(bool), 1, -1)
    out = np.uint64(0)
    for i in range(64):
        if acc[i] > 0:
            out |= np.uint64(1) << np.uint64(i)
    return int(out)


def rolling_fingerprint(text: str, window: int = 64, keep_mod: int = 1 << 6) -> list[int]:
    """Winnowing-style document fingerprint: Rabin-Karp rolling hash
    over bytes, keep hashes ≡ 0 (mod keep_mod) — a compact, shift-
    tolerant signature for containment detection."""
    data = text.encode()
    if len(data) < window:
        return [zlib.crc32(data)]
    base, mod = 257, (1 << 31) - 1
    h = 0
    pw = pow(base, window - 1, mod)
    out = []
    for i, c in enumerate(data):
        h = (h * base + c) % mod
        if i >= window:
            h = (h - data[i - window] * pw * base) % mod
        if i >= window - 1 and h % keep_mod == 0:
            out.append(h)
    return out or [zlib.crc32(data)]
