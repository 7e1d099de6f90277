"""Edge-case regressions for the batch kernels and durable-state
plumbing fixed in round 4's self-review: null / large_string inputs to
the shingle kernel, non-dividing MinHash band widths, snapshot-cadence
durability across CommitLog reopens (follow mode), --serve argv
stripping, and per-row codec fallbacks on corrupt media payloads.
No Ray session needed — these are pure kernel / state tests."""

import numpy as np
import pyarrow as pa
import pytest

from etl_reconciliate_ray.functions.text import MinHasher, char_shingle_hashes_batch


def _doc_slices(h, off):
    return [h[off[i]:off[i + 1]].tolist() for i in range(len(off) - 1)]


def test_shingle_batch_null_hashes_like_empty():
    """A null text must shingle exactly like an empty doc (one blank
    padded shingle) and must NOT shift later docs' offset windows —
    the pre-fix kernel read a null's zero-length offset slot as a
    negative shingle count and silently corrupted every later doc."""
    with_null = pa.array(["hello world", None, "abc"], pa.string())
    with_empty = pa.array(["hello world", "", "abc"], pa.string())
    h_n, off_n = char_shingle_hashes_batch(with_null, k=5)
    h_e, off_e = char_shingle_hashes_batch(with_empty, k=5)
    np.testing.assert_array_equal(off_n, off_e)
    np.testing.assert_array_equal(h_n, h_e)
    # offsets are monotone and each doc yields >= 1 shingle
    assert (np.diff(off_n) >= 1).all() and off_n[-1] == len(h_n)
    # the doc AFTER the null still matches its solo hashing
    solo, _ = char_shingle_hashes_batch(["abc"], k=5)
    assert _doc_slices(h_n, off_n)[2] == solo.tolist()


def test_shingle_batch_large_string_offsets():
    """large_string input (Arrow kernels preserve it; offsets are
    int64) must hash identically to string input — the pre-fix kernel
    read int64 offsets as int32 pairs, interleaving garbage."""
    texts = ["hello world", "the quick brown fox", "", "abc def"]
    h32, off32 = char_shingle_hashes_batch(pa.array(texts, pa.string()), k=5)
    h64, off64 = char_shingle_hashes_batch(pa.array(texts, pa.large_string()), k=5)
    np.testing.assert_array_equal(off32, off64)
    np.testing.assert_array_equal(h32, h64)


def test_band_hash_ignores_non_dividing_tail():
    """num_perm % num_bands != 0: the trailing permutations fall off
    the band cube (historical slicing semantics) instead of a reshape
    ValueError, and the tail columns provably don't affect the hash."""
    m = MinHasher(num_perm=100)
    rng = np.random.default_rng(7)
    sigs = rng.integers(0, 1 << 32, size=(5, 100), dtype=np.uint64).astype(np.uint32)
    bh = m.band_hash_matrix(sigs, num_bands=16)
    assert bh.shape == (5, 16)
    scrambled = sigs.copy()
    scrambled[:, 96:] += 1  # touch ONLY the non-dividing tail
    np.testing.assert_array_equal(bh, m.band_hash_matrix(scrambled, num_bands=16))


def test_band_hash_rejects_more_bands_than_perms():
    """num_bands > num_perm must raise, not fold every doc to band
    hash 0 (which would make ALL docs collide in ALL LSH bands)."""
    m = MinHasher(num_perm=16)
    sigs = np.zeros((2, 16), dtype=np.uint32)
    with pytest.raises(ValueError, match="num_bands"):
        m.band_hash_matrix(sigs, num_bands=32)


def _codec_backend(name):
    """'minipng' always runs (the in-repo pure-Python codec); 'pil'
    runs wherever PIL is installed and skips elsewhere."""
    if name == "pil":
        return pytest.importorskip("PIL.Image")
    from etl_reconciliate_ray.functions import minipng

    return minipng


@pytest.mark.parametrize("backend", ["minipng", "pil"])
def test_media_strict_mode_raises_on_corrupt_payload(backend):
    """deterministic_fake=False means 'never emit synthetic output':
    a corrupt image under a real codec must raise, not silently mix
    hash-seeded pseudo-features among real ones."""
    _codec_backend(backend)

    from etl_reconciliate_ray.stages.multimodal import MediaFeatures, MediaResize

    t = pa.table({
        "media_id": pa.array([1], pa.int64()),
        "media_type": pa.array(["image"]),
        "payload": pa.array([b"corrupt"], pa.large_binary()),
    })
    with pytest.raises(Exception):
        MediaFeatures(deterministic_fake=False, codec=backend)(t)
    with pytest.raises(Exception):
        MediaResize(width=4, height=3, deterministic_fake=False, codec=backend)(t)


def test_commitlog_snapshot_cadence_survives_reopen(tmp_path):
    """seals_since_snapshot counts EPOCH_COMMIT records in the tail
    file, durably: follow mode reopens the log every poll, so an
    in-process counter would reset each poll and a slow
    1-epoch-per-poll stream would never hit the snapshot cadence."""
    from etl_reconciliate_ray.state.commitlog import CommitLog, PartEntry

    root = str(tmp_path / "lake")
    log = CommitLog.open(root)
    for ep in (1, 2, 3):
        log.commit_part(PartEntry(epoch=ep, part=0, kind="delta",
                                  files=(f"{root}/e{ep}.parquet",),
                                  rows=1, state_sha256="x"))
        log.seal_epoch(ep)
    assert log.seals_since_snapshot == 3
    # the cadence signal must survive a reopen (one open per poll)
    log2 = CommitLog.open(root)
    assert log2.seals_since_snapshot == 3
    log2.write_snapshot()
    assert log2.seals_since_snapshot == 0
    log2.commit_part(PartEntry(epoch=4, part=0, kind="delta",
                               files=(f"{root}/e4.parquet",),
                               rows=1, state_sha256="x"))
    log2.seal_epoch(4)
    log3 = CommitLog.open(root)
    assert log3.seals_since_snapshot == 1
    # snapshotting never loses state: the sealed set is intact
    assert log3.latest_sealed_epoch() == 4


def test_strip_serve_both_spellings():
    """The triggered job's argv is this CLI run minus the serve-mode
    flags (--serve AND --every), in BOTH spellings — '--flag VALUE'
    (two tokens) and '--flag=VALUE' (one token); everything else
    passes through. A rerun that kept --every would fail the
    '--every needs --serve' validation."""
    from etl_reconciliate_ray.run import _strip_serve

    base = ["--fixture", "/x", "--lake", "/y", "--num-buckets", "8"]
    assert _strip_serve(base + ["--serve", "8080"]) == base
    assert _strip_serve(["--serve=8080"] + base) == base
    assert _strip_serve(["--serve", "0", "--serve=1"] + base) == base
    assert _strip_serve(base + ["--serve", "8080", "--every", "60"]) == base
    assert _strip_serve(["--every=0.5", "--serve=1"] + base) == base
    assert _strip_serve(base) == base


def test_chain_resolution_widens_past_int32_offsets(monkeypatch):
    """sf1-stress regression: a hot bucket whose chain carries more
    string bytes than int32 offsets can address must resolve through
    int64 (large_) offsets instead of 'offset overflow while
    concatenating arrays' in the winner gather — and narrow back so
    the resolved schema is identical to the small-chain path. Tested
    by shrinking the budget, not by allocating 2 GiB."""
    from etl_reconciliate_ray.stages import merge as M

    base = pa.table({
        "repo": pa.array(["r1", "r1", "r2"]),
        "path": pa.array(["a", "b", "c"]),
        "content": pa.array(["old-a" * 10, "old-b" * 10, "old-c" * 10]),
        "seq": pa.array([1, 2, 3], pa.int64()),
    })
    delta = pa.table({
        "repo": pa.array(["r1", "r2"]),
        "path": pa.array(["a", "d"]),
        "content": pa.array(["new-a" * 10, "new-d" * 10]),
        "seq": pa.array([10, 11], pa.int64()),
        "op": pa.array(["U", "I"]),
    })
    expect = M.resolve_chain_tables([(0, base), (1, delta)])
    monkeypatch.setattr(M, "_INT32_OFFSET_BUDGET", 16)  # force the widen path
    got = M.resolve_chain_tables([(0, base), (1, delta)])
    # content stayed over the (tiny) budget, so it is large_string; the
    # VALUES are identical either way
    assert pa.types.is_large_string(got.schema.field("content").type)
    assert got.cast(expect.schema).sort_by("path").equals(expect.sort_by("path"))
    # a narrow budget that the WINNERS fit under narrows back to string
    # between the winners' content bytes (~228) and the full chain's
    # (~282): the chain widens for the gather, the result narrows back
    monkeypatch.setattr(M, "_INT32_OFFSET_BUDGET", 240)
    got2 = M.resolve_chain_tables([(0, base), (1, delta)])
    assert got2.schema.equals(expect.schema)
    assert got2.sort_by("path").equals(expect.sort_by("path"))
    # lww_reduce (classic-mode resolution) takes the same guarded path
    monkeypatch.setattr(M, "_INT32_OFFSET_BUDGET", 16)
    red = M.lww_reduce(pa.concat_tables([base, base]))
    assert red.num_rows == 3 and pa.types.is_large_string(
        red.schema.field("content").type)


def test_narrow_offsets_leaves_input_large_types_alone():
    """_narrow_offsets only narrows columns _widen_big_offsets widened:
    a column that was large_binary ON INPUT (e.g. a media payload)
    keeps its type even when small."""
    from etl_reconciliate_ray.stages.merge import (
        _narrow_offsets,
        _widen_big_offsets,
    )

    t = pa.table({
        "payload": pa.array([b"xy"], pa.large_binary()),
        "content": pa.array(["hello world, a long-ish string"]),
    })
    w, widened = _widen_big_offsets(t, budget=4)
    assert widened == ["content"]
    back = _narrow_offsets(w, widened, budget=1 << 30)
    assert pa.types.is_large_binary(back.schema.field("payload").type)
    assert pa.types.is_string(back.schema.field("content").type)


@pytest.mark.parametrize("backend", ["minipng", "pil"])
def test_media_corrupt_payload_falls_back_per_row(backend):
    """With a REAL codec resolved, one corrupt image in a batch must
    degrade to the deterministic fake for THAT ROW only, never kill
    the actor task."""
    import io

    Image = _codec_backend(backend)

    from etl_reconciliate_ray.stages.multimodal import MediaFeatures, MediaResize

    buf = io.BytesIO()
    Image.new("RGB", (8, 6), (10, 20, 30)).save(buf, format="PNG")
    t = pa.table({
        "media_id": pa.array([1, 2], pa.int64()),
        "media_type": pa.array(["image", "image"]),
        "payload": pa.array([buf.getvalue(), b"corrupt"], pa.large_binary()),
    })
    out = MediaFeatures(codec=backend)(t)
    feats = out["feature"].to_pylist()
    assert len(feats) == 2 and all(len(f) == 16 for f in feats)
    # the good row is a real decode (normalized grayscale in [0,1])
    assert all(0.0 <= v <= 1.0 for v in feats[0])
    r = MediaResize(width=4, height=3, codec=backend)(t)
    good = Image.open(io.BytesIO(r["payload"].to_pylist()[0]))
    assert good.size == (4, 3)
    assert len(r["payload"].to_pylist()[1]) > 0  # fake bytes, not a crash


def test_trigram_kernel_seam_masking():
    """No trigram may cross a document seam, leak the separator, or
    mis-attribute its doc — including the starts-at-separator window."""
    import numpy as np

    from etl_reconciliate_ray.stages.textstage import _TRI_M, _trigram_ids

    def decode(i):
        return "".join(chr(c) for c in (i // (_TRI_M * _TRI_M),
                                        (i // _TRI_M) % _TRI_M, i % _TRI_M))

    ids, doc_of = _trigram_ids(["abcd", "xyz"], np)
    got = sorted(zip(doc_of.tolist(), [decode(i) for i in ids]))
    assert got == [(0, "abc"), (0, "bcd"), (1, "xyz")]

    # short docs produce nothing; separator windows are fully masked
    ids, doc_of = _trigram_ids(["ab", "cd", "ef"], np)
    assert len(ids) == 0

    # genuine spaces INSIDE a doc are real trigrams, not seams
    ids, doc_of = _trigram_ids(["a bc"], np)
    assert sorted(decode(i) for i in ids) == [" bc", "a b"]


def test_minipng_roundtrip_and_filters():
    """The pure-Python PNG fallback: encode->decode round-trips RGB and
    L exactly; a hand-filtered stream (Sub/Up/Average/Paeth scanlines,
    the filters real encoders emit) reconstructs the reference image;
    palette/interlace/garbage refuse loudly."""
    import io
    import struct
    import zlib

    from etl_reconciliate_ray.functions import minipng

    rng = np.random.default_rng(3)
    rgb = rng.integers(0, 256, (6, 8, 3), dtype=np.uint8)
    buf = io.BytesIO()
    minipng.MiniImage(rgb, "RGB").save(buf, format="PNG")
    back = minipng.open(io.BytesIO(buf.getvalue()))
    assert back.mode == "RGB" and np.array_equal(np.asarray(back), rgb)

    gray = rng.integers(0, 256, (5, 7), dtype=np.uint8)
    buf = io.BytesIO()
    minipng.MiniImage(gray, "L").save(buf, format="PNG")
    assert np.array_equal(np.asarray(minipng.open(io.BytesIO(buf.getvalue()))), gray)

    # hand-filter a known grayscale image with every non-zero filter
    img = rng.integers(0, 256, (4, 5), dtype=np.uint8).astype(np.int32)
    rows = []
    prev = np.zeros(5, np.int32)
    for y, ftype in enumerate([1, 2, 3, 4]):  # Sub, Up, Average, Paeth
        cur = img[y]
        if ftype == 1:
            f = [cur[i] - (cur[i - 1] if i else 0) for i in range(5)]
        elif ftype == 2:
            f = list(cur - prev)
        elif ftype == 3:
            f = [cur[i] - (((cur[i - 1] if i else 0) + prev[i]) >> 1)
                 for i in range(5)]
        else:
            f = []
            for i in range(5):
                a = int(cur[i - 1]) if i else 0
                b = int(prev[i])
                c = int(prev[i - 1]) if i else 0
                p = a + b - c
                pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb_ and pa_ <= pc_) else (b if pb_ <= pc_ else c)
                f.append(int(cur[i]) - pred)
        rows.append(bytes([ftype]) + bytes((v & 0xFF) for v in f))
        prev = cur
    body = zlib.compress(b"".join(rows))
    ihdr = struct.pack(">IIBBBBB", 5, 4, 8, 0, 0, 0, 0)
    blob = [b"\x89PNG\r\n\x1a\n"]
    for tag, data in ((b"IHDR", ihdr), (b"IDAT", body), (b"IEND", b"")):
        blob.append(struct.pack(">I", len(data)) + tag + data)
        blob.append(struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF))
    dec = minipng.open(io.BytesIO(b"".join(blob)))
    assert np.array_equal(np.asarray(dec), img.astype(np.uint8))

    # refusals: garbage, palette color type, Adam7 interlace
    with pytest.raises(ValueError):
        minipng.open(io.BytesIO(b"nope"))
    for ct, il in ((3, 0), (0, 1)):
        bad_ihdr = struct.pack(">IIBBBBB", 2, 2, 8, ct, 0, 0, il)
        bad = [b"\x89PNG\r\n\x1a\n"]
        for tag, data in ((b"IHDR", bad_ihdr),
                          (b"IDAT", zlib.compress(b"\0\0\0\0\0\0")),
                          (b"IEND", b"")):
            bad.append(struct.pack(">I", len(data)) + tag + data)
            bad.append(struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF))
        with pytest.raises(ValueError):
            minipng.open(io.BytesIO(b"".join(bad)))

    # resize: nearest-neighbor integer downscale picks block centers
    big = np.arange(64, dtype=np.uint8).reshape(8, 8)
    small = np.asarray(minipng.MiniImage(big, "L").resize((4, 4)))
    assert small.shape == (4, 4)
    assert np.array_equal(small, big[np.ix_([0, 2, 4, 6], [0, 2, 4, 6])] + 9)


def test_whitespace_tokenization_matches_duckdb_on_exotic_whitespace():
    """The oracle-compared token count must equal DuckDB's
    CASE WHEN trim(text)='' THEN 0 ELSE length(regexp_split_to_array(
    trim(text), '\\s+')) END on EVERY input — RE2 \\s is ASCII-only
    (a NBSP is not whitespace), trim() strips spaces only, and edge
    empty tokens are counted. str.split() got all three wrong."""
    import duckdb

    from etl_reconciliate_ray.functions.text import (
        whitespace_quality, whitespace_token_count,
    )

    cases = [
        "a b c", " padded ", "", "   ", "a b", "\ta b", "a b\t",
        "a b c", "\va", "x", "a  b", "\t\t", "the quick the",
    ]
    con = duckdb.connect()
    for s in cases:
        want = con.execute(
            "SELECT CASE WHEN trim(?) = '' THEN 0 ELSE "
            "length(regexp_split_to_array(trim(?), '\\s+')) END", [s, s]
        ).fetchone()[0]
        assert whitespace_token_count(s) == want, repr(s)
        # quality's n_tokens leg uses the same kernel over lower(trim())
        wantq = con.execute(
            "SELECT CASE WHEN trim(?) = '' THEN 0 ELSE "
            "length(regexp_split_to_array(lower(trim(?)), '\\s+')) END", [s, s]
        ).fetchone()[0]
        assert whitespace_quality(s)[0] == wantq, repr(s)


def test_text_stages_tolerate_null_text():
    """One NULL text row must not kill a stage: TokenStats/QualityScore
    emit NULL stats (SQL length(NULL) semantics), LangId answers 'und'
    (the oracle CASE's ELSE), RollingFingerprint emits no rows."""
    import pandas as pd

    from etl_reconciliate_ray.stages.textstage import (
        LangId, QualityScore, RollingFingerprint, TokenStats,
    )

    batch = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["the cat sat", None, ""],
    })
    ts = TokenStats()(batch)
    assert ts["n_tokens"].tolist()[0] == 3 and pd.isna(ts["n_tokens"][1])
    assert ts["n_tokens"].tolist()[2] == 0
    qs = QualityScore()(batch)
    assert qs["n_tokens"][0] == 3 and pd.isna(qs["stop_ratio"][1])
    li = LangId()(batch)
    assert li["pred_lang"].tolist() == ["en", "und", "und"]
    fp = RollingFingerprint()(batch)
    assert set(fp["doc_id"]) <= {1, 3}  # null doc contributes nothing


def test_explode_kernels_tolerate_null_typed_text_column(ray_session):
    """An all-null block arrives as a NULL-TYPED column; the shared
    explode kernels must return empty instead of crashing utf8_lower /
    split_pattern (the guard _span_explode always had)."""
    import pyarrow as pa

    from etl_reconciliate_ray.stages.textstage import (
        _whitespace_explode, word_repetition_stats,
    )

    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.nulls(2)})
    flat, parent = _whitespace_explode(t, "text")
    assert len(flat) == 0 and len(parent) == 0
    out = word_repetition_stats(t)
    assert out.num_rows == 0
    assert out.column_names == [
        "doc_id", "n_words", "n_distinct_words", "top_word_count"
    ]


def test_bm25_empty_and_allnull_corpus(ray_session):
    """BM25 over an empty (or all-null-text) corpus returns an empty
    ranked result instead of TypeError on float(None) avgdl."""
    import pyarrow as pa
    import ray.data as rd

    from etl_reconciliate_ray.stages.textstage import bm25_topk

    empty = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
    }))
    assert bm25_topk(empty, ["merge"], k=3).count() == 0
    allnull = rd.from_arrow(pa.table({
        "doc_id": pa.array([7, 8], pa.int64()),
        "text": pa.array([None, None], pa.string()),
    }))
    assert bm25_topk(allnull, ["merge"], k=3).count() == 0


def test_packing_refuses_nulls_and_negative_widths():
    """NaN -> int64 casts to INT64_MIN: a null token count would 'fit'
    every bin with hugely negative totals, a null id would land
    deterministically in SOME split, and a negative split width passes
    the sum check while overwriting earlier labels — all refused."""
    import pyarrow as pa
    import pytest

    from etl_reconciliate_ray.stages.packing import (
        pack_batch, split_assign,
    )

    with pytest.raises(ValueError, match="null id"):
        split_assign(pa.array([1, None, 5], pa.int64()),
                     {"train": 90, "val": 5, "test": 5})
    with pytest.raises(ValueError, match=">= 0"):
        split_assign(pa.array([1], pa.int64()), {"a": 50, "b": -10, "c": 60})
    batch = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                      "n_tokens": pa.array([100, None], pa.int64())})
    with pytest.raises(ValueError, match="null"):
        pack_batch(batch, "doc_id", "n_tokens", budget=2048)


def test_topk_null_group_is_its_own_group_and_rank_collision_refused(ray_session):
    """A null group key is its own group (SQL PARTITION BY): its top-k
    rows must survive with ranks restarting at 1, not silently continue
    the previous group's sequence and get cut. An input that already
    has a 'rank' column is refused with the actual problem."""
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from etl_reconciliate_ray.stages.topk import topk_per_group

    t = pa.table({
        "g": pa.array(["a", "a", "a", None, None], pa.string()),
        "s": pa.array([5, 4, 3, 9, 8], pa.int64()),
        "id": pa.array([1, 2, 3, 4, 5], pa.int64()),
    })
    out = (
        topk_per_group(rd.from_arrow(t), "g", "s", k=2, tiebreak="id")
        .to_pandas()
    )
    a_rows = out[out["g"] == "a"]
    null_rows = out[out["g"].isna()]
    assert sorted(a_rows["id"]) == [1, 2]
    assert sorted(null_rows["id"]) == [4, 5]
    assert sorted(null_rows["rank"]) == [1, 2]

    has_rank = t.append_column("rank", pa.array([0] * 5, pa.int64()))
    with pytest.raises(Exception, match="already has a 'rank' column"):
        topk_per_group(rd.from_arrow(has_rank), "g", "s", k=2,
                       tiebreak="id").to_pandas()


def test_histogram_quantiles_overflow_bins_clamp_and_stay_exact_in_range(ray_session):
    """Out-of-range values land in overflow bins (logged, clamped to
    the range edge) instead of silently absorbing into the edge bins;
    in-range data keeps the one-bin-width bound and identical results."""
    import pyarrow as pa
    import ray.data as rd

    from etl_reconciliate_ray.stages.topk import histogram_quantiles

    t = pa.table({
        "g": pa.array(["x"] * 10, pa.string()),
        "v": pa.array([10, 20, 30, 40, 50, 60, 70, 80, 90, 5_000_000],
                      pa.int64()),
    })
    out = histogram_quantiles(
        rd.from_arrow(t), "g", "v", {"p50": 0.5, "pmax": 1.0},
        lo=0, hi=100, num_bins=10,
    ).to_pandas()
    assert int(out["n"][0]) == 10
    assert 40 <= int(out["p50"][0]) <= 60  # in-range: one-bin bound
    assert int(out["pmax"][0]) == 100  # overflow: clamped to hi, not wild


def test_media_guard_rails(ray_session):
    """interval_ms must be positive; strict-mode resize of a non-image
    says there is no real path instead of computing a fake; media_resize
    plumbs the codec knob like media_features."""
    import inspect

    import pytest

    from etl_reconciliate_ray.stages.multimodal import (
        FrameSampler, MediaResize, media_resize,
    )

    for bad in (0, -1000):
        with pytest.raises(ValueError, match="interval_ms"):
            FrameSampler(interval_ms=bad)

    import pyarrow as pa
    stage = MediaResize(deterministic_fake=False, codec="fake")
    batch = pa.table({
        "media_id": pa.array([1], pa.int64()),
        "media_type": pa.array(["audio"], pa.string()),
        "payload": pa.array([b"\x00\x01"], pa.large_binary()),
    })
    with pytest.raises(NotImplementedError, match="no real codec path"):
        stage(batch)

    assert "codec" in inspect.signature(media_resize).parameters


def test_hash_join_preserves_int_types_across_buckets(ray_session):
    """A bucket holding unmatched left-outer rows (or nulls) must emit
    the SAME arrow schema as a fully-matched bucket: integer columns
    ride pandas nullable dtypes through the per-bucket merge instead of
    degrading to float64 — ids past 2^53 survive exactly."""
    import pyarrow as pa
    import ray.data as rd

    from etl_reconciliate_ray.stages.joins import hash_join

    big = 2**53 + 3  # not representable in float64
    left = pa.table({
        "k": pa.array([1, 2, 3, 4], pa.int64()),
        "lv": pa.array([10, 20, 30, 40], pa.int64()),
    })
    right = pa.table({
        "k": pa.array([1, 3], pa.int64()),
        "rv": pa.array([big, 7], pa.int64()),
    })
    out = hash_join(
        rd.from_arrow(left), rd.from_arrow(right), on="k", how="left",
        num_buckets=4,
    )
    t = pa.concat_tables(
        [b for b in out.iter_batches(batch_format="pyarrow")],
        promote_options="default",
    )
    assert pa.types.is_integer(t.schema.field("rv").type), t.schema
    vals = {r["k"]: r["rv"] for r in t.to_pylist()}
    assert vals[1] == big and vals[3] == 7
    assert vals[2] is None and vals[4] is None


def test_broadcast_join_rejects_outer_and_right():
    """Per-batch merges cannot express outer/right: the broadcast
    side's unmatched rows would replay once per batch."""
    import pandas as pd
    import pytest

    from etl_reconciliate_ray.stages.joins import broadcast_join

    for how in ("outer", "right"):
        with pytest.raises(ValueError, match="unsupported"):
            broadcast_join(None, pd.DataFrame({"k": [1]}), on="k", how=how)


def test_asof_join_rejects_right_col_collision(ray_session):
    """A right_cols target that collides with a left column would be
    silently _x/_y-suffixed by merge_asof; refused instead."""
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from etl_reconciliate_ray.stages.joins import asof_join

    left = pa.table({
        "u": pa.array([1, 1], pa.int64()),
        "ts": pa.array([5, 9], pa.int64()),
        "v": pa.array([100, 200], pa.int64()),
    })
    right = pa.table({
        "u": pa.array([1], pa.int64()),
        "ts": pa.array([4], pa.int64()),
        "v": pa.array([7], pa.int64()),
    })
    with pytest.raises(Exception, match="collide with left columns"):
        asof_join(
            rd.from_arrow(left), rd.from_arrow(right), by="u", on="ts",
            right_cols={"v": "v"},
        ).to_pandas()


def test_commitlog_stale_tail_fence_and_delta_floor(tmp_path):
    """Two snapshot regressions: (1) a crash BETWEEN snapshot publish
    and tail truncate leaves the pre-snapshot tail on disk — its replay
    must be ignored wholesale (the TAIL_OPEN generation fence), not
    resurrect pruned history; (2) a delta-only lake drops nothing at
    snapshot time, so the time-travel floor must NOT advance to each
    part's birth epoch."""
    import shutil

    from etl_reconciliate_ray.state.commitlog import CommitLog, PartEntry

    root = str(tmp_path / "lake")
    log = CommitLog.open(root)
    for ep in (3, 4, 5):
        log.commit_part(PartEntry(epoch=ep, part=0, kind="delta",
                                  files=(f"/f{ep}",), rows=1, state_sha256="x"))
        log.seal_epoch(ep)
    # (2) delta-only: nothing dropped, floor stays 0 (as-of 3/4 remain
    # answerable from the fully-retained chain)
    pre_tail = open(log.path).read()
    log.write_snapshot()
    assert log.time_travel_floor() == 0
    assert CommitLog.open(root).time_travel_floor() == 0

    # (1) simulate the crash window: restore the PRE-snapshot tail
    with open(log.path, "w") as fh:
        fh.write(pre_tail)
    log2 = CommitLog.open(root)
    assert set(log2._entries) == {(3, 0), (4, 0), (5, 0)}
    assert log2._sealed == {3, 4, 5}
    # the stale tail's seal records must not re-count into the cadence
    assert log2.seals_since_snapshot == 0

    # with a full base the floor DOES advance past dropped history
    shutil.rmtree(root)
    log3 = CommitLog.open(root)
    log3.commit_part(PartEntry(epoch=1, part=0, kind="delta",
                               files=("/d1",), rows=1, state_sha256="x"))
    log3.seal_epoch(1)
    log3.commit_part(PartEntry(epoch=2, part=0, kind="full",
                               files=("/b2",), rows=1, state_sha256="y"))
    log3.seal_epoch(2)
    log3.write_snapshot()
    assert log3.time_travel_floor() == 2  # epoch-1 history was dropped


def test_commit_parts_refuses_conflicting_intrabatch_duplicates(tmp_path):
    """Two DIFFERENT entries for one (epoch, part) slot in a single
    batch would both pass the fence (computed before any insert) and
    durable last-wins replay could diverge from in-memory first-wins;
    refused. Identical duplicates dedupe silently."""
    import pytest

    from etl_reconciliate_ray.state.commitlog import CommitLog, PartEntry

    log = CommitLog.open(str(tmp_path / "lake"))
    a = PartEntry(epoch=0, part=0, kind="delta", files=("/a",), rows=1,
                  state_sha256="x")
    b = PartEntry(epoch=0, part=0, kind="delta", files=("/b",), rows=1,
                  state_sha256="y")
    with pytest.raises(ValueError, match="conflicting duplicate"):
        log.commit_parts([a, b])
    assert log.commit_parts([a, a]) == 1  # identical dupes collapse


def test_writer_full_strip_keeps_null_component_keys():
    """A full-state piece keeps every key it is given: (null, path),
    (repo, null) and even (null, null) with null content are live keys
    that chain resolution preserves, and the writer strips none of
    them (an emptied bucket commits a 0-row base, not a marker row)."""
    import pyarrow as pa

    from etl_reconciliate_ray.stages.writer import write_piece_local

    t = pa.table({
        "repo": pa.array([None, "r1", None], pa.string()),
        "path": pa.array(["p1", None, None], pa.string()),
        "content": pa.array(["a", "b", None], pa.string()),
        "content_sha256": pa.array(["ha", "hb", None], pa.string()),
        "bucket": pa.array([0, 0, 0], pa.int32()),
    })
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        row = write_piece_local(d, 1, 0, t, "full")
        import pyarrow.parquet as pq

        written = pq.read_table(row["file"])
    keys = {(r["repo"], r["path"]) for r in written.to_pylist()}
    assert keys == {(None, "p1"), ("r1", None), (None, None)}


def test_nest_table_null_parent_key_is_one_group():
    """A null parent key nests into ONE list group (previously:
    TypeError on unary ~ over the null-bearing equality array)."""
    import pyarrow as pa

    from etl_reconciliate_ray.stages.nest import nest_table

    child = pa.table({
        "pk": pa.array([1, 1, None, None, 2], pa.int64()),
        "v": pa.array([10, 11, 12, 13, 14], pa.int64()),
    })
    out = nest_table(child, "pk", list_col="lines")
    got = {r["pk"]: sorted(x["v"] for x in r["lines"]) for r in out.to_pylist()}
    assert got == {1: [10, 11], None: [12, 13], 2: [14]}


def test_render_report_xlsx_when_engine_available(tmp_path):
    """fmt='xlsx' must actually write: the old '.xlsx.tmp' temp name
    made pandas infer engine 'tmp' and raise on EVERY write."""
    import pandas as pd
    import pytest

    from etl_reconciliate_ray.pipelines.report import render_report

    try:
        import openpyxl  # noqa: F401
    except ImportError:
        pytest.skip("no excel engine in this container")
    rollup = pd.DataFrame({"repo": ["r"], "n_rows": [1], "n_matched": [1],
                           "rollup_status": ["OK"]})
    detail = pd.DataFrame({"repo": ["r"], "path": ["p"], "status": ["MATCHED"]})
    out = render_report(rollup, detail, str(tmp_path), fmt="xlsx")
    import os

    assert all(os.path.exists(p) for p in out["files"].values())


def test_heavy_hitters_null_and_big_int_items(ray_session):
    """Items stay Arrow end to end: a null in one batch must not
    float-degrade big int64 ids (2^53+1 was reported as a DIFFERENT
    id), and the null group's own frequency counts (previously 0)."""
    import pyarrow as pa
    import ray.data as rd

    import pandas as pd

    from etl_reconciliate_ray.stages.sketch import heavy_hitters

    big = 2**53 + 1
    vals = [big] * 6 + [None] * 5 + [7] * 2
    t = pa.table({"u": pa.array(vals, pa.int64())})
    out = heavy_hitters(rd.from_arrow(t), "u", capacity=4)
    items = {(None if pd.isna(r["u"]) else int(r["u"])): int(r["n"])
             for _, r in out.rename(columns={"item": "u"}).iterrows()}
    assert items[big] == 6  # exact id, not a float round
    assert items[None] == 5  # null group counted
