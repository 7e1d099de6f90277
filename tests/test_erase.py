"""Physical erasure (right-to-be-forgotten) — erase_key removes a
key's bytes from every surviving file: bases, merge-on-read deltas,
time-travel history, key_history. A logical 'D' event only hides the
key from the current state; erasure is the regulatory-grade complement
(no reference analogue — the reference keeps no history at all).
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from etl_reconciliate_ray.pipelines.replay import (
    ReplayConfig,
    erase_key,
    key_history,
    lake_table,
    replay,
)
from etl_reconciliate_ray.state.commitlog import CommitLog


def _cfg(tmp_path, name, manifest, **kw):
    return ReplayConfig(
        lake_root=str(tmp_path / name),
        num_buckets=8,
        salt_for_repo=manifest["salt_hot_repos"],
        **kw,
    )


def _key_bytes_on_disk(root: str, needle: bytes) -> int:
    """How many data files still hold a READABLE copy of the needle in
    any string column of any row group (historical versions included).
    Decoded scan, not raw grep — parquet page compression would hide
    plaintext bytes either way; what erasure must guarantee is that no
    stored version remains readable."""
    text = needle.decode()
    hits = 0
    for f in glob.glob(os.path.join(root, "**", "*.parquet"), recursive=True):
        t = pq.read_table(f)
        for col in t.columns:
            if (pa.types.is_string(col.type) or pa.types.is_large_string(col.type)) and pc.any(
                pc.match_substring(pc.fill_null(col, ""), text)
            ).as_py():
                hits += 1
                break
    return hits


def test_erase_point_key_everywhere(fixture_small, tmp_path, ray_session):
    fixture_dir, _, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_erase", manifest)
    replay(fixture_dir, cfg)
    state = lake_table(cfg)
    # pick a key with multi-epoch history so deltas are affected too
    repo = path = content = None
    for r, p, c in zip(state["repo"].to_pylist(), state["path"].to_pylist(),
                       state["content"].to_pylist()):
        if key_history(cfg, r, p).num_rows >= 2:
            repo, path, content = r, p, c
            break
    assert repo is not None, "fixture should rewrite at least one key"
    needle = content.encode()[:48]  # long random text: unique on disk
    assert _key_bytes_on_disk(cfg.lake_root, needle) >= 1
    before_rows = state.num_rows

    res = erase_key(cfg, repo, path)
    assert res["rows_erased"] >= 2
    assert res["files_rewritten"] >= 1
    assert res["entries_replaced"] >= res["files_rewritten"]
    assert res["files_deleted"] == res["files_rewritten"]

    after = lake_table(cfg)
    assert after.num_rows == before_rows - 1
    assert after.filter(
        pc.and_(pc.equal(after["repo"], repo), pc.equal(after["path"], path))
    ).num_rows == 0
    # history is gone too (the files no longer hold the key's bytes)
    assert key_history(cfg, repo, path).num_rows == 0
    # time travel sees the redacted history, not the original
    log = CommitLog.open(cfg.lake_root)
    for e in range(1, (log.latest_sealed_epoch() or 0) + 1):
        t = lake_table(cfg, as_of_epoch=e)
        assert t.filter(
            pc.and_(pc.equal(t["repo"], repo), pc.equal(t["path"], path))
        ).num_rows == 0
    # every other key's state is untouched
    keep = state.filter(pc.invert(
        pc.and_(pc.equal(state["repo"], repo), pc.equal(state["path"], path))
    ))
    sig = lambda t: sorted(zip(t["repo"].to_pylist(), t["path"].to_pylist(),
                               t["content_sha256"].to_pylist()))
    assert sig(after) == sig(keep)
    # the bytes are PHYSICALLY gone from disk (current version; parquet
    # may dictionary/page-compress, so assert on the raw text we saw)
    assert _key_bytes_on_disk(cfg.lake_root, needle) == 0
    # idempotent: a second erase finds nothing
    res2 = erase_key(cfg, repo, path)
    assert res2 == {"files_rewritten": 0, "rows_erased": 0,
                    "entries_replaced": 0, "files_deleted": 0}


def test_erase_whole_repo_salted_and_direct_mode(fixture_small, tmp_path, ray_session):
    """Whole-repo erasure of a SALTED monorepo under direct-mode
    pipelined replay: multi-bucket candidates, shared multi-row-group
    files — entries sharing a rewritten file (other buckets' row
    groups) must keep reading exactly their rows."""
    fixture_dir, _, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_erase_d", manifest)
    cfg.pipeline_epochs = 4
    replay(fixture_dir, cfg)
    state = lake_table(cfg)
    hot = [r for r, s in manifest["salt_hot_repos"].items() if s > 1]
    assert hot
    repo = hot[0]
    victim = state.filter(pc.equal(state["repo"], repo))
    victim_rows = victim.num_rows
    assert victim_rows > 0
    needles = [c.encode()[:48] for c in victim["content"].to_pylist()[:5]]
    assert all(_key_bytes_on_disk(cfg.lake_root, n) >= 1 for n in needles)

    res = erase_key(cfg, repo)  # path=None: the whole repo
    assert res["rows_erased"] >= victim_rows  # current + historical versions
    after = lake_table(cfg)
    assert after.filter(pc.equal(after["repo"], repo)).num_rows == 0
    # everyone else intact — shared-file row-group addressing survived
    keep = state.filter(pc.invert(pc.equal(state["repo"], repo)))
    sig = lambda t: sorted(zip(t["repo"].to_pylist(), t["path"].to_pylist(),
                               t["content_sha256"].to_pylist()))
    assert sig(after) == sig(keep)
    # the erased rows' content no longer appears in any data file
    assert all(_key_bytes_on_disk(cfg.lake_root, n) == 0 for n in needles)


def test_erase_then_replay_resume_and_compact(fixture_small, tmp_path, ray_session):
    """The log stays consistent after REPLACE records: redelivery is
    still fenced, compaction still collapses chains, vacuum finds no
    stragglers."""
    from etl_reconciliate_ray.pipelines.replay import compact, vacuum

    fixture_dir, _, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_erase_c", manifest)
    replay(fixture_dir, cfg)
    state = lake_table(cfg)
    repo, path = state["repo"][0].as_py(), state["path"][0].as_py()
    erase_key(cfg, repo, path)

    m = replay(fixture_dir, cfg)  # redelivery: all fenced
    assert all(x["skipped"] for x in m)
    want = lake_table(cfg)
    compact(cfg)
    got = lake_table(cfg)
    sig = lambda t: sorted(zip(t["repo"].to_pylist(), t["path"].to_pylist(),
                               t["content_sha256"].to_pylist()))
    assert sig(got) == sig(want)
    rep = vacuum(cfg)
    # reopen from disk: REPLACE records replay deterministically
    log = CommitLog.open(cfg.lake_root)
    assert all(os.path.exists(f) for f in log.referenced_files())


def test_cli_erase_mode(fixture_small, tmp_path, ray_session, capsys):
    import json

    from etl_reconciliate_ray.run import main

    fixture_dir, _, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_erase_cli", manifest)
    replay(fixture_dir, cfg)
    state = lake_table(cfg)
    repo, path = state["repo"][0].as_py(), state["path"][0].as_py()
    out = main(["--lake", cfg.lake_root, "--erase", f"{repo}:{path}"])
    assert out["rows_erased"] >= 1
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed["erase"] == {"repo": repo, "path": path}
    after = lake_table(cfg)
    assert after.filter(
        pc.and_(pc.equal(after["repo"], repo), pc.equal(after["path"], path))
    ).num_rows == 0


def test_erase_scrubs_export_feed(fixture_small, tmp_path, ray_session):
    """erase_key_from_feed: the spooled CDC feed forgets the key too —
    segments rewritten in place and still sealed, cursor untouched, and
    a consumer replay of the scrubbed feed equals the erased lake."""
    import json

    from etl_reconciliate_ray.pipelines.replay import (
        erase_key_from_feed,
        export_changelog,
    )

    fixture_dir, _, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_feed_erase", manifest)
    replay(fixture_dir, cfg, stop_after_epoch=2)
    out = str(tmp_path / "spool")
    m1 = export_changelog(cfg.lake_root, out)  # snapshot segment
    replay(fixture_dir, cfg)
    m2 = export_changelog(cfg.lake_root, out)  # delta segment
    assert not m1["skipped"] and not m2["skipped"]

    state = lake_table(cfg)
    repo = path = None
    for r, p in zip(state["repo"].to_pylist(), state["path"].to_pylist()):
        if key_history(cfg, r, p).num_rows >= 2:
            repo, path = r, p
            break
    assert repo is not None
    with open(os.path.join(out, "_CURSOR")) as fh:
        cursor_before = fh.read()

    erase_key(cfg, repo, path)
    res = erase_key_from_feed(out, repo, path)
    assert res["feed_rows_erased"] >= 1

    # cursor untouched, every segment still sealed
    with open(os.path.join(out, "_CURSOR")) as fh:
        assert fh.read() == cursor_before
    segs = sorted(glob.glob(os.path.join(out, "feed", "epochs=*")))
    assert all(os.path.exists(os.path.join(s, "_SEALED")) for s in segs)

    # consumer replay of the scrubbed feed == the erased lake state
    applied = {}
    for seg in segs:
        for f in sorted(glob.glob(os.path.join(seg, "*.parquet"))):
            t = pq.read_table(f)
            assert t.filter(pc.and_(
                pc.equal(t["repo"], repo), pc.equal(t["path"], path)
            )).num_rows == 0  # the key never appears
            for r in t.to_pylist():
                if r["change"] == "D":
                    applied.pop((r["repo"], r["path"]), None)
                else:
                    applied[(r["repo"], r["path"])] = r["content_sha256"]
    final = lake_table(cfg)
    want = {
        (r, p): s for r, p, s in zip(final["repo"].to_pylist(),
                                     final["path"].to_pylist(),
                                     final["content_sha256"].to_pylist())
    }
    assert applied == want
    json  # keep import referenced


def test_erase_from_feed_reads_whole_only_the_files_holding_the_key(
    fixture_small, tmp_path, ray_session, monkeypatch
):
    """erase_key_from_feed probes every spool file with the key filter
    pushed down (``repo`` column only) and reads and rewrites whole only
    the files that hold the key; the others are never read with all of
    their columns, and their bytes are untouched."""
    from etl_reconciliate_ray.pipelines.replay import erase_key_from_feed, export_changelog

    fixture_dir, _, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_feed_probe", manifest)
    replay(fixture_dir, cfg)
    out = str(tmp_path / "spool")
    export_changelog(cfg.lake_root, out)
    files = sorted(glob.glob(os.path.join(out, "feed", "**", "*.parquet"), recursive=True))
    t = pq.read_table(files[0])
    repo, path = t["repo"][0].as_py(), t["path"][0].as_py()
    holding = {
        f for f in files
        if pq.read_table(f, filters=[("repo", "=", repo), ("path", "=", path)]).num_rows
    }
    assert holding and set(files) - holding
    before = {f: open(f, "rb").read() for f in files if f not in holding}

    reads: list[tuple[str, object]] = []
    read_table = pq.read_table

    def counted(source, *args, columns=None, **kwargs):
        reads.append((source, columns))
        return read_table(source, *args, columns=columns, **kwargs)

    monkeypatch.setattr(pq, "read_table", counted)
    res = erase_key_from_feed(out, repo, path)
    monkeypatch.undo()

    assert res["feed_files_rewritten"] == len(holding) and res["feed_rows_erased"] >= 1
    whole = {src for src, cols in reads if cols is None}
    assert whole == holding
    assert all(open(f, "rb").read() == b for f, b in before.items())


def test_erase_from_feed_reseals_each_segment(fixture_small, tmp_path, ray_session):
    """After ``erase_key_from_feed`` each sealed segment's ``_SEALED``
    counts what a consumer reads: its ``rows`` equal the sum of its
    files' footer row counts and its ``files`` their number."""
    import json

    from etl_reconciliate_ray.pipelines.replay import erase_key_from_feed, export_changelog

    fixture_dir, _, manifest = fixture_small
    cfg = _cfg(tmp_path, "lake_feed_reseal", manifest)
    replay(fixture_dir, cfg, stop_after_epoch=2)
    out = str(tmp_path / "spool")
    export_changelog(cfg.lake_root, out)  # snapshot segment
    replay(fixture_dir, cfg)
    export_changelog(cfg.lake_root, out)  # delta segment
    segs = sorted(glob.glob(os.path.join(out, "feed", "epochs=*")))
    t = pq.read_table(sorted(glob.glob(os.path.join(segs[-1], "*.parquet")))[0])
    assert t.num_rows

    res = erase_key_from_feed(out, t["repo"][0].as_py())  # a whole repo, in both segments
    assert res["feed_rows_erased"] >= 2
    for seg in segs:
        files = glob.glob(os.path.join(seg, "*.parquet"))
        with open(os.path.join(seg, "_SEALED")) as fh:
            marker = json.load(fh)
        assert marker == {
            "rows": sum(pq.read_metadata(f).num_rows for f in files), "files": len(files),
        }, seg
