"""Reconciliation status taxonomy + rollup cascade tests (SURVEY.md §5.1).

Status classes mirror ``service/ReconciliationService.java``:
OK / NO EN JPAT / NO EN SWIFT / TRANSACCION DUPLICADA JPAT n /
DIFERENCIA EN VALOR -> MATCHED / MISSING_RIGHT / MISSING_LEFT /
DUP_RIGHT_n / VALUE_DIFF.
"""

from __future__ import annotations

from collections import Counter

import pandas as pd
import pyarrow as pa

from etl_reconciliate_ray.stages.reconcile import reconcile_pair_pdf
from etl_reconciliate_ray.pipelines.reconcile_run import (
    ROLLUP_DUP,
    ROLLUP_ERROR,
    ROLLUP_OK,
    ROLLUP_ROWS_WITH_ERRORS,
    rollup_from_partials,
)


def _sides(left_rows, right_rows):
    cols = ["repo", "path", "content_sha256", "commit"]
    return tuple(
        pa.table({c: pa.array([r[i] for r in rows], pa.string()) for i, c in enumerate(cols)})
        for rows in (left_rows, right_rows)
    )


KEYS = ["repo", "path"]


def _statuses(out):
    return out.sort_values(["repo", "path", "status"])["status"].tolist()


def test_matched_and_value_diff():
    out = reconcile_pair_pdf(
        *_sides(
            [("r", "a", "h1", "c1"), ("r", "b", "h2", "c2")],
            [("r", "a", "h1", "c9"), ("r", "b", "DIFFER", "c8")],
        ),
        KEYS,
        attr_cols=["commit"],
    ).to_pandas()
    assert _statuses(out) == ["MATCHED", "VALUE_DIFF"]


def test_missing_left_and_right():
    out = reconcile_pair_pdf(
        *_sides([("r", "only_left", "h", "c")], [("r", "only_right", "h", "c")]),
        KEYS,
        attr_cols=["commit"],
    ).to_pandas()
    got = dict(zip(out["path"], out["status"]))
    assert got == {"only_left": "MISSING_RIGHT", "only_right": "MISSING_LEFT"}


def test_duplicate_right_ordinals():
    # one left row matching k=3 right rows -> 3 ordinal DUP rows,
    # mirroring J8 ReconciliationService.java:137-144
    out = reconcile_pair_pdf(
        *_sides(
            [("r", "a", "h", "c0")],
            [("r", "a", "h", "c1"), ("r", "a", "h", "c2"), ("r", "a", "h", "c3")],
        ),
        KEYS,
        attr_cols=["commit"],
    ).to_pandas()
    assert sorted(out["status"]) == ["DUP_RIGHT_1", "DUP_RIGHT_2", "DUP_RIGHT_3"]
    # deterministic ordinal assignment: ordered by (value, commit)
    ordered = out.sort_values("status")["commit_r"].tolist()
    assert ordered == ["c1", "c2", "c3"]


def test_one_match_plus_unused_right_rows():
    # k rights, only one matches: MATCHED + unused rights MISSING_LEFT
    # (reference: unused rights -> "NO EN SWIFT", :154-171)
    out = reconcile_pair_pdf(
        *_sides(
            [("r", "a", "h", "c0")],
            [("r", "a", "h", "c1"), ("r", "a", "ZZZ", "c2")],
        ),
        KEYS,
        attr_cols=["commit"],
    ).to_pandas()
    assert sorted(out["status"]) == ["MATCHED", "MISSING_LEFT"]


def test_rollup_cascade_priority_order(ray_session):
    # ERROR beats DUP beats ROWS_WITH_ERRORS beats OK (:194-201 order);
    # each case is one repo's statuses, fed as (repo, status, n) partials
    cases = [
        (["MISSING_RIGHT", "MISSING_RIGHT"], ROLLUP_ERROR),
        (["DUP_RIGHT_1", "DUP_RIGHT_2", "VALUE_DIFF"], ROLLUP_DUP),
        (["MATCHED", "VALUE_DIFF"], ROLLUP_ROWS_WITH_ERRORS),
        (["MATCHED", "MISSING_LEFT"], ROLLUP_ROWS_WITH_ERRORS),
        (["MATCHED", "MATCHED"], ROLLUP_OK),
    ]
    partials = pa.Table.from_pylist([
        {"repo": f"r{i}", "status": status, "n": n}
        for i, (statuses, _) in enumerate(cases)
        for status, n in Counter(statuses).items()
    ])
    got = rollup_from_partials(partials, "repo").to_pandas()
    got = got.set_index("repo")
    for i, (statuses, want) in enumerate(cases):
        assert got.loc[f"r{i}", "rollup_status"] == want, statuses
        assert got.loc[f"r{i}", "n_rows"] == len(statuses)
        assert got.loc[f"r{i}", "n_matched"] == statuses.count("MATCHED")


def test_bucket_tag_spreads_strided_integer_keys(ray_session):
    """Single-key unsalted bucket_tag hashes integer keys before the
    mod: ids strided by num_buckets (a plain ``key % n`` routes them all
    to ONE bucket) spread over several buckets, width-insensitively, and
    a reconcile over them keeps exact counts. The keyed shuffle's
    routing (``shuffle.bucket_ids``, which bucket_tag uses here) is
    ``hash64(key) % n`` as int32 for int32, int64, string and null keys:
    the expression every hash-bucketed catalog operator used inline."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from etl_reconciliate_ray.functions.hashing import hash64
    from etl_reconciliate_ray.stages.reconcile import bucket_tag, reconcile_datasets
    from etl_reconciliate_ray.stages.shuffle import bucket_ids

    n = 8
    ids = np.arange(400, dtype=np.int64) * n
    tags = bucket_tag(pa.table({"k": ids}), ["k"], n)
    assert len(set(tags.to_pylist())) > 1
    narrow = bucket_tag(pa.table({"k": ids.astype(np.int32)}), ["k"], n)
    assert narrow.to_pylist() == tags.to_pylist()
    for col in (
        pa.array(ids.astype(np.int32)),
        pa.array(ids),
        pa.chunked_array([pa.array([f"k{i}" for i in ids[:200]]),
                          pa.array([f"k{i}" for i in ids[200:]])]),
        pa.array([None, 3, None, 16], pa.int64()),
        pa.array([None, "a", "b"]),
        pa.nulls(4),
    ):
        got = bucket_ids(col, n)
        assert got.type == pa.int32()
        assert got.to_pylist() == (hash64(col) % np.uint64(n)).astype(np.int32).tolist()
    assert bucket_ids(pa.array(ids), n).to_pylist() == tags.to_pylist()

    left = pd.DataFrame({"k": ids[:300], "v": [f"h{i}" for i in ids[:300]]})
    right = pd.DataFrame({"k": ids[100:], "v": [f"h{i}" for i in ids[100:]]})
    right.loc[right.index[:50], "v"] = "changed"  # keys 100..149 differ
    out = reconcile_datasets(
        rd.from_pandas(left), rd.from_pandas(right), ["k"], value_col="v", num_buckets=n
    ).to_pandas()
    assert out["status"].value_counts().to_dict() == {
        "MATCHED": 150, "VALUE_DIFF": 50, "MISSING_RIGHT": 100, "MISSING_LEFT": 100,
    }


def test_one_keyed_shuffle():
    """Package code buckets rows by ``hash64(...) % ...`` and groups on
    a hash-bucket tag only inside ``stages.shuffle``. Allowed apart:
    the lake's ``bucket_of`` routing, the salted join's 40-bit key
    packing (``joins._salted_route``), the Bloom filter and the HLL
    sketch, which hash for other ends than bucketing."""
    import ast
    import glob
    import os

    import etl_reconciliate_ray

    pkg = os.path.dirname(etl_reconciliate_ray.__file__)
    home = os.path.join("stages", "shuffle.py")
    allowed_mod = {
        (os.path.join("stages", "shuffle.py"), "bucket_ids"),
        (os.path.join("functions", "hashing.py"), "bucket_of"),
        (os.path.join("stages", "joins.py"), "_salted_route"),
    }
    allowed_files = {os.path.join("functions", "bloom.py"),
                     os.path.join("stages", "distinctcount.py")}
    tags = {"__b", "__nb", "__bucket", "__bucket__", "bucket", "BUCKET"}
    found = []
    for f in glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True):
        rel = os.path.relpath(f, pkg)
        if rel in allowed_files:
            continue
        with open(f) as fh:
            tree = ast.parse(fh.read())
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(node, fn.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                    and isinstance(node.left, ast.Call)
                    and getattr(node.left.func, "id", None) == "hash64"
                    and (rel, owner.get(node)) not in allowed_mod):
                found.append((rel, node.lineno, "hash64 %"))
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "groupby" and node.args
                    and (getattr(node.args[0], "value", None) in tags
                         or getattr(node.args[0], "id", None) in tags)
                    and rel != home):
                found.append((rel, node.lineno, "groupby on a bucket tag"))
    assert not found, found


def test_e2e_reconcile_counts_exact(fixture_small, tmp_path):
    """North rule: match/discrepancy report counts match the expected
    counts recorded by datagen at perturbation time, exactly."""
    import ray.data as rd

    from etl_reconciliate_ray.pipelines.replay import ReplayConfig, replay
    from etl_reconciliate_ray.pipelines.reconcile_run import reconcile_lake_vs_snapshot
    from etl_reconciliate_ray.stages.normalize import make_normalizer

    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = ReplayConfig(
        lake_root=str(tmp_path / "lake_rec"),
        num_buckets=8,
        salt_for_repo=manifest["salt_hot_repos"],
    )
    replay(fixture_dir, cfg)
    snap = rd.read_parquet(f"{fixture_dir}/snapshot.parquet").map_batches(
        make_normalizer(num_buckets=8), batch_format="pyarrow"
    )
    detail, rollup, counts = reconcile_lake_vs_snapshot(
        cfg.lake_root, snap, num_buckets=8, salt_for_repo=manifest["salt_hot_repos"]
    )
    got = dict(zip(counts["status"], counts["n"]))
    want = manifest["expected_status_counts"]
    assert got == {k: v for k, v in want.items() if v}, (got, want)
    rdf = rollup.to_pandas()
    assert set(rdf["rollup_status"]) <= {ROLLUP_OK, ROLLUP_DUP, ROLLUP_ERROR, ROLLUP_ROWS_WITH_ERRORS}
    # snapshot-only repo: all rows MISSING_LEFT -> ROWS_WITH_ERRORS
    ghost = rdf.loc[rdf["repo"] == "orgX/only-in-snapshot", "rollup_status"]
    assert ghost.tolist() == [ROLLUP_ROWS_WITH_ERRORS]


def test_report_sink_partitioned_and_resumable(fixture_small, tmp_path):
    """K1/K2 equivalent: detail partitioned by status (hive), rollup
    table, atomic summary.json with the exact counts; a second call is
    a resume no-op for already-written tables."""
    import json
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from etl_reconciliate_ray.pipelines.replay import ReplayConfig, replay
    from etl_reconciliate_ray.pipelines.reconcile_run import reconcile_lake_vs_snapshot
    from etl_reconciliate_ray.pipelines.report import write_report
    from etl_reconciliate_ray.stages.normalize import make_normalizer

    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = ReplayConfig(
        lake_root=str(tmp_path / "lake_report"), num_buckets=8,
        salt_for_repo=manifest["salt_hot_repos"],
    )
    replay(fixture_dir, cfg)
    snap = rd.read_parquet(f"{fixture_dir}/snapshot.parquet").map_batches(
        make_normalizer(num_buckets=8), batch_format="pyarrow"
    )
    detail, rollup, counts = reconcile_lake_vs_snapshot(
        cfg.lake_root, snap, num_buckets=8, salt_for_repo=manifest["salt_hot_repos"]
    )
    out = str(tmp_path / "report")
    summary = write_report(detail, rollup, counts, out)
    want = {k: v for k, v in manifest["expected_status_counts"].items() if v}
    assert summary["status_counts"] == want
    with open(os.path.join(out, "summary.json")) as fh:
        assert json.load(fh)["status_counts"] == want
    # hive partition dirs per status; MISSING_RIGHT partition readable
    mr = pq.read_table(os.path.join(out, "detail", "status=MISSING_RIGHT"))
    assert mr.num_rows == want["MISSING_RIGHT"]
    assert pq.read_table(os.path.join(out, "rollup")).num_rows > 0
    # resume: second call skips the written tables, summary unchanged
    summary2 = write_report(detail, rollup, counts, out)
    assert summary2["status_counts"] == want

    # human-parity render (reference ExcelReportService.java:53-163):
    # two "sheets" (lotes=rollup, detalle=detail) with full column
    # parity against the parquet tables and status rendered LAST
    import pandas as pd

    from etl_reconciliate_ray.pipelines.report import render_report

    import pytest as _pytest

    ren = render_report(out, fmt="csv")
    assert set(ren["files"]) == {"lotes", "detalle"}
    det_pdf = detail.to_pandas()
    rol_pdf = rollup.to_pandas()
    lotes = pd.read_csv(ren["files"]["lotes"])
    detalle = pd.read_csv(ren["files"]["detalle"])
    assert set(lotes.columns) == set(rol_pdf.columns)
    assert set(detalle.columns) == set(det_pdf.columns)
    assert list(detalle.columns)[-1] == "status"
    assert len(lotes) == len(rol_pdf) and len(detalle) == len(det_pdf)
    # per-status row parity with the partitioned parquet
    assert detalle["status"].value_counts().to_dict() == want
    # xlsx path: works when an engine exists, clear refusal otherwise
    try:
        import openpyxl  # noqa: F401
        has_engine = True
    except ImportError:
        try:
            import xlsxwriter  # noqa: F401
            has_engine = True
        except ImportError:
            has_engine = False
    if has_engine:
        ren_x = render_report(out, fmt="xlsx")
        assert set(ren_x["files"]) == {"lotes", "detalle"}
    else:
        with _pytest.raises(RuntimeError):
            render_report(out, fmt="xlsx")
    # scale guard refuses oversized renders
    with _pytest.raises(ValueError):
        render_report(out, fmt="csv", max_rows=1)


def test_incremental_reconcile_tracks_full(fixture_small, tmp_path):
    """reconcile_incremental must produce EXACTLY what the full
    reconcile produces for the same lake+snapshot, while recomputing
    only changed buckets: all parts on the first call, zero on an
    unchanged second call, and only the compacted parts after a
    compaction — with the detail spill, rollup and counts all staying
    equal to a fresh full reconcile each time."""
    import ray.data as rd

    from etl_reconciliate_ray.pipelines.replay import ReplayConfig, compact, replay
    from etl_reconciliate_ray.pipelines.reconcile_run import (
        reconcile_incremental,
        reconcile_lake_vs_snapshot,
    )
    from etl_reconciliate_ray.stages.normalize import make_normalizer

    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = ReplayConfig(
        lake_root=str(tmp_path / "lake_increc"),
        num_buckets=8,
        salt_for_repo=manifest["salt_hot_repos"],
        pipeline_epochs=4,  # leave delta chains for compact to change
    )
    replay(fixture_dir, cfg)

    def snap():
        return rd.read_parquet(f"{fixture_dir}/snapshot.parquet").map_batches(
            make_normalizer(num_buckets=8), batch_format="pyarrow"
        )

    def canon_detail(ds):
        return (
            ds.to_pandas()
            .sort_values(["repo", "path", "status"])
            .reset_index(drop=True)
        )

    def full():
        d, r, c = reconcile_lake_vs_snapshot(
            cfg.lake_root, snap(), num_buckets=8,
            salt_for_repo=manifest["salt_hot_repos"],
        )
        return canon_detail(d), r.to_pandas().sort_values("repo").reset_index(drop=True), c

    def inc():
        d, r, c, m = reconcile_incremental(
            cfg.lake_root, snap(), num_buckets=8,
            salt_for_repo=manifest["salt_hot_repos"], snapshot_token="snapA",
        )
        return canon_detail(d), r.to_pandas().sort_values("repo").reset_index(drop=True), c, m

    fd, fr, fc = full()
    d1, r1, c1, m1 = inc()
    assert m1["snapshot_respooled"] and m1["parts_recomputed"] == m1["parts_total"]
    pd.testing.assert_frame_equal(d1, fd)
    pd.testing.assert_frame_equal(r1, fr)
    pd.testing.assert_frame_equal(c1, fc)

    # unchanged lake + same token -> zero work, same answer
    d2, r2, c2, m2 = inc()
    assert m2["parts_recomputed"] == 0 and not m2["snapshot_respooled"]
    pd.testing.assert_frame_equal(d2, fd)
    pd.testing.assert_frame_equal(c2, fc)

    # compaction rewrites some chains -> only those parts recompute,
    # and the answer still equals a fresh full reconcile
    m = compact(cfg)
    assert not m["skipped"]
    fd3, fr3, fc3 = full()
    d3, r3, c3, m3 = inc()
    assert 0 < m3["parts_recomputed"] <= m3["parts_total"]
    assert not m3["snapshot_respooled"]
    pd.testing.assert_frame_equal(d3, fd3)
    pd.testing.assert_frame_equal(r3, fr3)
    pd.testing.assert_frame_equal(c3, fc3)

    # a new snapshot token invalidates spool + all parts
    d4, r4, c4, m4 = reconcile_incremental(
        cfg.lake_root, snap(), num_buckets=8,
        salt_for_repo=manifest["salt_hot_repos"], snapshot_token="snapB",
    )
    assert m4["snapshot_respooled"] and m4["parts_recomputed"] == m4["parts_total"]
    pd.testing.assert_frame_equal(canon_detail(d4), fd3)


def test_incremental_reconcile_lost_state_recomputes(fixture_small, tmp_path):
    """A missing/invalidated state.json (crash window between respool
    and publish) must force a full recompute on the next call — never
    serve counts over a deleted detail spill."""
    import os
    import shutil

    import ray.data as rd

    from etl_reconciliate_ray.pipelines.replay import ReplayConfig, replay
    from etl_reconciliate_ray.pipelines.reconcile_run import reconcile_incremental
    from etl_reconciliate_ray.stages.normalize import make_normalizer

    fixture_dir, cfg_gen, manifest = fixture_small
    cfg = ReplayConfig(
        lake_root=str(tmp_path / "lake_increc2"), num_buckets=8,
        salt_for_repo=manifest["salt_hot_repos"],
    )
    replay(fixture_dir, cfg)

    def snap():
        return rd.read_parquet(f"{fixture_dir}/snapshot.parquet").map_batches(
            make_normalizer(num_buckets=8), batch_format="pyarrow"
        )

    _, _, c1, m1 = reconcile_incremental(
        cfg.lake_root, snap(), num_buckets=8,
        salt_for_repo=manifest["salt_hot_repos"], snapshot_token="tokA",
    )
    state_dir = os.path.join(cfg.lake_root, "_reconcile_state")
    # simulate the crash window: state invalidated, spill gone
    os.remove(os.path.join(state_dir, "state.json"))
    shutil.rmtree(os.path.join(state_dir, "detail"))
    _, _, c2, m2 = reconcile_incremental(
        cfg.lake_root, snap(), num_buckets=8,
        salt_for_repo=manifest["salt_hot_repos"], snapshot_token="tokA",
    )
    assert m2["snapshot_respooled"] and m2["parts_recomputed"] == m2["parts_total"]
    pd.testing.assert_frame_equal(c2, c1)


def test_full_reconcile_of_empty_inputs_is_typed(ray_session, tmp_path):
    """An empty lake against an empty snapshot: the full reconcile's
    rollup has the incremental one's typed schema (the full path once
    returned a schema-less rollup here), and its counts are empty."""
    import pyarrow as pa
    import ray.data as rd

    from etl_reconciliate_ray.pipelines.reconcile_run import (
        reconcile_incremental,
        reconcile_lake_vs_snapshot,
    )
    from etl_reconciliate_ray.state.commitlog import CommitLog, layout_fingerprint

    root = str(tmp_path / "lake")
    CommitLog.open(root).ensure_layout(layout_fingerprint(4, None))
    cols = ["repo", "path", "commit", "content_sha256"]

    def snap():
        return rd.from_arrow(pa.table({c: pa.array([], pa.string()) for c in cols}))

    detail, rollup, counts = reconcile_lake_vs_snapshot(root, snap(), num_buckets=4)
    _, rollup_inc, counts_inc, _ = reconcile_incremental(root, snap(), num_buckets=4)
    assert rollup.schema() is not None
    assert rollup.schema() == rollup_inc.schema()
    assert rollup.schema().names == ["repo", "n_rows", "n_matched", "rollup_status"]
    assert rollup.count() == 0 and detail.count() == 0
    assert len(counts) == 0 and list(counts.columns) == ["status", "n"]
    pd.testing.assert_frame_equal(counts, counts_inc)


def test_full_reconcile_between_incrementals_keeps_their_state(fixture_small, tmp_path):
    """The interleaving the benchmark runs: incremental, full, then
    incremental again with the same token. The full reconcile runs on
    its own cleared state, so the last call recomputes nothing and
    returns the first call's counts."""
    import ray.data as rd

    from etl_reconciliate_ray.pipelines.replay import ReplayConfig, replay
    from etl_reconciliate_ray.pipelines.reconcile_run import (
        reconcile_incremental,
        reconcile_lake_vs_snapshot,
    )
    from etl_reconciliate_ray.stages.normalize import make_normalizer

    fixture_dir, cfg_gen, manifest = fixture_small
    salt = manifest["salt_hot_repos"]
    cfg = ReplayConfig(lake_root=str(tmp_path / "lake_mix"), num_buckets=8, salt_for_repo=salt)
    replay(fixture_dir, cfg)

    def snap():
        return rd.read_parquet(f"{fixture_dir}/snapshot.parquet").map_batches(
            make_normalizer(num_buckets=8), batch_format="pyarrow"
        )

    _, _, c1, m1 = reconcile_incremental(
        cfg.lake_root, snap(), num_buckets=8, salt_for_repo=salt, snapshot_token="tok"
    )
    assert m1["parts_recomputed"] == m1["parts_total"] > 0
    _, _, cf = reconcile_lake_vs_snapshot(cfg.lake_root, snap(), num_buckets=8, salt_for_repo=salt)
    pd.testing.assert_frame_equal(cf, c1)
    _, _, c2, m2 = reconcile_incremental(
        cfg.lake_root, snap(), num_buckets=8, salt_for_repo=salt, snapshot_token="tok"
    )
    assert m2["parts_recomputed"] == 0 and not m2["snapshot_respooled"]
    pd.testing.assert_frame_equal(c2, c1)


def test_incremental_reconcile_against_empty_snapshot_reuses_state(fixture_small, tmp_path):
    """An empty snapshot is a valid spooled state: a second call with
    the same token recomputes nothing and respools nothing (an empty
    snap map once forced both on every call). A deleted state.json
    still forces the respool and a full recompute."""
    import os

    import pyarrow as pa
    import ray.data as rd

    from etl_reconciliate_ray.pipelines.replay import ReplayConfig, replay
    from etl_reconciliate_ray.pipelines.reconcile_run import reconcile_incremental

    fixture_dir, cfg_gen, manifest = fixture_small
    salt = manifest["salt_hot_repos"]
    cfg = ReplayConfig(lake_root=str(tmp_path / "lake_empty_snap"), num_buckets=8, salt_for_repo=salt)
    replay(fixture_dir, cfg)
    cols = ["repo", "path", "commit", "content_sha256"]

    def call():
        snap = rd.from_arrow(pa.table({c: pa.array([], pa.string()) for c in cols}))
        return reconcile_incremental(
            cfg.lake_root, snap, num_buckets=8, salt_for_repo=salt, snapshot_token="empty"
        )[2:]

    c1, m1 = call()
    assert m1["snapshot_respooled"] and m1["parts_recomputed"] == m1["parts_total"] > 0
    assert int(c1["n"].sum()) == manifest["final_rows"]
    c2, m2 = call()
    assert m2["parts_recomputed"] == 0 and m2["snapshot_respooled"] is False
    pd.testing.assert_frame_equal(c2, c1)
    os.remove(os.path.join(cfg.lake_root, "_reconcile_state", "state.json"))
    c3, m3 = call()
    assert m3["snapshot_respooled"] and m3["parts_recomputed"] == m3["parts_total"]
    pd.testing.assert_frame_equal(c3, c1)
