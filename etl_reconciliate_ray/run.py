"""CLI entry point: the reference's trigger surface (REST `GET /execute`
at ``controller/ReconciliationController.java:35-39`` and the disabled
cron at ``:41-42``) re-expressed as a batch CLI suitable for
``ray job submit -- python -m etl_reconciliate_ray.run ...``.

Lifecycle = SURVEY.md §3 target shape: replay the fixture's binlog onto
the lake (resumable; sealed epochs skip), reconcile against the
snapshot, write the partitioned report + summary.

Owns its Ray session (library code never calls ray.init) — guarded so
an externally-initialised session (ray job submit) is reused.
"""

from __future__ import annotations

import argparse
import json
import os


def _strip_serve(raw: list[str]) -> list[str]:
    """The argv the triggered job reruns with: this CLI run minus the
    serve-mode flags (--serve and --every), in both spellings
    ('--flag VALUE' and '--flag=VALUE'). Argparse prefix-abbreviations
    of these flags are not supported here."""
    inner, skip = [], False
    for tok in raw:
        if skip:
            skip = False
            continue
        if tok in ("--serve", "--every"):
            skip = True
            continue
        if tok.startswith("--serve=") or tok.startswith("--every="):
            continue
        inner.append(tok)
    return inner


def repo_view(lake_root: str):
    """The CLI's per-repo view (``--view``): files and content bytes per
    repo, a ``MaintainedView`` at ``<lake>/view`` (one ``epoch=N`` state
    directory published by its ``_CURRENT`` pointer)."""
    from .stages.ivm import MaintainedView

    return MaintainedView(
        os.path.join(lake_root, "view"), keys=["repo"], count_name="n_files",
        sums={"content_bytes": ("content", "binary_length")},
    )


def _advance_repo_view(lake_root: str) -> int:
    """Bring the repo view to the lake's sealed head and return its
    repo count (0 while the lake has no sealed epoch). A ``view/``
    without ``_CURRENT`` is rebuilt by bootstrap."""
    from .state.commitlog import CommitLog

    if CommitLog.open(lake_root).latest_sealed_epoch() is None:
        return 0
    view = repo_view(lake_root)
    view.advance(lake_root)
    return view.num_groups()


def main(argv: list[str] | None = None) -> dict:
    # allow_abbrev=False: a '--ser 8080' abbreviation would start the
    # server but slip past _strip_serve, so every triggered rerun of
    # the job body would re-enter serve mode and fail on the bound port
    p = argparse.ArgumentParser(description="CDC replay + reconcile + report",
                                allow_abbrev=False)
    p.add_argument("--fixture", default=None, help="fixture dir (lake_seed/binlog/snapshot)")
    p.add_argument("--binlog-dir", default=None,
                   help="tail a binlog directory instead of a fixture (epoch files "
                        "discovered by name + footer seq stats; no fixture.json)")
    p.add_argument("--envelope-dir", default=None,
                   help="tail a directory of Debezium-style JSONL change envelopes "
                        "(sources/cdc_envelope.py): each *.jsonl epoch converts to "
                        "a binlog epoch under <lake>/_binlog_conv, then replays "
                        "through the standard discovery path; composes with "
                        "--follow (envelopes convert as they land, an upstream "
                        "_EOS marker is forwarded)")
    p.add_argument("--envelope-dlq", action="store_true",
                   help="with --envelope-dir: dead-letter contract-violating "
                        "rows to <lake>/_binlog_conv/_quarantine instead of "
                        "failing the epoch (logged, never silent)")
    p.add_argument("--lake-seed", default=None, help="bootstrap parquet for --binlog-dir mode")
    p.add_argument("--snapshot", default=None, help="snapshot parquet for --binlog-dir reconcile")
    p.add_argument("--follow", action="store_true",
                   help="keep polling --binlog-dir for new epochs until an _EOS marker")
    p.add_argument("--lake", required=True, help="lake root (commit log + partitions)")
    p.add_argument("--report", default=None, help="report output dir (default <lake>/report)")
    p.add_argument("--num-buckets", type=int, default=64)
    p.add_argument("--pipeline-epochs", type=int, default=4)
    p.add_argument("--compact", action="store_true", help="compact chains after replay")
    p.add_argument("--view", action="store_true",
                   help="after replay, advance the per-repo view (files and "
                        "content bytes per repo) at <lake>/view from the "
                        "lake's changelog; reports view_repos")
    p.add_argument("--incremental", action="store_true",
                   help="delta-aware reconcile: recompute only buckets whose "
                        "chains changed since the last run (state under "
                        "<lake>/_reconcile_state; snapshot identified by "
                        "path+mtime)")
    p.add_argument("--vacuum", action="store_true",
                   help="after replay (and compaction, if requested), delete lake "
                        "files no commit-log entry references")
    p.add_argument("--bucket-stats", action="store_true",
                   help="print the per-bucket skew audit (chain rows/files/delta "
                        "depth from commit-log metadata; no data read)")
    p.add_argument("--auto-salt", metavar="DEST_ROOT", default=None,
                   help="after replay, if bucket skew exceeds --auto-salt-threshold, "
                        "migrate to DEST_ROOT with measured per-repo salts "
                        "(state-sha-preserving rebucket; source lake untouched)")
    p.add_argument("--auto-salt-threshold", type=float, default=2.0,
                   help="max/mean chain-rows ratio that triggers --auto-salt")
    p.add_argument("--compact-feed", metavar="OUT_DIR", default=None,
                   help="log-compact an export spool: replace every sealed "
                        "segment with one fresh snapshot at the lake's head "
                        "(new consumers bootstrap from one segment; "
                        "mid-history replicas converge via replace "
                        "semantics)")
    p.add_argument("--export-feed", metavar="OUT_DIR", default=None,
                   help="after replay, spool the outbound CDC feed to OUT_DIR "
                        "(snapshot bootstrap, then sealed incremental parquet "
                        "segments + atomic cursor; exactly-once for consumers "
                        "reading sealed segments in order)")
    p.add_argument("--export-envelopes", metavar="OUT_DIR", default=None,
                   help="with --export-feed: additionally render the spool's "
                        "sealed segments as Debezium-style JSONL envelope "
                        "directories for non-engine consumers "
                        "(sources/cdc_envelope.export_feed_envelopes)")
    p.add_argument("--lookup", metavar="REPO[:PATH]", default=None,
                   help="read-only pruned keyed read of an existing lake "
                        "(no replay inputs, no Ray session): resolve only "
                        "the candidate bucket chain(s) for the key and "
                        "print the committed rows as JSON")
    p.add_argument("--as-of", type=int, default=None,
                   help="with --lookup: time-travel the read to this sealed epoch")
    p.add_argument("--history", metavar="REPO:PATH", default=None,
                   help="read-only key audit: per-epoch change record of one "
                        "(repo, path) key from the surviving commit-log entries "
                        "(replay.key_history); like --lookup, no Ray session")
    p.add_argument("--schema-history", action="store_true",
                   help="read-only: which epoch introduced which column "
                        "(replay.lake_schema_history, footer metadata only)")
    p.add_argument("--erase", metavar="REPO[:PATH]", default=None,
                   help="PHYSICAL erasure (right-to-be-forgotten): rewrite every "
                        "surviving data file without the key's rows — current "
                        "state, deltas and time-travel history (replay.erase_key)")
    p.add_argument("--num-cpus", type=int, default=None, help="only used if Ray is not initialised")
    p.add_argument("--serve", type=int, default=None, metavar="PORT",
                   help="serve the reference's REST trigger instead of running "
                        "once: GET /execute launches this exact job "
                        "(single-flight, 409 while active), GET /status reports "
                        "the last run; blocks until interrupted")
    p.add_argument("--every", type=float, default=None, metavar="SECONDS",
                   help="with --serve: additionally run the job on this fixed "
                        "interval (the reference's disabled @Scheduled cron, "
                        "SchedulerConfig.java:6-9, made live); a tick that "
                        "overlaps an active run is skipped, never stacked")
    args = p.parse_args(argv)

    if args.every is not None and args.serve is None:
        p.error("--every schedules the served trigger; pass --serve PORT too")
    if args.every is not None and not args.every > 0:
        p.error("--every must be a positive number of seconds")

    # flag-combination validation up front: rejecting --export-envelopes
    # without --export-feed only AFTER a full replay would make the user
    # pay the whole replay before learning the invocation is invalid
    if args.export_envelopes and not args.export_feed:
        p.error("--export-envelopes renders an --export-feed spool; pass both")

    if args.lookup is not None:
        # read-only: lake_lookup is driver-side pyarrow over the pruned
        # chain — no Ray session, no replay inputs
        if args.fixture or args.binlog_dir:
            p.error("--lookup is a read-only mode; drop --fixture/--binlog-dir")
        from .pipelines.replay import lake_lookup

        repo, _, path = args.lookup.partition(":")
        t = lake_lookup(args.lake, repo, path or None, as_of_epoch=args.as_of)
        out = {
            "repo": repo,
            "path": path or None,
            "rows": t.num_rows,
            "records": t.to_pylist(),
        }
        print(json.dumps(out, sort_keys=True, default=str))
        return out

    if args.history is not None:
        if args.fixture or args.binlog_dir:
            p.error("--history is a read-only mode; drop --fixture/--binlog-dir")
        from .pipelines.replay import key_history

        repo, sep, path = args.history.partition(":")
        if not sep or not path:
            p.error("--history needs REPO:PATH (a point key)")
        t = key_history(args.lake, repo, path, columns=["content"])
        out = {
            "repo": repo,
            "path": path,
            "changes": t.num_rows,
            "records": t.to_pylist(),
        }
        print(json.dumps(out, sort_keys=True, default=str))
        return out

    if args.schema_history:
        from .pipelines.replay import lake_schema_history

        t = lake_schema_history(args.lake)
        out = {"columns": t.to_pylist()}
        print(json.dumps(out, sort_keys=True))
        return out

    if args.compact_feed and not (args.fixture or args.binlog_dir):
        # maintenance-only invocation: compact the spool, no replay.
        # Refuse flag soups instead of silently dropping them (--erase
        # would otherwise be swallowed — a compliance-relevant no-op);
        # --export-feed composes: export the pending diff, THEN compact.
        if args.erase is not None:
            p.error("--compact-feed with --erase: run --erase first "
                    "(it scrubs spool segments the compaction would "
                    "fold), then --compact-feed")
        from .pipelines.replay import compact_feed

        if args.export_feed:
            from .pipelines.replay import export_changelog

            export_changelog(args.lake, args.export_feed)
        out = compact_feed(args.lake, args.compact_feed)
        print(json.dumps(out, sort_keys=True))
        return out

    if args.erase is not None:
        if args.fixture or args.binlog_dir:
            p.error("--erase is a maintenance mode; drop --fixture/--binlog-dir")
        from .pipelines.replay import erase_key, erase_key_from_feed

        repo, _, path = args.erase.partition(":")
        out = erase_key(args.lake, repo, path or None)
        if args.export_feed:  # scrub the spooled CDC feed too
            out.update(erase_key_from_feed(args.export_feed, repo, path or None))
        print(json.dumps({"erase": {"repo": repo, "path": path or None}, **out},
                         sort_keys=True))
        return out

    if sum(x is not None for x in (args.fixture, args.binlog_dir, args.envelope_dir)) != 1:
        p.error("exactly one of --fixture / --binlog-dir / --envelope-dir is required")

    if args.serve is not None:
        import time as _time

        from .trigger import TriggerServer

        # the job body IS this CLI run, minus the serve flag — one code
        # path for batch and triggered execution (the reference's
        # JobLauncher launches the same Job the cron would).
        raw = list(argv) if argv is not None else __import__("sys").argv[1:]
        srv = TriggerServer(
            lambda: main(_strip_serve(raw)), port=args.serve, every=args.every
        )
        host, port = srv.start()
        print(json.dumps({"serving": f"http://{host}:{port}/execute"}), flush=True)
        try:
            while True:
                _time.sleep(3600)
        except KeyboardInterrupt:
            srv.stop()
        return {"served": True}

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    import ray.data as rd

    from .pipelines.reconcile_run import reconcile_lake_vs_snapshot
    from .pipelines.replay import ReplayConfig, follow_stream, replay, replay_stream
    from .pipelines.report import write_report
    from .stages.normalize import make_normalizer

    if args.fixture:
        with open(os.path.join(args.fixture, "fixture.json")) as fh:
            man = json.load(fh)
        salt = man.get("salt_hot_repos", {})
        snapshot_path = os.path.join(args.fixture, "snapshot.parquet")
    else:
        salt = {}
        snapshot_path = args.snapshot
    cfg = ReplayConfig(
        lake_root=args.lake,
        num_buckets=args.num_buckets,
        salt_for_repo=salt,
        pipeline_epochs=args.pipeline_epochs,
        post_compact=args.compact,
    )
    envelope_poll = None
    if args.envelope_dir is not None:
        # Debezium-style JSONL feed: convert (resumable, atomic) into a
        # sidecar dir under the lake, then the standard discovery-based
        # replay runs on the converted binlog. Underscore-prefixed like
        # the other sidecars (_reconcile_state, _reconcile_full) —
        # vacuum and lake scans only walk the lake root's epoch=* dirs,
        # so no sidecar (nor view/epoch=N) is taken for lake data.
        from .sources.cdc_envelope import convert_envelope_dir

        conv = os.path.join(args.lake, "_binlog_conv")
        on_error = "quarantine" if args.envelope_dlq else "raise"
        if args.follow:
            import glob as _g

            def envelope_poll() -> None:
                # read the upstream _EOS BEFORE converting: the producer
                # writes it after its last envelope file, so seeing it
                # first guarantees this convert pass covers everything —
                # forwarding it after a check-then-convert race could
                # strand an unconverted tail epoch
                eos = os.path.exists(os.path.join(args.envelope_dir, "_EOS"))
                if _g.glob(os.path.join(args.envelope_dir, "*.jsonl")):
                    convert_envelope_dir(args.envelope_dir, conv, on_error=on_error)
                if eos:
                    os.makedirs(conv, exist_ok=True)
                    with open(os.path.join(conv, "_EOS"), "w"):
                        pass
        else:
            convert_envelope_dir(args.envelope_dir, conv, on_error=on_error)
        args.binlog_dir = conv

    if args.fixture:
        metrics = replay(args.fixture, cfg)
    elif args.follow:
        # continuous consumers ride the tail: each sealed batch advances
        # the maintained view / spools the outbound feed incrementally
        on_batch = None
        if args.view or args.export_feed:
            def on_batch(c):  # noqa: E306
                if args.view:
                    _advance_repo_view(c.lake_root)
                if args.export_feed:
                    from .pipelines.replay import export_changelog

                    export_changelog(c.lake_root, args.export_feed)

        metrics = follow_stream(
            args.binlog_dir, cfg, lake_seed=args.lake_seed, on_batch=on_batch,
            poll_hook=envelope_poll,
        )
    else:
        metrics = replay_stream(args.binlog_dir, cfg, lake_seed=args.lake_seed)

    vacuum_stats = None
    if args.vacuum:
        from .pipelines.replay import vacuum

        vacuum_stats = vacuum(cfg)

    if args.bucket_stats:
        from .pipelines.replay import bucket_stats

        print(json.dumps({"bucket_stats": bucket_stats(cfg)["summary"]},
                         sort_keys=True))

    if args.auto_salt:
        from .pipelines.replay import auto_rebucket

        m = auto_rebucket(cfg, args.auto_salt,
                          skew_threshold=args.auto_salt_threshold)
        print(json.dumps({"auto_salt": {
            "skipped": m["skipped"],
            "salt_for_repo": m.get("salt_for_repo")
                             or m["plan"]["salt_for_repo"],
            "hot_parts": m["plan"]["hot_parts"],
        }}, sort_keys=True))

    view_rows = _advance_repo_view(args.lake) if args.view else None

    feed_seg = None
    if args.export_feed:
        from .pipelines.replay import export_changelog

        fm = export_changelog(args.lake, args.export_feed)
        feed_seg = fm.get("segment") if not fm["skipped"] else "skipped"
    if args.export_envelopes:
        from .sources.cdc_envelope import export_feed_envelopes

        export_feed_envelopes(args.export_feed, args.export_envelopes)
    if args.compact_feed:
        from .pipelines.replay import compact_feed

        cf = compact_feed(args.lake, args.compact_feed)
        feed_seg = cf.get("segment", feed_seg) if not cf["skipped"] else feed_seg

    if snapshot_path is None:
        summary = {"epochs": len(metrics), "lake_root": args.lake, "reconciled": False}
        if view_rows is not None:
            summary["view_repos"] = view_rows
        if vacuum_stats is not None:
            summary["vacuumed"] = vacuum_stats["deleted"]
        if feed_seg is not None:
            summary["feed_segment"] = feed_seg
        print(json.dumps(summary, sort_keys=True))
        return summary

    snap = rd.read_parquet(snapshot_path).map_batches(
        make_normalizer(args.num_buckets, salt), batch_format="pyarrow"
    )
    inc_metrics = None
    if args.incremental:
        from .pipelines.reconcile_run import reconcile_incremental

        st = os.stat(snapshot_path)
        # size + ns-mtime: a same-size same-second swap (rsync -a of a
        # different artifact) still almost always moves one of these;
        # callers with stronger needs pass a content digest themselves
        token = f"{os.path.abspath(snapshot_path)}:{st.st_size}:{st.st_mtime_ns}"
        detail, rollup, counts, inc_metrics = reconcile_incremental(
            args.lake, snap, num_buckets=args.num_buckets, salt_for_repo=salt,
            snapshot_token=token,
        )
    else:
        detail, rollup, counts = reconcile_lake_vs_snapshot(
            args.lake, snap, num_buckets=args.num_buckets, salt_for_repo=salt
        )
    meta = {"epochs": len(metrics), "lake_root": args.lake}
    if inc_metrics is not None:
        meta["incremental"] = inc_metrics
    if view_rows is not None:
        meta["view_repos"] = view_rows
    if vacuum_stats is not None:
        meta["vacuumed"] = vacuum_stats["deleted"]
    if feed_seg is not None:
        meta["feed_segment"] = feed_seg
    summary = write_report(
        detail, rollup, counts, args.report or os.path.join(args.lake, "report"),
        meta=meta,
    )
    print(json.dumps(summary, sort_keys=True))
    return summary


if __name__ == "__main__":
    main()
