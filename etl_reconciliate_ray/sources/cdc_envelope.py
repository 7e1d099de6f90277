"""Debezium-style CDC envelope source: JSONL change events -> binlog.

The reference ingests changes by re-querying JDBC sources
(``LoadJpatBatchesTasklet.java``); real CDC feeds arrive as change
*envelopes* — the public Debezium JSON shape ``{op, ts_ms, before,
after, source}`` with ``op`` in {c(reate), u(pdate), d(elete),
r(ead/snapshot)} and row images under ``before``/``after``. This module
adapts that feed to the engine's binlog schema (``seq, op(I/U/D),
repo, path, <payload cols...>``) so the standard replay path —
commit-log fencing, LWW merge, schema evolution, follow mode — ingests
Debezium-shaped streams unchanged.

Scale shape: one plain task per epoch file (a producer micro-batch,
bounded by contract) reads it once with ``pyarrow.json.read_json``,
converts it with a map-only Arrow kernel (``struct_field`` gathers +
one dictionary op remap; no per-row Python) and publishes the epoch
through ``stages.writer.publish_parquet`` (fsync, then rename), so a
killed convert never leaves a half-written epoch for discovery to trip
on. Conversion is RESUMABLE: finished epochs are skipped by name.

Additive schema evolution falls out naturally: every field of the
``after`` image is carried to the binlog row, so a field that appears
mid-stream becomes a new column exactly like the parquet path
(``_binlog_scan_schema`` null-fills older epochs).
"""

from __future__ import annotations

import glob
import os
import re
import shutil

import pyarrow as pa
import pyarrow.compute as pc

# Debezium op -> engine op. 'r' (snapshot read) is an upsert-style
# initial load, same as create for an LWW lake.
_OP_MAP = {"c": "I", "r": "I", "u": "U", "d": "D"}


def _struct_field(col: pa.ChunkedArray | pa.Array, name: str, n: int):
    """Null-safe struct field get: a JSON-inferred all-null image
    column (e.g. ``before`` in an all-insert epoch) arrives as Arrow
    null type with no fields — return typed nulls instead of crashing."""
    if col is None or pa.types.is_null(col.type) or not pa.types.is_struct(col.type):
        return None
    typ = col.type
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if typ.get_field_index(name) < 0:
        return None
    return pc.struct_field(col, name)


def _image_fields(batch: pa.Table, image: str) -> list[str]:
    if image not in batch.column_names:
        return []
    t = batch.schema.field(image).type
    if not pa.types.is_struct(t):
        return []
    return [t.field(i).name for i in range(t.num_fields)]


def envelope_to_binlog(batch: pa.Table) -> pa.Table:
    """Vectorized envelope -> binlog row conversion (one batch).

    Accepts the flat unwrapped layout (``op/before/after/source`` as
    top-level columns — Debezium's ExtractNewRecordState sits upstream
    in many deployments) or the full envelope nested under ``payload``.
    Key columns (``repo, path``) come from ``after`` for I/U and
    ``before`` for D; every other ``after`` field rides along as a
    payload column (null on deletes, exactly like the parquet binlog).
    ``seq`` comes from ``source.seq`` (or a top-level ``seq``) — the
    feed's total order, required. Unknown ``op`` values refuse loudly:
    a silently dropped change would desync the lake forever."""
    good, bad = split_envelope_batch(batch)
    if bad.num_rows:
        sample = bad.slice(0, 3).to_pylist()
        raise ValueError(
            f"cdc envelope: {bad.num_rows} row(s) violate the envelope "
            f"contract (e.g. {sample}) — refusing to drop changes "
            "silently; use convert_envelope_dir(on_error='quarantine') "
            "to dead-letter them instead"
        )
    return good


def split_envelope_batch(batch: pa.Table) -> tuple[pa.Table, pa.Table]:
    """Vectorized envelope conversion with per-row contract checks.
    Returns ``(binlog_rows, dead_letters)`` where dead letters carry
    ``(seq?, reason, record)`` — ``reason`` in {unknown_op, null_seq,
    null_key}. Feed-SCHEMA violations (no sequence field anywhere, key
    fields in neither image) still raise: they mean the whole feed is
    miswired, not that a row went bad."""
    import numpy as np

    if "payload" in batch.column_names:
        pay = batch["payload"].combine_chunks()
        names = _image_fields(batch, "payload")
        sub = {f: pc.struct_field(pay, f) for f in names}
        flat = pa.table(sub)
    else:
        flat = batch

    n = flat.num_rows
    op_raw = flat["op"]
    idx = pc.index_in(op_raw, value_set=pa.array(list(_OP_MAP)))
    bad_op = pc.is_null(idx).to_numpy(zero_copy_only=False)
    op = pc.take(pa.array(list(_OP_MAP.values())), idx)
    is_del = pc.fill_null(pc.equal(op, "D"), False)

    before = flat["before"] if "before" in flat.column_names else None
    after = flat["after"] if "after" in flat.column_names else None

    # seq: the feed's total order. source.seq, else top-level seq.
    seq = None
    if "source" in flat.column_names:
        seq = _struct_field(flat["source"], "seq", n)
    if seq is None and "seq" in flat.column_names:
        seq = flat["seq"]
    if seq is None:
        raise ValueError(
            "cdc envelope: no sequence field (source.seq or seq) — the "
            "engine needs the feed's total order for LWW replay"
        )
    bad_seq = pc.is_null(seq).to_numpy(zero_copy_only=False)

    def _norm(x):
        # a JSON-inferred all-null field arrives as Arrow null type;
        # rebind to string so if_else/filter kernels have a real type
        if x is not None and pa.types.is_null(x.type):
            return pa.nulls(n, pa.string())
        return x

    def keyed(name: str):
        a = _norm(_struct_field(after, name, n))
        b = _norm(_struct_field(before, name, n))
        if a is None and b is None:
            raise ValueError(f"cdc envelope: key field {name!r} in neither image")
        if a is None:
            return b
        if b is None:
            # deletes need before-image keys; flag them per row below
            return pc.if_else(is_del, pa.nulls(n, a.type), a)
        return pc.if_else(is_del, b, a)

    repo = keyed("repo")
    path = keyed("path")
    bad_key = (
        pc.or_(pc.is_null(repo), pc.is_null(path)).to_numpy(zero_copy_only=False)
        & ~bad_op  # an unknown-op row reports unknown_op, not null_key
    )

    bad_any = bad_op | bad_seq | bad_key
    cols: dict[str, object] = {
        "seq": pc.cast(seq, pa.int64()),
        "op": op,
        "repo": repo,
        "path": path,
    }
    if "ts_ms" in flat.column_names and not pa.types.is_null(
        flat.schema.field("ts_ms").type
    ):
        cols["ts"] = pc.cast(
            pc.cast(flat["ts_ms"], pa.int64()), pa.timestamp("ms")
        )
    # payload: every non-key after field. Deletes carry nulls EXPLICITLY
    # (matching the native binlog's tombstone shape) — a producer that
    # populates after on a delete must not leak payload into the
    # tombstone row
    for f in _image_fields(flat, "after"):
        if f in ("repo", "path"):
            continue
        if f in ("seq", "op", "ts"):
            # engine-reserved columns: an after-image field with one of
            # these names would silently OVERWRITE the feed's total
            # order / op / event time — a miswired feed schema, so the
            # whole feed refuses loudly (same contract as a missing
            # sequence field), never a per-row dead letter
            raise ValueError(
                f"cdc envelope: after-image field {f!r} collides with an "
                "engine-reserved binlog column (seq/op/ts) — rename the "
                "payload column in the producer; replaying it would "
                "corrupt LWW order or tombstone semantics"
            )
        fcol = _struct_field(after, f, n)
        if not pa.types.is_null(fcol.type):
            fcol = pc.if_else(is_del, pa.nulls(n, fcol.type), fcol)
        cols[f] = fcol
    keep = pa.array(~bad_any)
    good = pa.table({k: (v.filter(keep) if bad_any.any() else v) for k, v in cols.items()})

    if not bad_any.any():
        dead = pa.table({
            "seq": pa.array([], pa.int64()),
            "reason": pa.array([], pa.string()),
            "record": pa.array([], pa.string()),
        })
        return good, dead

    # dead letters are exceptional — a per-row render of just the bad
    # slice is fine (and keeps arbitrary nested envelopes readable)
    import json as _json

    reason = np.where(bad_op, "unknown_op", np.where(bad_seq, "null_seq", "null_key"))
    bad_rows = batch.filter(pa.array(bad_any)).to_pylist()
    bad_seq_vals = pc.cast(seq, pa.int64()).filter(pa.array(bad_any))
    dead = pa.table({
        "seq": bad_seq_vals,
        "reason": pa.array(reason[bad_any].tolist(), pa.string()),
        "record": pa.array(
            [_json.dumps(r, sort_keys=True, default=str) for r in bad_rows],
            pa.string(),
        ),
    })
    return good, dead


def convert_envelope_dir(
    env_dir: str, out_dir: str, on_error: str = "raise"
) -> list[str]:
    """Convert every ``*.jsonl`` epoch file under ``env_dir`` into a
    binlog epoch parquet under ``out_dir`` (same ``epoch=NNNNN`` stem),
    ready for ``replay_stream``/``follow`` discovery. One
    ``replay._per_part`` task per pending file (``_convert_file``), in
    name order, so a crash leaves the converted prefix discovery needs.
    Resumable (existing outputs skipped, a crashed attempt's tmp files
    removed) and durable (``publish_parquet``; the ``.empty`` marker
    through ``CommitLog._write_atomic``). Returns the converted output
    paths (skipped ones included, in epoch order).

    ``on_error``: ``"raise"`` (default) fails the epoch on the first
    contract-violating row; ``"quarantine"`` dead-letters violating
    rows to ``<out_dir>/_quarantine/<stem>.parquet`` (columns ``seq?,
    reason, record``) and converts the rest — logged, never silent.
    Wire-level malformed JSON still fails the whole file either way
    (the producer contract is atomic-rename publish of complete
    epochs)."""
    import logging

    from ..pipelines.replay import _gather, _per_part
    from ..state.commitlog import CommitLog

    if on_error not in ("raise", "quarantine"):
        raise ValueError(f"unknown on_error mode: {on_error!r}")
    os.makedirs(out_dir, exist_ok=True)
    outs: list[str] = []
    files = sorted(glob.glob(os.path.join(env_dir, "*.jsonl")))
    if not files:
        raise ValueError(f"cdc envelope: no *.jsonl epoch files under {env_dir}")
    qdir = os.path.join(out_dir, "_quarantine")
    for f in files:
        stem = re.sub(r"\.jsonl$", "", os.path.basename(f))
        out = os.path.join(out_dir, f"{stem}.parquet")
        outs.append(out)
        # <stem>.parquet.empty marks an epoch without binlog rows: no
        # file to discover (an empty parquet has no seq footer stats),
        # but the conversion must not re-run every poll
        if os.path.exists(out):
            continue
        if os.path.exists(out + ".empty"):
            outs.pop()
            continue
        for stale in glob.glob(out + ".tmp*") + glob.glob(os.path.join(qdir, f"{stem}.parquet.tmp*")):
            os.remove(stale)
        done = _gather(_per_part([(f, out, qdir, on_error)], _convert_file)).to_pylist()[0]
        if done["dead"]:
            logging.getLogger(__name__).warning(
                "cdc envelope: %d contract-violating row(s) in %s "
                "dead-lettered to %s", done["dead"], f, qdir,
            )
        if not done["rows"]:
            outs.pop()
            CommitLog._write_atomic(out + ".empty", [])
    return outs


def _convert_file(item: tuple[str, str, str, str]) -> pa.Table:
    """One envelope file's task: read it once as one block (a row past
    pyarrow's default block still parses), split it once, publish its
    dead letters, then its binlog rows (a crash between the two never
    loses the quarantine record). Returns ``(rows, dead)``."""
    import pyarrow.json as pajson

    from ..stages.writer import publish_parquet

    f, out, qdir, on_error = item
    size = os.path.getsize(f)  # pyarrow refuses a zero-byte file; it has no rows
    t = pajson.read_json(f, read_options=pajson.ReadOptions(block_size=size)) if size else pa.table({})
    if not t.num_rows:
        return pa.table({"rows": [0], "dead": [0]})
    name = os.path.basename(out)
    if on_error == "raise":
        good, n_dead = envelope_to_binlog(t), 0
    else:
        good, dead = split_envelope_batch(t)
        n_dead = dead.num_rows
        if n_dead:
            publish_parquet(qdir, [dead], name=name)
    if good.num_rows:
        publish_parquet(os.path.dirname(out), [good], name=name)
    return pa.table({"rows": [good.num_rows], "dead": [n_dead]})


def export_feed_envelopes(feed_dir: str, out_dir: str) -> list[str]:
    """Render an ``export_changelog`` spool as Debezium-style JSONL —
    the OUTBOUND half of the envelope surface, for consumers that speak
    the public CDC wire format rather than the engine's parquet feed.

    Each sealed segment ``<feed_dir>/feed/epochs=.../`` becomes a
    directory ``<out_dir>/<segment>/part-<sha>.jsonl`` + ``_SEALED``
    marker; folding all sealed segment dirs in plain name order (op
    ``r`` = snapshot read, ``c``/``u`` upserts with before/after
    images, ``d`` keyed tombstones) reproduces the lake state —
    verified against ``lake_table`` in tests.

    ``source.seq`` is a deterministic PER-KEY strict order consistent
    with that name-order fold, so the rendered envelopes are also
    re-ingestable through the inbound ``--envelope-dir`` path (LWW on
    seq resolves to the same winners): high bits = the segment's
    ordinal parsed from its name (to-epoch ×2, +1 for delta segments —
    snapshot names sort before same-head delta names), low 32 bits = a
    key digest. A diff segment carries at most ONE change per
    (repo, path), so a key's changes always live in DIFFERENT segments
    and its seq values are strictly increasing in fold order — the
    property LWW replay needs. Two DIFFERENT keys in one segment can
    digest-collide (birthday bound on 32 bits); such ties are harmless
    because LWW never compares seq across keys, but consumers must not
    treat seq as a globally unique id. Deterministic without depending
    on nondeterministic block splits. Round-tripped in tests (export →
    re-ingest → identical lake state).

    Resumable and atomic: each segment directory publishes through
    ``writer.publish_sealed``, so a current sealed one is not rendered
    again and an unsealed leftover is rebuilt from scratch (part names
    derive from content, but a crashed attempt may have split blocks
    differently, so rebuild — not resume — is the safe idempotent
    path). The spool's sealed segments and the rendered ones both come
    from ``replay._feed_segments``, and a segment's to-epoch and
    snapshot flag from ``replay._parse_segment``; a segment still being
    exported is not listed, and the next call renders it.

    The rendered directory follows the spool: each call first unseals
    and removes every rendered segment whose spool segment is no longer
    sealed (``replay.compact_feed`` deleted it) or whose ``_SEALED``
    rows differ from the spool segment's (``replay.erase_key_from_feed``
    rewrote it; rendering writes one line per spool row, so the counts
    match while the render is current), and the render loop renders
    the latter again.

    Scale shape: one ``replay._per_part`` item per parquet file of the
    segment; tasks write, fsync and rename their own part files, and
    per-row dict building (inherent to a nested-JSON wire format)
    parallelizes with them. The ``_SEALED`` marker follows, with the
    segment's ``rows`` and ``files``."""
    import hashlib
    import json as _json

    import pyarrow.parquet as pq

    from ..pipelines.replay import _feed_segments, _gather, _parse_segment, _per_part
    from ..pipelines.replay import _sealed_rows
    from ..stages.writer import publish_file, publish_sealed

    os.makedirs(out_dir, exist_ok=True)
    spool = {os.path.basename(seg): seg for seg in _feed_segments(feed_dir)}
    for dest in _feed_segments(out_dir):
        seg = spool.get(os.path.basename(dest))
        if seg is None or _sealed_rows(dest) != _sealed_rows(seg):
            os.remove(os.path.join(dest, "_SEALED"))  # unseal before the files go
            shutil.rmtree(dest)
    done: list[str] = []
    for name, seg in spool.items():
        dest = os.path.join(out_dir, name)
        done.append(dest)
        # seq high bits: segment ordinal from the NAME (stable across
        # calls/crashes) — to-epoch ×2, +1 for deltas, matching the
        # segments' lexicographic fold order (see docstring)
        to_epoch, snapshot = _parse_segment(seg)
        seq_base = (to_epoch * 2 + (0 if snapshot else 1)) << 32

        def render(f: str, dest=dest, snapshot=snapshot, name=name,
                   seq_base=seq_base) -> pa.Table:
            t = pq.read_table(f)
            old_cols = [c[:-4] for c in t.column_names if c.endswith("_old")]
            new_cols = [c[:-4] for c in t.column_names if c.endswith("_new")]
            rows = t.to_pylist()
            lines = []
            for r in rows:
                ch = r["change"]
                op = "d" if ch == "D" else ("r" if snapshot else
                                            "c" if ch == "I" else "u")
                before = None
                if ch in ("U", "D"):
                    before = {"repo": r["repo"], "path": r["path"],
                              **{c: r.get(f"{c}_old") for c in old_cols}}
                after = None
                if ch != "D":
                    after = {"repo": r["repo"], "path": r["path"],
                             "content_sha256": r.get("content_sha256"),
                             **{c: r.get(f"{c}_new") for c in new_cols}}
                key_digest = int.from_bytes(
                    hashlib.sha256(
                        f"{r['repo']}\n{r['path']}".encode()
                    ).digest()[:4], "big"
                )
                lines.append(_json.dumps({
                    "op": op, "before": before, "after": after,
                    "source": {"segment": name, "seq": seq_base + key_digest},
                }, sort_keys=True, default=str))
            if not lines:  # empty file: nothing to publish
                return pa.table({})
            blob = ("\n".join(lines) + "\n").encode()
            sha = hashlib.sha256(blob).hexdigest()[:16]
            part = os.path.join(dest, f"part-{sha}.jsonl")
            tmp = part + ".tmp"
            with open(tmp, "wb") as fh:
                fh.write(blob)
            publish_file(tmp, part)  # on disk before _SEALED can name it
            return pa.table({"file": [part], "rows": [len(lines)]})

        publish_sealed(dest, lambda: _gather(_per_part(
            sorted(glob.glob(os.path.join(seg, "*.parquet"))), render)))
    return done


def binlog_epoch_to_envelope_jsonl(epoch_parquet: str, out_path: str) -> int:
    """Inverse adapter for tests/demos: render one binlog epoch parquet
    as a Debezium-style JSONL envelope file (I->c, U->u, D->d; key
    fields under ``before`` for deletes, full row under ``after``
    otherwise, ``seq`` under ``source``). Driver-side and row-wise —
    fixture-scale tooling, not a data-path stage."""
    import json

    import pyarrow.parquet as pq

    t = pq.read_table(epoch_parquet)
    cols = t.column_names
    payload = [c for c in cols if c not in ("seq", "ts", "op")]
    rows = t.to_pylist()
    with open(out_path + ".tmp", "w") as fh:
        for r in rows:
            op = r["op"]
            img = {c: r[c] for c in payload}
            ts = r.get("ts")
            env = {
                "op": {"I": "c", "U": "u", "D": "d"}[op],
                "ts_ms": int(ts.timestamp() * 1000) if ts is not None else None,
                "before": {"repo": r["repo"], "path": r["path"]} if op == "D" else None,
                "after": None if op == "D" else img,
                "source": {"seq": r["seq"]},
            }
            fh.write(json.dumps(env, default=str) + "\n")
    os.replace(out_path + ".tmp", out_path)
    return len(rows)
