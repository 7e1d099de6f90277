"""Span tracing of the engine's layers, for the benchmark's traced run.

``install()`` replaces the public functions of each layer with timing
wrappers, in every ``etl_reconciliate_ray`` module that holds them and
in ``pyarrow.parquet``: at once in the modules already loaded, and in
the others as soon as they load. The driver calls it directly; every
Ray worker calls it through ``worker_setup``, Ray's worker process
setup hook, before it runs a task.

A span records its name (``layer.function``), the driver's phase (None
in a worker), the bucket when the call names one, its start and end on
the system-wide monotonic clock, its self time (duration minus the
spans it encloses) and the rows, bytes and files it handled. A worker
appends its spans to ``spans-<pid>.jsonl`` in the trace directory each
time its outermost span ends, because Ray reaps idle workers mid-run
and their memory goes with them. ``layer_metrics`` later gives every
worker span the phase whose window holds its start.
"""

from __future__ import annotations

import bisect
import functools
import glob
import importlib.abc
import importlib.machinery
import json
import os
import statistics
import sys
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

_local = threading.local()
_spans: list[list] = []
_lock = threading.Lock()
_state = {"phase": None, "dir": None, "worker": False, "installed": False}


def set_phase(phase: str | None) -> None:
    _state["phase"] = phase


def _record(name: str, t0: float, t1: float, child: float, rows=0, nbytes=0,
            files=0, bucket=None) -> None:
    span = [name, _state["phase"], bucket, t0, t1, t1 - t0 - child, rows, nbytes, files]
    with _lock:
        _spans.append(span)


def _flush() -> None:
    with _lock:
        out, _spans[:] = list(_spans), []
    if out:
        path = os.path.join(_state["dir"], f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.write("".join(json.dumps(s) + "\n" for s in out))


def _span(name: str, fn, measure, before, args, kwargs):
    stack = _local.__dict__.setdefault("stack", [])
    stack.append(0.0)
    pre = before(args, kwargs) if before else None
    t0 = time.monotonic()
    try:
        result = fn(*args, **kwargs)
    finally:
        t1 = time.monotonic()
        child = stack.pop()
        if stack:
            stack[-1] += t1 - t0
    rows, nbytes, files, bucket = (
        measure(args, kwargs, result, pre) if measure else (0, 0, 0, None)
    )
    _record(name, t0, t1, child, rows, nbytes, files, bucket)
    if _state["worker"] and not stack:
        _flush()
    return result


def _traced(name: str, fn, measure=None, before=None):
    """Wrap ``fn`` in a span. ``before(args, kwargs)`` runs ahead of the
    call; ``measure(args, kwargs, result, pre)`` returns ``(rows, bytes,
    files, bucket)``. The wrapper keeps ``fn``'s module and qualified
    name, so pickling it for a Ray task still resolves by reference to
    the receiving worker's own (traced) attribute."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _span(name, fn, measure, before, args, kwargs)

    return wrapper


class _TracedCall:
    """A traced callable that pickles by value (for closures, which have
    no importable name): its span state is looked up in the receiving
    process's copy of this module."""

    def __init__(self, name: str, fn, measure=None):
        self.name, self.fn, self.measure = name, fn, measure

    def __call__(self, *args, **kwargs):
        return _span(self.name, self.fn, self.measure, None, args, kwargs)


def _len(x) -> int:
    return len(x) if x is not None and hasattr(x, "__len__") else 0


def _rows_out(args, kwargs, result, pre):
    return _len(result), 0, 0, None


def _rows_in(args, kwargs, result, pre):
    return _len(args[0]), 0, 0, None


def _read_chain(args, kwargs, result, pre):
    chain = args[0] if args else kwargs["chain"]
    pieces = sum(len(link["files"]) for link in chain)
    part = kwargs.get("part", args[2] if len(args) > 2 else None)
    return _len(result), 0, pieces, part


def _pair(args, kwargs, result, pre):
    return _len(args[0]) + _len(args[1]), 0, 0, None


def _piece(args, kwargs, result, pre):
    return int(result["rows"]), 0, 0, int(args[2])


def _read(args, kwargs, result, pre):
    return result.num_rows, result.nbytes, 0, None


def _log_bytes(log) -> int:
    return sum(os.path.getsize(p) for p in (log.path, log.snapshot_path) if os.path.exists(p))


def _log_before(args, kwargs):
    return _log_bytes(args[0])


def _log_grown(args, kwargs, result, pre):
    """Commit-log appends: rows committed and bytes the log grew by."""
    rows = sum(e.rows for e in args[1]) if isinstance(args[1], list) else 0
    return rows, _log_bytes(args[0]) - pre, 0, None


def _log_rewritten(args, kwargs, result, pre):
    """A snapshot rewrite counts what it wrote: the snapshot and the
    fresh tail."""
    return 0, _log_bytes(args[0]), 0, None


def _closed_file(args, kwargs, result, pre):
    """``ParquetWriter.close`` is where every parquet file write ends
    (``pq.write_table`` writes through a ``ParquetWriter``), so the file
    and its bytes are counted here, once."""
    if pre and isinstance(args[0].where, str) and os.path.exists(args[0].where):
        return 0, os.path.getsize(args[0].where), 1, None
    return 0, 0, 0, None


def _is_open(args, kwargs):
    return args[0].is_open


#: (module, attribute, span name, measure) — the layers' public calls
_FUNCS = [
    ("etl_reconciliate_ray.functions.hashing", "sha256_hex_array", "hashing.sha256", _rows_in),
    ("etl_reconciliate_ray.functions.hashing", "bucket_of", "hashing.bucket", _rows_in),
    ("etl_reconciliate_ray.functions.hashing", "table_state_sha256", "hashing.digest", _rows_in),
    ("etl_reconciliate_ray.functions.hashing", "key_strings", "hashing.keys", _rows_in),
    ("etl_reconciliate_ray.stages.merge", "read_chain", "merge.read_chain", _read_chain),
    ("etl_reconciliate_ray.stages.merge", "resolve_chain_tables", "merge.resolve", _rows_out),
    ("etl_reconciliate_ray.stages.merge", "lww_reduce", "merge.resolve", _rows_out),
    ("etl_reconciliate_ray.stages.reconcile", "reconcile_pair_pdf", "reconcile.pair", _pair),
    ("etl_reconciliate_ray.stages.writer", "write_piece_local", "io.write", _piece),
    ("pyarrow.parquet", "read_table", "io.read", _read),
    ("pyarrow.parquet", "write_table", "io.write", None),
]


#: the modules that define the traced calls
_MODULES = {m for m, *_ in _FUNCS} | {
    "etl_reconciliate_ray.stages.normalize", "etl_reconciliate_ray.state.commitlog",
}


def _wrap(mod) -> None:
    """Wrap the traced calls ``mod`` defines, and rebind every copy of
    them a loaded module took with ``from mod import f``."""
    swaps = {}
    for mod_name, attr, name, measure in _FUNCS:
        if mod_name == mod.__name__:
            fn = getattr(mod, attr)
            swaps[id(fn)] = (fn, _traced(name, fn, measure))
    if mod.__name__ == "etl_reconciliate_ray.stages.normalize":
        factory = mod.make_normalizer

        @functools.wraps(factory)
        def make_normalizer(*args, **kwargs):
            return _TracedCall("normalize", factory(*args, **kwargs), _rows_in)

        swaps[id(factory)] = (factory, make_normalizer)
    elif mod.__name__ == "pyarrow.parquet":
        pf, pw = mod.ParquetFile, mod.ParquetWriter
        pf.read_row_group = _traced("io.read", pf.read_row_group, _read)
        pw.write_table = _traced("io.write", pw.write_table)
        pw.close = _traced("io.write", pw.close, _closed_file, _is_open)
    elif mod.__name__ == "etl_reconciliate_ray.state.commitlog":
        log = mod.CommitLog
        log.open = classmethod(_traced("commitlog.open", log.open.__func__))
        for meth in ("commit_parts", "seal_epoch"):
            setattr(log, meth, _traced("commitlog.append", getattr(log, meth),
                                       _log_grown, _log_before))
        log.write_snapshot = _traced("commitlog.append", log.write_snapshot, _log_rewritten)
    for mod_name, m in list(sys.modules.items()):
        if m is None or not mod_name.startswith(("etl_reconciliate_ray", "pyarrow.parquet")):
            continue
        for attr, val in list(vars(m).items()):
            hit = swaps.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(m, attr, hit[1])


class _WrapOnLoad(importlib.abc.MetaPathFinder):
    """Wraps each traced module right after it first runs, so a Ray
    worker pays for tracing only the modules its tasks import."""

    def find_spec(self, name, path, target=None):
        if name not in _MODULES:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_wrap(module):
            exec_module(module)
            _wrap(module)

        spec.loader.exec_module = exec_and_wrap
        return spec


def install() -> None:
    """Trace every traced call in this process: wrap the modules already
    loaded, and the others as they load (idempotent)."""
    if _state["installed"]:
        return
    for name in _MODULES:
        if name in sys.modules:
            _wrap(sys.modules[name])
    sys.meta_path.insert(0, _WrapOnLoad())
    _state["installed"] = True


def worker_setup() -> None:
    """``worker_process_setup_hook``: trace this worker, flushing to the
    directory the driver exported before starting Ray."""
    _state["dir"] = os.environ[TRACE_DIR_ENV]
    _state["worker"] = True
    install()


def collect(trace_dir: str) -> list[list]:
    """Driver spans plus every span the workers flushed."""
    spans = list(_spans)
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


#: per-layer metrics: (metric, span name, field) — field is "self"
#: (seconds), "rows", "bytes", "files" or "calls"
_SUMS = [
    ("hashing.sha256_s", "hashing.sha256", "self"),
    ("hashing.sha256_rows", "hashing.sha256", "rows"),
    ("hashing.bucket_s", "hashing.bucket", "self"),
    ("hashing.digest_s", "hashing.digest", "self"),
    ("hashing.keys_s", "hashing.keys", "self"),
    ("normalize.s", "normalize", "self"),
    ("normalize.rows", "normalize", "rows"),
    ("merge.read_chain_s", "merge.read_chain", "self"),
    ("merge.read_chain_calls", "merge.read_chain", "calls"),
    ("merge.resolve_s", "merge.resolve", "self"),
    ("reconcile.pair_s", "reconcile.pair", "self"),
    ("reconcile.pair_rows", "reconcile.pair", "rows"),
    ("io.write_s", "io.write", "self"),
    ("io.write_bytes", "io.write", "bytes"),
    ("io.write_files", "io.write", "files"),
    ("io.read_s", "io.read", "self"),
    ("io.read_bytes", "io.read", "bytes"),
    ("commitlog.open_s", "commitlog.open", "self"),
    ("commitlog.open_calls", "commitlog.open", "calls"),
    ("commitlog.append_s", "commitlog.append", "self"),
    ("commitlog.log_bytes", "commitlog.append", "bytes"),
]
_FIELD = {"self": 5, "rows": 6, "bytes": 7, "files": 8}


def layer_metrics(spans: list[list], windows: list[tuple[str, float, float]]) -> dict[str, float]:
    """``<phase>.<metric>`` for every phase that has a window. Self
    times of a phase's spans plus its ``unattributed_s`` add up to the
    phase's wall time (the sum of its windows)."""
    windows = sorted(windows, key=lambda w: w[1])
    starts = [w[1] for w in windows]
    by_phase: dict[str, list[list]] = {}
    for s in spans:
        phase = s[1]
        if phase is None:
            i = bisect.bisect_right(starts, s[3]) - 1
            if i < 0 or s[3] > windows[i][2]:
                continue  # outside every timed window (warm-up, checks)
            phase = windows[i][0]
        by_phase.setdefault(phase, []).append(s)
    wall: dict[str, float] = {}
    for phase, t0, t1 in windows:
        wall[phase] = wall.get(phase, 0.0) + (t1 - t0)

    out: dict[str, float] = {}
    for phase, total in wall.items():
        ph = by_phase.get(phase, [])
        for metric, name, field in _SUMS:
            sel = [s for s in ph if s[0] == name]
            out[f"{phase}.{metric}"] = (
                float(len(sel)) if field == "calls" else float(sum(s[_FIELD[field]] for s in sel))
            )
        reads = [s for s in ph if s[0] == "merge.read_chain"]
        out[f"{phase}.merge.pieces_per_read"] = (
            sum(s[8] for s in reads) / len(reads) if reads else 0.0
        )
        pairs = [s[5] for s in ph if s[0] == "reconcile.pair"]
        out[f"{phase}.reconcile.part_max_over_median"] = (
            max(pairs) / statistics.median(pairs) if pairs and statistics.median(pairs) > 0 else 0.0
        )
        committed = sum(s[6] for s in ph if s[0] == "commitlog.append")
        out[f"{phase}.hashing.rows_hashed_per_live_row"] = (
            out[f"{phase}.hashing.sha256_rows"] / committed if committed else 0.0
        )
        out[f"{phase}.unattributed_s"] = total - sum(s[5] for s in ph)
        out[f"{phase}.wall_s"] = total
    return out
