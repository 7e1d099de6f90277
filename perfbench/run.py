"""CDC benchmark: one seeded operator scenario driven through the engine's
public API, on the CPUs this process may use.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 10 --trace 0

Run from the repository root. Operations, each timed on the monotonic
wall clock: bulk replay of a binlog (``replay_stream``, pipelined direct
path); a tail of small epochs landed one at a time; point lookups
(``lake_lookup``); incremental and full reconciles against a snapshot
with planted discrepancies; ``compact``; ``export_changelog`` plus
``replicate_feed`` into a replica with another bucket count. After the
first bulk replay, the tail runs in rounds that make one operation of
every kind, so each metric's samples spread over the run. One client,
closed loop: the next epoch lands only after the previous one is
sealed, the next lookup is sent only after the previous one returned.

Every run checks its outputs: each lookup returns the oracle row, each
reconcile returns the exact expected status counts, the sealed epoch
advances by one per landed epoch, and the replica's state hash equals
the lake's. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``. The line before it holds diagnostics: the operation
times (``timed``: bulk replay rate, epoch commit, lookup, reconcile,
compaction and replication times), a calibration probe, phase wall
times, and in a traced run the tracing overhead.
"""

from __future__ import annotations

import time

T0 = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_DIR = os.path.join(ROOT, ".bench_run")
# AF_UNIX socket paths are capped at 107 bytes and Ray puts its plasma
# socket about 65 bytes below its temp dir
_SOCKET_ROOM = 40
# the writer actor pool sized to the one CPU the run is confined to
# (the direct write path never sends it work; each replay_stream and
# replicate_feed call still starts it)
WRITERS = 1


def descendants() -> dict[int, int]:
    """CPU clock ticks used so far by this process and by each of its
    descendants (the Ray head processes and workers), by pid."""
    children: dict[int, list[int]] = {}
    ticks: dict[int, int] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited mid-scan
        children.setdefault(int(fields[1]), []).append(int(d))
        ticks[int(d)] = int(fields[11]) + int(fields[12])
    out, todo = {}, [os.getpid()]
    while todo:
        pid = todo.pop()
        out[pid] = ticks.get(pid, 0)
        todo.extend(children.get(pid, []))
    return out


def settle(limit: float = 3.0) -> float:
    """Wait, at most ``limit`` seconds, until the Ray processes have been
    idle for 50 ms: used at most one clock tick of CPU between them.
    On one CPU, a worker process Ray starts in the background during one
    operation otherwise spends its start-up (0.3–0.7 s of imports) inside
    whichever operation is timed next. Returns the seconds waited."""
    me = os.getpid()
    t0 = time.monotonic()
    prev = descendants()
    while time.monotonic() < t0 + limit:
        time.sleep(0.05)
        now = descendants()
        if sum(t - prev.get(pid, 0) for pid, t in now.items() if pid != me) < 2:
            break
        prev = now
    return time.monotonic() - t0


class RssSampler(threading.Thread):
    """Peak resident memory of this process and all its descendants (the
    Ray head processes and workers), sampled every 0.5 s while enabled:
    the sum of each process's private memory (``RssAnon``) plus the
    largest shared-memory mapping (``RssShmem``, the object store that
    every worker maps, counted once). It reads the counters in
    ``/proc/<pid>/status``: reading ``Pss`` from ``smaps_rollup``
    instead walks each process's page tables under its memory-map
    lock, which stalled the processes being measured and added 20-50%
    to the run-to-run spread of the timed operations."""

    def __init__(self):
        super().__init__(daemon=True)
        self.peak = 0
        self.cpu_s = 0.0
        self.enabled = threading.Event()
        self.stopped = threading.Event()

    @staticmethod
    def _rss(pid: int) -> tuple[int, int]:
        anon = shmem = 0
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("RssAnon:"):
                        anon = int(line.split()[1]) << 10
                    elif line.startswith("RssShmem:"):
                        shmem = int(line.split()[1]) << 10
        except OSError:
            pass  # exited mid-scan
        return anon, shmem

    def run(self):
        while not self.stopped.wait(0.5):
            if self.enabled.is_set():
                rss = [self._rss(p) for p in descendants()]
                self.peak = max(self.peak, sum(a for a, _ in rss) + max(s for _, s in rss))
                self.cpu_s = time.thread_time()


class Failed(Exception):
    """An engine call raised: the scenario cannot go on."""


class Scenario:
    """The operator scenario on one generated workload instance."""

    def __init__(self, g, work: str, tracer=None, warmup: bool = False):
        self.g, self.w, self.work, self.tracer = g, g.w, work, tracer
        # the warm-up runs each operation kind, and skips the second
        # bulk replay and the compaction of the lake itself
        self.warmup = warmup
        self.cfg = self._config("lake")
        self.windows: list[tuple[str, float, float]] = []
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.facts: dict = {}
        self.settled: list[float] = []  # seconds waited for an idle Ray

    @contextlib.contextmanager
    def timed(self, phase: str, sample: str | None = None, quiet: bool = True):
        """Time one operation as a window of ``phase``; keep its wall
        time as a sample of ``sample``. With ``quiet``, first wait
        (untimed) for the Ray processes to go idle."""
        if quiet:
            self.settled.append(settle())
        self.attempted += 1
        if self.tracer:
            self.tracer.set_phase(phase)
        t0 = time.monotonic()
        try:
            yield
        except Exception as e:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise Failed(f"{phase}: {e!r}") from e
        finally:
            t1 = time.monotonic()
            if self.tracer:
                self.tracer.set_phase(None)
            self.windows.append((phase, t0, t1))
        self.samples.setdefault(sample or phase, []).append(t1 - t0)

    def check(self, ok: bool, what: str) -> None:
        """A wrong output counts its operation as failed."""
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def _config(self, name: str, buckets: int | None = None):
        from etl_reconciliate_ray.pipelines.replay import ReplayConfig
        from perfbench.gen import NUM_BUCKETS

        return ReplayConfig(
            lake_root=os.path.join(self.work, name), num_buckets=buckets or NUM_BUCKETS,
            salt_for_repo=self.g.salt, pipeline_epochs=4, writer_concurrency=WRITERS,
        )

    def _sealed(self, cfg=None) -> int | None:
        from etl_reconciliate_ray.state.commitlog import CommitLog

        return CommitLog.open((cfg or self.cfg).lake_root).latest_sealed_epoch()

    def _snapshot_ds(self):
        import ray.data as rd

        from etl_reconciliate_ray.stages.normalize import make_normalizer

        return rd.read_parquet(self.g.snapshot.path).map_batches(
            make_normalizer(self.cfg.num_buckets, self.g.salt), batch_format="pyarrow"
        )

    def _lake_bytes(self) -> int:
        from etl_reconciliate_ray.state.commitlog import CommitLog

        files = CommitLog.open(self.cfg.lake_root).referenced_files()
        return sum(os.path.getsize(f) for f in files)

    @staticmethod
    def _counts(df) -> dict[str, int]:
        return {str(s): int(n) for s, n in zip(df["status"], df["n"]) if int(n)}

    def _reconcile_inc(self, expect: dict[str, int]) -> dict:
        from etl_reconciliate_ray.pipelines.reconcile_run import reconcile_incremental

        _, _, counts, m = reconcile_incremental(
            self.cfg.lake_root, self._snapshot_ds(), self.cfg.num_buckets, self.g.salt,
            snapshot_token="planted",
        )
        self.check(self._counts(counts) == expect,
                   f"incremental reconcile {self._counts(counts)} != {expect}")
        return m

    def run(self) -> None:
        from etl_reconciliate_ray.pipelines.replay import lake_state_hash, replay_stream
        from perfbench.gen import expected_counts

        g, w, cfg = self.g, self.w, self.cfg
        with self.timed("bulk"):
            replay_stream(g.binlog, cfg, lake_seed=g.seed_path)
        sealed = self._sealed()
        self.check(sealed == w.bulk_epochs, f"bulk sealed epoch {sealed} != {w.bulk_epochs}")
        for ev in g.bulk:
            g.oracle.apply(ev)

        self.attempted += 1  # priming the incremental state, untimed
        try:
            self._reconcile_inc(expected_counts(g.oracle, g.snapshot))
        except Exception as e:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise Failed(f"reconcile_inc prime: {e!r}") from e

        # The tail runs in rounds of `round_epochs` epochs. Each epoch is
        # followed by an incremental reconcile, and each round makes one
        # operation of every other kind, spread between its epochs; each
        # epoch's lookups are split between the gaps after it. The
        # samples of every metric so spread over the whole run: on a
        # shared host the speed of memory-bound work drifts over seconds,
        # and samples taken back to back share one drift.
        others = [self._reconcile, self._compact_and_replicate]
        if not self.warmup:
            others.insert(0, self._bulk_copy)
        k, n = w.round_epochs, len(others)
        self.recomputed = self.parts = 0
        for r in range(0, len(g.tail), k):
            for j, i in enumerate(range(r, min(r + k, len(g.tail)))):
                slot = [self._timed_reconcile_inc] + others[j * n // k:(j + 1) * n // k]
                sealed = self._epoch(i, sealed)
                look = np.array_split(g.tail[i][3], len(slot) + 1)
                self._lookups(look[0])
                for op, keys in zip(slot, look[1:]):
                    op(i)
                    self._lookups(keys)
        self.facts["parts_recomputed_frac"] = self.recomputed / self.parts if self.parts else 0.0
        self.check(expected_counts(g.oracle, g.snapshot) == g.snapshot.planted,
                   "the oracle's final state does not give the planted counts")

        if self.warmup:
            return
        # the lake itself is compacted last, once the tail is in
        want = self.facts["state_hash"]  # of the last round's lake
        self.facts["lake_bytes_before"] = self._lake_bytes()
        self._compact(cfg)
        self.facts["lake_bytes_after"] = self._lake_bytes()
        self.check(lake_state_hash(cfg) == want, "compaction changed the lake's state hash")

    def _epoch(self, i: int, sealed: int) -> int:
        """Land tail epoch ``i`` and apply it; returns the sealed epoch."""
        from etl_reconciliate_ray.pipelines.replay import replay_stream

        g, cfg = self.g, self.cfg
        staged, landed, ev, _ = g.tail[i]
        # the epoch lands (atomic rename into the binlog directory) and
        # is timed until replay_stream returns with it sealed
        with self.timed("epoch", "epoch_commit"):
            os.replace(staged, landed)
            replay_stream(g.binlog, cfg)
        now = self._sealed()
        self.check(now == sealed + 1, f"tail epoch {i}: sealed {now} after {sealed}")
        g.oracle.apply(ev)
        return now

    def _lookups(self, keys) -> None:
        """Point lookups, one after another, each checked against the
        oracle."""
        from etl_reconciliate_ray.pipelines.replay import lake_lookup

        g = self.g
        self.settled.append(settle())  # once per batch: lookups take 10-100 ms
        for k in keys:
            with self.timed("lookup", quiet=False):
                t = lake_lookup(self.cfg, str(g.repo[k]), str(g.path[k]))
            want = g.oracle.row(int(k))
            got = None
            if t.num_rows:
                got = (t["commit"][0].as_py(), t["content"][0].as_py())
            self.check(t.num_rows <= 1 and got == want, f"lookup of key {k}: {got} != {want}")

    def _timed_reconcile_inc(self, _: int) -> None:
        from perfbench.gen import expected_counts

        with self.timed("reconcile_inc"):
            m = self._reconcile_inc(expected_counts(self.g.oracle, self.g.snapshot))
        self.recomputed += m["parts_recomputed"]
        self.parts += m["parts_total"]

    def _compact_and_replicate(self, i: int) -> None:
        """Compact a clone of the lake, then export and replicate the
        compacted clone."""
        clone = self._clone(i)
        self._compact(clone)
        self._replicate(i, clone)
        shutil.rmtree(clone.lake_root)

    def _bulk_copy(self, r: int) -> None:
        """The bulk binlog replayed again, into a fresh lake that is
        then deleted: the same work as the lake's own bulk replay."""
        from etl_reconciliate_ray.pipelines.replay import replay_stream

        lake = self._config(f"bulk{r}")
        with self.timed("bulk"):
            replay_stream(self.g.bulk_binlog, lake, lake_seed=self.g.seed_path)
        sealed = self._sealed(lake)
        self.check(sealed == self.w.bulk_epochs, f"bulk copy sealed epoch {sealed}")
        shutil.rmtree(lake.lake_root)

    def _reconcile(self, _: int = 0) -> None:
        from etl_reconciliate_ray.pipelines.reconcile_run import reconcile_lake_vs_snapshot
        from perfbench.gen import expected_counts

        cfg = self.cfg
        with self.timed("reconcile"):
            counts = reconcile_lake_vs_snapshot(
                cfg.lake_root, self._snapshot_ds(), cfg.num_buckets, self.g.salt
            )[2]
        want = expected_counts(self.g.oracle, self.g.snapshot)
        self.check(self._counts(counts) == want, f"full reconcile {self._counts(counts)} != {want}")

    def _compact(self, lake) -> None:
        from etl_reconciliate_ray.pipelines.replay import compact

        with self.timed("compact"):
            compact(lake)

    def _replicate(self, r: int, source) -> None:
        """Export the changelog of ``source`` (a compacted clone of the
        lake) and replicate it into a fresh replica with another bucket
        count; both are deleted after the replica's state hash is
        checked against the lake's."""
        from etl_reconciliate_ray.pipelines.replay import (
            export_changelog, lake_state_hash, replicate_feed,
        )
        from perfbench.gen import REPLICA_BUCKETS

        replica = self._config(f"replica{r}", REPLICA_BUCKETS)
        feed = os.path.join(self.work, f"feed{r}")
        with self.timed("replicate"):
            export_changelog(source, feed, image_cols="all")
            replicate_feed(feed, replica)
        want = self.facts["state_hash"] = lake_state_hash(self.cfg)
        self.check(lake_state_hash(replica) == want, "replica state hash differs from the lake's")
        shutil.rmtree(replica.lake_root)
        shutil.rmtree(feed)

    def _clone(self, i: int):
        """A lake root holding a copy of this lake's commit log: compacting
        it reads the lake's own data files and writes its own bases."""
        clone = self._config(f"clone{i}")
        os.makedirs(clone.lake_root)
        for name in ("commitlog.jsonl", "commitlog.snapshot.jsonl", "lineage.json"):
            src = os.path.join(self.cfg.lake_root, name)
            if os.path.exists(src):
                shutil.copyfile(src, os.path.join(clone.lake_root, name))
        return clone

    def end_to_end(self, setup_s: float, peak_rss: int) -> dict[str, float]:
        """The end-to-end figures: the metrics ``BENCHMARK.json`` bounds
        and the timed figures the diagnostics carry. Operations with
        many samples report their median; bulk replay, full reconcile,
        compaction and replication, with 2 or 3 samples a run each,
        report the mean of their samples, which varied less from run to
        run than their median."""
        s = self.samples
        mean = statistics.fmean
        lookups = sorted(s["lookup"])
        return {
            "setup_s": setup_s,
            "bulk_replay_events_per_s":
                (self.g.seed_rows + self.g.bulk_events) / mean(s["bulk"]),
            "epoch_commit_p50_s": statistics.median(s["epoch_commit"]),
            "lookup_p50_ms": 1000 * statistics.median(lookups),
            "lookup_p95_ms": 1000 * statistics.quantiles(lookups, n=20, method="inclusive")[18],
            "reconcile_rows_per_s":
                (self.g.final.live_rows() + self.g.snapshot.rows) / mean(s["reconcile"]),
            "reconcile_inc_s": statistics.median(s["reconcile_inc"]),
            "compact_s": mean(s["compact"]),
            "replicate_s": mean(s["replicate"]),
            "lake_bytes_per_live_byte":
                self.facts["lake_bytes_before"] / self.facts["lake_bytes_after"],
            "peak_rss_mb": peak_rss / 2**20,
        }


def cpu_ticks() -> dict[str, list[int]]:
    """Per-CPU /proc/stat counters (user .. steal), in clock ticks."""
    out = {}
    with open("/proc/stat") as fh:
        for line in fh:
            if line.startswith("cpu") and line[3].isdigit():
                f = line.split()
                out[f[0]] = [int(x) for x in f[1:9]]
    return out


def phase_walls(windows: list[tuple[str, float, float]]) -> dict[str, float]:
    out: dict[str, float] = {}
    for phase, t0, t1 in windows:
        out[phase] = out.get(phase, 0.0) + t1 - t0
    return out


def calibration_probe() -> float:
    """A fixed single-core kernel (sha256 over 256 MiB): host speed in
    this run's window, reported as a diagnostic next to the metrics."""
    buf = b"\x5a" * (1 << 20)
    t0 = time.monotonic()
    h = hashlib.sha256()
    for _ in range(256):
        h.update(buf)
    h.hexdigest()
    return time.monotonic() - t0


def confine_cpus() -> int:
    """Pin this process to as many CPUs as ``nproc`` reports (the
    affinity set, capped by ``OMP_NUM_THREADS``/``OMP_THREAD_LIMIT``);
    the Ray processes started later inherit the pinning."""
    cpus = sorted(os.sched_getaffinity(0))
    n = len(cpus)
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        v = os.environ.get(var, "")
        if v.isdigit() and int(v) > 0:
            n = min(n, int(v))
    # the highest-numbered ones: CPU 0 usually takes more interrupts
    os.sched_setaffinity(0, cpus[-n:])
    return n


def start_ray(ncpu: int, trace_dir: str | None) -> None:
    import ray

    temp = os.path.join(ROOT, ".rt")
    if len(temp) > _SOCKET_ROOM and os.path.realpath(os.getcwd()) == os.path.realpath(ROOT):
        temp = f"/proc/{os.getpid()}/cwd/.rt"  # the same directory, by a shorter name
    # Ray runs its workers at nice 15 by default. On the one or few CPUs
    # of this run that makes every wake-up of the driver and the Ray
    # daemons preempt the workers the driver is waiting on; at nice 0
    # they share the CPUs by the scheduler's fair share instead
    os.environ["RAY_worker_niceness"] = "0"
    if trace_dir:
        # the variable Ray's worker_process_setup_hook sets for each worker,
        # set here for all of them: a job runtime_env would make Ray start
        # every worker through its runtime-env agent and never reuse the
        # worker it starts with the node
        from ray._private.ray_constants import WORKER_PROCESS_SETUP_HOOK_ENV_VAR

        os.environ[WORKER_PROCESS_SETUP_HOOK_ENV_VAR] = "perfbench.tracer.worker_setup"
    ray.init(
        address="local", num_cpus=ncpu, include_dashboard=False, log_to_driver=False,
        logging_level="ERROR", object_store_memory=512 << 20, _temp_dir=temp,
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    try:
        import etl_reconciliate_ray.pipelines.reconcile_run  # noqa: F401
    except ImportError as e:
        print(f"the engine is not importable from {ROOT}: {e}", file=sys.stderr)
        return 2
    engine = sys.modules["etl_reconciliate_ray"].__file__
    if not engine.startswith(ROOT + os.sep):
        print(f"the engine was imported from {engine}, not from {ROOT}", file=sys.stderr)
        return 2
    from perfbench import gen, tracer

    # Ray workers import the engine and this package from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    ncpu = confine_cpus()
    work = os.path.join(RUN_DIR, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    # temporary files of this process and of every Ray process stay in
    # the checkout and go with the working directory
    os.makedirs(os.path.join(work, "tmp"))
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    tempfile.tempdir = None
    trace_dir = os.path.join(work, "trace") if args.trace else None
    if trace_dir:
        os.makedirs(trace_dir)
        os.environ[tracer.TRACE_DIR_ENV] = trace_dir
        tracer.install()

    import ray

    sampler = RssSampler()
    sampler.start()
    scen = None
    try:
        start_ray(ncpu, trace_dir)
        t = time.monotonic()
        ready_s = t - T0
        warm = gen.Generated(gen.WORKLOADS["warmup"], args.seed, 1, os.path.join(work, "warm"))
        warm_gen_s = time.monotonic() - t
        wscen = Scenario(warm, os.path.join(work, "warm"), warmup=True)
        wscen.run()
        setup_s = time.monotonic() - T0 - warm_gen_s
        if wscen.failed:
            raise Failed(f"warm-up: {wscen.problems[:3]}")

        w = gen.WORKLOADS[args.workload]
        t = time.monotonic()
        g = gen.Generated(w, args.seed, gen.tail_epoch_count(w, args.seconds),
                          os.path.join(work, "main"))
        gen_s = time.monotonic() - t
        ticks0 = cpu_ticks()
        scen = Scenario(g, os.path.join(work, "main"), tracer if trace_dir else None)
        sampler.enabled.set()
        try:
            scen.run()
        finally:
            sampler.enabled.clear()
        ticks1 = cpu_ticks()
        run_s = time.monotonic() - t - gen_s
        layers = tracer.layer_metrics(tracer.collect(trace_dir), scen.windows) if trace_dir else {}
    except Failed as e:
        print(f"run failed: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, scen.attempted if scen else 1),
                          "failed": max(1, scen.failed if scen else 1), "metrics": {}}))
        return 1
    finally:
        sampler.stopped.set()
        sampler.join()
        ray.shutdown()
        shutil.rmtree(os.path.join(ROOT, ".rt"), ignore_errors=True)
        shutil.rmtree(work, ignore_errors=True)
    probe = calibration_probe()

    e2e = scen.end_to_end(setup_s, sampler.peak)
    cache = os.path.join(RUN_DIR, f"e2e-{args.workload}-{args.seed}-{args.seconds}.json")
    diag = {
        "workload": args.workload, "seed": args.seed, "cpus": ncpu,
        "calibration_probe_s": probe,
        "ray_started_s": ready_s,
        "gen_s": [warm_gen_s, gen_s],
        "run_s": run_s,
        "total_s": time.monotonic() - T0,
        "rss_sampler_cpu_s": sampler.cpu_s,
        "cpu_ticks": {c: [b - a for a, b in zip(ticks0[c], ticks1[c])]
                      for c in ticks0 if int(c[3:]) in os.sched_getaffinity(0)},
        "tail_epochs": len(g.tail),
        "lookups": len(scen.samples["lookup"]),
        "warmup_wall_s": phase_walls(wscen.windows),
        "phase_wall_s": phase_walls(scen.windows),
        "samples_s": {k: v for k, v in scen.samples.items() if k != "lookup"},
        "settle_s": [sum(scen.settled), max(scen.settled)],
        "lake_bytes": [scen.facts["lake_bytes_before"], scen.facts["lake_bytes_after"]],
        "planted": g.snapshot.planted,
        "problems": scen.problems[:5],
    }
    if trace_dir:
        metrics = layers
        metrics["reconcile_inc.reconcile_run.parts_recomputed_frac"] = scen.facts["parts_recomputed_frac"]
        wanted = spec["per_layer"]
        diag["layers"] = {k: v for k, v in metrics.items() if v}
        diag["traced_end_to_end"] = e2e
        if os.path.exists(cache):  # the last untraced run of this workload and seed
            with open(cache) as fh:
                base = json.load(fh)
            diag["tracing_overhead"] = {k: e2e[k] / base[k] - 1 for k in base}
    else:
        metrics = e2e
        wanted = spec["end_to_end"]
        # the operation times: host drift on the shared machine spreads
        # them between runs by about as much as the largest bound the
        # benchmark may set, so they are reported here, not as metrics
        bounded = {m["name"] for m in wanted}
        diag["timed"] = {k: v for k, v in e2e.items() if k not in bounded}
        with open(cache, "w") as fh:
            json.dump(e2e, fh)
    correct = scen.failed == 0
    print(json.dumps({"diagnostics": diag}))
    print(json.dumps({
        "correct": correct,
        "attempted": scen.attempted,
        "failed": scen.failed,
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in wanted},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
