"""Seeded workload generator for the CDC benchmark.

Everything is a pure function of ``(workload, seed, tail_epochs)``:

- a seed lake (``seed.parquet``) holding the first ``keys`` keys;
- ``bulk_epochs`` large binlog epochs, written as single
  ``epoch=NNNNN.parquet`` files into a bulk directory and linked into
  the binlog directory (the engine's ``replay_stream`` discovers only
  ``*.parquet`` files directly under the binlog directory, so a sharded
  ``epoch=NNNNN/`` directory would be skipped silently);
- ``tail_epochs`` small epochs, staged outside the binlog directory and
  landed one at a time by the scenario with an atomic rename;
- a reconcile snapshot of the final state with planted discrepancies
  of every status class, and the exact counts they must produce;
- a per-key oracle (live flag, content id, commit) that the scenario
  advances epoch by epoch to check every lookup and every incremental
  reconcile.

Keys come from ``bench_fixture._key_arrays``: about 30% of them live in
one monorepo (``org0/monorepo``, salted), the rest spread over 128
repos. Contents come from a seeded pool of distinct strings, so two
rows carry equal ``content_sha256`` exactly when they carry the same
pool id, which is what lets the oracle predict reconcile counts without
hashing anything.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from etl_reconciliate_ray.bench_fixture import _content_pool, _key_arrays

MONOREPO = "org0/monorepo"
GHOST_REPO = "orgX/only-in-snapshot"
#: content id of a planted VALUE_DIFF row (pool string + a suffix)
MUTATED = -2
SALT = 4  # salt of the monorepo
NUM_BUCKETS = 16
REPLICA_BUCKETS = 8
HOT_KEYS = 0.05  # hot keys as a share of all keys
DELETE_SHARE = 0.05
CONTENT_CHARS = 200
PLANT_SHARE = 0.02  # planted share of every discrepancy class


@dataclass(frozen=True)
class Workload:
    keys: int  # live keys in the seed lake
    bulk_events: int
    bulk_epochs: int
    tail_epochs: int  # at the nominal 10 seconds
    tail_events: int  # per tail epoch
    lookups: int  # per tail epoch
    # a round: this many tail epochs, each followed by an incremental
    # reconcile, and one operation of every other kind
    round_epochs: int
    hot_share: float = 0.0  # share of bulk events on the hot keys
    tail_repos: int = 0  # repos one tail epoch touches; 0 = uniform keys


WORKLOADS = {
    # ingest-heavy: ~20 events per key, most of them on 5% hot keys, so
    # LWW keeps ~15% of events and hashing + normalize dominate bulk; a
    # small lake; uniform tail epochs dirty every bucket
    "churn": Workload(
        keys=1_600, bulk_events=32_000, bulk_epochs=2, tail_epochs=4,
        tail_events=1_200, lookups=51, round_epochs=2, hot_share=0.9,
    ),
    # a larger lake written once (~0.3 events per key, so winners are
    # about all events), then small repo-local epochs with the lake's
    # own compaction only at the end: per-epoch fixed costs, growing
    # chains under the lookups, and a reconcile, compaction and
    # replication of a larger base
    "tail": Workload(
        keys=8_000, bulk_events=2_400, bulk_epochs=2, tail_epochs=6,
        tail_events=300, lookups=34, round_epochs=3, tail_repos=3,
    ),
    # the untimed warm-up: every operation kind once, on a tiny lake
    "warmup": Workload(
        keys=400, bulk_events=2_000, bulk_epochs=2, tail_epochs=1,
        tail_events=100, lookups=2, round_epochs=1, hot_share=0.5,
    ),
}


def tail_epoch_count(w: Workload, seconds: int) -> int:
    """Tail epochs for a run of ``seconds``: the workload's count at 10 s,
    scaled and rounded to whole rounds. At 10 s every workload makes at
    least 200 lookups, so its p95 has at least 10 samples beyond it."""
    return max(1, round(w.tail_epochs * seconds / 10 / w.round_epochs)) * w.round_epochs


class Oracle:
    """Per-key expected lake state over the key universe."""

    def __init__(self, n: int, pool: np.ndarray):
        self.pool = pool
        self.live = np.zeros(n, dtype=bool)
        self.content = np.full(n, -1, dtype=np.int64)
        self.commit = np.full(n, -1, dtype=np.int64)  # -1: the seed commit

    def apply(self, ev: dict) -> None:
        """Last writer wins per key, in seq order (events are seq-sorted)."""
        ids = ev["id"][::-1]
        _, first = np.unique(ids, return_index=True)
        last = len(ev["id"]) - 1 - first
        k = ev["id"][last]
        dead = ev["op"][last] == "D"
        self.live[k] = ~dead
        self.content[k] = np.where(dead, -1, ev["content"][last])
        self.commit[k] = ev["seq"][last]

    def row(self, k: int) -> tuple[str, str] | None:
        """The (commit, content) a lookup of key ``k`` must return."""
        if not self.live[k]:
            return None
        c = self.commit[k]
        return (f"s{k}" if c < 0 else f"c{c}"), self.pool[self.content[k]]

    def live_rows(self) -> int:
        return int(self.live.sum())


@dataclass
class Snapshot:
    path: str
    rows: int
    count: np.ndarray  # snapshot rows per universe key (0, 1 or 2)
    content: np.ndarray  # their content id (MUTATED for a planted diff)
    ghosts: int  # snapshot-only keys outside the universe
    planted: dict[str, int]


def expected_counts(o: Oracle, s: Snapshot) -> dict[str, int]:
    """Exact reconcile status counts of the oracle's lake against ``s``
    (the engine's semantics: one matching right row is MATCHED, k>1 are
    DUP_RIGHT_1..k, a key with no matching right row has one VALUE_DIFF
    and the rest MISSING_LEFT)."""
    both = o.live & (s.count > 0)
    match = both & (s.content == o.content)
    out = {
        "MISSING_RIGHT": int((o.live & (s.count == 0)).sum()),
        "MISSING_LEFT": int(s.count[~o.live].sum()) + s.ghosts
        + int((s.count[both & ~match] - 1).sum()),
        "VALUE_DIFF": int((both & ~match).sum()),
        "MATCHED": int((match & (s.count == 1)).sum()),
    }
    dup = match & (s.count > 1)
    for k in range(1, int(s.count.max(initial=0)) + 1):
        out[f"DUP_RIGHT_{k}"] = int((dup & (s.count >= k)).sum())
    return {k: v for k, v in out.items() if v}


class Generated:
    """One generated workload instance under ``root``."""

    def __init__(self, w: Workload, seed: int, tail_epochs: int, root: str):
        self.w = w
        self.root = root
        self.binlog = os.path.join(root, "binlog")
        self.bulk_binlog = os.path.join(root, "bulk")  # the bulk epochs alone
        self.staging = os.path.join(root, "staging")
        self.seed_path = os.path.join(root, "seed.parquet")
        for d in (self.binlog, self.bulk_binlog, self.staging):
            os.makedirs(d)
        rng = np.random.default_rng(seed)
        self.pool = _content_pool(rng, n_chars=CONTENT_CHARS)
        universe = int(w.keys * 1.1)
        ids = np.arange(universe)
        self.repo, self.path = _key_arrays(ids)
        self.oracle = Oracle(universe, self.pool)
        self.final = Oracle(universe, self.pool)
        self.salt = {MONOREPO: SALT}

        seed_ids = ids[: w.keys]
        seed_content = rng.integers(0, len(self.pool), w.keys)
        self._write(self.seed_path, pa.table({
            "repo": self.repo[seed_ids], "path": self.path[seed_ids],
            "commit": pa.array([f"s{k}" for k in seed_ids], pa.string()),
            "lang": pa.array(np.full(w.keys, "py", dtype=object), pa.string()),
            "content": self.pool[seed_content],
        }))
        for o in (self.oracle, self.final):
            o.live[seed_ids] = True
            o.content[seed_ids] = seed_content
        self.seed_rows = w.keys

        seq = 0
        self.bulk = []
        hot = rng.choice(universe, max(1, int(universe * HOT_KEYS)), replace=False)
        per = w.bulk_events // w.bulk_epochs
        for e in range(w.bulk_epochs):
            n_hot = int(per * w.hot_share)
            k = np.concatenate([rng.choice(hot, n_hot), rng.integers(0, universe, per - n_hot)])
            rng.shuffle(k)
            ev = self._events(rng, k, seq)
            seq += per
            name = f"epoch={e:05d}.parquet"
            self._write(os.path.join(self.bulk_binlog, name), self._table(ev))
            os.link(os.path.join(self.bulk_binlog, name), os.path.join(self.binlog, name))
            self.bulk.append(ev)
        self.bulk_events = per * w.bulk_epochs

        # tail: uniform keys, or one working set of repos (never the
        # salted monorepo) whose buckets are distinct, so every
        # incremental reconcile recomputes exactly tail_repos buckets
        work = None
        if w.tail_repos:
            from etl_reconciliate_ray.functions.hashing import bucket_of

            repos, buckets = [], set()
            for r in rng.permutation(128):
                rid = ids[(ids % 10 >= 3) & (ids % 128 == r)]
                b = bucket_of(pa.array(self.repo[rid[:1]]), pa.array(self.path[rid[:1]]),
                              NUM_BUCKETS, self.salt)[0].as_py()
                if b not in buckets:
                    repos.append(rid)
                    buckets.add(b)
                if len(repos) == w.tail_repos:
                    break
            work = np.concatenate(repos)
        self.tail = []  # (staged file, landed file, events, lookup keys)
        for t in range(tail_epochs):
            e = w.bulk_epochs + t
            if work is not None:
                k = rng.choice(work, w.tail_events)
            else:
                k = rng.integers(0, universe, w.tail_events)
            ev = self._events(rng, k, seq)
            seq += w.tail_events
            name = f"epoch={e:05d}.parquet"
            staged = os.path.join(self.staging, name)
            self._write(staged, self._table(ev))
            half = w.lookups // 2
            look = np.concatenate([
                rng.choice(np.unique(k), half),
                rng.integers(0, universe, w.lookups - half),
            ])
            self.tail.append((staged, os.path.join(self.binlog, name), ev, look))
        for ev in self.bulk + [t[2] for t in self.tail]:
            self.final.apply(ev)
        self.snapshot = self._plant(rng, os.path.join(root, "snapshot.parquet"))

    def _events(self, rng: np.random.Generator, k: np.ndarray, seq0: int) -> dict:
        n = len(k)
        op = np.where(rng.random(n) < DELETE_SHARE, "D", "U").astype(object)
        content = rng.integers(0, len(self.pool), n)
        content[op == "D"] = -1
        return {"id": k, "seq": np.arange(seq0, seq0 + n, dtype=np.int64),
                "op": op, "content": content}

    def _table(self, ev: dict) -> pa.Table:
        k, dead = ev["id"], ev["op"] == "D"
        content = self.pool[np.maximum(ev["content"], 0)].copy()
        content[dead] = None
        lang = np.full(len(k), "py", dtype=object)
        lang[dead] = None
        return pa.table({
            "seq": ev["seq"],
            "op": pa.array(ev["op"], pa.string()),
            "repo": pa.array(self.repo[k], pa.string()),
            "path": pa.array(self.path[k], pa.string()),
            "commit": pa.array([f"c{s}" for s in ev["seq"]], pa.string()),
            "lang": pa.array(lang, pa.string()),
            "content": pa.array(content, pa.string()),
        })

    def _plant(self, rng: np.random.Generator, path: str) -> Snapshot:
        """The final state with ``PLANT_SHARE`` of its rows dropped
        (MISSING_RIGHT), mutated (VALUE_DIFF) and doubled (DUP_RIGHT_1/2),
        plus as many snapshot-only keys (MISSING_LEFT)."""
        f = self.final
        live = np.flatnonzero(f.live)
        n = max(1, int(len(live) * PLANT_SHARE))
        pick = rng.permutation(live)
        mr, vd, dup = pick[:n], pick[n:2 * n], pick[2 * n:3 * n]
        count = f.live.astype(np.int64)
        count[mr] = 0
        count[dup] = 2
        content = f.content.copy()
        content[vd] = MUTATED
        keys = np.repeat(np.arange(len(count)), count)
        text = np.empty(len(keys), dtype=object)
        ok = content[keys] != MUTATED
        text[ok] = self.pool[content[keys][ok]]
        text[~ok] = [s + " <mutated>" for s in self.pool[f.content[keys][~ok]]]
        commit = [f"s{k}" if c < 0 else f"c{c}" for k, c in zip(keys, f.commit[keys])]
        ghosts = pd.DataFrame({
            "repo": GHOST_REPO,
            "path": [f"ghost/file{i}.py" for i in range(n)],
            "commit": [f"g{i}" for i in range(n)],
            "lang": "py",
            "content": self.pool[rng.integers(0, len(self.pool), n)],
        })
        snap = pd.concat([pd.DataFrame({
            "repo": self.repo[keys], "path": self.path[keys], "commit": commit,
            "lang": "py", "content": text,
        }), ghosts], ignore_index=True)
        snap = snap.iloc[rng.permutation(len(snap))]
        self._write(path, pa.Table.from_pandas(snap, preserve_index=False))
        planted = {
            "MATCHED": len(live) - 3 * n, "MISSING_RIGHT": n, "VALUE_DIFF": n,
            "DUP_RIGHT_1": n, "DUP_RIGHT_2": n, "MISSING_LEFT": n,
        }
        return Snapshot(path, len(snap), count, content, n, planted)

    @staticmethod
    def _write(path: str, t: pa.Table) -> None:
        pq.write_table(t, path)
