"""Commit log + checkpoint manifest — the exactly-once / resume substrate.

Replaces the reference's Spring Batch H2 metadata store
(``src/main/resources/springbatch-schema.sql:1-76`` — job/step
executions and the serialized inter-step ``ExecutionContext``) with a
lake-native design (SURVEY.md §2.1 K3, §4):

- an append-only JSONL log of per-partition commit records
  ``{epoch, part, files, rows, state_sha256, input_seq}``,
- an ``EPOCH_COMMIT`` marker sealing each epoch (atomic publish:
  readers resolve only manifest-listed files),
- **per-partition epoch fencing**: a (epoch, part) pair already present
  is skipped on re-delivery — replaying a committed epoch is a no-op,
  which together with deterministic merge functions and
  content-addressed file names gives exactly-once sink semantics under
  Ray task retries (SURVEY.md §7 hard part 1).

The log is a ``Journal`` (snapshot + fenced append-only tail, batched
fsync'd appends, atomic snapshot publish), the same durable journal the
txn coordinator log (``state/txn.py``) is written through.

Single-writer assumption: the driver process is the only appender
(Ray tasks WRITE data files but never the log). On a real multi-node
deployment this file becomes a conditional-put object-store key or a
small DB table; the protocol (fence on (epoch, part), seal with a
marker) is unchanged.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field

from ..stages.writer import fsync_dir, publish_file


def layout_fingerprint(num_buckets: int, salt_for_repo: dict | None) -> dict:
    """The canonical physical-layout fingerprint fenced by the commit
    log — THE single definition shared by writers (ReplayConfig.layout)
    and readers (reconcile), so the two can never drift apart and
    silently disable the fence."""
    from ..functions.hashing import HASH_IMPL

    return {
        "num_buckets": int(num_buckets),
        "salt": {k: int(v) for k, v in sorted((salt_for_repo or {}).items())},
        "hash_impl": HASH_IMPL,
    }


@dataclass(frozen=True)
class PartEntry:
    epoch: int
    part: int
    files: tuple[str, ...]
    rows: int
    state_sha256: str
    input_seq: tuple[int, int] | None = None
    #: "full" = complete partition state; "delta" = merge-on-read delta
    #: (the epoch's LWW winners incl. delete tombstones) layered on top
    #: of the newest full entry — Hudi/Iceberg-style MOR, SURVEY.md §4
    kind: str = "full"
    #: per file, the row groups holding THIS partition's rows: one
    #: ordinal, ``(first, count)`` for a slice that spans several
    #: capped groups, or -1 for the whole file. Direct-mode delta files
    #: pack one key-sorted slice per bucket; ``merge.read_slice`` reads
    #: just its groups, those a key filter's min/max cannot exclude.
    rgs: tuple[int | tuple[int, int], ...] = ()


@dataclass
class Journal:
    """A durable JSONL journal: a snapshot file plus an append-only
    tail, ``<NAME>.snapshot.jsonl`` and ``<NAME>.jsonl`` under ``root``.
    The one crash-safety protocol behind the lake commit log and the
    txn coordinator log. Subclasses say how a record applies
    (``_apply``) and what their snapshot holds; this class replays,
    appends and publishes.

    - ``open`` replays the snapshot, then the tail, unless the tail is
      stale under the generation fence (``_tail_is_stale``).
    - ``_append_many`` is one write and ONE fsync for a batch of
      records.
    - ``_publish_snapshot`` atomically replaces the snapshot, then the
      tail, with a fresh tail that opens with its TAIL_OPEN stamp.

    Single-writer per process: callers mutate under ``_lock``."""

    NAME = ""
    root: str
    #: tail-generation fence: each snapshot stamps a new generation
    #: (the ``tail_fence`` field of one of its records) and the fresh
    #: (truncated) tail opens with a matching TAIL_OPEN record. A crash
    #: BETWEEN snapshot publish and tail truncate leaves the
    #: pre-snapshot tail on disk; without the fence its replay would
    #: resurrect pruned history (or, worse, entries an abort's snapshot
    #: rewrite removed). A mismatched/unfenced tail under a fenced
    #: snapshot is ignored wholesale — everything live at publish time
    #: is in the snapshot by construction.
    _tail_fence: int = 0
    #: the on-disk tail is stale (or missing) under a fenced snapshot —
    #: a crash interrupted a snapshot publish. Nothing in it is applied,
    #: and the first append replaces it with a fresh stamped tail
    #: (appending to it would land records a reopen ignores).
    _stale_tail: bool = False
    # concurrent users in one process: the trigger server's run threads
    # and lake_lookup's shared parsed log. The journal stays
    # single-writer per PROCESS, serialized by this lock. REENTRANT:
    # mutators hold it while calling reader helpers (write_snapshot ->
    # part_chains), and readers take it too so a concurrent commit can
    # never tear an iteration mid-dict
    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False, compare=False)

    @property
    def path(self) -> str:
        return os.path.join(self.root, f"{self.NAME}.jsonl")

    @property
    def snapshot_path(self) -> str:
        return os.path.join(self.root, f"{self.NAME}.snapshot.jsonl")

    @classmethod
    def open(cls, root: str):
        j = cls(root=root)
        os.makedirs(root, exist_ok=True)
        # snapshot first (compacted history), then the tail; replays of
        # records already in the snapshot are idempotent dict puts
        if os.path.exists(j.snapshot_path):
            j._replay(j.snapshot_path, in_tail=False)
        j._stale_tail = j._tail_is_stale()
        if os.path.exists(j.path) and not j._stale_tail:
            j._replay(j.path, in_tail=True)
        return j

    def _replay(self, path: str, in_tail: bool) -> None:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if rec.get("type") == "TAIL_OPEN":
                    continue  # generation marker, validated in open()
                if "tail_fence" in rec:
                    self._tail_fence = max(self._tail_fence, int(rec["tail_fence"]))
                self._apply(rec, in_tail)

    def _apply(self, rec: dict, in_tail: bool) -> None:
        raise NotImplementedError

    def _tail_is_stale(self) -> bool:
        """True when the snapshot demands a tail generation the on-disk
        tail does not open with — the crash-between-publish-and-truncate
        window. Every tail a snapshot publishes opens with its stamp, so
        a missing or empty tail under a fenced snapshot is stale too."""
        if not self._tail_fence:
            return False  # fence-less journal (no snapshot yet / legacy)
        if not os.path.exists(self.path):
            return True
        with open(self.path) as fh:
            first = fh.readline().strip()
        if not first:
            return True
        rec = json.loads(first)
        fence = int(rec.get("fence", -1))
        return not (rec.get("type") == "TAIL_OPEN" and fence == self._tail_fence)

    def _append_many(self, recs: list[dict]) -> None:
        """One write + ONE fsync for a whole batch of records — the
        driver commits an epoch's partitions in a single durable append
        (per-record fsync was a fixed serial cost that throttled scaling
        at high partition counts). The append that creates the file
        also fsyncs its directory."""
        if not recs:
            return
        if self._stale_tail:
            self._write_tail()  # finish the crashed snapshot publish's truncate
        created = not os.path.exists(self.path)
        with open(self.path, "a") as fh:
            fh.write("".join(json.dumps(r, sort_keys=True) + "\n" for r in recs))
            fh.flush()
            os.fsync(fh.fileno())
        if created:  # a fresh journal's first append: its name too
            fsync_dir(self.path)

    def _publish_snapshot(self, recs: list[dict]) -> None:
        """Publish ``recs`` as the snapshot, then truncate the tail — one
        atomic ``os.replace`` each, the fresh tail written with its
        TAIL_OPEN stamp already inside, so no unstamped tail is ever on
        disk. One of ``recs`` carries the new generation,
        ``tail_fence == self._tail_fence + 1``. A crash between the two
        replaces leaves the pre-snapshot tail, which the new generation
        marks stale: everything live was published in the snapshot, and
        the next append starts a fresh stamped tail. Caller must hold
        ``_lock``."""
        self._tail_fence += 1
        self._write_atomic(self.snapshot_path, recs)
        self._write_tail()

    def _write_tail(self) -> None:
        self._write_atomic(self.path, [{"type": "TAIL_OPEN", "fence": self._tail_fence}])
        self._stale_tail = False

    @staticmethod
    def _write_atomic(path: str, recs: list[dict]) -> None:
        """Write ``recs`` as JSONL to a tmp file beside ``path`` and
        publish it over ``path`` (``writer.publish_file``: file fsync,
        rename, directory fsync)."""
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write("".join(json.dumps(r, sort_keys=True) + "\n" for r in recs))
        publish_file(tmp, path)


@dataclass
class CommitLog(Journal):
    NAME = "commitlog"
    _entries: dict[tuple[int, int], PartEntry] = field(default_factory=dict)
    _sealed: set[int] = field(default_factory=set)
    #: physical-layout fence: {"num_buckets", "salt", "hash_impl"} —
    #: bucket ids are persisted in the lake layout, so resuming under a
    #: different bucket-hash scheme or salt config would silently route
    #: existing (repo, path) keys to new buckets and duplicate keys
    #: across partitions. Recorded on first write; mismatch = hard error.
    _layout: dict | None = None
    #: time-travel retention floor: snapshot truncation drops each
    #: part's pre-base history, so at snapshot time the floor advances
    #: to max over parts of their retained base epoch (persisted in the
    #: SNAPSHOT_SEALED record; monotone across snapshots). A GLOBAL min
    #: over entries would be wrong: parts truncate at DIFFERENT epochs,
    #: and an as-of between two parts' bases would silently omit the
    #: later-based part entirely.
    _floor: int = 0
    #: EPOCH_COMMIT records currently in the TAIL file (not yet rolled
    #: into the snapshot) — PERSISTENT across reopens, so a snapshot
    #: cadence keyed on it survives follow-mode's one-open-per-poll
    #: lifecycle (an in-process counter would reset every poll and the
    #: cadence would never fire on slow streams).
    _tail_seals: int = 0

    def _apply(self, rec: dict, in_tail: bool) -> None:
        kind = rec.get("type")
        if kind == "EPOCH_COMMIT":
            if in_tail and rec["epoch"] in self._sealed:
                # stale tail after a crash between snapshot publish and
                # tail truncate: this seal is already in the snapshot —
                # recounting it would fire the next cadence snapshot early
                return
            self._sealed.add(rec["epoch"])
            self._tail_seals += in_tail
        elif kind == "SNAPSHOT_SEALED":
            self._sealed.update(rec["sealed"])
            self._floor = max(self._floor, int(rec.get("floor", 0)))
        elif kind == "LAYOUT":
            self._layout = rec["layout"]
        else:
            # a commit record, or a REPLACE (physical erasure: same
            # (epoch, part) slot, new files/rows/sha) — applied AFTER the
            # original record in log order, so the overwrite is
            # deterministic on every replay
            e = self._entry_of(rec)
            self._entries[(e.epoch, e.part)] = e

    @property
    def seals_since_snapshot(self) -> int:
        """Sealed epochs still in the tail file — the durable signal a
        snapshot cadence keys on (survives process restarts and
        follow-mode's one-open-per-poll lifecycle)."""
        return self._tail_seals

    def write_snapshot(self) -> int:
        """Bound log growth: persist only the CURRENT merge-on-read
        chains (plus the sealed set) to the snapshot file and truncate
        the tail log. At 10^4+ epochs the full history is O(epochs x
        partitions); the chains are O(partitions x chain length).
        Crash-safe: see ``Journal._publish_snapshot``. Returns the number of
        live entries."""
        with self._lock:
            sealed_upto = self.latest_sealed_epoch()
            chains_now = self.part_chains()
            if sealed_upto is None:
                live = list(self._entries.values())  # nothing sealed yet
            else:
                live = [e for chain in chains_now.values() for e in chain]
                # entries newer than the newest sealed epoch (committed
                # but unsealed — a crash window) must survive too
                live += [e for (ep, _), e in self._entries.items() if ep > sealed_upto]
            # advance the time-travel floor ONLY past history actually
            # being dropped: a part whose chain starts at its base keeps
            # every pre-base entry out of `live`, but a delta-only part
            # (chain[0] == its birth entry) drops NOTHING — advancing to
            # its birth epoch would spuriously refuse as-of reads the
            # retained log can still answer exactly
            min_epoch: dict[int, int] = {}
            for (ep, p) in self._entries:
                if p not in min_epoch or ep < min_epoch[p]:
                    min_epoch[p] = ep
            dropped_floor = max(
                (c[0].epoch for p, c in chains_now.items()
                 if min_epoch.get(p, c[0].epoch) < c[0].epoch),
                default=0,
            )
            self._floor = max(self._floor, dropped_floor)
            self._publish_entries(live)
            # prune in-memory history to match the snapshot
            self._entries = {(e.epoch, e.part): e for e in live}
            return len(live)

    def _publish_entries(self, entries) -> None:
        """Publish the snapshot (layout, sealed set, floor, the new tail
        generation, ``entries``) — crash-safe as
        ``Journal._publish_snapshot``. Caller must hold ``_lock``."""
        recs = [{"type": "LAYOUT", "layout": self._layout}] if self._layout is not None else []
        recs.append({
            "type": "SNAPSHOT_SEALED",
            "sealed": sorted(self._sealed),
            "floor": self._floor,
            "tail_fence": self._tail_fence + 1,
        })
        recs += [self._entry_rec(e) for e in sorted(entries, key=lambda x: (x.epoch, x.part))]
        self._publish_snapshot(recs)
        self._tail_seals = 0  # everything sealed now lives in the snapshot

    def drop_unsealed_epoch(self, epoch: int) -> list[str]:
        """Remove every committed entry of an UNSEALED epoch from the
        log (multi-table transaction abort). Sealing is the visibility
        point, so dropping an unsealed epoch never changes what any
        reader can resolve — but it MUST happen before any later epoch
        seals, because ``part_chains(upto)`` admits every entry with
        ``epoch <= upto`` and a later seal would otherwise leak the
        aborted writes. Returns the data files referenced ONLY by the
        dropped entries (orphans the caller may delete)."""
        with self._lock:
            if epoch in self._sealed:
                raise ValueError(f"epoch {epoch} is sealed; cannot drop committed-visible state")
            newest = max((e for e, _ in self._entries), default=None)
            if newest is not None and newest > epoch:
                raise ValueError(
                    f"epoch {epoch} has later committed epochs (newest={newest}); "
                    "aborting out of order would reorder the merge-on-read chains"
                )
            dropped = [e for (ep, _), e in self._entries.items() if ep == epoch]
            if not dropped:
                return []
            for e in dropped:
                del self._entries[(epoch, e.part)]
            dropped_files = {f for e in dropped for f in e.files}
            survivors = {f for e in self._entries.values() for f in e.files}
            # persist the COMPLETE remaining state — unlike
            # write_snapshot, no floor advance and no pre-base pruning,
            # so removing records has no side effect on retention
            self._publish_entries(self._entries.values())
            return sorted(dropped_files - survivors)

    @property
    def layout(self) -> dict | None:
        """The recorded physical layout (None for an empty log)."""
        return self._layout

    def check_layout(self, layout: dict) -> None:
        """Read-path fence: refuse to operate on a lake whose recorded
        layout differs from (or predates) the caller's — mis-bucketed
        cogroups mis-reconcile silently otherwise."""
        with self._lock:
            if self._layout is None:
                if self._entries or self._sealed:
                    raise ValueError(
                        f"lake at {self.root} has committed epochs but no recorded "
                        "layout; refusing to read — its bucket routing is unknown"
                    )
                return  # empty lake: nothing to mis-bucket
            if self._layout != layout:
                raise ValueError(
                    f"lake at {self.root} was written under layout {self._layout}; "
                    f"caller expects {layout} — the cogroup would mis-bucket"
                )

    # -- fencing ---------------------------------------------------------
    def ensure_layout(self, layout: dict) -> None:
        """Record the lake's physical layout (bucket count, salt map,
        hash implementation) on first write; refuse to resume under a
        different one — the all-rows-of-one-key-in-one-bucket invariant
        every merge/cogroup relies on would otherwise silently break."""
        with self._lock:
            if self._layout is None:
                if self._entries or self._sealed:
                    # committed data but no LAYOUT record: a lake written
                    # by a pre-fence engine build. Stamping the CURRENT
                    # layout would silently bless whatever hash routed
                    # the existing files — the exact corruption the
                    # fence exists to stop.
                    raise ValueError(
                        f"lake at {self.root} has committed epochs but no recorded "
                        "layout; refusing to resume — rebuild the lake (or append a "
                        "LAYOUT record matching the hash/bucket config it was "
                        "written under)"
                    )
                self._append_many([{"type": "LAYOUT", "layout": layout}])
                self._layout = layout
            elif self._layout != layout:
                raise ValueError(
                    f"lake at {self.root} was written under layout {self._layout}; "
                    f"refusing to resume with {layout} — bucket routing would change"
                )

    def unsealed_epochs(self) -> list[int]:
        """Epochs with committed entries but no seal — either a txn
        currently staging, or a crash leftover. New writes at such an
        epoch would silently reuse its fenced partitions (old content
        wins the fence), so writers must resume or drop it explicitly."""
        with self._lock:
            return sorted({ep for (ep, _) in self._entries if ep not in self._sealed})

    def is_committed(self, epoch: int, part: int) -> bool:
        with self._lock:
            return (epoch, part) in self._entries

    def is_sealed(self, epoch: int) -> bool:
        with self._lock:
            return epoch in self._sealed

    @staticmethod
    def _entry_rec(entry: PartEntry) -> dict:
        return {
            "epoch": entry.epoch,
            "part": entry.part,
            "files": list(entry.files),
            "rows": entry.rows,
            "state_sha256": entry.state_sha256,
            "input_seq": list(entry.input_seq) if entry.input_seq else None,
            "kind": entry.kind,
            "rgs": list(entry.rgs) if entry.rgs else None,
        }

    @staticmethod
    def _entry_of(rec: dict) -> PartEntry:
        """The inverse of ``_entry_rec``: a commit or REPLACE record's
        entry (other keys, e.g. ``type``, are ignored)."""
        return PartEntry(
            epoch=rec["epoch"],
            part=rec["part"],
            files=tuple(rec["files"]),
            rows=rec["rows"],
            state_sha256=rec["state_sha256"],
            input_seq=tuple(rec["input_seq"]) if rec.get("input_seq") else None,
            kind=rec.get("kind", "full"),
            rgs=tuple(tuple(r) if isinstance(r, list) else r for r in rec.get("rgs") or ()),
        )

    def commit_part(self, entry: PartEntry) -> bool:
        """Append a per-partition commit; returns False (no-op) if the
        (epoch, part) fence rejects it — idempotent under re-delivery."""
        return self.commit_parts([entry]) == 1

    def commit_parts(self, entries: list[PartEntry]) -> int:
        """Commit a batch of per-partition entries with ONE durable
        append; fenced per (epoch, part). Returns how many were new.
        Two DIFFERENT entries for one slot within a batch are refused
        (both would pass the fence and the durable last-wins replay
        could diverge from the first-wins in-memory state); identical
        duplicates dedupe silently."""
        seen: dict[tuple[int, int], PartEntry] = {}
        for e in entries:
            k = (e.epoch, e.part)
            if k in seen and seen[k] != e:
                raise ValueError(
                    f"commit_parts: conflicting duplicate slot {k} within one batch"
                )
            seen[k] = e
        entries = list(seen.values())
        with self._lock:
            fresh = [e for e in entries if (e.epoch, e.part) not in self._entries]
            self._append_many([self._entry_rec(e) for e in fresh])
            for e in fresh:
                self._entries[(e.epoch, e.part)] = e
            return len(fresh)

    def seal_epoch(self, epoch: int) -> None:
        """Publish an epoch (sealing is THE visibility point). The log
        deliberately does NOT reject pre-existing unsealed entries at
        this epoch: the (epoch, part) fence is what lets the SAME
        writer resume its own crashed attempt. A DIFFERENT writer (e.g.
        a txn that staged here and crashed before PREPARE) must be
        resolved first — ``unsealed_epochs`` surfaces such leftovers
        and ``replay.run_epoch``/``txn.stage`` check it before writing;
        the log itself cannot tell the two writers apart."""
        with self._lock:
            if epoch in self._sealed:
                return
            self._append_many([{"type": "EPOCH_COMMIT", "epoch": epoch}])
            self._sealed.add(epoch)
            self._tail_seals += 1

    # -- manifest resolution --------------------------------------------
    def latest_sealed_epoch(self) -> int | None:
        with self._lock:
            return max(self._sealed) if self._sealed else None

    def time_travel_floor(self) -> int:
        """Oldest epoch an as-of read can still reconstruct for EVERY
        part. ``write_snapshot`` truncates each part's pre-base history
        — at potentially different epochs per part — so the floor
        advances to the max retained-base epoch at each snapshot and is
        persisted with it. As-of reads below the floor must be refused:
        silently returning the parts that happen to survive would
        fabricate a lake state that never existed."""
        return self._floor

    def part_chains(self, upto_epoch: int | None = None) -> dict[int, list[PartEntry]]:
        """part -> its merge-on-read chain: the newest committed FULL
        entry (epoch <= upto_epoch) followed by every later DELTA entry,
        in epoch order. Readers resolve state by last-writer-wins over
        the chain's epochs; a chain of length 1 is fully compacted."""
        if upto_epoch is None:
            upto_epoch = self.latest_sealed_epoch()
            if upto_epoch is None:
                return {}
        by_part: dict[int, list[PartEntry]] = {}
        with self._lock:
            items = list(self._entries.items())
        for (e, p), entry in items:
            if e <= upto_epoch:
                by_part.setdefault(p, []).append(entry)
        chains: dict[int, list[PartEntry]] = {}
        for p, entries in by_part.items():
            entries.sort(key=lambda x: x.epoch)
            base = 0
            for i, entry in enumerate(entries):
                if entry.kind == "full":
                    base = i
            chains[p] = entries[base:]
        return chains

    def all_entries(self) -> list[PartEntry]:
        """Every surviving entry, (epoch, part) order — maintenance ops
        (erasure, vacuum planning) need the full reference map, not one
        partition's chain."""
        with self._lock:
            return [self._entries[k] for k in sorted(self._entries)]

    def replace_entries(self, entries: list[PartEntry]) -> int:
        """Overwrite EXISTING (epoch, part) slots in place (physical
        erasure rewrote their files). The inverse fence of
        ``commit_parts``: every slot must already exist — replacing an
        uncommitted slot would fabricate history. One durable append."""
        with self._lock:
            missing = [e for e in entries if (e.epoch, e.part) not in self._entries]
            if missing:
                raise ValueError(
                    f"replace_entries: {[(e.epoch, e.part) for e in missing]} "
                    "not in the log — cannot replace what was never committed"
                )
            self._append_many(
                [{"type": "REPLACE", **self._entry_rec(e)} for e in entries]
            )
            for e in entries:
                self._entries[(e.epoch, e.part)] = e
            return len(entries)

    def entries_for_part(self, part: int, upto_epoch: int | None = None) -> list[PartEntry]:
        """Every SURVIVING log entry of one partition (epoch ascending,
        sealed horizon by default) — the raw per-epoch write record a
        keyed history read walks. Includes pre-base entries still in
        the log (they answer time travel until a snapshot truncates
        them), unlike ``part_chains`` which returns only the current
        merge-on-read chain."""
        if upto_epoch is None:
            upto_epoch = self.latest_sealed_epoch()
            if upto_epoch is None:
                return []
        with self._lock:
            out = [e for (ep, p), e in self._entries.items() if p == part and ep <= upto_epoch]
        out.sort(key=lambda x: x.epoch)
        return out

    def referenced_files(self) -> set[str]:
        """Every data file ANY surviving log entry references — not just
        the current chains: pre-base entries still in the log serve
        time-travel reads between the retention floor and the head, so
        their files must survive too. This is THE retention set for
        ``replay.vacuum``; files outside it are unreachable by every
        read path the log can still answer."""
        with self._lock:
            return {f for e in self._entries.values() for f in e.files}

    def lineage(self) -> list[dict]:
        """Per-partition lineage records (north_star: 'per-partition
        lineage manifests and metrics')."""
        with self._lock:
            entries = sorted(self._entries.values(), key=lambda x: (x.epoch, x.part))
        return [
            {
                "epoch": e.epoch,
                "part": e.part,
                "kind": e.kind,
                "rows": e.rows,
                "files": list(e.files),
                "state_sha256": e.state_sha256,
                "input_seq": list(e.input_seq) if e.input_seq else None,
            }
            for e in entries
        ]
