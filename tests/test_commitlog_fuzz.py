"""Model-based fuzz of the commit log protocol (state/commitlog.py).

The log grew four new verbs this round (drop_unsealed_epoch,
replace_entries, unsealed_epochs, entries_for_part) on top of the
existing commit/seal/snapshot/reopen set; this drives random legal
interleavings of ALL of them against a plain-dict model and checks the
invariants every reader relies on:

- entries/sealed-set equality with the model, across reopen (durable
  replay of snapshot + tail must reconstruct exactly);
- part_chains = newest full + later deltas, only from sealed epochs;
- drop refuses sealed or non-newest epochs; replace refuses unknown
  slots; the time-travel floor is monotone across snapshots.

Pure-python (no Ray): cheap enough for hypothesis to explore deeply.
"""

from __future__ import annotations

import os

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from etl_reconciliate_ray.state.commitlog import CommitLog, PartEntry


def _entry(epoch: int, part: int, tag: str = "", kind: str = "delta") -> PartEntry:
    return PartEntry(
        epoch=epoch,
        part=part,
        files=(f"/f/e{epoch}p{part}{tag}.parquet",),
        rows=1 + epoch + part,
        state_sha256=f"sha-{epoch}-{part}{tag}",
        kind=kind,
    )


# an op is (verb, epoch, part, kind_is_full)
OPS = st.lists(
    st.tuples(
        st.sampled_from(["commit", "seal", "drop", "replace", "snapshot", "reopen"]),
        st.integers(min_value=0, max_value=5),   # epoch
        st.integers(min_value=0, max_value=2),   # part
        st.booleans(),                           # kind full?
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(OPS)
def test_commitlog_matches_model(tmp_path_factory, ops):
    root = str(tmp_path_factory.mktemp("clfuzz"))
    log = CommitLog.open(root)
    log.ensure_layout({"num_buckets": 3, "salt": {}, "hash_impl": "t"})

    model: dict[tuple[int, int], PartEntry] = {}
    sealed: set[int] = set()
    floor = 0

    for verb, epoch, part, full in ops:
        kind = "full" if full else "delta"
        if verb == "commit":
            e = _entry(epoch, part, kind=kind)
            got = log.commit_parts([e])
            if (epoch, part) in model:
                assert got == 0  # fence: re-delivery is a no-op
            else:
                assert got == 1
                model[(epoch, part)] = e
        elif verb == "seal":
            log.seal_epoch(epoch)
            sealed.add(epoch)
        elif verb == "drop":
            newest = max((ep for ep, _ in model), default=None)
            if epoch in sealed:
                with pytest.raises(ValueError, match="sealed"):
                    log.drop_unsealed_epoch(epoch)
            elif newest is not None and newest > epoch:
                # ordering guard fires before the empty-drop shortcut
                with pytest.raises(ValueError, match="later committed"):
                    log.drop_unsealed_epoch(epoch)
            else:
                dropped = log.drop_unsealed_epoch(epoch)
                want_files = sorted(
                    e.files[0] for (ep, _), e in model.items() if ep == epoch
                )
                assert dropped == want_files
                model = {k: v for k, v in model.items() if k[0] != epoch}
        elif verb == "replace":
            e = _entry(epoch, part, tag="R", kind=kind)
            if (epoch, part) in model:
                log.replace_entries([e])
                model[(epoch, part)] = e
            else:
                with pytest.raises(ValueError, match="never committed"):
                    log.replace_entries([e])
        elif verb == "snapshot":
            log.write_snapshot()
            # snapshot prunes pre-base history of SEALED chains; mirror
            # in the model: keep current chains + post-sealed-head slots
            head = max(sealed) if sealed else None
            if head is not None:
                keep: set[tuple[int, int]] = set()
                by_part: dict[int, list[PartEntry]] = {}
                for (ep, p), e in model.items():
                    if ep <= head:
                        by_part.setdefault(p, []).append(e)
                    else:
                        keep.add((ep, p))
                for p, es in by_part.items():
                    es.sort(key=lambda x: x.epoch)
                    base = 0
                    for i, e in enumerate(es):
                        if e.kind == "full":
                            base = i
                    keep.update((e.epoch, p) for e in es[base:])
                    if base > 0:
                        # the floor advances ONLY when pre-base history
                        # is actually dropped; a delta-only chain keeps
                        # every entry and stays fully time-travelable
                        floor = max(floor, es[base].epoch)
                model = {k: v for k, v in model.items() if k in keep}
        elif verb == "reopen":
            log = CommitLog.open(root)

        # ---- invariants after every op --------------------------------
        assert set(log._entries) == set(model)
        for k, e in model.items():
            assert log._entries[k].files == e.files
            assert log._entries[k].state_sha256 == e.state_sha256
        assert {ep for ep in sealed} == log._sealed
        assert log.time_travel_floor() >= 0
        assert log.time_travel_floor() == floor
        assert sorted(log.unsealed_epochs()) == sorted(
            {ep for ep, _ in model if ep not in sealed}
        )
        # chain shape: newest full + later deltas, sealed horizon only
        head = max(sealed) if sealed else None
        chains = log.part_chains()
        if head is None:
            assert chains == {}
        else:
            for p, chain in chains.items():
                assert [e.epoch for e in chain] == sorted(e.epoch for e in chain)
                assert all(e.kind == "delta" for e in chain[1:])
                assert all(e.epoch <= head for e in chain)

    # final durability: a fresh open reconstructs the same state
    log2 = CommitLog.open(root)
    assert set(log2._entries) == set(model)
    assert log2._sealed == sealed
    assert log2.time_travel_floor() == floor


class _Crash(Exception):
    pass


@pytest.mark.parametrize("nth_replace", [1, 2])
@pytest.mark.parametrize("publish", ["write_snapshot", "drop_unsealed_epoch"])
def test_crash_after_each_snapshot_replace_keeps_later_seals(
    tmp_path, monkeypatch, publish, nth_replace
):
    """A snapshot publish (``write_snapshot``, or the full rewrite behind
    ``drop_unsealed_epoch``) replaces two files: the snapshot, then the
    tail. Crash right after either replace, reopen, commit and seal one
    more epoch, reopen again: that seal and everything before it must
    survive — the new records must not land in a tail the next open
    ignores."""
    root = str(tmp_path / "lake")
    log = CommitLog.open(root)
    log.ensure_layout({"num_buckets": 2, "salt": {}, "hash_impl": "t"})
    for ep in (0, 1):
        log.commit_parts([_entry(ep, 0), _entry(ep, 1)])
        log.seal_epoch(ep)
    log.commit_part(_entry(2, 0, tag="aborted"))

    real_replace = os.replace
    calls = []

    def crash_after(src, dst):
        real_replace(src, dst)
        calls.append(dst)
        if len(calls) == nth_replace:
            raise _Crash(dst)

    monkeypatch.setattr(os, "replace", crash_after)
    with pytest.raises(_Crash):
        if publish == "write_snapshot":
            log.write_snapshot()
        else:
            log.drop_unsealed_epoch(2)
    monkeypatch.setattr(os, "replace", real_replace)
    assert len(calls) == nth_replace

    log = CommitLog.open(root)  # restart after the crash
    assert {0, 1} <= log._sealed and not log.is_sealed(2)
    fresh = [_entry(2, 0), _entry(2, 1)]
    if publish == "write_snapshot":
        fresh = [e for e in fresh if not log.is_committed(e.epoch, e.part)]
    log.commit_parts(fresh)
    log.seal_epoch(2)

    log = CommitLog.open(root)
    assert log._sealed == {0, 1, 2}
    assert set(log._entries) == {(e, p) for e in (0, 1, 2) for p in (0, 1)}
    want = _entry(2, 0, tag="aborted" if publish == "write_snapshot" else "")
    assert log._entries[(2, 0)] == want
