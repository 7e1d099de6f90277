"""Session-scoped Ray fixture — init ONCE per pytest session."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(autouse=True)
def _hang_guard():
    """Per-test watchdog: a rare Ray Data scheduling stall (observed
    once: an execution idling on a 1-fragment parquet read for 20+ min
    with all workers parked) must FAIL the test visibly rather than
    hang the `pytest -x -q` correctness gate forever. 900 s is ~7× the
    slowest test on a degraded host window."""
    import signal

    def on_alarm(signum, frame):
        raise TimeoutError("test exceeded the 900s hang guard")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(900)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture(autouse=True)
def _no_partial_execution(monkeypatch):
    """Fails the test on a ``ray.cancel`` made with a package frame on
    the stack while no exception is being handled. Ray Data cancels the
    rest of an execution when its consumer stops early (``schema()``,
    ``take(1)`` on an unexecuted plan), so such a call means package
    code ran part of a Dataset and will run it again for its rows. A
    cancel made while an error propagates (a failed task, a refusal)
    is the executor's cleanup and stays allowed, and so is one with no
    package frame: the test asked for it."""
    import os
    import sys

    import ray

    pkg = f"{os.sep}etl_reconciliate_ray{os.sep}"
    cancel, seen = ray.cancel, []

    def guarded_cancel(*args, **kwargs):
        if sys.exc_info()[0] is None:
            f = sys._getframe(1)
            while f is not None and pkg not in f.f_code.co_filename:
                f = f.f_back
            if f is not None:
                seen.append(f"{f.f_code.co_filename}:{f.f_lineno}")
        return cancel(*args, **kwargs)

    monkeypatch.setattr(ray, "cancel", guarded_cancel)
    yield
    if seen:
        pytest.fail(f"{len(seen)} ray.cancel call(s) from package code, a partial "
                    f"Dataset execution: {sorted(set(seen))}")


@pytest.fixture(scope="session")
def fixture_small(tmp_path_factory):
    """Small deterministic CDC fixture shared across tests."""
    from etl_reconciliate_ray.datagen import DatagenConfig, write_fixture

    out = str(tmp_path_factory.mktemp("fixture_small"))
    cfg = DatagenConfig(seed=42, lake_rows=200, num_events=1200, num_epochs=4)
    manifest = write_fixture(cfg, out)
    return out, cfg, manifest


class _Renames(list):
    """``(absolute target path, whether the renamed file's bytes had
    been fsynced)`` per ``os.replace``, in order; ``dir_fsyncs`` holds
    ``(absolute directory path, renames made before it)`` per fsync of
    a directory."""

    def __init__(self):
        super().__init__()
        self.dir_fsyncs: list[tuple[str, int]] = []


@pytest.fixture
def renames(monkeypatch):
    """The driver's ``os.replace`` calls and directory fsyncs while the
    test runs (``_Renames``), fsyncs tracked by inode."""
    import os
    import stat

    fsynced: set[tuple[int, int]] = set()
    seen = _Renames()
    fsync, replace = os.fsync, os.replace

    def tracked_fsync(fd):
        st = os.fstat(fd)
        fsynced.add((st.st_dev, st.st_ino))
        if stat.S_ISDIR(st.st_mode):
            seen.dir_fsyncs.append((os.path.realpath(f"/proc/self/fd/{fd}"), len(seen)))
        fsync(fd)

    def tracked_replace(src, dst):
        st = os.stat(src)
        seen.append((os.path.abspath(dst), (st.st_dev, st.st_ino) in fsynced))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", tracked_fsync)
    monkeypatch.setattr(os, "replace", tracked_replace)
    return seen
