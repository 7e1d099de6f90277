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


@pytest.fixture(scope="session")
def fixture_small(tmp_path_factory):
    """Small deterministic CDC fixture shared across tests."""
    from etl_reconciliate_ray.datagen import DatagenConfig, write_fixture

    out = str(tmp_path_factory.mktemp("fixture_small"))
    cfg = DatagenConfig(seed=42, lake_rows=200, num_events=1200, num_epochs=4)
    manifest = write_fixture(cfg, out)
    return out, cfg, manifest


@pytest.fixture
def renames(monkeypatch):
    """The driver's ``os.replace`` calls while the test runs, in order:
    ``(absolute target path, whether the renamed file's bytes had been
    fsynced)``, fsyncs tracked by inode."""
    import os

    fsynced: set[tuple[int, int]] = set()
    seen: list[tuple[str, bool]] = []
    fsync, replace = os.fsync, os.replace

    def tracked_fsync(fd):
        st = os.fstat(fd)
        fsynced.add((st.st_dev, st.st_ino))
        fsync(fd)

    def tracked_replace(src, dst):
        st = os.stat(src)
        seen.append((os.path.abspath(dst), (st.st_dev, st.st_ino) in fsynced))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", tracked_fsync)
    monkeypatch.setattr(os, "replace", tracked_replace)
    return seen
