"""Tests for the runtime race sanitizer (``repro.staticcheck.sanitizer``).

The sanitizer is the dynamic half of the ``thread-escape`` contract: the
static rule proves pool-reachable writes are lock-guarded in the source,
the sanitizer observes the same discipline while real threads run.  These
tests pin the tracked-lock semantics, the violation predicate (unlocked
writes from >= 2 distinct threads), dict-field tracking, and the planted
race in ``tests/fixtures/racepkg`` being caught at runtime.
"""

import os
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.staticcheck import sanitizer
from repro.staticcheck.sanitizer import (
    TrackedDict,
    TrackedLock,
    drain,
    instrument_class,
)

FIXTURES = str(Path(__file__).resolve().parent / "fixtures")
if FIXTURES not in sys.path:
    sys.path.insert(0, FIXTURES)


@pytest.fixture(autouse=True)
def _clean_ledger():
    """Isolate each test from writes recorded by earlier ones."""
    drain()
    yield
    drain()


def _fresh_class():
    """A new lock-owning class per test (instrumentation is permanent)."""

    class Shared:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0
            self.table = {"a": 0}

        def bump_locked(self):
            with self._lock:
                self.count += 1
                self.table["a"] += 1

        def bump_racy(self):
            self.count += 1

        def store_racy(self):
            self.table["a"] += 1

    return Shared


def _run_threads(target, n_threads=4, n_calls=200):
    workers = [
        threading.Thread(target=lambda: [target() for _ in range(n_calls)])
        for _ in range(n_threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()


def _wait_for_os_thread_exit(thread, timeout_s=5.0):
    """Block until *thread*'s OS thread is gone, not just its Python side.

    ``join()`` returns before the OS thread has finished exiting; once it has,
    the next thread started typically gets the same ``get_ident()``.  Linux
    only (``/proc/self/task``); elsewhere this returns at once.
    """
    task = f"/proc/self/task/{thread.native_id}"
    deadline = time.monotonic() + timeout_s
    while os.path.exists(task) and time.monotonic() < deadline:
        time.sleep(0.001)


# --------------------------------------------------------------------------- #
class TestTrackedLock:
    def test_ownership_follows_acquire_release(self):
        lock = TrackedLock(threading.Lock())
        assert not lock.held_by_me()
        with lock:
            assert lock.held_by_me()
            assert lock.locked()
        assert not lock.held_by_me()

    def test_reentrant_depth_with_rlock(self):
        lock = TrackedLock(threading.RLock())
        with lock:
            with lock:
                assert lock.held_by_me()
            assert lock.held_by_me()  # still held after inner release
        assert not lock.held_by_me()

    def test_other_thread_not_owner(self):
        lock = TrackedLock(threading.Lock())
        lock.acquire()
        seen = {}
        worker = threading.Thread(
            target=lambda: seen.update(held=lock.held_by_me())
        )
        worker.start()
        worker.join()
        lock.release()
        assert seen["held"] is False


# --------------------------------------------------------------------------- #
class TestInstrumentation:
    def test_locked_writes_produce_no_violation(self):
        cls = instrument_class(_fresh_class(), ("count", "table"))
        shared = cls()
        _run_threads(shared.bump_locked)
        assert drain() == []
        assert shared.count == 800

    def test_unlocked_cross_thread_write_is_a_violation(self):
        cls = instrument_class(_fresh_class(), ("count", "table"))
        shared = cls()
        _run_threads(shared.bump_racy)
        violations = drain()
        assert len(violations) == 1
        (violation,) = violations
        assert violation.field_name == "count"
        assert len(violation.threads) >= 2
        assert "written without its lock" in violation.render()

    def test_sequential_short_lived_threads_are_distinct_writers(self):
        """Two threads that never overlap still race: neither holds the lock.

        CPython recycles ``threading.get_ident()`` once a thread exits, so
        keying writers by it merges these two threads into one and misses
        the race.
        """
        cls = instrument_class(_fresh_class(), ("count",))
        shared = cls()
        for _ in range(2):
            worker = threading.Thread(target=shared.bump_racy)
            worker.start()
            worker.join()
            _wait_for_os_thread_exit(worker)  # so the next thread reuses its ident
        (violation,) = drain()
        assert violation.field_name == "count"
        assert len(violation.threads) == 2
        assert violation.n_writes == 2

    def test_dict_field_item_store_is_tracked(self):
        cls = instrument_class(_fresh_class(), ("count", "table"))
        shared = cls()
        _run_threads(shared.store_racy)
        violations = drain()
        assert [v.field_name for v in violations] == ["table"]

    def test_single_thread_unlocked_writes_are_legal(self):
        # single-owner phases (setup, teardown) are not races
        cls = instrument_class(_fresh_class(), ("count", "table"))
        shared = cls()
        for _ in range(100):
            shared.bump_racy()
        assert drain() == []

    def test_init_writes_never_recorded(self):
        cls = instrument_class(_fresh_class(), ("count", "table"))
        instances = []
        _run_threads(lambda: instances.append(cls()), n_calls=20)
        assert drain() == []

    def test_instrumentation_is_idempotent(self):
        cls = _fresh_class()
        once = instrument_class(cls, ("count",))
        twice = instrument_class(once, ("count",))
        assert twice is cls
        shared = cls()
        _run_threads(shared.bump_racy)
        assert len(drain()) == 1  # not double-counted

    def test_unguarded_fields_ignored(self):
        cls = instrument_class(_fresh_class(), ("table",))
        shared = cls()
        _run_threads(shared.bump_racy)  # races `count`, which is not tracked
        assert drain() == []

    def test_drain_clears_the_ledger(self):
        cls = instrument_class(_fresh_class(), ("count",))
        shared = cls()
        _run_threads(shared.bump_racy)
        assert len(drain()) == 1
        assert drain() == []

    def test_reassigned_dict_field_stays_tracked(self):
        cls = instrument_class(_fresh_class(), ("count", "table"))
        shared = cls()
        with shared._lock:
            shared.table = {"b": 0}
        assert isinstance(shared.table, TrackedDict)

    def test_enabled_reads_environment(self, monkeypatch):
        monkeypatch.delenv(sanitizer.ENV_FLAG, raising=False)
        assert sanitizer.enabled() is False
        monkeypatch.setenv(sanitizer.ENV_FLAG, "1")
        assert sanitizer.enabled() is True


# --------------------------------------------------------------------------- #
class TestPlantedRace:
    """The racepkg fixture: flagged statically, caught dynamically."""

    def test_hammer_trips_the_sanitizer(self):
        from racepkg.board import TallyBoard
        from racepkg.runner import hammer

        instrument_class(TallyBoard, ("hits", "misses"))
        board = TallyBoard()
        hammer(board, n_threads=4, n_bumps=500)
        violations = drain()
        assert [v.field_name for v in violations] == ["misses"]
        assert violations[0].class_name == "TallyBoard"

    def test_locked_path_on_the_same_board_is_clean(self):
        from racepkg.board import TallyBoard

        instrument_class(TallyBoard, ("hits", "misses"))
        board = TallyBoard()
        _run_threads(board.record_hit)
        assert drain() == []
        assert board.hits == 800


# --------------------------------------------------------------------------- #
class TestInstall:
    def test_install_instruments_the_shared_classes(self):
        names = sanitizer.install()
        assert "repro.core.cache.ResultCache" in names
        assert "repro.serve.metrics.ServeMetrics" in names
        assert "repro.core.workerpool.ThreadPool" in names

        from repro.serve.metrics import ServeMetrics

        metrics = ServeMetrics()
        assert isinstance(metrics._lock, TrackedLock)
        assert isinstance(metrics.counts, TrackedDict)
        # the locked inc path records nothing
        _run_threads(lambda: metrics.inc("submitted"))
        assert drain() == []
        assert metrics.counts["submitted"] == 800

    def test_install_is_idempotent(self):
        first = sanitizer.install()
        second = sanitizer.install()
        assert first == second
