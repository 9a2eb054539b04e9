"""Tests for the persistent worker pool and the shared-memory slab arena.

The lifecycle guarantees the host-parallel layer rests on:

* one ``ProcessPoolExecutor`` spawn serves many runs (pool reuse);
* a pool inherited through ``fork()`` or broken by a worker death is
  lazily re-initialised, never reused;
* ``repro.pool()`` pins and pre-warms the shared pool and tears it down
  deterministically;
* every shared-memory segment an arena creates is unlinked by ``close()``,
  whatever happened in between.
"""

import numpy as np
import pytest

import repro
from multiprocessing import shared_memory
from repro.core.workerpool import (
    SlabArena,
    ThreadPool,
    WorkerPool,
    attach_slab,
    default_worker_count,
    pools_snapshot,
    shared_pool,
    shared_thread_pool,
    shutdown_all,
    shutdown_shared_pool,
)
from repro.utils.validation import ValidationError


def _square(x):
    return x * x


@pytest.fixture(autouse=True)
def _clean_shared_pool():
    """Each test starts and ends without a lingering shared pool."""
    shutdown_shared_pool()
    yield
    shutdown_shared_pool()


def _assert_unlinked(names):
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


# --------------------------------------------------------------------------- #
class TestWorkerPool:
    def test_lazy_spawn_and_reuse(self):
        pool = WorkerPool(2)
        assert not pool.alive and pool.n_spawns == 0
        futures = [pool.submit(_square, n) for n in range(5)]
        assert [f.result() for f in futures] == [0, 1, 4, 9, 16]
        assert pool.alive
        assert pool.n_spawns == 1  # one executor served every submit
        pool.shutdown()
        assert not pool.alive

    def test_invalid_worker_count(self):
        with pytest.raises(ValidationError):
            WorkerPool(0)
        with pytest.raises(ValidationError):
            shared_pool(0)

    def test_fork_safe_lazy_reinit(self):
        """A pool whose executor belongs to another process is respawned."""
        pool = WorkerPool(2)
        assert pool.submit(_square, 3).result() == 9
        pool._pid = pool._pid + 1  # simulate: this object crossed a fork()
        assert not pool.alive
        assert pool.submit(_square, 4).result() == 16
        assert pool.n_spawns == 2
        pool.shutdown()

    def test_broken_pool_respawns_on_next_use(self):
        pool = WorkerPool(2)
        assert pool.submit(_square, 2).result() == 4
        pool.mark_broken()
        assert not pool.alive
        assert pool.submit(_square, 5).result() == 25
        assert pool.n_spawns == 2
        pool.shutdown()

    def test_warm_forks_workers(self):
        pool = WorkerPool(2)
        assert pool.warm() is pool
        assert pool.alive and pool.n_spawns == 1
        pool.shutdown()


class TestSharedPool:
    def test_shared_pool_is_reused(self):
        a = shared_pool(2)
        b = shared_pool(2)
        assert a is b

    def test_resize_respawns(self):
        a = shared_pool(2)
        b = shared_pool(3)
        assert b is not a and b.max_workers == 3

    def test_pool_context_pins_and_tears_down(self):
        with repro.pool(2) as pinned:
            assert pinned.alive  # pre-warmed on entry
            assert shared_pool(2) is pinned
            # a different worker count must NOT respawn while pinned
            assert shared_pool(5) is pinned
            assert pinned.n_spawns == 1
        assert not pinned.alive  # outermost exit shuts the pool down

    def test_pool_context_nested(self):
        with repro.pool(2) as outer:
            with repro.pool(4) as inner:
                assert inner is outer  # the pin wins; no respawn
            assert outer.alive  # inner exit must not tear down the outer pin
        assert not outer.alive

    def test_pool_context_default_worker_count(self):
        with repro.pool() as pinned:
            assert pinned.max_workers == default_worker_count()
        assert default_worker_count() >= 2

    def test_pool_runs_reuse_one_spawn(self):
        """Many process-pool runs inside one pool() share one executor."""
        from repro.core.depth_grid import DepthGrid
        from repro.core.session import session
        from tests.helpers import make_tiny_stack

        stack = make_tiny_stack(n_rows=6, n_cols=4, n_positions=9)
        sess = session(
            grid=DepthGrid.from_range(0.0, 100.0, 8), executor="processes", n_workers=2
        )
        with repro.pool(2) as pinned:
            for _ in range(3):
                sess.run(stack)
            assert pinned.n_spawns == 1

    def test_heterogeneous_batch_reuses_one_pool(self, tmp_path):
        """Items with fewer rows than n_workers must not resize the shared
        pool: the pool is keyed on config.n_workers, never the row-clamped
        band count, so a mixed-size batch pays one spawn total."""
        from repro.core.depth_grid import DepthGrid
        from repro.core.session import session
        from repro.io.image_stack import save_wire_scan
        from tests.helpers import make_tiny_stack

        paths = []
        for index, n_rows in enumerate((3, 16, 3, 16)):
            stack = make_tiny_stack(n_rows=n_rows, n_cols=4, n_positions=9)
            path = tmp_path / f"scan_{index}.h5lite"
            save_wire_scan(path, stack)
            paths.append(str(path))
        sess = session(
            grid=DepthGrid.from_range(0.0, 100.0, 8), executor="processes", n_workers=4
        )
        batch = sess.run_many(paths, max_workers=2)
        assert batch.n_ok == 4
        assert shared_pool(4).n_spawns == 1


# --------------------------------------------------------------------------- #
class TestSlabArena:
    def test_lease_recycles_segments(self):
        arena = SlabArena()
        first = arena.lease(1024)
        arena.release(first)
        second = arena.lease(1024)
        assert second.name == first.name  # recycled, not recreated
        assert arena.n_created == 1
        arena.close()
        _assert_unlinked(arena.created_names)

    def test_peak_leased_accounting(self):
        arena = SlabArena()
        slabs = [arena.lease(512) for _ in range(3)]
        assert arena.peak_leased == 3 and arena.n_leased == 3
        for slab in slabs:
            arena.release(slab)
        assert arena.n_leased == 0 and arena.peak_leased == 3
        arena.close()

    def test_close_unlinks_everything_even_leased(self):
        arena = SlabArena()
        leased = arena.lease(256)
        free = arena.lease(256)
        arena.release(free)
        arena.close()
        assert arena.closed
        _assert_unlinked([leased.name, free.name])
        arena.close()  # idempotent

    def test_lease_after_close_rejected(self):
        arena = SlabArena()
        arena.close()
        with pytest.raises(ValidationError):
            arena.lease(64)

    def test_release_after_close_unlinks(self):
        arena = SlabArena()
        slab = arena.lease(128)
        arena.close()
        arena.release(slab)  # late release must destroy, not resurrect
        _assert_unlinked([slab.name])

    def test_empty_lease_rejected(self):
        arena = SlabArena()
        with pytest.raises(ValidationError):
            arena.lease(0)
        arena.close()

    def test_attach_slab_roundtrip(self):
        arena = SlabArena()
        slab = arena.lease(8 * 16)
        view = np.ndarray((16,), dtype=np.float64, buffer=slab.buf)
        view[...] = np.arange(16.0)
        attached = attach_slab(slab.name)
        mirror = np.ndarray((16,), dtype=np.float64, buffer=attached.buf)
        np.testing.assert_array_equal(mirror, np.arange(16.0))
        del mirror
        attached.close()
        del view
        arena.close()
        _assert_unlinked([slab.name])

    def test_close_and_late_release_fully_idempotent(self):
        """Second close() and release()-after-close never raise or double-unlink."""
        arena = SlabArena()
        leased = arena.lease(256)
        returned = arena.lease(256)
        arena.release(returned)
        arena.close()
        # every combination of late calls must be a no-op, not an error: a
        # crashed run can interleave them in any order
        arena.close()
        arena.release(leased)
        arena.release(leased)
        arena.release(returned)
        arena.close()
        _assert_unlinked([leased.name, returned.name])
        assert arena.closed

    def test_double_release_does_not_duplicate_free_list(self):
        arena = SlabArena()
        slab = arena.lease(128)
        arena.release(slab)
        arena.release(slab)  # second release must not enqueue a duplicate
        first = arena.lease(128)
        second = arena.lease(128)
        assert first.name != second.name  # duplicate would hand the slab out twice
        arena.close()


# --------------------------------------------------------------------------- #
class TestInterpreterExitCleanup:
    """No /dev/shm segment may outlive the interpreter, even without close()."""

    def _run_subprocess(self, body: str) -> str:
        """Run *body* in a fresh interpreter rooted at the repo; returns stdout."""
        import os
        import subprocess
        import sys

        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(repo_root, "src"), repo_root]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-c", body],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=repo_root,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_abandoned_arena_swept_at_exit(self):
        """An arena that never reaches close() is unlinked by the atexit sweep."""
        out = self._run_subprocess(
            "from repro.core.workerpool import SlabArena\n"
            "arena = SlabArena()\n"
            "slab = arena.lease(4096)\n"
            "free = arena.lease(4096)\n"
            "arena.release(free)\n"
            "print(slab.name)\n"
            "# exit WITHOUT close(): the atexit hook must sweep the segments\n"
        )
        _assert_unlinked([out.strip()])

    def test_multiprocess_run_without_explicit_shutdown_leaves_no_segments(self):
        """A real shm-dispatch run + plain interpreter exit leaks nothing.

        The subprocess reconstructs on the process-pool executor (zero-copy
        dispatch), prints every segment name its executor's arena created,
        and exits without calling shutdown_shared_pool() or any close —
        the atexit-registered cleanup must leave /dev/shm empty.
        """
        out = self._run_subprocess(
            "from repro.core.backends.multiprocess import MultiprocessExecutor\n"
            "from repro.core.config import ReconstructionConfig\n"
            "from repro.core.engine import StackChunkSource, execute\n"
            "from repro.core.depth_grid import DepthGrid\n"
            "from tests.helpers import make_tiny_stack\n"
            "stack = make_tiny_stack(n_rows=4, n_cols=4, n_positions=9)\n"
            "config = ReconstructionConfig(\n"
            "    grid=DepthGrid.from_range(0.0, 100.0, 8),\n"
            "    executor='processes', n_workers=2,\n"
            ")\n"
            "executor = MultiprocessExecutor()\n"
            "execute(StackChunkSource(stack), config, executor)\n"
            "for name in executor.arena.created_names:\n"
            "    print(name)\n"
            "# no shutdown_shared_pool(), no arena close: atexit must clean up\n"
        )
        names = [line for line in out.strip().splitlines() if line]
        assert names, "the shm run should have created at least one segment"
        _assert_unlinked(names)


# --------------------------------------------------------------------------- #
class TestUtilizationSnapshots:
    """The structured monitoring views the serve /metrics endpoint polls."""

    def test_worker_pool_utilization_shape_and_counts(self):
        pool = WorkerPool(2)
        snap = pool.utilization()
        assert snap == {"kind": "processes", "max_workers": 2, "alive": False,
                        "busy": 0, "utilization": 0.0, "n_spawns": 0,
                        "n_submitted": 0}
        assert [pool.submit(_square, n).result() for n in range(3)] == [0, 1, 4]
        snap = pool.utilization()
        assert snap["alive"] and snap["n_spawns"] == 1 and snap["n_submitted"] == 3
        assert snap["busy"] == 0 and snap["utilization"] == 0.0  # all done
        pool.shutdown()

    def test_thread_pool_tracks_busy_jobs(self):
        import threading as _threading

        pool = ThreadPool(2)
        gate = _threading.Event()
        futures = [pool.submit(gate.wait, 30) for _ in range(2)]
        for _ in range(200):  # both workers must report busy while parked
            if pool.utilization()["busy"] == 2:
                break
            _threading.Event().wait(0.01)
        snap = pool.utilization()
        assert snap["kind"] == "threads"
        assert snap["busy"] == 2 and snap["utilization"] == 1.0
        gate.set()
        assert all(f.result() for f in futures)
        for _ in range(200):  # and idle again once the gate opens
            if pool.utilization()["busy"] == 0:
                break
            _threading.Event().wait(0.01)
        assert pool.utilization()["busy"] == 0
        pool.shutdown()

    def test_pools_snapshot_reflects_shared_pools(self):
        assert pools_snapshot() == {"process_pool": None, "thread_pool": None}
        shared_pool(2).submit(_square, 3).result()
        shared_thread_pool(2).submit(_square, 4).result()
        snapshot = pools_snapshot()
        assert snapshot["process_pool"]["kind"] == "processes"
        assert snapshot["process_pool"]["n_submitted"] == 1
        assert snapshot["thread_pool"]["kind"] == "threads"
        assert snapshot["thread_pool"]["max_workers"] == 2
        shutdown_all()
        assert pools_snapshot() == {"process_pool": None, "thread_pool": None}

    def test_utilization_counts_failures_too(self):
        pool = ThreadPool(1)
        future = pool.submit(_square, "not-a-number")
        with pytest.raises(TypeError):
            future.result()
        snap = pool.utilization()
        assert snap["n_submitted"] == 1 and snap["busy"] == 0  # untracked on error
        pool.shutdown()
