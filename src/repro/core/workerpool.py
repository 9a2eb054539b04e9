"""Persistent worker-pool lifecycle and the shared-memory slab arena.

Host parallelism used to pay two taxes the paper's "embarrassingly parallel
across pixels" argument says it should not:

* every run created (and tore down) its own ``ProcessPoolExecutor``, so a
  multi-file batch paid pool start-up once **per file**;
* every row band was deep-copied and pickled into the pool and the partial
  cube pickled back, so dispatch cost scaled with the cube size.

This module owns the fixes for both:

:class:`WorkerPool`
    A lazily created, fork-safe, reusable wrapper around
    ``ProcessPoolExecutor``.  The pool object survives across runs; the
    underlying executor is (re)spawned on first use, after a ``fork()`` (a
    pool inherited from a parent process must never be reused — its worker
    processes belong to the parent), and after a worker crash marks it
    broken.

:func:`shared_pool` / :func:`shutdown_shared_pool`
    The session-wide pool every ``executor="processes"`` run reuses.  Requesting a
    different worker count respawns it unless :func:`pool` has pinned it.

:func:`pool`
    The public context manager (``repro.pool``): pre-spawns the workers,
    pins the pool for the duration of the block (so runs with differing
    ``n_workers`` keep sharing it), and tears it down deterministically on
    exit of the outermost block.

:class:`SlabArena`
    A pool of reusable ``multiprocessing.shared_memory`` segments.  The
    process-pool executor leases one input and one output slab per in-flight
    chunk, workers map them by name (zero pickling of image or output
    cubes), and the arena recycles segments across chunks so a long streamed
    run allocates only ``O(max_inflight)`` segments.  ``close()`` unlinks
    everything — leased or free — so a run that dies mid-flight leaks
    nothing.
"""

from __future__ import annotations

import atexit
import os
import threading
import weakref
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from multiprocessing import shared_memory
from typing import Dict, List, Optional

from repro.utils.logging import get_logger
from repro.utils.validation import ValidationError

__all__ = [
    "BLAS_ENV_VARS",
    "WorkerPool",
    "ThreadPool",
    "SlabArena",
    "attach_slab",
    "pin_blas_threads",
    "pool",
    "shared_pool",
    "shutdown_shared_pool",
    "shared_thread_pool",
    "shutdown_shared_thread_pool",
    "pools_snapshot",
    "shutdown_all",
    "default_worker_count",
]

_LOG = get_logger(__name__)

#: Environment knobs the common BLAS/OpenMP runtimes read for their internal
#: thread counts.  Worker processes and benchmark harnesses pin these to 1:
#: the parallelism budget belongs to *our* workers, and a BLAS that silently
#: spawns its own threads per worker oversubscribes the host and corrupts
#: every scaling measurement.
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_blas_threads(n_threads: int = 1) -> Dict[str, Optional[str]]:
    """Pin the BLAS/OpenMP thread-count environment knobs to *n_threads*.

    Returns the previous values (``None`` for variables that were unset) so a
    caller can restore them.  Environment variables are read by most BLAS
    runtimes at library-load time, so the pin is authoritative in processes
    that set it before importing numpy — which is exactly what the worker
    initializer does (workers fork/spawn before their first kernel import
    path runs) — and best-effort in an already-running parent; for the
    latter, :mod:`threadpoolctl` is applied on top when it is installed.
    """
    if int(n_threads) < 1:
        raise ValidationError("n_threads must be >= 1")
    previous: Dict[str, Optional[str]] = {}
    for name in BLAS_ENV_VARS:
        previous[name] = os.environ.get(name)
        os.environ[name] = str(int(n_threads))
    try:  # pragma: no cover - optional dependency
        import threadpoolctl

        threadpoolctl.threadpool_limits(limits=int(n_threads))
    except Exception:
        pass
    return previous


def _pin_worker_blas(n_threads: int) -> None:
    """Process-pool initializer: pin BLAS threading inside each worker."""
    pin_blas_threads(n_threads)


def default_worker_count() -> int:
    """Worker count used by ``repro.pool()`` when none is given.

    One process per CPU, floored at two so the pooled path is exercised even
    on single-core machines (where the win is pool reuse and zero-copy
    dispatch, not concurrency).
    """
    return max(2, os.cpu_count() or 1)


def _noop() -> None:
    """Warm-up task: forces the executor to actually fork its workers."""


class WorkerPool:
    """A lazily created, fork-safe, reusable process pool.

    The wrapper object is cheap and long-lived; the expensive
    ``ProcessPoolExecutor`` underneath is created on first :meth:`submit`
    and transparently respawned when it cannot be reused:

    * after ``os.fork()`` — the executor's processes and queues belong to
      the parent, so the child lazily re-initialises its own;
    * after a worker death (``BrokenProcessPool``) reported via
      :meth:`mark_broken`.

    ``n_spawns`` counts how many executors were ever created — the pool
    reuse benchmarks assert it stays at one across many runs.
    """

    def __init__(self, max_workers: int, blas_threads: Optional[int] = 1):
        if int(max_workers) < 1:
            raise ValidationError("max_workers must be >= 1")
        if blas_threads is not None and int(blas_threads) < 1:
            raise ValidationError("blas_threads must be >= 1 when given")
        self.max_workers = int(max_workers)
        #: BLAS/OpenMP thread count pinned inside each worker process (None
        #: leaves the workers' inherited environment untouched)
        self.blas_threads = None if blas_threads is None else int(blas_threads)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._pid: Optional[int] = None
        self._broken = False
        self._lock = threading.Lock()
        #: number of ProcessPoolExecutor spawns over this pool's lifetime
        self.n_spawns = 0
        #: number of tasks ever submitted (accounting for tests/benchmarks)
        self.n_submitted = 0
        #: tasks submitted but not yet finished (utilization snapshots)
        self._n_active = 0

    # ------------------------------------------------------------------ #
    @property
    def alive(self) -> bool:
        """True when the underlying executor exists and is usable from this process."""
        return (
            self._executor is not None
            and self._pid == os.getpid()
            and not self._broken
        )

    def _ensure(self) -> ProcessPoolExecutor:
        """The usable executor, (re)spawned if absent, forked-over or broken."""
        with self._lock:
            if not self.alive:
                if self._executor is not None and self._pid == os.getpid():
                    # broken executor in this process: reap it.  wait=True is
                    # cheap (its workers are already dead) and deterministic —
                    # queued futures are cancelled before the respawn below
                    self._executor.shutdown(wait=True, cancel_futures=True)
                # after fork() the inherited executor is abandoned, not shut
                # down: its processes belong to the parent
                if self.blas_threads is None:
                    self._executor = ProcessPoolExecutor(max_workers=self.max_workers)
                else:
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.max_workers,
                        initializer=_pin_worker_blas,
                        initargs=(self.blas_threads,),
                    )
                self._pid = os.getpid()
                self._broken = False
                self.n_spawns += 1
                _LOG.debug(
                    "workerpool: spawned executor #%d (%d workers, pid %d)",
                    self.n_spawns, self.max_workers, self._pid,
                )
            return self._executor

    def submit(self, fn, /, *args, **kwargs) -> Future:
        """Submit a task, respawning the executor once if it turned out broken."""
        with self._lock:
            self.n_submitted += 1
        try:
            future = self._ensure().submit(fn, *args, **kwargs)
        except (BrokenExecutor, RuntimeError):
            # broken (worker died between runs) or shut down concurrently:
            # one respawn attempt, then let the error surface
            self.mark_broken()
            future = self._ensure().submit(fn, *args, **kwargs)
        self._track(future)
        return future

    def _track(self, future: Future) -> None:
        """Count *future* as active until it resolves (for :meth:`utilization`)."""
        with self._lock:
            self._n_active += 1
        future.add_done_callback(self._untrack)

    def _untrack(self, _future: Future) -> None:
        with self._lock:
            self._n_active -= 1

    @property
    def n_active(self) -> int:
        """Tasks submitted and not yet finished."""
        return self._n_active

    def utilization(self) -> Dict:
        """JSON-safe snapshot of pool state and load.

        The structured attribute-free surface long-lived consumers (the
        ``repro-serve`` ``/metrics`` endpoint) poll: current busy fraction
        next to the lifetime spawn/submit counters.  ``busy`` counts tasks
        in flight (queued or executing), so ``utilization`` can exceed 1.0
        when the submit rate outruns the workers — exactly the saturation
        signal a serving layer wants to expose.
        """
        with self._lock:
            active = self._n_active
        return {
            "kind": "processes",
            "max_workers": self.max_workers,
            "alive": self.alive,
            "busy": active,
            "utilization": active / self.max_workers,
            "n_spawns": self.n_spawns,
            "n_submitted": self.n_submitted,
        }

    def warm(self) -> "WorkerPool":
        """Fork the workers now (instead of on first real task) and return self."""
        executor = self._ensure()
        for future in [executor.submit(_noop) for _ in range(self.max_workers)]:
            future.result()
        return self

    def mark_broken(self) -> None:
        """Record that the executor lost a worker; the next use respawns it."""
        with self._lock:
            self._broken = True

    def shutdown(self, wait: bool = True) -> None:
        """Shut the underlying executor down (the wrapper stays reusable).

        The executor reference is held through the ``shutdown`` call:
        dropping it first would leave the cancel-pending-futures flag to a
        manager thread that only holds a weakref, turning cancellation into
        a garbage-collection accident.
        """
        with self._lock:
            executor = self._executor if self._pid == os.getpid() else None
            self._executor = None
            self._pid = None
            self._broken = False
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.alive else "idle"
        return f"WorkerPool(max_workers={self.max_workers}, {state}, spawns={self.n_spawns})"


class ThreadPool:
    """A lazily created, reusable thread pool — the in-process twin of
    :class:`WorkerPool`.

    Backs the ``threads`` executor strategy: the fused numpy kernels spend
    their time inside GIL-releasing ufunc loops, so threads parallelise them
    without process dispatch, pickling or shared-memory round-trips.  Threads
    do not survive ``fork()`` (only the calling thread exists in the child),
    so like :class:`WorkerPool` the executor is respawned when it was created
    in another process.
    """

    def __init__(self, max_workers: int):
        if int(max_workers) < 1:
            raise ValidationError("max_workers must be >= 1")
        self.max_workers = int(max_workers)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._pid: Optional[int] = None
        self._lock = threading.Lock()
        #: number of ThreadPoolExecutor spawns over this pool's lifetime
        self.n_spawns = 0
        #: number of tasks ever submitted
        self.n_submitted = 0
        #: tasks submitted but not yet finished (utilization snapshots)
        self._n_active = 0

    @property
    def alive(self) -> bool:
        """True when the underlying executor exists and belongs to this process."""
        return self._executor is not None and self._pid == os.getpid()

    def _ensure(self) -> ThreadPoolExecutor:
        with self._lock:
            if not self.alive:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix="repro-worker"
                )
                self._pid = os.getpid()
                self.n_spawns += 1
                _LOG.debug(
                    "workerpool: spawned thread executor #%d (%d threads, pid %d)",
                    self.n_spawns, self.max_workers, self._pid,
                )
            return self._executor

    def submit(self, fn, /, *args, **kwargs) -> Future:
        """Submit a task, respawning the executor if it was shut down."""
        with self._lock:
            self.n_submitted += 1
        try:
            future = self._ensure().submit(fn, *args, **kwargs)
        except RuntimeError:
            # shut down concurrently: one respawn attempt, then surface
            with self._lock:
                self._executor = None
            future = self._ensure().submit(fn, *args, **kwargs)
        with self._lock:
            self._n_active += 1
        future.add_done_callback(self._untrack)
        return future

    def _untrack(self, _future: Future) -> None:
        with self._lock:
            self._n_active -= 1

    @property
    def n_active(self) -> int:
        """Tasks submitted and not yet finished."""
        return self._n_active

    def utilization(self) -> Dict:
        """JSON-safe snapshot of pool state and load (see :meth:`WorkerPool.utilization`)."""
        with self._lock:
            active = self._n_active
        return {
            "kind": "threads",
            "max_workers": self.max_workers,
            "alive": self.alive,
            "busy": active,
            "utilization": active / self.max_workers,
            "n_spawns": self.n_spawns,
            "n_submitted": self.n_submitted,
        }

    def shutdown(self, wait: bool = True) -> None:
        """Shut the underlying executor down (the wrapper stays reusable)."""
        with self._lock:
            executor = self._executor if self._pid == os.getpid() else None
            self._executor = None
            self._pid = None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.alive else "idle"
        return f"ThreadPool(max_workers={self.max_workers}, {state}, spawns={self.n_spawns})"


# --------------------------------------------------------------------------- #
# the session-wide shared pool
_shared: Optional[WorkerPool] = None
_shared_lock = threading.Lock()
_pins = 0
#: separate from _shared_lock: _register_atexit is called from both pool
#: constructors, whose callers may already hold the respective pool lock
_atexit_lock = threading.Lock()
_atexit_registered = False

#: every not-yet-closed SlabArena, swept at interpreter exit so no /dev/shm
#: segment outlives the process even when a run never reached its close()
_open_arenas: "weakref.WeakSet[SlabArena]" = weakref.WeakSet()


def _close_open_arenas() -> None:
    """Unlink every surviving arena's segments (idempotent, exit-safe).

    Runs at interpreter exit *before* :func:`shutdown_shared_pool`
    (atexit is LIFO and both hooks register together): names disappear
    first, then the pool teardown reaps the workers — whose own mappings
    stay valid until they exit, exactly like an unlinked open file.
    """
    for arena in list(_open_arenas):
        arena.close()


def _register_atexit() -> None:
    global _atexit_registered
    with _atexit_lock:
        if not _atexit_registered:
            atexit.register(shutdown_shared_pool)
            atexit.register(shutdown_shared_thread_pool)
            atexit.register(_close_open_arenas)
            _atexit_registered = True


def _shared_pool_locked(n_workers: int, blas_threads: Optional[int] = 1) -> WorkerPool:
    """Body of :func:`shared_pool`; caller must hold ``_shared_lock``."""
    global _shared
    if int(n_workers) < 1:
        raise ValidationError("n_workers must be >= 1")
    _register_atexit()
    blas = None if blas_threads is None else int(blas_threads)
    if _shared is None:
        # process-lifetime pool: released by the atexit hook registered above
        _shared = WorkerPool(int(n_workers), blas_threads=blas)  # repro-lint: ignore[resource-lifecycle]
    elif (
        _shared.max_workers != int(n_workers) or _shared.blas_threads != blas
    ) and _pins == 0:
        # wait=True: the resize must not strand queued work on orphaned
        # workers, nor surface a surprise CancelledError in a run that
        # is still draining its futures
        _shared.shutdown(wait=True)
        # same process-lifetime ownership as the branch above
        _shared = WorkerPool(int(n_workers), blas_threads=blas)  # repro-lint: ignore[resource-lifecycle]
    return _shared


def shared_pool(n_workers: int, blas_threads: Optional[int] = 1) -> WorkerPool:
    """The process pool every ``executor="processes"`` run reuses.

    Created lazily on first request and kept alive across runs and files; a
    request for a *different* worker count (or BLAS pin) respawns it — unless
    a :func:`pool` context has pinned it, in which case the pinned pool is
    returned as-is (the executor partitions its row bands independently of
    the pool width, so any pool size serves any run).
    """
    with _shared_lock:
        return _shared_pool_locked(n_workers, blas_threads)


def shutdown_shared_pool() -> None:
    """Tear down the shared pool (benchmarks use this to measure cold starts)."""
    global _shared
    with _shared_lock:
        if _shared is not None:
            _shared.shutdown(wait=True)
            _shared = None


# --------------------------------------------------------------------------- #
# the session-wide shared thread pool (the ``threads`` executor strategy)
_shared_threads: Optional[ThreadPool] = None
_shared_threads_lock = threading.Lock()


def shared_thread_pool(n_workers: int) -> ThreadPool:
    """The thread pool every threaded-executor run reuses.

    Mirrors :func:`shared_pool`: created lazily, kept alive across runs, and
    respawned when a different worker count is requested.  Thread start-up is
    microseconds (not a process fork), so there is no pinning mechanism — the
    resize is always cheap.
    """
    global _shared_threads
    if int(n_workers) < 1:
        raise ValidationError("n_workers must be >= 1")
    _register_atexit()
    with _shared_threads_lock:
        if _shared_threads is None:
            _shared_threads = ThreadPool(int(n_workers))
        elif _shared_threads.max_workers != int(n_workers):
            _shared_threads.shutdown(wait=True)
            _shared_threads = ThreadPool(int(n_workers))
        return _shared_threads


def shutdown_shared_thread_pool() -> None:
    """Tear down the shared thread pool."""
    global _shared_threads
    with _shared_threads_lock:
        if _shared_threads is not None:
            _shared_threads.shutdown(wait=True)
            _shared_threads = None


def pools_snapshot() -> Dict:
    """Utilization of the shared pools (``None`` for one never spawned).

    One structured read for monitoring surfaces — the ``repro-serve``
    ``/metrics`` endpoint polls this instead of reaching into module
    globals.
    """
    with _shared_lock:
        process_pool = _shared
    with _shared_threads_lock:
        thread_pool = _shared_threads
    return {
        "process_pool": None if process_pool is None else process_pool.utilization(),
        "thread_pool": None if thread_pool is None else thread_pool.utilization(),
    }


def shutdown_all() -> None:
    """Tear down every shared resource: arenas first, then both pools.

    Idempotent by construction — every step tolerates already-gone state —
    because long-lived processes genuinely run it twice: the ``repro-serve``
    daemon calls it at the end of a SIGTERM drain, and the atexit hooks
    (registered the moment any pool or arena existed) run the same
    teardown again at interpreter exit.  The order mirrors the atexit
    (LIFO) order: segment names disappear first, then the pools reap their
    workers, whose own mappings stay valid until they exit.
    """
    _close_open_arenas()
    shutdown_shared_pool()
    shutdown_shared_thread_pool()


@contextmanager
def pool(workers: Optional[int] = None, blas_threads: Optional[int] = 1):
    """Keep one pre-spawned worker pool alive for a block of runs.

    ::

        with repro.pool(4):
            for path in paths:
                repro.session(grid=grid, executor="processes").run(path)

    Entering spawns (and warms) the shared pool at *workers* processes and
    pins it: every ``executor="processes"`` run inside the block reuses it regardless of
    its own ``n_workers``.  Exiting the outermost block shuts the pool down
    deterministically.  Outside any ``pool()`` block the engine still reuses
    a lazily created shared pool across runs; it is closed at interpreter
    exit.

    ``blas_threads`` pins the BLAS/OpenMP thread count inside each worker
    process (default 1, so the parallelism budget belongs to the workers);
    pass ``None`` to leave the workers' inherited threading untouched, or a
    larger count to deliberately give each worker a nested thread budget.
    """
    global _pins
    if workers is None:
        workers = default_worker_count()
    # acquire and pin under ONE lock hold: a concurrent resize sneaking in
    # between them would hand this context a just-shut-down pool and let its
    # exit later tear down the replacement out from under other threads
    with _shared_lock:
        active = _shared_pool_locked(int(workers), blas_threads)
        _pins += 1
    try:
        active.warm()
        yield active
    finally:
        with _shared_lock:
            _pins -= 1
            last_out = _pins == 0
        if last_out:
            shutdown_shared_pool()


# --------------------------------------------------------------------------- #
# shared-memory slab arena
class SlabArena:
    """Reusable ``multiprocessing.shared_memory`` segments for zero-copy dispatch.

    ``lease(nbytes)`` hands out a segment (recycling a previously released
    one of the same size when available), ``release(shm)`` returns it to the
    free list, and ``close()`` unlinks every segment this arena ever holds —
    leased or free — so no ``/dev/shm`` entry survives the run, even when a
    chunk raised or a worker was killed mid-flight.  Workers attach by name
    and only ever ``close()`` their mapping; the arena is the sole owner of
    ``unlink()``.
    """

    def __init__(self):
        self._free: Dict[int, List[shared_memory.SharedMemory]] = {}
        self._leased: Dict[str, shared_memory.SharedMemory] = {}
        self._size_of: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._closed = False
        #: names of every segment ever created (leak tests probe these)
        self.created_names: List[str] = []
        #: segments created over the arena lifetime (recycling keeps it small)
        self.n_created = 0
        #: peak number of simultaneously leased segments
        self.peak_leased = 0
        # exit-safety net: arenas that never reach an explicit close() (a run
        # aborted outside the engine's finally, a leaked executor) are swept
        # by the atexit hook, so /dev/shm segments cannot outlive the process
        _register_atexit()
        _open_arenas.add(self)

    # ------------------------------------------------------------------ #
    @property
    def n_leased(self) -> int:
        """Segments currently out on lease."""
        return len(self._leased)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran (every segment unlinked)."""
        return self._closed

    def lease(self, nbytes: int) -> shared_memory.SharedMemory:
        """A shared-memory segment of at least *nbytes* (recycled when possible)."""
        if int(nbytes) < 1:
            raise ValidationError("cannot lease an empty shared-memory slab")
        with self._lock:
            if self._closed:
                raise ValidationError("SlabArena is closed")
            bucket = self._free.get(int(nbytes))
            if bucket:
                shm = bucket.pop()
            else:
                # arena-tracked: release()/close() unlink it, and the atexit
                # sweep in _close_open_arenas covers abandoned arenas
                shm = shared_memory.SharedMemory(create=True, size=int(nbytes))  # repro-lint: ignore[resource-lifecycle]
                self.n_created += 1
                self.created_names.append(shm.name)
                self._size_of[shm.name] = int(nbytes)
            self._leased[shm.name] = shm
            self.peak_leased = max(self.peak_leased, len(self._leased))
            return shm

    def release(self, shm: shared_memory.SharedMemory) -> None:
        """Return a leased segment for reuse (unlinked instead if closed)."""
        with self._lock:
            if shm.name not in self._leased:
                return
            del self._leased[shm.name]
            if self._closed:
                destroy = True
            else:
                self._free.setdefault(self._size_of[shm.name], []).append(shm)
                destroy = False
        if destroy:
            _destroy_segment(shm)

    def close(self) -> None:
        """Unlink every segment; idempotent and safe mid-failure.

        Segments still mapped by a straggling (cancelled or crashed) worker
        stay readable through that worker's mapping until it exits — unlink
        only removes the name, exactly like unlinking an open file.
        """
        with self._lock:
            if self._closed:
                segments: List[shared_memory.SharedMemory] = []
            else:
                segments = list(self._leased.values())
                segments.extend(s for bucket in self._free.values() for s in bucket)
                self._leased.clear()
                self._free.clear()
            self._closed = True
        _open_arenas.discard(self)
        for shm in segments:
            _destroy_segment(shm)


def attach_slab(name: str) -> shared_memory.SharedMemory:
    """Attach to an arena segment from a worker process, without tracking it.

    ``SharedMemory(name=...)`` registers the segment with the attaching
    process's resource tracker even though the worker does not own it
    (CPython gh-82300).  Depending on fork timing the worker either shares
    the parent's tracker (a later ``unregister`` would race the arena's own
    book-keeping) or runs its own (which then warns about — and tries to
    unlink — "leaked" segments that are simply the arena's).  Suppressing
    the registration message during the attach sidesteps both: the creating
    arena remains the sole owner of ``unlink()``, workers only map and
    close.  Workers are single-threaded, so the brief patch cannot race.
    """
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register

    def _register_except_shm(res_name, rtype):  # pragma: no cover - trivial shim
        if rtype != "shared_memory":
            original_register(res_name, rtype)

    resource_tracker.register = _register_except_shm
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def _destroy_segment(shm: shared_memory.SharedMemory) -> None:
    """Close our mapping (tolerating live ndarray views) and unlink the name."""
    try:
        shm.close()
    except BufferError:
        # an ndarray view of the last-yielded partial may still be alive in
        # the engine's loop frame; the mapping dies with the view, and the
        # unlink below is what prevents the leak
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass
