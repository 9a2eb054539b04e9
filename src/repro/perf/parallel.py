"""Parallel-scaling measurement harness (the ``BENCH_*.json`` emitter).

Three questions about the host-parallel layer, answered with wall-clock
measurements on a synthetic workload:

* **worker-count scaling** — how reconstruction time on the process pool
  (``executor="processes"``, zero-copy shared-memory dispatch) moves with
  ``n_workers``, measured on a warm pool so process start-up never
  pollutes the curve (on a single-core machine it is flat-to-rising);
* **pool reuse vs cold start** — a pooled ``run_many`` over several files
  against the old lifecycle of spawning (and tearing down) a process pool
  per file;
* **executor scaling** — a serial / threads / processes × worker-count
  matrix with the honesty gate for the default executor.

:func:`run_parallel_scaling` and :func:`run_executor_scaling` each produce
one JSON-safe record; :func:`write_bench_record` persists it as
``BENCH_<issue>.json`` — the repository's perf-trajectory artifact,
regenerated by ``repro-bench`` and the CI parallel-scaling smoke job.  Each
record's ``checks`` block carries its pass/fail gates.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from repro.core.config import ReconstructionConfig
from repro.core.engine import StackChunkSource, execute, make_strategy_executor
from repro.core.workerpool import (
    pin_blas_threads,
    pool,
    shared_pool,
    shutdown_shared_pool,
    shutdown_shared_thread_pool,
)
from repro.perf.timer import time_callable, time_stats
from repro.utils.logging import get_logger
from repro.utils.version import package_version

__all__ = [
    "BENCH_ISSUE",
    "EXECUTOR_BENCH_ISSUE",
    "DEFAULT_BENCH_FILENAME",
    "EXECUTOR_BENCH_FILENAME",
    "SCALING_GATE_SPEEDUP",
    "run_parallel_scaling",
    "run_executor_scaling",
    "write_bench_record",
    "format_parallel_report",
    "format_executor_report",
]

_LOG = get_logger(__name__)

#: Issue number this benchmark's artifact belongs to (BENCH_<issue>.json).
BENCH_ISSUE = 4

#: Default artifact file name.
DEFAULT_BENCH_FILENAME = f"BENCH_{BENCH_ISSUE}.json"

#: Issue number of the executor-scaling artifact (executor strategies +
#: auto-tuning).
EXECUTOR_BENCH_ISSUE = 6

#: Executor-scaling artifact file name.
EXECUTOR_BENCH_FILENAME = f"BENCH_{EXECUTOR_BENCH_ISSUE}.json"

#: The honesty gate: a parallel executor may become a recommended default
#: only if it shows at least this speedup over serial at 4 workers on the
#: reference workload.  Machines that cannot show it keep the serial default
#: and the artifact records why.
SCALING_GATE_SPEEDUP = 2.0

#: The "medium" synthetic workload: large enough that dispatch and kernel
#: time sit well above timer noise, small enough for CI (≈ 24 MB image cube).
DEFAULT_SIZE_LABEL = "24MB"

#: Default active-pixel fraction (the paper's Fig. 9 knob).  Dispatch cost
#: scales with *bytes* while kernel cost scales with *active elements*;
#: 25 % active pixels keeps the kernel realistic without letting compute
#: noise drown the dispatch signal this suite exists to measure.
DEFAULT_PIXEL_FRACTION = 0.25

#: Per-file workload of the pool-reuse measurement.  Pool start-up is a
#: constant per file, so modest files keep the lifecycle signal visible —
#: with huge files the same absolute saving would disappear into kernel
#: time and scheduler noise.
DEFAULT_POOL_FILE_SIZE_LABEL = "6MB"


def _run_once(stack, config: ReconstructionConfig) -> None:
    """One engine execution on *config*'s executor strategy."""
    execute(StackChunkSource(stack), config, make_strategy_executor(config))


# --------------------------------------------------------------------------- #
def measure_dispatch_scaling(
    workload,
    workers: Sequence[int] = (1, 2, 4),
    repeats: int = 3,
) -> List[Dict]:
    """Best-of-*repeats* seconds per worker count on the process pool.

    The pool is pre-warmed before each worker count and every point gets a
    discarded warm-up run, so process start-up never pollutes the curve.
    ``n_workers == 1`` runs in-process (no dispatch happens).
    """
    rows: List[Dict] = []
    for n_workers in workers:
        config = ReconstructionConfig(
            grid=workload.grid, executor="processes", n_workers=int(n_workers)
        )
        if n_workers > 1:
            shared_pool(int(n_workers)).warm()
        _run_once(workload.stack, config)  # warm caches and code paths
        shm_s, _ = time_callable(
            _run_once, workload.stack, config, repeats=max(1, int(repeats))
        )
        rows.append({"n_workers": int(n_workers), "shm_s": shm_s})
        _LOG.info("parallel-scaling: %d worker(s): shm %.4fs", n_workers, shm_s)
    shutdown_shared_pool()
    return rows


def measure_pool_reuse(
    paths: Sequence[str],
    grid,
    n_workers: int = 2,
    batch_workers: Optional[int] = None,
) -> Dict:
    """Pooled ``run_many`` against per-file cold-start pools over *paths*.

    The cold side reproduces the old lifecycle exactly: every file spawns a
    fresh process pool and tears it down afterwards.  The pooled side runs
    the same files through ``Session.run_many`` inside one ``repro.pool()``
    block, so every item reuses the same pre-warmed workers.
    *batch_workers* defaults to ``min(2, cpu_count)``: whole-file overlap
    only pays where a second core exists; on a single-core machine the
    pooled side runs the items sequentially and the comparison isolates the
    pool lifecycle itself.
    """
    from repro.core.session import session

    if batch_workers is None:
        batch_workers = min(2, os.cpu_count() or 1)

    sess = session(grid=grid, executor="processes", n_workers=int(n_workers))

    # discarded warm-up: first-touch costs (file page cache, first-run code
    # paths) must not inflate whichever side is timed first
    shutdown_shared_pool()
    for path in paths:
        sess.run(path)
    shutdown_shared_pool()

    start = time.perf_counter()
    for path in paths:
        sess.run(path)
        shutdown_shared_pool()  # the old per-run pool lifecycle
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    with pool(int(n_workers)) as worker_pool:
        sess.run_many(list(paths), max_workers=int(batch_workers))
        pooled_spawns = worker_pool.n_spawns
    pooled_s = time.perf_counter() - start

    return {
        "n_files": len(paths),
        "file_size_label": DEFAULT_POOL_FILE_SIZE_LABEL,
        "n_workers": int(n_workers),
        "batch_workers": int(batch_workers),
        "cold_start_s": cold_s,
        "pooled_s": pooled_s,
        "cold_pool_spawns": len(paths),
        "pooled_pool_spawns": pooled_spawns,
    }


# --------------------------------------------------------------------------- #
def run_parallel_scaling(
    size_label: str = DEFAULT_SIZE_LABEL,
    workers: Sequence[int] = (1, 2, 4),
    repeats: int = 3,
    n_files: int = 3,
    pixel_fraction: float = DEFAULT_PIXEL_FRACTION,
    seed: int = 0,
    work_dir: Optional[str] = None,
) -> Dict:
    """Run the full parallel-scaling suite and return the JSON-safe record.

    *size_label* is any :func:`~repro.synthetic.workloads.make_benchmark_workload`
    label (``"2.1G"`` … or ``"<x>MB"``).  *work_dir* holds the temporary
    wire-scan files of the pool-reuse measurement (a fresh temporary
    directory when omitted).
    """
    from repro.io.image_stack import save_wire_scan
    from repro.synthetic.workloads import make_benchmark_workload

    workload = make_benchmark_workload(size_label, pixel_fraction=pixel_fraction, seed=seed)
    _LOG.info("parallel-scaling workload: %s", workload.describe())

    scaling = measure_dispatch_scaling(workload, workers=workers, repeats=repeats)

    pool_workload = make_benchmark_workload(
        DEFAULT_POOL_FILE_SIZE_LABEL, pixel_fraction=pixel_fraction, seed=seed
    )

    def _measure_pool(directory: str) -> Dict:
        paths = []
        for index in range(max(1, int(n_files))):
            path = os.path.join(directory, f"scan_{index}.h5lite")
            save_wire_scan(path, pool_workload.stack)
            paths.append(path)
        return measure_pool_reuse(paths, pool_workload.grid, n_workers=max(2, min(workers)))

    if work_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as directory:
            pool_reuse = _measure_pool(directory)
    else:
        os.makedirs(work_dir, exist_ok=True)
        pool_reuse = _measure_pool(work_dir)

    checks = {
        # one persistent pool must beat a cold pool per file
        "pooled_run_many_beats_cold_start": pool_reuse["pooled_s"] < pool_reuse["cold_start_s"],
    }
    return {
        "benchmark": "parallel_scaling",
        "issue": BENCH_ISSUE,
        "repro_version": package_version(),
        "created_unix": time.time(),
        "workload": {
            "size_label": size_label,
            "shape": list(workload.stack.shape),
            "nbytes": int(workload.stack.nbytes),
            "n_depth_bins": int(workload.grid.n_bins),
            "pixel_fraction": float(pixel_fraction),
        },
        "repeats": int(repeats),
        "scaling": scaling,
        "pool_reuse": pool_reuse,
        "checks": checks,
    }


# --------------------------------------------------------------------------- #
def measure_executor_matrix(
    workload,
    workers: Sequence[int] = (1, 2, 4),
    repeats: int = 3,
    warmup: int = 1,
) -> List[Dict]:
    """Median+IQR seconds per (executor strategy, worker count), warm pools.

    ``serial`` is the 1-worker baseline; ``threads`` and ``processes`` run the
    same engine loop at each worker count.  The warm-up iteration inside
    :func:`~repro.perf.timer.time_stats` absorbs pool spawns, so the samples
    measure steady-state dispatch + kernel time.
    """
    source = StackChunkSource(workload.stack)
    cells = [("serial", 1)]
    cells += [("threads", int(n)) for n in workers]
    cells += [("processes", int(n)) for n in workers]

    rows: List[Dict] = []
    for executor_name, n_workers in cells:
        config = ReconstructionConfig(
            grid=workload.grid,
            backend="vectorized",
            executor=executor_name,
            n_workers=n_workers,
        )

        def _run() -> None:
            execute(source, config, make_strategy_executor(config))

        stats = time_stats(_run, repeats=repeats, warmup=warmup)
        rows.append(
            {
                "executor": executor_name,
                "n_workers": n_workers,
                "median_s": stats["median_s"],
                "iqr_s": stats["iqr_s"],
                "min_s": stats["min_s"],
                "samples_s": stats["samples_s"],
            }
        )
        _LOG.info(
            "executor-scaling: %s x%d: median %.4fs (IQR %.4fs)",
            executor_name, n_workers, stats["median_s"], stats["iqr_s"],
        )
    shutdown_shared_pool()
    shutdown_shared_thread_pool()
    return rows


def _gate_speedup(matrix: List[Dict], at_workers: int = 4) -> Dict:
    """Serial-vs-best-parallel speedup at *at_workers* from a matrix."""
    serial = [row for row in matrix if row["executor"] == "serial"]
    parallel = [
        row for row in matrix
        if row["executor"] != "serial" and row["n_workers"] == at_workers
    ]
    if not serial or not parallel:
        return {"at_workers": at_workers, "speedup": 0.0, "best_executor": None}
    serial_s = min(row["median_s"] for row in serial)
    best = min(parallel, key=lambda row: row["median_s"])
    speedup = serial_s / best["median_s"] if best["median_s"] > 0 else 0.0
    return {
        "at_workers": at_workers,
        "speedup": speedup,
        "best_executor": best["executor"],
        "serial_median_s": serial_s,
        "best_parallel_median_s": best["median_s"],
    }


def run_executor_scaling(
    size_label: str = DEFAULT_SIZE_LABEL,
    workers: Sequence[int] = (1, 2, 4),
    repeats: int = 3,
    pixel_fraction: float = DEFAULT_PIXEL_FRACTION,
    seed: int = 0,
) -> Dict:
    """Run the executor-scaling suite and return the ``BENCH_6`` record.

    Two measurements on the reference workload, with BLAS/OpenMP pinned to
    one thread so library-internal threading cannot masquerade as (or fight
    with) our own parallelism:

    * a serial / threads / processes × worker-count matrix (median + IQR);
    * the auto-tuner's decision for this (machine, workload) pair.

    The ``two_x_at_4_workers`` check is the honesty gate: the recommended
    default becomes a parallel executor only if it is at least
    :data:`SCALING_GATE_SPEEDUP` × faster than serial at 4 workers.  When the
    machine cannot show that, ``default_executor`` stays ``"serial"`` and
    ``serial_fallback_reason`` records the measured curve — CI fails the
    artifact if the gate fails *and* the reason is missing.
    """
    from repro.perf.autotune import tune
    from repro.synthetic.workloads import make_benchmark_workload

    pinned_from = pin_blas_threads(1)
    cpu_count = os.cpu_count() or 1

    workload = make_benchmark_workload(size_label, pixel_fraction=pixel_fraction, seed=seed)
    _LOG.info("executor-scaling workload: %s", workload.describe())

    matrix = measure_executor_matrix(workload, workers=workers, repeats=repeats)
    gate = _gate_speedup(matrix, at_workers=max(workers))

    n_positions, n_rows, n_cols = workload.stack.shape
    decision = tune(n_positions, n_rows, n_cols, workload.grid.n_bins, force=True)

    gate_passed = gate["speedup"] >= SCALING_GATE_SPEEDUP
    if gate_passed:
        default_executor = gate["best_executor"]
        serial_fallback_reason = None
    else:
        default_executor = "serial"
        serial_fallback_reason = (
            f"best parallel speedup at {gate['at_workers']} workers was "
            f"{gate['speedup']:.2f}x (gate requires {SCALING_GATE_SPEEDUP:.1f}x) "
            f"on a {cpu_count}-CPU host; parallel dispatch cannot pay for "
            f"itself here, so the default executor stays serial"
        )

    checks = {
        # the honesty gate for flipping the default away from serial
        "two_x_at_4_workers": gate_passed,
        # a failed gate without a recorded reason is a silent lie — CI
        # enforces this pair
        "fallback_reason_recorded": gate_passed or bool(serial_fallback_reason),
    }
    return {
        "benchmark": "executor_scaling",
        "issue": EXECUTOR_BENCH_ISSUE,
        "repro_version": package_version(),
        "created_unix": time.time(),
        "machine": {
            "cpu_count": cpu_count,
            "blas_pinned_to": 1,
            "blas_env_previous": {k: v for k, v in pinned_from.items() if v is not None},
        },
        "workload": {
            "size_label": size_label,
            "shape": list(workload.stack.shape),
            "nbytes": int(workload.stack.nbytes),
            "n_depth_bins": int(workload.grid.n_bins),
            "pixel_fraction": float(pixel_fraction),
        },
        "repeats": int(repeats),
        "matrix": matrix,
        "gate": gate,
        "default_executor": default_executor,
        "serial_fallback_reason": serial_fallback_reason,
        "autotune": decision.to_dict(),
        "checks": checks,
    }


def format_executor_report(record: Dict) -> str:
    """Render the BENCH_6 record as a series table plus the verdict lines."""
    from repro.perf.reporting import format_series_table

    series: Dict[str, Dict[str, float]] = {}
    for row in record["matrix"]:
        series.setdefault(str(row["n_workers"]), {})[row["executor"]] = row["median_s"]
    lines = [
        f"executor scaling — workload {record['workload']['size_label']} "
        f"({record['workload']['nbytes'] / 1e6:.1f} MB cube), "
        f"median of {record['repeats']} (BLAS pinned to 1 thread)",
        format_series_table(series, x_label="workers"),
        f"gate: {record['gate']['speedup']:.2f}x at {record['gate']['at_workers']} workers "
        f"(needs {SCALING_GATE_SPEEDUP:.1f}x) -> default executor: {record['default_executor']}",
    ]
    if record.get("serial_fallback_reason"):
        lines.append(f"fallback: {record['serial_fallback_reason']}")
    for name, passed in record["checks"].items():
        lines.append(f"check {name}: {'PASS' if passed else 'FAIL'}")
    return "\n".join(lines)


def write_bench_record(record: Dict, path: Optional[str] = None) -> str:
    """Write *record* as the ``BENCH_<issue>.json`` artifact; returns the path.

    The default file name follows the record's own ``issue`` field, so the
    BENCH_4 and BENCH_6 suites land in their respective artifacts without the
    caller spelling the name.
    """
    if path is None:
        path = f"BENCH_{record.get('issue', BENCH_ISSUE)}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _LOG.info("wrote %s", path)
    return str(path)


def format_parallel_report(record: Dict) -> str:
    """Render the record as the paper-style series table plus the check lines."""
    from repro.perf.reporting import format_series_table

    series = {
        str(row["n_workers"]): {"shm": row["shm_s"]}
        for row in record["scaling"]
    }
    reuse = record["pool_reuse"]
    lines = [
        f"parallel scaling — workload {record['workload']['size_label']} "
        f"({record['workload']['nbytes'] / 1e6:.1f} MB cube), best of {record['repeats']}",
        format_series_table(series, x_label="workers"),
        f"pool reuse over {reuse['n_files']} file(s): "
        f"cold-start {reuse['cold_start_s']:.4f}s ({reuse['cold_pool_spawns']} pool spawns) "
        f"vs pooled run_many {reuse['pooled_s']:.4f}s ({reuse['pooled_pool_spawns']} spawn)",
    ]
    for name, passed in record["checks"].items():
        lines.append(f"check {name}: {'PASS' if passed else 'FAIL'}")
    return "\n".join(lines)
