"""Ablation A2 — all execution backends on one workload.

Puts the paper's two contenders (scalar CPU program, CUDA-style design) next
to two alternatives a practitioner would consider before porting to a GPU:
host-vectorised NumPy, serial and with rows partitioned across a process pool
(``executor="processes"``).  All four produce identical results (asserted in
the test-suite); only the time differs.
"""

import pytest

from _bench_utils import SeriesCollector, run_and_time

#: run label -> (backend, config overrides)
RUNS = {
    "cpu_reference": ("cpu_reference", {}),
    "vectorized": ("vectorized", {}),
    "gpusim": ("gpusim", {}),
    "multiprocess": ("vectorized", {"executor": "processes", "n_workers": 2}),
}

collector = SeriesCollector("Ablation: execution backends (2.7G-scaled workload)", x_label="backend")


@pytest.mark.parametrize("label", RUNS)
def test_backend_sweep(benchmark, workload_cache, label):
    workload = workload_cache("2.7G")
    backend, kwargs = RUNS[label]
    seconds = benchmark.pedantic(
        run_and_time, args=(workload, backend), kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0
    )
    collector.add(label, "wall seconds", seconds)
    benchmark.extra_info["n_elements"] = workload.n_elements


def test_backend_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if "cpu_reference" not in collector.series or "gpusim" not in collector.series:
        pytest.skip("sweep benchmarks did not run (run the whole file)")
    cpu = collector.series["cpu_reference"]["wall seconds"]
    gpu = collector.series["gpusim"]["wall seconds"]
    assert gpu < cpu, "the GPU-style design must beat the scalar CPU baseline"
    print(collector.report([
        "",
        "cpu_reference is the paper's baseline; gpusim is the paper's design;",
        "vectorized and multiprocess are host-side alternatives the paper does not evaluate.",
    ]))
