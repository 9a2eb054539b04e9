"""Execution backends for the depth reconstruction.

Three backends implement the same reconstruction with different execution
strategies:

* ``cpu_reference`` — the scalar per-element loop (the paper's original CPU
  program);
* ``vectorized`` — NumPy data-parallel execution on the host.  Where it
  runs is ``config.executor``: ``serial`` in the calling thread
  (:class:`VectorizedExecutor`), ``threads`` as row bands on a shared
  GIL-releasing thread pool (:class:`ThreadedExecutor`), or ``processes``
  as row bands on a persistent process pool with shared-memory dispatch
  (:class:`MultiprocessExecutor`);
* ``gpusim`` — the CUDA-style design of the paper on the simulated device:
  row-chunk streaming, explicit host↔device transfers, grid/block kernel
  launches and atomic accumulation.

All backends must produce numerically identical results (the test-suite
cross-checks them); only their performance characteristics differ.

Every backend routes through the shared execution engine
(:mod:`repro.core.engine`) and contributes only its per-chunk compute as a
:class:`~repro.core.engine.ChunkExecutor`.
"""

from repro.core.backends.base import Backend, available_backends, get_backend, register_backend
from repro.core.backends.cpu_reference import CpuReferenceBackend, CpuReferenceExecutor
from repro.core.backends.vectorized import VectorizedBackend, VectorizedExecutor
from repro.core.backends.gpusim import GpuSimBackend, GpuSimExecutor
from repro.core.backends.multiprocess import MultiprocessExecutor
from repro.core.backends.threaded import ThreadedExecutor

__all__ = [
    "Backend",
    "available_backends",
    "get_backend",
    "register_backend",
    "CpuReferenceBackend",
    "CpuReferenceExecutor",
    "VectorizedBackend",
    "VectorizedExecutor",
    "GpuSimBackend",
    "GpuSimExecutor",
    "MultiprocessExecutor",
    "ThreadedExecutor",
]
