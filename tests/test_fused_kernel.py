"""Property-style equivalence tests for the fused single-pass kernel.

The fused kernel (``depth_resolve_chunk_fused``) is the array kernel every
host executor runs, and its load-bearing contract is **bitwise identity**
with the scalar reference loop: same per-bin weights in the same operation
order, same accumulation order into every output slot, results independent
of the ``row_block`` / ``element_batch`` temporaries.  These tests pin that
contract across odd shapes, degenerate trapezoids, masks, cutoffs, both wire
edges, both difference modes, and every host backend and executor (chunked
and streamed).
"""

import numpy as np
import pytest

from repro.core.backends import get_backend
from repro.core.backends.base import build_kernel_context
from repro.core.config import DifferenceMode, ReconstructionConfig
from repro.core.depth_grid import DepthGrid
from repro.core.kernels import depth_resolve_chunk_fused, depth_resolve_chunk_scalar
from repro.core.workerpool import shutdown_shared_pool, shutdown_shared_thread_pool
from repro.geometry.wire import WireEdge
from repro.io.image_stack import save_wire_scan
from repro.synthetic.workloads import make_point_source_stack
from tests.helpers import RUN_MODES, make_tiny_stack

#: Run modes whose output must be bitwise identical to the scalar reference.
EXACT_BACKENDS = ("cpu_reference", "vectorized", "multiprocess", "threaded")


def _noisy_stack(n_rows=7, n_cols=5, n_positions=17, masked=False, seed=11):
    stack = make_tiny_stack(n_rows=n_rows, n_cols=n_cols, n_positions=n_positions)
    rng = np.random.default_rng(seed)
    stack.images = stack.images + rng.random(stack.images.shape) * 5.0
    if masked:
        stack.pixel_mask = rng.random((n_rows, n_cols)) > 0.3
    return stack


def _context(stack, **config_overrides):
    grid = config_overrides.pop("grid", DepthGrid.from_range(0.0, 100.0, 25))
    config = ReconstructionConfig(grid=grid, **config_overrides)
    return build_kernel_context(stack, config)


def _assert_fused_bitwise(ctx, **fused_kwargs):
    shape = (ctx.grid.n_bins, ctx.n_rows, ctx.n_cols)
    out_scalar = np.zeros(shape)
    out_fused = np.zeros(shape)
    total_scalar = depth_resolve_chunk_scalar(ctx, out_scalar)
    total_fused = depth_resolve_chunk_fused(ctx, out_fused, **fused_kwargs)
    assert np.array_equal(out_scalar, out_fused), (
        f"fused kernel diverged from scalar reference: "
        f"{np.count_nonzero(out_scalar != out_fused)} differing slot(s)"
    )
    # the totals are reductions in different orders, so allclose not bitwise
    assert np.isclose(total_scalar, total_fused, rtol=1e-12)
    return out_scalar


class TestFusedVsScalar:
    def test_point_source_bitwise(self, point_source_stack, depth_grid):
        stack, _ = point_source_stack
        _assert_fused_bitwise(_context(stack, grid=depth_grid))

    @pytest.mark.parametrize(
        "n_rows,n_cols,n_positions",
        [(1, 1, 3), (1, 7, 5), (7, 1, 5), (3, 5, 2), (5, 3, 17)],
    )
    def test_odd_shapes_bitwise(self, n_rows, n_cols, n_positions):
        stack = _noisy_stack(n_rows=n_rows, n_cols=n_cols, n_positions=n_positions)
        _assert_fused_bitwise(_context(stack))

    @pytest.mark.parametrize("wire_edge", [WireEdge.LEADING, WireEdge.TRAILING])
    @pytest.mark.parametrize(
        "difference_mode", [DifferenceMode.SIGNED, DifferenceMode.RECTIFIED]
    )
    def test_edges_and_modes_bitwise(self, wire_edge, difference_mode):
        stack = _noisy_stack(masked=True)
        ctx = _context(stack, wire_edge=wire_edge, difference_mode=difference_mode)
        _assert_fused_bitwise(ctx)

    def test_mask_and_cutoff_bitwise(self):
        stack = _noisy_stack(masked=True)
        ctx = _context(stack)
        ctx.intensity_cutoff = float(np.median(np.abs(ctx.signed_differences())))
        _assert_fused_bitwise(ctx)

    def test_degenerate_trapezoids_bitwise(self):
        """Zero-motion wire steps collapse trapezoids to zero area.

        Both paths must skip exactly the same degenerate (step, row) pairs —
        a divide-by-area in the fused path would surface here as NaN.
        """
        stack = _noisy_stack(n_positions=9)
        ctx = _context(stack)
        positions = ctx.wire_positions_yz.copy()
        positions[3] = positions[2]  # a step the wire did not move
        positions[7] = positions[6]
        ctx.wire_positions_yz = positions
        out = _assert_fused_bitwise(ctx)
        assert np.all(np.isfinite(out))

    def test_all_inactive_elements(self):
        stack = _noisy_stack()
        ctx = _context(stack)
        ctx.intensity_cutoff = 1e12
        shape = (ctx.grid.n_bins, ctx.n_rows, ctx.n_cols)
        out = np.zeros(shape)
        assert depth_resolve_chunk_fused(ctx, out) == 0.0
        assert out.sum() == 0.0

    def test_row_block_and_batch_do_not_change_result(self):
        """row_block / element_batch bound temporaries, never the answer."""
        stack = _noisy_stack(n_rows=11, masked=True)
        ctx = _context(stack)
        reference = _assert_fused_bitwise(ctx)
        for row_block, element_batch in [(1, 3), (2, 7), (4, 1), (100, 1 << 20)]:
            out = np.zeros_like(reference)
            depth_resolve_chunk_fused(
                ctx, out, element_batch=element_batch, row_block=row_block
            )
            assert np.array_equal(out, reference), (
                f"result depends on row_block={row_block}, "
                f"element_batch={element_batch}"
            )


class TestBackendsBitwise:
    @pytest.fixture(scope="class")
    def reference_run(self):
        stack, _ = make_point_source_stack(depth=40.0, n_rows=6, n_cols=5, n_positions=41)
        grid = DepthGrid.from_range(0.0, 100.0, 25)
        config = ReconstructionConfig(grid=grid, backend="cpu_reference")
        result, _report = get_backend("cpu_reference").reconstruct(stack, config)
        return stack, grid, result

    @pytest.mark.parametrize("backend_name", EXACT_BACKENDS[1:])
    def test_backend_bitwise_identical(self, reference_run, backend_name):
        stack, grid, reference = reference_run
        config = ReconstructionConfig(grid=grid, n_workers=2, **RUN_MODES[backend_name])
        result, _report = get_backend(config.backend).reconstruct(stack, config)
        assert np.array_equal(reference.data, result.data)
        shutdown_shared_pool()
        shutdown_shared_thread_pool()

    @pytest.mark.parametrize("backend_name", EXACT_BACKENDS[1:])
    def test_backend_bitwise_identical_chunked(self, reference_run, backend_name):
        stack, grid, reference = reference_run
        config = ReconstructionConfig(
            grid=grid, n_workers=2, rows_per_chunk=2, **RUN_MODES[backend_name]
        )
        result, _report = get_backend(config.backend).reconstruct(stack, config)
        assert np.array_equal(reference.data, result.data)
        shutdown_shared_pool()
        shutdown_shared_thread_pool()

    def test_backend_bitwise_identical_streamed(self, reference_run, tmp_path):
        stack, grid, reference = reference_run
        path = str(tmp_path / "scan.h5lite")
        save_wire_scan(path, stack)
        from repro.core.engine import execute_backend
        from repro.io.streaming import StreamingWireScanSource

        config = ReconstructionConfig(
            grid=grid, backend="vectorized", rows_per_chunk=2
        )
        source = StreamingWireScanSource(path)
        result, _report = execute_backend(source, config)
        assert source.accounting()["max_resident_rows"] == 2  # truly streamed
        assert np.array_equal(reference.data, result.data)

    def test_gpusim_allclose(self, reference_run):
        stack, grid, reference = reference_run
        config = ReconstructionConfig(grid=grid, backend="gpusim")
        result, _report = get_backend("gpusim").reconstruct(stack, config)
        np.testing.assert_allclose(reference.data, result.data, rtol=1e-9, atol=1e-12)
