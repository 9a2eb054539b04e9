"""Output-correctness gate; runs outside every timed region.

For each distinct input a reference run gives the reference content digest,
and a sampled row window is rebuilt with ``engine.build_chunk_context``
(whole-stack background) and run through ``depth_resolve_chunk_scalar``.
Timed operations are then checked digest by digest against the references.
Every mismatch is collected on the :class:`Gate`; any mismatch fails the run.

The window check has two parts.  The program's array kernels take each
element's four critical depths from ``pixel_yz_to_depth`` (NumPy trig); the
scalar kernel takes them from ``pixel_yz_to_depth_scalar`` (``math`` trig).
Where NumPy's SIMD ``arcsin``/``arctan2`` round differently from libm, the
two depths differ in the last bits, and so does every bin the trapezoid
touches: a known program defect, which this gate measures but cannot fix.
So the scalar kernel is run on the depths the program's mapping gives, and
its window must equal the program's bit for bit (the kernel arithmetic:
differences, trapezoid overlaps, weights, scatter).  Each depth it asked for
is also computed by the scalar mapping: the two must agree on which depths
are undefined and differ by at most :data:`MAPPING_ROUNDOFF` units of
round-off over the pixel's lever arm.  The drift is recorded on every run.
"""

from __future__ import annotations

import math
import os
import random
import sys
from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np

from params import WORKLOADS, session_for

#: how far a critical depth of the program's mapping may lie from the scalar
#: mapping's, in units of ``eps * hypot(pixel_y, pixel_z)`` -- the shift a
#: last-bit change of the ray angle makes at the pixel's distance from the
#: beam.  Measured drift is about 2 of these units.
MAPPING_ROUNDOFF = 16.0


def no_drift() -> Dict:
    """Counters of :func:`program_mapping`, before any depth is compared."""
    return {"depths": 0, "differ": 0, "undefined_disagree": 0, "max_roundoff_units": 0.0}


@contextmanager
def program_mapping(drift: Dict):
    """Run the scalar kernel on the critical depths the array kernels use.

    Replaces the name ``depth_resolve_element`` looks up; every distinct
    depth it asks for is also computed by the scalar mapping, and the
    comparison is added to *drift*.
    """
    import repro.core.kernels as kernels
    from repro.core.depth_mapping import pixel_yz_to_depth

    scalar = kernels.pixel_yz_to_depth_scalar
    memo: Dict[tuple, float] = {}

    def mapped(pixel_y, pixel_z, wire_y, wire_z, wire_radius, edge):
        args = (pixel_y, pixel_z, wire_y, wire_z, wire_radius, edge)
        if args not in memo:
            used = float(pixel_yz_to_depth(*args))
            libm = scalar(*args)
            drift["depths"] += 1
            if math.isnan(used) != math.isnan(libm):
                drift["undefined_disagree"] += 1
            elif used != libm:
                drift["differ"] += 1
                units = abs(used - libm) / (sys.float_info.epsilon * math.hypot(pixel_y, pixel_z))
                drift["max_roundoff_units"] = max(drift["max_roundoff_units"], units)
            memo[args] = used
        return memo[args]

    kernels.pixel_yz_to_depth_scalar = mapped
    try:
        yield
    finally:
        kernels.pixel_yz_to_depth_scalar = scalar


class Gate:
    """Reference digests plus every mismatch found against them."""

    def __init__(self):
        self.refs: Dict[str, Dict] = {}
        self.mismatches: List[str] = []
        self.checked = 0
        #: critical depths of the program's mapping against the scalar mapping
        self.mapping_drift = {**no_drift(), "bound_units": MAPPING_ROUNDOFF}

    # ------------------------------------------------------------------ #
    def references(self, workload: str, manifest: List[Dict], inputs_dir: str, seed: int,
                   cache_root: Optional[str] = None) -> None:
        """Reference digest and scalar-checked row window of every input.

        With *cache_root* the reference runs are also stored in that cache
        (the serve workload starts from a warm cache).
        """
        session = session_for(workload)
        rows = WORKLOADS[workload]["window_rows"]
        for index, entry in enumerate(manifest):
            path = os.path.join(inputs_dir, entry["file"])
            run = session.run(path, cache=cache_root if cache_root is not None else False)
            rng = random.Random(seed * 1_000_003 + index)
            row_start = self._scalar_window(path, session.config, run.result.data, rows, rng)
            self.refs[entry["name"]] = {
                "digest": run.result.content_digest(),
                "window_rows": [row_start, row_start + rows],
            }

    def _scalar_window(self, path: str, config, data: np.ndarray, rows: int,
                       rng: random.Random) -> int:
        """Compare one sampled row window of *data* with the scalar kernel."""
        from repro.core.engine import (
            StackChunkSource, build_chunk_context, compute_stack_background,
        )
        from repro.core.kernels import depth_resolve_chunk_scalar
        from repro.io.image_stack import load_wire_scan

        source = StackChunkSource(load_wire_scan(path))
        background = compute_stack_background(source, config)
        n_rows = data.shape[1]
        signal = np.flatnonzero(np.abs(data).sum(axis=(0, 2)) > 0)
        starts = [int(row) for row in signal if row + rows <= n_rows] or [0]
        row_start = rng.choice(starts)
        ctx = build_chunk_context(source, config, row_start, row_start + rows,
                                  background=background)
        window = np.zeros((data.shape[0], rows, data.shape[2]), dtype=np.float64)
        drift = no_drift()
        with program_mapping(drift):
            depth_resolve_chunk_scalar(ctx, window)
        observed = np.ascontiguousarray(data[:, row_start:row_start + rows, :])
        where = f"{os.path.basename(path)}: rows {row_start}:{row_start + rows}"
        self.checked += 1
        if window.tobytes() != observed.tobytes():
            differ = window != observed
            scale = float(np.abs(window).max()) or 1.0
            self.mismatches.append(
                f"{where} differ from depth_resolve_chunk_scalar in {int(differ.sum())} of "
                f"{window.size} values (max |diff| {float(np.abs(window - observed).max()):.3g}, "
                f"{float(np.abs(window - observed).max()) / scale:.3g} of the window's max)"
            )
        if drift["undefined_disagree"] or drift["max_roundoff_units"] > MAPPING_ROUNDOFF:
            self.mismatches.append(
                f"{where}: pixel_yz_to_depth and pixel_yz_to_depth_scalar disagree beyond "
                f"round-off: {drift['undefined_disagree']} depth(s) defined by one only, "
                f"largest difference {drift['max_roundoff_units']:.3g} units "
                f"(bound {MAPPING_ROUNDOFF:g})"
            )
        for key in ("depths", "differ", "undefined_disagree"):
            self.mapping_drift[key] += drift[key]
        self.mapping_drift["max_roundoff_units"] = max(
            self.mapping_drift["max_roundoff_units"], drift["max_roundoff_units"])
        return row_start

    # ------------------------------------------------------------------ #
    def digests(self, observed: Dict[str, Optional[str]], what: str) -> None:
        for name, digest in observed.items():
            self.checked += 1
            if digest != self.refs[name]["digest"]:
                self.mismatches.append(
                    f"{what}: output of {name} has digest {str(digest)[:16]}, "
                    f"reference {self.refs[name]['digest'][:16]}")

    def saved(self, paths: Dict[str, str]) -> None:
        """Saved output files must load to the reference content."""
        from repro.io.image_stack import load_depth_resolved

        for name, path in paths.items():
            self.digests({name: load_depth_resolved(path).content_digest()},
                         f"saved file {os.path.basename(path)}")

    def cached(self, keys: Dict[str, str], cache_root: str) -> None:
        """Read every computed key back through ``ResultCache.get``."""
        from repro.core.cache import ResultCache

        cache = ResultCache(cache_root)
        for key, name in keys.items():
            run = cache.get(key)
            self.digests({name: None if run is None else run.result.content_digest()},
                         f"cache entry {key[:16]}")
