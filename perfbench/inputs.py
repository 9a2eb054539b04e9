"""Generate a workload's input scans from ``--seed`` alone.

Run as a script (``python3 perfbench/inputs.py --workload W --seed N --out DIR``);
it writes the ``.h5lite`` scans into DIR and prints a JSON manifest with the
sha256 of every file as its last line.

``make_benchmark_workload`` seeds its generator with
``seed + hash(size_label) % 10_000``.  Builtin ``hash`` of a ``str`` is salted
per process, so the label is passed as :class:`StableLabel`, whose hash is its
CRC-32: the inputs then depend on ``--seed`` only, whatever ``PYTHONHASHSEED``
is.  The harness checks this by generating twice under two hash seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import zlib

from params import N_DEPTH_BINS, N_POSITIONS, DEPTH_START, DEPTH_STOP, WORKLOADS


class StableLabel(str):
    """A size label whose ``hash()`` does not depend on ``PYTHONHASHSEED``."""

    def __hash__(self) -> int:
        return zlib.crc32(self.encode("utf-8"))


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def input_plan(workload: str, seed: int):
    """``(name, size_label, input_seed)`` of every input of *workload*."""
    spec = WORKLOADS[workload]
    labels = spec["size_labels"]
    n_files = spec.get("n_files", len(labels))
    # NumPy generators take non-negative seeds only
    base = (seed % 2**31) * 10_000 + spec["input_seed_offset"]
    return [
        (f"scan_{index:03d}", labels[index % len(labels)], base + index)
        for index in range(n_files)
    ]


def generate(workload: str, seed: int, out_dir: str):
    from repro.io.image_stack import save_wire_scan
    from repro.synthetic.workloads import make_benchmark_workload

    spec = WORKLOADS[workload]
    os.makedirs(out_dir, exist_ok=True)
    manifest = []
    for name, label, input_seed in input_plan(workload, seed):
        made = make_benchmark_workload(
            StableLabel(label),
            pixel_fraction=spec["pixel_fraction"],
            n_positions=N_POSITIONS,
            depth_range=(DEPTH_START, DEPTH_STOP),
            n_depth_bins=N_DEPTH_BINS,
            seed=input_seed,
        )
        path = os.path.join(out_dir, f"{name}.h5lite")
        save_wire_scan(path, made.stack)
        manifest.append({
            "name": name,
            "file": os.path.basename(path),
            "size_label": label,
            "input_seed": input_seed,
            "shape": list(made.stack.images.shape),
            "cube_bytes": int(made.stack.images.nbytes),
            "sha256": file_sha256(path),
        })
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    print(json.dumps(generate(args.workload, args.seed, args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
