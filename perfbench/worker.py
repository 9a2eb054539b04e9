"""Closed-loop worker: one caller running a workload's operation back to back.

Started by ``run.py`` in a fresh process.  It imports ``repro``, builds the
session (and cache), prints ``ready`` (the parent times set-up up to that
line), then runs untimed warm-up operations and timed operations until its
time is spent, and writes latencies, output digests, failures, peak RSS and,
with ``--trace 1``, the spans of its traced operations to ``--result``.  With
``--setup-only`` it exits right after ``ready``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

from params import MIN_OPS, WORKLOADS, session_for


def build(workload: str, inputs_dir: str, out_dir: str, cache_root: str, manifest):
    """Session set-up; returns ``(operation, outputs_of, before_op)``.

    ``outputs_of(outcome)`` gives ``(input name, ok, digest or error)`` per
    input and runs outside the timed region.
    """
    import repro

    spec = WORKLOADS[workload]
    session = session_for(workload)
    paths = [os.path.join(inputs_dir, entry["file"]) for entry in manifest]

    if workload == "dense_scan":
        output = os.path.join(out_dir, "depth.h5lite")

        def operation():
            return session.run(repro.open(paths[0]), output_path=output)

        def outputs_of(run):
            return [(manifest[0]["name"], True, run.result.content_digest())]

        return operation, outputs_of, None

    if workload == "batch_incremental":
        cache = repro.ResultCache(cache_root)
        touched = paths[::spec["touch_every"]]
        passes = iter(range(1, 1 << 30))

        def before_op():
            # a distinct mtime per pass: the touched files miss and recompute
            stamp = 1_700_000_000_000_000_000 + next(passes) * 1_000_000_000
            for path in touched:
                os.utime(path, ns=(stamp, stamp))

        def operation():
            return session.run_many(
                inputs_dir, max_workers=spec["max_workers"], output_dir=out_dir, cache=cache,
            )

        def outputs_of(batch):
            by_name = {os.path.splitext(os.path.basename(item.input_path))[0]: item
                       for item in batch.items}
            outputs = []
            for entry in manifest:
                item = by_name.get(entry["name"])
                if item is None:
                    outputs.append((entry["name"], False, "missing from the batch"))
                elif not item.ok:
                    outputs.append((entry["name"], False, item.error))
                else:
                    outputs.append((entry["name"], True, item.result.content_digest()))
            return outputs

        return operation, outputs_of, before_op

    raise SystemExit(f"worker does not run {workload!r}")


def _phase() -> dict:
    return {"latencies": [], "outputs": [], "errors": [], "attempted": 0, "failed": 0,
            "peak_rss_kb": None}


def run_ops(operation, outputs_of, before_op, seconds: float, tracer=None) -> dict:
    """Operations until *seconds* have passed, each phase getting MIN_OPS or more.

    Without a tracer there is one ``timed`` phase; its peak RSS is sampled
    after MIN_OPS operations, so it measures the same work on a fast or a
    slow host.  With a tracer, operations alternate between the ``untraced``
    and ``traced`` phases (the wrappers are switched off and on), so both
    see the same host conditions.
    """
    phases = {"untraced": _phase(), "traced": _phase()} if tracer else {"timed": _phase()}
    deadline = time.perf_counter() + seconds
    index = 0
    while (min(p["attempted"] for p in phases.values()) < MIN_OPS
           or time.perf_counter() < deadline):
        name = ("traced" if index % 2 else "untraced") if tracer else "timed"
        phase, op_id = phases[name], f"op-{index}"
        index += 1
        if before_op is not None:
            before_op()
        phase["attempted"] += 1
        start = time.perf_counter()
        try:
            if name == "traced":
                tracer.enabled, tracer.op = True, op_id
                with tracer.span("op"):
                    outcome = operation()
            else:
                if tracer is not None:
                    tracer.enabled = False
                outcome = operation()
        except Exception as exc:  # one failed operation is counted, not fatal
            phase["failed"] += 1
            phase["errors"].append(f"{type(exc).__name__}: {exc}")
            continue
        latency = time.perf_counter() - start
        result = outputs_of(outcome)
        # a caller drops each result before asking for the next.  A run's
        # result sits in reference cycles, so without a collection here the
        # peak RSS also counts earlier results the cyclic collector has not
        # freed yet (204 MB instead of 146 MB after four dense operations).
        del outcome
        gc.collect()
        if phase["attempted"] == MIN_OPS:
            phase["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        bad = [(item, error) for item, ok, error in result if not ok]
        if bad:
            phase["failed"] += 1
            phase["errors"].append(f"items failed: {bad}")
            continue
        phase["latencies"].append(latency)
        phase["outputs"].append({"op": op_id, "latency_s": latency,
                                 "digests": {item: digest for item, _, digest in result}})
    for phase in phases.values():
        if phase["peak_rss_kb"] is None:  # an early operation failed before the sample
            phase["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return phases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--cache-root", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    with open(args.manifest) as fh:
        manifest = json.load(fh)
    operation, outputs_of, before_op = build(
        args.workload, args.inputs, args.out, args.cache_root, manifest
    )
    print("ready", flush=True)
    if args.setup_only:
        return 0

    for _ in range(WORKLOADS[args.workload]["warmup_ops"]):
        if before_op is not None:
            before_op()
        operation()

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        installed = tracing.install(tracer)
        record = run_ops(operation, outputs_of, before_op, args.seconds, tracer=tracer)
        record.update(installed=installed, spans=tracer.spans)
    else:
        record = run_ops(operation, outputs_of, before_op, args.seconds)
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
