"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload {dense_scan,batch_incremental,serve_open_loop}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Inputs are generated from ``--seed`` (twice,
under two ``PYTHONHASHSEED`` values, and compared), reference outputs are
computed and checked against the scalar kernel (see ``verify.py``), then the
workload runs for ``--seconds`` in fresh processes.  With ``--trace 0`` the
end-to-end metrics are measured; with ``--trace 1`` the per-layer metrics
are, from spans the wrappers of ``tracing.py`` record.  A traced closed-loop
run alternates untraced and traced operations; a traced serve run starts an
untraced and then a traced daemon for half the time each.  The ratio of the
two medians is the tracing overhead.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record (parameters, input digests, sample counts,
generator lag, spans) goes to ``.perfbench_out/``.  An output that differs
from its reference exits with code 3 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List

from params import SETUP_SAMPLES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: a run must end within 180 s; past this it stops its children and fails
RUN_BUDGET_S = 170

class HarnessError(Exception):
    """The benchmark itself could not run (not a program output mismatch)."""


def declared() -> Dict:
    """What ``BENCHMARK.json`` declares: each workload's reason and, in print
    order, the name and unit of every end-to-end and per-layer metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if sorted(entry["name"] for entry in bench["workloads"]) != sorted(WORKLOADS):
        raise HarnessError("the workloads of BENCHMARK.json and params.WORKLOADS differ")
    return {"why": {entry["name"]: entry["why"] for entry in bench["workloads"]},
            **{key: {entry["name"]: entry["unit"] for entry in bench[key]}
               for key in ("end_to_end", "per_layer")}}


#: BLAS/OpenMP thread pools pinned to one thread in every process
BLAS_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env(tmp: str) -> Dict[str, str]:
    # One fixed string-hash seed for the measured processes.  The allocation
    # order follows it: the same dense operation on the same input peaked at
    # 129-131 MB RSS under some hash seeds and 145-157 MB under others.
    return {**os.environ, **BLAS_PINS, "PYTHONPATH": SRC, "PYTHONHASHSEED": "1",
            "REPRO_CACHE_DIR": os.path.join(tmp, "default-cache")}


def log_tail(path: str, limit: int = 3000) -> str:
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8", "replace")[-limit:]


def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# --------------------------------------------------------------------------- #
# inputs
def make_inputs(workload: str, seed: int, tmp: str, env: Dict) -> Dict:
    """Generate under two hash seeds in parallel; the digests must agree."""

    def generate(hash_seed: str):
        out = os.path.join(tmp, f"inputs-h{hash_seed}")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "inputs.py"), "--workload", workload,
             "--seed", str(seed), "--out", out],
            env={**env, "PYTHONHASHSEED": hash_seed}, capture_output=True, text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise HarnessError(f"input generation failed:\n{proc.stderr[-2000:]}")
        return out, json.loads(proc.stdout.strip().splitlines()[-1])

    with ThreadPoolExecutor(max_workers=2) as pool:
        (inputs_dir, manifest), (other_dir, other) = pool.map(generate, ["1", "2"])
    digests = [entry["sha256"] for entry in manifest]
    if digests != [entry["sha256"] for entry in other]:
        raise HarnessError("inputs differ between PYTHONHASHSEED=1 and PYTHONHASHSEED=2")
    shutil.rmtree(other_dir)
    manifest_path = os.path.join(tmp, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    return {"dir": inputs_dir, "manifest": manifest, "manifest_path": manifest_path,
            "hashseed_check": "identical sha256 under PYTHONHASHSEED=1 and =2"}


# --------------------------------------------------------------------------- #
# closed-loop workloads
def start_worker(workload: str, inputs: Dict, tmp: str, env: Dict, seconds: float,
                 trace: int, setup_only: bool, procs: List):
    out_dir = os.path.join(tmp, "out")
    os.makedirs(out_dir, exist_ok=True)
    result = os.path.join(tmp, "worker-result.json")
    command = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
               "--manifest", inputs["manifest_path"], "--inputs", inputs["dir"],
               "--out", out_dir, "--cache-root", os.path.join(tmp, "cache"),
               "--seconds", str(seconds), "--trace", str(trace), "--result", result]
    if setup_only:
        command.append("--setup-only")
    log = open(os.path.join(tmp, "worker.log"), "ab")
    started = time.perf_counter()
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=log)
    procs.append(proc)
    line = proc.stdout.readline().decode().strip()
    setup_s = time.perf_counter() - started
    if line != "ready":
        proc.wait()
        log.close()
        raise HarnessError(f"worker did not start (exit {proc.returncode}):\n"
                           f"{log_tail(log.name)}")
    return proc, log, setup_s, result, out_dir


def finish_worker(proc, log, timeout_s: float) -> None:
    try:
        proc.stdout.read()
        code = proc.wait(timeout=timeout_s)
    finally:
        log.close()
    if code != 0:
        raise HarnessError(f"worker exited with {code}:\n{log_tail(log.name)}")


def end_to_end(latencies: List[float], completed_mb: float, span_s: float, limit_s: float,
               setup: List[float], peak_rss_kb: int) -> Dict:
    """The end-to-end figures of one untraced run, each with its sample count."""
    n = len(latencies)
    return {
        "throughput_mb_s": {"value": completed_mb / span_s, "n": n, "span_s": span_s},
        "latency_p50_s": {"value": statistics.median(latencies), "n": n},
        "latency_p90_s": {"value": p90(latencies), "n": n},
        "goodput_jobs_s": {"value": sum(1 for x in latencies if x <= limit_s) / span_s, "n": n,
                           "limit_s": limit_s},
        "setup_s": {"value": statistics.median(setup), "n": len(setup), "samples": setup},
        "peak_rss_mb": {"value": peak_rss_kb / 1024.0, "n": 1},
        "latency_samples_s": latencies,
    }


def overhead(traced: List[float], untraced: List[float]) -> Dict:
    return {"value": statistics.median(traced) / statistics.median(untraced),
            "n": len(traced), "untraced_n": len(untraced)}


def closed_loop(args, inputs: Dict, gate, tmp: str, env: Dict, procs: List) -> Dict:
    import tracing

    workload, seconds, trace = args.workload, args.seconds, args.trace
    setup = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, log, setup_s, _, _ = start_worker(
                workload, inputs, tmp, env, seconds, trace, True, procs)
            finish_worker(proc, log, 60)
            setup.append(setup_s)
    proc, log, setup_s, result_path, out_dir = start_worker(
        workload, inputs, tmp, env, seconds, trace, False, procs)
    setup.append(setup_s)
    finish_worker(proc, log, seconds + 120)
    with open(result_path) as fh:
        record = json.load(fh)

    # the gate: every timed operation's outputs, then the files left on disk
    phases = ["untraced", "traced"] if trace else ["timed"]
    for phase in phases:
        for op in record[phase]["outputs"]:
            gate.digests(op["digests"], f"{phase} {op['op']}")
    if workload == "dense_scan":
        gate.saved({inputs["manifest"][0]["name"]: os.path.join(out_dir, "depth.h5lite")})
    else:
        gate.saved({entry["name"]: os.path.join(out_dir, f"{entry['name']}_depth.h5lite")
                    for entry in inputs["manifest"]})

    out = {"attempted": sum(record[p]["attempted"] for p in phases),
           "failed": sum(record[p]["failed"] for p in phases),
           "errors": [e for p in phases for e in record[p]["errors"]]}
    if trace:
        untraced, traced = record["untraced"], record["traced"]
        spans = [tracing.Span(*span) for span in record["spans"]]
        layers = tracing.layer_metrics(spans)
        walls = {op["op"]: op["latency_s"] for op in traced["outputs"]}
        layers["pipeline.worker_busy_ratio"] = tracing.worker_busy_ratio(spans, walls)
        layers["trace.overhead_ratio"] = overhead(traced["latencies"], untraced["latencies"])
        out.update(layers=layers, spans=spans, installed=record["installed"])
        return out

    latencies = record["timed"]["latencies"]
    cube_mb = sum(entry["cube_bytes"] for entry in inputs["manifest"]) / 1e6
    out["metrics"] = end_to_end(latencies, cube_mb * len(latencies), sum(latencies),
                                WORKLOADS[workload]["latency_limit_s"], setup,
                                record["timed"]["peak_rss_kb"])
    return out


# --------------------------------------------------------------------------- #
# open-loop serve workload
def serve_phase(daemon, manifest: List[Dict], inputs_dir: str, seed: int,
                seconds: float) -> Dict:
    import serve_load
    from params import session_for
    from repro.serve.metrics import merge_counter_deltas

    spec = serve_load.SPEC
    paths = {entry["name"]: os.path.join(inputs_dir, entry["file"]) for entry in manifest}
    cube_mb = {entry["name"]: entry["cube_bytes"] / 1e6 for entry in manifest}
    session = session_for("serve_open_loop")
    client = daemon.client()
    # warm-up, untimed: one admission hit, then the two largest scans computed
    # at once.  Every worker then has held its largest working set, so the
    # daemon's peak RSS does not hinge on whether two computations of the
    # schedule happened to overlap.
    client.submit_and_wait(paths[manifest[0]["name"]], session=session)
    largest = sorted(manifest, key=lambda entry: entry["cube_bytes"])[-spec["daemon_workers"]:]
    stamp = 1_600_000_000_000_000_000 + int(time.time())
    for entry in largest:
        os.utime(paths[entry["name"]], ns=(stamp, stamp))
    for accepted in [client.submit(paths[entry["name"]], session=session) for entry in largest]:
        client.wait(accepted["job"]["id"])

    before = client.metrics()
    jobs = serve_load.build_schedule(manifest, seed, seconds)
    anchors = serve_load.run_schedule(jobs, daemon.port, paths, session.config.to_dict())
    serve_load.collect(jobs, client)
    after = client.metrics()
    stats = daemon.stop()

    latencies, lags, submits, errors = [], [], [], []
    ok_mb, run_s, computed_keys, served = 0.0, 0.0, {}, {}
    last_finish = anchors["t0_unix"]
    for job in jobs:
        lags.append(job["sent_mono"] - (anchors["t0_mono"] + job["offset_s"]))
        submits.append(job["submit_s"])
        final = job.get("final")
        if job["status"] != 202 or final is None or final["state"] != "done":
            errors.append(f"slot {job['slot']}: status {job['status']} "
                          f"{(final or {}).get('state') or job['reply'].get('error')}")
            continue
        timings = final["job"]["timings"]
        latencies.append(timings["finished_unix"] - (anchors["t0_unix"] + job["offset_s"]))
        last_finish = max(last_finish, timings["finished_unix"])
        ok_mb += cube_mb[job["scan"]]
        served[f"slot {job['slot']}"] = (job["scan"], (final["cache"] or {}).get("digest"))
        if final["job"]["served"] == "computed":
            computed_keys[final["job"]["key"]] = job["scan"]
            run_s += timings["run_s"]
    return {
        "attempted": len(jobs), "failed": len(errors), "errors": errors,
        "latencies": latencies, "lags": lags, "submits": submits, "ok_mb": ok_mb,
        "computed_keys": computed_keys, "served_digests": served,
        "counters": merge_counter_deltas(
            before["jobs"], after["jobs"], ("computed", "cache_hits", "collapsed", "rejected")),
        "windows": after["latency"], "stats": stats, "t0_mono": anchors["t0_mono"],
        # the schedule's span: from its start until its last job finished
        "span_s": last_finish - anchors["t0_unix"],
        "compute_pool_busy": run_s / (spec["daemon_workers"] * seconds),
    }


def serve_open_loop(args, inputs: Dict, gate, tmp: str, env: Dict, procs: List,
                    cache_root: str) -> Dict:
    import serve_load
    import tracing

    spec = serve_load.SPEC

    def daemon(traced: bool, tag: str):
        return serve_load.Daemon(HERE, env, tmp, cache_root, traced, tag, procs)

    def phase(handle, seconds: float) -> Dict:
        return serve_phase(handle, inputs["manifest"], inputs["dir"], args.seed, seconds)

    setup, phases = [], {}
    try:
        if args.trace:
            phases["untraced"] = phase(daemon(False, "untraced"), args.seconds / 2)
            phases["traced"] = phase(daemon(True, "traced"), args.seconds / 2)
        else:
            for index in range(SETUP_SAMPLES - 1):
                handle = daemon(False, f"setup{index}")
                setup.append(handle.setup_s)
                handle.stop()
            handle = daemon(False, "timed")
            setup.append(handle.setup_s)
            phases["timed"] = phase(handle, args.seconds)
    except RuntimeError as exc:
        raise HarnessError(str(exc)) from None

    for name, result in phases.items():
        for slot, (scan, digest) in result["served_digests"].items():
            gate.digests({scan: digest}, f"{name} {slot}")
        gate.cached(result["computed_keys"], cache_root)
        max_lag = max(result["lags"])
        if max_lag > spec["max_generator_lag_s"]:
            raise HarnessError(f"{name}: generator fell {max_lag:.3f}s behind its schedule; "
                               "the run is invalid")

    out = {
        "attempted": sum(p["attempted"] for p in phases.values()),
        "failed": sum(p["failed"] for p in phases.values()),
        "errors": [e for p in phases.values() for e in p["errors"]],
        "generator_lag": {name: {"p50_s": statistics.median(p["lags"]), "max_s": max(p["lags"]),
                                 "limit_s": spec["max_generator_lag_s"]}
                          for name, p in phases.items()},
        "counters": {name: p["counters"] for name, p in phases.items()},
        "compute_pool_busy": {name: p["compute_pool_busy"] for name, p in phases.items()},
    }
    if args.trace:
        untraced, traced = phases["untraced"], phases["traced"]
        spans = [tracing.Span(*span) for span in traced["stats"]["spans"]]
        spans = [span for span in spans if span.start >= traced["t0_mono"]]
        layers = tracing.layer_metrics(spans)
        windows, counters = traced["windows"], traced["counters"]
        layers.update({
            "serve.submit_s": {"value": statistics.median(traced["submits"]),
                               "n": len(traced["submits"])},
            "serve.queue_wait_p50_s": {"value": windows["queue_wait"]["p50_s"],
                                       "n": windows["queue_wait"]["count"]},
            "serve.run_p50_s": {"value": windows["run"]["p50_s"], "n": windows["run"]["count"]},
            "trace.overhead_ratio": overhead(traced["latencies"], untraced["latencies"]),
        })
        for name in ("computed", "cache_hits", "collapsed", "rejected"):
            layers[f"serve.{name}"] = {"value": counters[name], "n": 1}
        out.update(layers=layers, spans=spans, installed=traced["stats"]["installed"])
        return out

    timed = phases["timed"]
    out["metrics"] = end_to_end(timed["latencies"], timed["ok_mb"], timed["span_s"],
                                spec["latency_limit_s"], setup, timed["stats"]["peak_rss_kb"])
    return out


# --------------------------------------------------------------------------- #
def shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def run(args, gate, tmp: str, procs: List) -> Dict:
    env = child_env(tmp)
    inputs = make_inputs(args.workload, args.seed, tmp, env)
    cache_root = os.path.join(tmp, "cache")
    serve = args.workload == "serve_open_loop"
    gate.references(args.workload, inputs["manifest"], inputs["dir"], args.seed,
                    cache_root=cache_root if serve else None)
    if serve:
        outcome = serve_open_loop(args, inputs, gate, tmp, env, procs, cache_root)
    else:
        outcome = closed_loop(args, inputs, gate, tmp, env, procs)
    outcome["inputs"] = [{key: entry[key] for key in ("name", "size_label", "input_seed",
                                                      "shape", "sha256")}
                         for entry in inputs["manifest"]]
    outcome["hashseed_check"] = inputs["hashseed_check"]
    return outcome


def report(args, bench: Dict, outcome: Dict, gate, started: float) -> None:
    """Write the full record (and the spans of a traced run) to .perfbench_out/."""
    import numpy

    record = {
        "workload": args.workload, "why": bench["why"][args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "parameters": WORKLOADS[args.workload], "setup_samples": SETUP_SAMPLES,
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "wall_s": time.perf_counter() - started,
        "units": bench["per_layer" if args.trace else "end_to_end"],
        "correct": not gate.mismatches, "mismatches": gate.mismatches,
        "outputs_checked": gate.checked, "references": gate.refs,
        "mapping_drift": gate.mapping_drift,
        **{key: value for key, value in outcome.items() if key != "spans"},
    }
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if "spans" in outcome:
        from tracing import NOTES, Span

        record["notes"] = NOTES
        with open(stem + "-spans.json", "w") as fh:
            json.dump({"fields": Span._fields, "spans": outcome["spans"]}, fh)
        record["spans_file"] = os.path.relpath(stem + "-spans.json", ROOT)
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)


def summary(args, bench: Dict, outcome: Dict) -> Dict:
    """Print every declared metric by name; return the final line's ``metrics``.

    A figure the run made that ``BENCHMARK.json`` does not declare is an
    error, so the code and the declaration cannot drift apart silently.
    """
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"cpu_count={os.cpu_count()}")
    units = bench["per_layer" if args.trace else "end_to_end"]
    figures = outcome["layers" if args.trace else "metrics"]
    undeclared = sorted(set(figures) - set(units) - {"latency_samples_s"})
    if undeclared:
        raise HarnessError(f"metrics not declared in BENCHMARK.json: {undeclared}")
    metrics = {}
    for name, unit in units.items():
        figure = figures.get(name, {"absent": True})
        if figure.get("absent"):
            if not args.trace:
                raise HarnessError(f"end-to-end metric {name} was not measured")
            # the result line needs a number; the record and this line say absent
            print(f"{name} = absent ({unit}, layer never fired)")
            value = 0
        else:
            value = figure["value"]
            print(f"{name} = {value:.6g} {unit} (n={figure['n']})")
        metrics[name] = {"value": value, "unit": unit}
    print(f"failed_ratio = {failed / attempted:.6g} ratio (failed={failed}, attempted={attempted})")
    for error in outcome["errors"][:5]:
        print(f"# failure: {error}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    bench = declared()
    os.environ.update(BLAS_PINS)
    sys.path.insert(0, SRC)
    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(tmp, "default-cache")

    def abort(signum, _frame):
        raise HarnessError(f"stopped by signal {signum}")

    signal.signal(signal.SIGTERM, abort)
    signal.signal(signal.SIGALRM, abort)
    signal.alarm(RUN_BUDGET_S)
    procs: List[subprocess.Popen] = []
    shm_before = shm_entries()
    from verify import Gate

    gate = Gate()
    try:
        outcome = run(args, gate, tmp, procs)
    except (HarnessError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.listdir(scratch_root):
            os.rmdir(scratch_root)
    leaked = sorted(shm_entries() - shm_before)
    outcome["hygiene"] = {"leftover_shm": leaked, "children_started": len(procs)}
    report(args, bench, outcome, gate, started)
    try:
        metrics = summary(args, bench, outcome)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    drift = gate.mapping_drift
    if drift["differ"]:
        print(f"# known program defect: {drift['differ']} of {drift['depths']} critical depths "
              "from pixel_yz_to_depth differ from pixel_yz_to_depth_scalar (NumPy vs libm "
              f"trig), by up to {drift['max_roundoff_units']:.3g} of {drift['bound_units']:g} "
              "allowed round-off units")
    if leaked:
        print(f"perfbench: /dev/shm entries left behind: {leaked}", file=sys.stderr)
        return 1
    if gate.mismatches:
        print(f"perfbench: OUTPUT MISMATCH in {len(gate.mismatches)} of {gate.checked} "
              "checked outputs; no result", file=sys.stderr)
        for mismatch in gate.mismatches[:10]:
            print(f"perfbench:   {mismatch}", file=sys.stderr)
        return 3
    print(json.dumps({"correct": True, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
