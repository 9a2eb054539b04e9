"""Open-loop load against a ``repro-serve`` daemon.

One generator thread runs an asyncio loop that sends each job at its due
time whether or not earlier jobs have answered, over at most ``nproc``
connections at once.  Latency is taken from the job's *due* time to the
``finished_unix`` stamp the daemon records, so a stall that delays later
sends is charged to them; how late each send was is reported as lag.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List

from params import WORKLOADS

HOST = "127.0.0.1"
SPEC = WORKLOADS["serve_open_loop"]


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


class Daemon:
    """One launcher subprocess; :meth:`stop` drains it with SIGTERM."""

    def __init__(self, here: str, env: Dict, tmp: str, cache_root: str, trace: bool, tag: str,
                 procs: List):
        self.port = free_port()
        self.stats_path = os.path.join(tmp, f"daemon-{tag}.json")
        self.log = open(os.path.join(tmp, f"daemon-{tag}.log"), "wb")
        command = [sys.executable, os.path.join(here, "serve_launcher.py"),
                   "--port", str(self.port), "--workers", str(SPEC["daemon_workers"]),
                   "--cache-root", cache_root, "--stats", self.stats_path]
        if trace:
            command.append("--trace")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(command, env=env, stdout=self.log, stderr=subprocess.STDOUT)
        procs.append(self.proc)  # the caller stops it even if start-up fails
        self.setup_s = self._wait_healthy()

    def _wait_healthy(self, timeout_s: float = 60.0) -> float:
        from repro.serve.client import ServeClient, ServeError

        client = ServeClient(host=HOST, port=self.port, timeout_s=2.0)
        deadline = self.started + timeout_s
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                self.log.flush()
                with open(self.log.name, "rb") as fh:
                    tail = fh.read()[-3000:].decode("utf-8", "replace")
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode} before /healthz:\n{tail}")
            try:
                if client.health().get("ok"):
                    return time.perf_counter() - self.started
            except (OSError, ServeError):
                pass
            time.sleep(0.005)
        raise RuntimeError("daemon did not answer /healthz in time")

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient(host=HOST, port=self.port, timeout_s=30.0, client_id="perfbench")

    def stop(self) -> Dict:
        """SIGTERM, wait for the drain, return the launcher's stats."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.log.close()
        if code != 0:
            raise RuntimeError(f"daemon exited with {code} after SIGTERM")
        with open(self.stats_path) as fh:
            return json.load(fh)


def build_schedule(manifest: List[Dict], seed: int, seconds: float) -> List[Dict]:
    """Deterministic job list: due offset, kind and scan, from *seed*."""
    rng = random.Random(seed * 7_919 + 17)
    rate = SPEC["rate_per_s"]
    names = [entry["name"] for entry in manifest]
    fresh_order: List[str] = []
    recent: List[str] = []
    jobs = []
    fresh_offset = 0.0
    for slot in range(int(rate * seconds)):
        kind = SPEC["mix"][slot % len(SPEC["mix"])]
        offset = slot / rate
        if kind == "fresh":
            if not fresh_order:
                fresh_order = rng.sample(names, len(names))
            name = fresh_order.pop()
            recent = (recent + [name])[-SPEC["repeat_excludes_last_fresh"]:]
            fresh_offset = offset
        elif kind == "duplicate":
            name = recent[-1]
            offset = fresh_offset + SPEC["duplicate_delay_s"]
        else:
            name = rng.choice([n for n in names if n not in recent])
        jobs.append({"slot": slot, "offset_s": offset, "kind": kind, "scan": name})
    return jobs


async def _post_job(port: int, body: bytes):
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(
            (f"POST /v1/jobs HTTP/1.1\r\nHost: {HOST}\r\nContent-Type: application/json\r\n"
             f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n").encode("latin-1") + body
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload or b"{}")


async def _generate(jobs: List[Dict], port: int, paths: Dict[str, str], config: Dict,
                    t0_mono: float, stamp_base: int) -> None:
    connections = asyncio.Semaphore(max(1, os.cpu_count() or 1))
    pending = []

    async def send(job: Dict, body: bytes) -> None:
        async with connections:
            job["sent_mono"] = time.perf_counter()
            try:
                job["status"], job["reply"] = await _post_job(port, body)
            except (OSError, ValueError, IndexError) as exc:
                job["status"], job["reply"] = None, {"error": f"{type(exc).__name__}: {exc}"}
            job["submit_s"] = time.perf_counter() - job["sent_mono"]

    for job in jobs:
        delay = t0_mono + job["offset_s"] - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        path = paths[job["scan"]]
        if job["kind"] == "fresh":
            stamp = stamp_base + job["slot"] * 1_000_000
            os.utime(path, ns=(stamp, stamp))
        body = json.dumps({"source": {"path": path}, "config": config,
                           "client": "perfbench"}).encode("utf-8")
        pending.append(asyncio.create_task(send(job, body)))
    await asyncio.gather(*pending)


def run_schedule(jobs: List[Dict], port: int, paths: Dict[str, str], config: Dict) -> Dict:
    """Send *jobs* open-loop from one generator thread; returns timing anchors."""
    start = time.perf_counter() + 0.05
    anchors = {"t0_mono": start, "t0_unix": time.time() + (start - time.perf_counter())}
    stamp_base = 1_800_000_000_000_000_000 + int(anchors["t0_unix"]) * 1_000_000_000
    errors: List[BaseException] = []

    def generator() -> None:
        try:
            asyncio.run(_generate(jobs, port, paths, config, start, stamp_base))
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)

    thread = threading.Thread(target=generator, name="perfbench-generator")
    thread.start()
    thread.join()
    if errors:
        raise errors[0]
    return anchors


def collect(jobs: List[Dict], client, deadline_s: float = 60.0) -> None:
    """Wait for every accepted job to reach a terminal state."""
    waiting = [job for job in jobs if job.get("status") == 202]
    deadline = time.perf_counter() + deadline_s
    while waiting and time.perf_counter() < deadline:
        still = []
        for job in waiting:
            job_id = job["reply"]["job"]["id"]
            status = client.status(job_id)
            if status["state"] in ("queued", "running"):
                still.append(job)
            elif status["state"] == "done":
                job["final"] = {"state": "done", "job": status,
                                "cache": client.result(job_id).get("cache")}
            else:
                job["final"] = {"state": status["state"], "job": status}
        waiting = still
        if waiting:
            time.sleep(0.05)
    for job in waiting:
        job["final"] = {"state": "timeout"}
