"""Frozen workload parameters of the repository benchmark.

Every number a run depends on lives here, so two commits measured with the
same benchmark code run the same workloads.  Each workload's reason and the
names and units of the metrics live in ``BENCHMARK.json`` alone.  The serve
rate and the latency limits were chosen once, on a 2-CPU host, and are not
tuned per commit.
"""

from __future__ import annotations

#: depth grid shared by every workload: 40 bins over 0..100 um
DEPTH_START = 0.0
DEPTH_STOP = 100.0
N_DEPTH_BINS = 40
#: wire positions per scan (49 images, 48 differences)
N_POSITIONS = 49

WORKLOADS = {
    "dense_scan": {
        "loop": "closed, one caller",
        "size_labels": ["24MB"],
        "pixel_fraction": 1.0,
        "input_seed_offset": 0,
        # rows of each input re-reconstructed by the scalar reference
        "window_rows": 2,
        "latency_limit_s": 5.0,
        "warmup_ops": 1,
    },
    "batch_incremental": {
        "loop": "closed, one caller",
        "size_labels": ["1.0MB"],
        # 3 of 30 files touched per pass; with 20% of pixels on, the kernel is
        # a minority of the traced self time at this commit
        "n_files": 30,
        "pixel_fraction": 0.2,
        "input_seed_offset": 1000,
        "touch_every": 10,
        "max_workers": 2,
        "window_rows": 1,
        "latency_limit_s": 1.0,
        "warmup_ops": 2,
    },
    "serve_open_loop": {
        "loop": "open, one generator thread at a fixed rate",
        "size_labels": ["2MB"],
        "n_files": 16,
        "pixel_fraction": 0.5,
        "input_seed_offset": 2000,
        "daemon_workers": 2,
        # 100 jobs per 25 s run; the compute pool is about 25% busy and two
        # fresh scans rarely compute at once.  Busier pools (40-70%) queued
        # jobs whenever the host slowed, and the latency quartiles moved by
        # 0.3-0.9 of their median from run to run.
        "rate_per_s": 4.0,
        # one block of 8 slots, repeated: 5 fresh scans, 1 duplicate of the
        # first and 2 repeats.  The median and the 90th percentile both lie
        # inside the computed mode.  A median among the admission hits (a few
        # ms) moved with millisecond-scale host jitter by 0.3 of itself from
        # run to run.
        "mix": ["fresh", "duplicate", "repeat", "fresh", "fresh", "repeat", "fresh", "fresh"],
        # a duplicate is due this long after the fresh scan it names, so it
        # arrives while that scan computes and joins it (single-flight)
        "duplicate_delay_s": 0.05,
        # a repeat never names a scan among the last N fresh picks, so its
        # latest version has finished and admission serves it from the cache
        "repeat_excludes_last_fresh": 4,
        "window_rows": 1,
        "latency_limit_s": 1.5,
        # the run is invalid when a job was sent later than this after its due time
        "max_generator_lag_s": 0.5,
    },
}

#: fresh processes started per run to time set-up (the median is reported)
SETUP_SAMPLES = 9

#: a run with fewer timed operations than this is extended until it has them
MIN_OPS = 3


def session_for(workload: str):
    """The ``repro`` session a workload's operations run with."""
    import repro

    session = repro.session(grid=repro.DepthGrid.from_range(DEPTH_START, DEPTH_STOP, N_DEPTH_BINS))
    if workload == "batch_incremental":
        session = session.stream().configure(subtract_background=True)
    return session
