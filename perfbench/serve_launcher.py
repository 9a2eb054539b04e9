"""Start a ``repro-serve`` daemon, optionally with the layer wrappers installed.

``python3 perfbench/serve_launcher.py --port P --workers W --cache-root R
--stats FILE [--trace]``.  With ``--trace`` the wrappers of ``tracing.py`` go
in before :func:`repro.serve.app.run_server` is called, and each span carries
the serve job id bound to the thread that ran it.  After the daemon drains
(SIGTERM) the process writes its peak RSS and spans to ``--stats``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--cache-root", required=True)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from repro.serve.app import ServeSettings, run_server

    tracer, installed = None, []
    if args.trace:
        import tracing
        from repro.utils.logging import current_request

        tracer = tracing.Tracer(op_source=lambda: current_request()["job_id"])
        installed = tracing.install(tracer)
    code = run_server(ServeSettings(port=args.port, workers=args.workers, cache=args.cache_root))
    with open(args.stats, "w") as fh:
        json.dump({
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "installed": installed,
            "spans": tracer.spans if tracer is not None else [],
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
