"""Run ``repro serve`` with the benchmark's layer wrappers installed.

The traced service-mix pass starts the server through this launcher
instead of the CLI.  It installs the same wrappers the in-process
workloads use (plus the job manager's queue-wait hook), calls
``run_serve``, and after shutdown writes the tracer's spans, counts and
samples as one JSON document to ``--trace-out``.

Usage::

    python perfbench/serve_traced.py --trace-out T.json --port-file P \\
        [--workers 2] [--jobs 1] [--cache-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--cache-dir", default=None)
    args = parser.parse_args()

    from repro.service import ServiceConfig, run_serve
    from tracing import Tracer, install_layers, install_service

    tracer = Tracer()
    install_layers(tracer)
    install_service(tracer)
    try:
        code = run_serve(
            ServiceConfig(
                host="127.0.0.1", port=0, workers=args.workers,
                jobs=args.jobs, cache_dir=args.cache_dir,
            ),
            port_file=args.port_file,
        )
    finally:
        tracer.uninstall()
        Path(args.trace_out).write_text(json.dumps(tracer.export()))
    return code


if __name__ == "__main__":
    sys.exit(main())
