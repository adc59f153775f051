"""The repo benchmark: run one named workload and report its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload synth-cg64 --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics BENCHMARK.json lists;
``--trace 1`` runs the workload with the layer wrappers installed and
reports the per-layer metrics.  Every output is checked against
``perfbench/pins.json``; a failed check counts toward ``failed`` and
makes the command exit 1.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Results (with nproc, Python version and seed) and traced spans are
also written under ``.perfbench-out/``.  ``--size tiny`` runs the
smoke-test inputs.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("synth-cg64", "replay-nas16", "sweep-gen16", "service-mix")


def _parse(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def main(argv: list) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"error: no repro sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from harness import HostSpeed

    # The probe runs from before the imports, which count toward
    # ``setup_s``, to the end of an untraced run.
    host = HostSpeed()
    with host.sampling() if not args.trace else nullcontext():
        import service_mix
        import workloads
        from harness import OUT_DIR, Run, median

        imports = (_START, time.perf_counter())
        run = Run(
            workload=args.workload, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), size=args.size, host=host,
        )
        entry = {
            "synth-cg64": workloads.synth,
            "replay-nas16": workloads.replay,
            "sweep-gen16": workloads.sweep,
            "service-mix": service_mix.service,
        }[args.workload]
        entry(run)

    # Every reported time is in reference-host seconds (harness.HostSpeed).
    setup_s = run.elapsed(*imports) + median([run.elapsed(*iv) for iv in run.setup_times])
    if not args.trace:
        run.metrics["setup_s"] = setup_s
    error_rate = run.failed / run.attempted
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    if host.samples:
        env["host_speed"] = round(host.speed(_START, time.perf_counter()), 4)
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        wanted = spec["per_layer"]
        values = run.layers
    else:
        wanted = spec["end_to_end"]
        values = run.metrics
        named = dict(run.named)
        named.update(
            setup_s=(setup_s, "s"),
            peak_rss_mb=(run.metrics["peak_rss_mb"], "MB"),
            error_rate=(error_rate, "fraction"),
        )
        for name, (value, unit) in sorted(named.items()):
            print(f"  {name:<22} {value:>16.6g} {unit}")
    print(f"  attempted={run.attempted} failed={run.failed} error_rate={error_rate:.6g}")
    for failure in run.failures[:20]:
        print(f"  FAILED: {failure}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    if args.trace:
        for name, metric in metrics.items():
            print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    record = dict(
        env,
        attempted=run.attempted,
        failed=run.failed,
        error_rate=error_rate,
        failures=run.failures,
        metrics=metrics,
        named={k: {"value": v, "unit": u} for k, (v, u) in run.named.items()},
        digests=run.digests,
        setup_times_s=[run.elapsed(*iv) for iv in run.setup_times],
        import_s=run.elapsed(*imports),
    )
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if run.tracer is not None:
        run.tracer.write_jsonl(str(OUT_DIR / f"trace-{stem}.jsonl"))

    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
