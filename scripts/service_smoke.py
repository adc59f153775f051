#!/usr/bin/env python
"""Service smoke driver: boot ``repro serve``, hammer it, check the contract.

Boots a real ``repro serve`` subprocess on an ephemeral port with a
fresh cache directory, fires N concurrent ``repro submit`` subprocesses
with an identical cg-8 synthesize spec, and asserts the service
contract end to end:

* **single-flight** — the N submissions collapse onto one job: exactly
  one scheduled execution and one cell-cache lookup and miss per
  restart seed (each seed is one synthesis cell) in ``/stats``;
* **byte identity** — every submission's result bundle is byte-for-byte
  identical, and identical to executing the same canonical spec
  directly (no HTTP) against the warmed cache;
* **clean shutdown** — ``POST /shutdown`` stops the server with exit
  code 0.

Exits nonzero on any violation.  CI runs this as the ``service-smoke``
step of the fast lane.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py [--clients 8] [--restarts 2]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.service import ServiceClient, canonicalize_spec, execute_spec
from repro.eval.parallel import ResultCache
from repro.eval.serialize import canonical_json


def _repro(*argv: str) -> list:
    return [sys.executable, "-m", "repro", *argv]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _wait_port(port_file: Path, proc: subprocess.Popen, timeout: float) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited early with code {proc.returncode}")
        if port_file.exists():
            text = port_file.read_text().strip()
            if text:
                return int(text)
        time.sleep(0.05)
    raise RuntimeError(f"server did not write {port_file} within {timeout}s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--clients", type=int, default=8,
        help="concurrent identical submissions (default 8)",
    )
    parser.add_argument("--benchmark", default="cg")
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--restarts", type=int, default=2)
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args()

    spec = {
        "kind": "synthesize",
        "benchmark": args.benchmark,
        "nodes": args.nodes,
        "seed": 0,
        "restarts": args.restarts,
    }
    failures = 0
    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as tmp:
        tmp_path = Path(tmp)
        cache_dir = tmp_path / "cache"
        port_file = tmp_path / "port"
        server = subprocess.Popen(
            _repro(
                "serve", "--port", "0", "--port-file", str(port_file),
                "--workers", "2", "--cache-dir", str(cache_dir),
            ),
            env=_env(), cwd=ROOT,
        )
        try:
            port = _wait_port(port_file, server, timeout=60.0)
            url = f"http://127.0.0.1:{port}"
            client = ServiceClient(url)
            assert client.healthz()["status"] == "ok"
            print(f"server up at {url}", flush=True)

            spec_file = tmp_path / "spec.json"
            spec_file.write_text(json.dumps(spec))
            started = time.perf_counter()
            submits = [
                subprocess.Popen(
                    _repro(
                        "submit", "--url", url, "--spec", str(spec_file),
                        "--out", str(tmp_path / f"bundle-{i}.json"),
                        "--timeout", str(args.timeout),
                    ),
                    env=_env(), cwd=ROOT,
                )
                for i in range(args.clients)
            ]
            for i, proc in enumerate(submits):
                if proc.wait(timeout=args.timeout) != 0:
                    print(f"FAIL: submit {i} exited {proc.returncode}", file=sys.stderr)
                    failures += 1
            elapsed = time.perf_counter() - started
            print(f"{args.clients} submissions done in {elapsed:.1f}s", flush=True)

            bundles = [
                (tmp_path / f"bundle-{i}.json").read_bytes()
                for i in range(args.clients)
            ]
            if len(set(bundles)) != 1:
                print(
                    f"FAIL: {len(set(bundles))} distinct bundles across "
                    f"{args.clients} identical submissions",
                    file=sys.stderr,
                )
                failures += 1

            stats = client.stats()
            jobs, cells = stats["jobs"], stats["cells"]
            if jobs["scheduled"] != 1 or jobs.get("executed", 0) != 1:
                print(f"FAIL: expected one scheduled+executed job, got {jobs}",
                      file=sys.stderr)
                failures += 1
            if cells["lookups"] != args.restarts or cells["misses"] != args.restarts:
                print(f"FAIL: expected one cell-cache lookup and miss per restart "
                      f"seed ({args.restarts}), got {cells}", file=sys.stderr)
                failures += 1
            if jobs["submitted"] != args.clients:
                print(f"FAIL: expected {args.clients} submissions, got {jobs}",
                      file=sys.stderr)
                failures += 1
            print(f"stats: jobs={jobs} cells={cells}", flush=True)

            # The no-HTTP reference: the same canonical spec executed
            # directly against the (now warm) cache must produce the
            # same canonical bytes the service served.
            reference = canonical_json(
                execute_spec(canonicalize_spec(spec), cache=ResultCache(str(cache_dir)))
            ).encode("utf-8")
            if bundles and bundles[0] != reference:
                print("FAIL: served bundle differs from direct execution",
                      file=sys.stderr)
                failures += 1

            client.shutdown()
            code = server.wait(timeout=30.0)
            if code != 0:
                print(f"FAIL: server exited {code} after shutdown", file=sys.stderr)
                failures += 1
        finally:
            if server.poll() is None:
                server.terminate()
                try:
                    server.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    server.kill()
    if failures:
        print(f"{failures} smoke failure(s)", file=sys.stderr)
        return 1
    print(
        f"OK: single-flight dedupe and byte-identical bundles across "
        f"{args.clients} concurrent submissions"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
