"""service-mix: a closed loop of clients against a ``repro serve``
subprocess.

The request sequence comes from the seed alone
(:func:`request_sequence`): exactly ``NEW_SHARE`` of the requests are
new jobs, in a fixed order; every other request repeats a job listed
earlier, chosen by the seed.  New jobs are 8-node ``synthesize`` specs;
every round of three single-seed jobs is followed by a ``portfolio: 2``
job over two seeds submitted ``PORTFOLIO_LAG`` rounds before, so its
cells hit the cell cache while its bundle is new.

Each request is timed from submit to the last byte of its result
bundle.  A failed job, an HTTP error, a dropped connection or a
timeout is one failed operation: nothing is retried.  Every bundle is
compared byte for byte with ``execute_spec`` run directly on the same
canonical spec.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ContextManager, Dict, Iterator, List, Optional

from harness import (
    OUT_DIR,
    Interval,
    ROOT,
    SETUP_REPEATS,
    Run,
    planned,
    median,
    percentiles_ms,
    pid_peak_rss_mb,
    scratch_dir,
    self_peak_rss_mb,
)
from tracing import Tracer, layer_metrics, root_coverage

HOST = "127.0.0.1"
CLIENTS = 2
SERVER_WORKERS = 2
SERVER_JOBS = 1
NEW_SHARE = 0.10
BENCHMARKS = ("cg", "fft", "mg")
NODES = 8
PORTFOLIO_LAG = 4
REQUESTS = {"full": 1000, "tiny": 40}
#: Nominal reference seconds of one pass (harness.planned).
PASS_S = 6.5
#: Requests sent between two probe bursts.
CHUNK = 50
#: One request may take this long before it counts as failed.
REQUEST_TIMEOUT_S = 10.0
#: Requests not sent this long into a pass count as failed.
PASS_LIMIT_S = 45.0
POLL_S = 0.002
BOOT_TIMEOUT_S = 60.0


def new_jobs() -> Iterator[Dict[str, Any]]:
    """The fixed order in which new (never submitted) jobs appear."""
    r = 0
    while True:
        for name in BENCHMARKS:
            yield {"kind": "synthesize", "benchmark": name, "nodes": NODES, "seed": r}
        if r >= PORTFOLIO_LAG:
            yield {
                "kind": "synthesize",
                "benchmark": BENCHMARKS[r % len(BENCHMARKS)],
                "nodes": NODES,
                "seed": r - PORTFOLIO_LAG,
                "portfolio": 2,
            }
        r += 1


def request_sequence(seed: int, count: int) -> List[Dict[str, Any]]:
    """The raw specs of one pass, in submission order."""
    rng = random.Random(seed)
    fresh = new_jobs()
    new_positions = set(rng.sample(range(1, count), round(count * NEW_SHARE) - 1))
    new_positions.add(0)
    listed: List[Dict[str, Any]] = []
    sequence = []
    for i in range(count):
        if i in new_positions:
            listed.append(next(fresh))
            sequence.append(listed[-1])
        else:
            sequence.append(rng.choice(listed))
    return sequence


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------


def _http(port: int, method: str, path: str, body: Optional[bytes] = None) -> tuple:
    conn = http.client.HTTPConnection(HOST, port, timeout=REQUEST_TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """One ``repro serve`` subprocess on a fresh cache; ``trace_out``
    starts it through ``serve_traced.py`` instead of the CLI."""

    def __init__(self, workdir: Path, trace_out: Optional[Path] = None) -> None:
        self.workdir = workdir
        self.trace_out = trace_out
        self.port = 0
        self.boot_start = self.boot_end = 0.0
        self.peak_rss_mb = 0.0
        self.stats: Dict[str, Any] = {}
        self._proc: Optional[subprocess.Popen] = None

    def __enter__(self) -> "Server":
        port_file = self.workdir / "port"
        common = [
            "--port-file", str(port_file),
            "--workers", str(SERVER_WORKERS),
            "--jobs", str(SERVER_JOBS),
            "--cache-dir", str(self.workdir / "cache"),
        ]
        if self.trace_out is None:
            argv = [sys.executable, "-m", "repro", "serve", "--host", HOST, "--port", "0", *common]
        else:
            argv = [sys.executable, str(Path(__file__).with_name("serve_traced.py")),
                    "--trace-out", str(self.trace_out), *common]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        t0 = self.boot_start = time.perf_counter()
        self._log = open(self.workdir / "server.log", "wb")
        self._proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=self._log, stderr=self._log)
        try:
            while not (port_file.exists() and port_file.read_text().strip()):
                if self._proc.poll() is not None:
                    raise RuntimeError(f"server exited with code {self._proc.returncode}")
                if time.perf_counter() - t0 > BOOT_TIMEOUT_S:
                    raise RuntimeError("server did not start")
                time.sleep(0.005)
            self.port = int(port_file.read_text())
            status, _ = _http(self.port, "GET", "/healthz")
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            self._proc.kill()
            self._stop()
            raise
        self.boot_end = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        try:
            status, body = _http(self.port, "GET", "/stats")
            if status == 200:
                self.stats = json.loads(body)
            self.peak_rss_mb = pid_peak_rss_mb(self._proc.pid)
            _http(self.port, "POST", "/shutdown")
        finally:
            self._stop()

    def _stop(self) -> None:
        assert self._proc is not None
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        finally:
            self._log.close()


# ---------------------------------------------------------------------------
# Closed-loop clients
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    ok: bool
    start: float
    end: float
    job_id: str = ""
    dedupe: str = ""
    body: bytes = b""
    error: str = ""


def _span(tracer: Optional[Tracer], name: str, rid: int) -> ContextManager:
    return tracer.span(name, rid=rid) if tracer is not None else nullcontext()


def one_request(port: int, spec: Dict[str, Any], rid: int, tracer: Optional[Tracer]) -> Outcome:
    start = time.perf_counter()
    try:
        with _span(tracer, "service.http_post", rid):
            status, body = _http(port, "POST", "/jobs", json.dumps(spec).encode())
        if status not in (200, 202):
            return Outcome(False, start, time.perf_counter(), error=f"POST /jobs {status}: {body[:200]!r}")
        receipt = json.loads(body)
        job_id = receipt["job_id"]
        while True:
            with _span(tracer, "service.http_result", rid):
                status, body = _http(port, "GET", f"/jobs/{job_id}/result")
            end = time.perf_counter()
            if status == 200:
                return Outcome(True, start, end, job_id, receipt["dedupe"], body)
            if status != 409:
                return Outcome(False, start, end, job_id, error=f"result {status}: {body[:200]!r}")
            if end - start > REQUEST_TIMEOUT_S:
                return Outcome(False, start, end, job_id, error="timed out waiting for the result")
            time.sleep(POLL_S)
    except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
        return Outcome(False, start, time.perf_counter(), error=f"{type(exc).__name__}: {exc}")


def closed_loop(
    port: int, sequence: List[Dict[str, Any]], first: int, deadline: float,
    tracer: Optional[Tracer],
) -> List[Outcome]:
    """Send ``sequence`` (request ids from ``first`` on) from ``CLIENTS``
    clients, each waiting for its result before taking the next
    request; the calling thread is one of the clients.  A request not
    started by ``deadline`` fails."""
    outcomes: List[Optional[Outcome]] = [None] * len(sequence)
    lock = threading.Lock()
    cursor = iter(range(len(sequence)))

    def client() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            now = time.perf_counter()
            if now > deadline:
                outcomes[i] = Outcome(False, now, now, error="not sent before the pass limit")
                continue
            outcomes[i] = one_request(port, sequence[i], first + i, tracer)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS - 1)]
    for thread in threads:
        thread.start()
    client()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    lost = Outcome(False, end, end, error="client thread ended before the request completed")
    return [o if o is not None else lost for o in outcomes]


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------


def reference_bundles(specs: List[Dict[str, Any]], cache_root: Path) -> Dict[str, bytes]:
    """Canonical bundle bytes of each distinct spec, from ``execute_spec``
    run directly, keyed by job id."""
    from repro.eval.parallel import ResultCache
    from repro.eval.serialize import canonical_json
    from repro.service.spec import canonicalize_spec, execute_spec, job_key

    cache = ResultCache(cache_root)
    out: Dict[str, bytes] = {}
    for raw in specs:
        spec = canonicalize_spec(raw)
        key = job_key(spec)
        if key not in out:
            out[key] = canonical_json(execute_spec(spec, cache=cache)).encode("utf-8")
    return out


def service(run: Run) -> None:
    sequence = request_sequence(run.seed, REQUESTS[run.size])
    outcomes: List[Outcome] = []
    chunks: List[List[Interval]] = []
    server_rss = 0.0

    def one_pass(workdir: Path, tracer: Optional[Tracer] = None, trace_out: Optional[Path] = None) -> Server:
        """One pass on a fresh server, in chunks of ``CHUNK`` requests.
        The server and the client threads run beside the main thread,
        so the probe samples only between chunks, when all is idle."""
        nonlocal server_rss
        workdir.mkdir()
        chunks.append([])
        with run.host.between_steps(), Server(workdir, trace_out) as server:
            with tracer.span("bench.pass", rid="pass") if tracer else nullcontext():
                deadline = time.perf_counter() + PASS_LIMIT_S
                for first in range(0, len(sequence), CHUNK):
                    run.host.probe()
                    t0 = time.perf_counter()
                    outcomes.extend(closed_loop(
                        server.port, sequence[first:first + CHUNK], first, deadline, tracer
                    ))
                    chunks[-1].append((t0, time.perf_counter()))
        server_rss = max(server_rss, server.peak_rss_mb)
        return server

    with scratch_dir("service-") as root:
        boots = []
        for i in range(1 if run.trace else SETUP_REPEATS):
            (root / f"boot{i}").mkdir()
            with run.host.between_steps(), Server(root / f"boot{i}") as server:
                boots.append((server.boot_start, server.boot_end))
        if run.trace:
            one_pass(root / "untraced")
            tracer = Tracer()
            run.tracer = tracer
            trace_out = OUT_DIR / f"server-trace-{os.getpid()}.json"
            server = one_pass(root / "traced", tracer, trace_out)
            server_doc = json.loads(trace_out.read_text())
            trace_out.unlink()
            untraced, traced = (sum(end - start for start, end in ivs) for ivs in chunks)
            run.layers.update(layer_metrics([tracer.export(), server_doc], server.stats))
            run.layers["trace.root_coverage"] = root_coverage(tracer.spans, "bench.pass")
            run.layers["trace.overhead_s"] = traced - untraced
            run.layers["trace.overhead_ratio"] = (traced - untraced) / untraced
        else:
            for i in range(planned(run.seconds, PASS_S, 1)):
                one_pass(root / f"pass{i}")
        reference = reference_bundles(sequence, root / "reference")
    run.setup_times.extend(boots)

    for outcome in outcomes:
        if outcome.ok and outcome.body != reference.get(outcome.job_id):
            outcome.ok = False
            outcome.error = f"bundle of job {outcome.job_id[:12]} differs from execute_spec"
        run.op(outcome.ok, outcome.error)
    if run.trace:
        return
    latencies = [run.elapsed(o.start, o.end) for o in outcomes if o.ok]
    cold = [run.elapsed(o.start, o.end) for o in outcomes if o.ok and o.dedupe == "miss"]
    pass_times = [sum(run.elapsed(*iv) for iv in ivs) for ivs in chunks]
    submit = percentiles_ms(latencies)
    run.metrics["pass_s"] = median(pass_times)
    run.metrics["op_p50_ms"] = submit["p50"]
    run.metrics["peak_rss_mb"] = self_peak_rss_mb() + server_rss
    run.named.update(
        submit_p50_ms=(submit["p50"], "ms"),
        submit_p99_ms=(submit["p99"], "ms"),
        submit_samples=(submit["n"], "count"),
        cold_submit_p50_ms=(median(cold) * 1e3 if cold else 0.0, "ms"),
        cold_submit_samples=(len(cold), "count"),
        jobs_per_s=(len(latencies) / sum(pass_times), "req/s"),
    )
