"""Measurement helpers shared by the workloads: percentiles, digests,
memory, and the per-run record a workload fills in."""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import signal
import statistics
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, Iterator, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: A wall-clock interval: ``(start, end)`` in ``time.perf_counter`` seconds.
Interval = Tuple[float, float]

PINS_PATH = Path(__file__).resolve().parent / "pins.json"
#: Where runs write results, traces and their throwaway caches.
OUT_DIR = ROOT / ".perfbench-out"
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The host-speed probe: every ``PROBE_PERIOD_S`` a SIGALRM handler
#: times ``PROBE_ITERATIONS`` of a fixed pure-Python loop on the main
#: thread.  ``PROBE_REF_S`` is that loop's time on the reference host.
PROBE_PERIOD_S = 0.1
PROBE_ITERATIONS = 20_000
PROBE_REF_S = 0.002
#: Probe samples up to this long before or after an interval count
#: toward it.
PROBE_WINDOW_S = 0.5
#: Samples taken at once between two steps that run work beside the
#: main thread (:meth:`HostSpeed.between_steps`).
PROBE_BURST = 3


class HostSpeed:
    """The host's speed over time, sampled by a fixed loop.

    On a shared host the speed of the same code drifts by tens of
    percent within seconds.  :meth:`reference_seconds` turns a wall
    interval into the seconds the same work takes on the reference
    host: the interval minus the probe's own time, scaled by the mean
    speed the probe measured around it.

    The probe only runs while nothing of the program runs beside it.
    The timer interrupts the main thread, so work on that thread is
    paused while the probe runs.  Work in pool workers, a server
    process or client threads would compete with the probe for the
    vCPUs, so :meth:`between_steps` turns the timer off around it and
    the caller samples with :meth:`probe` between the steps.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self.active = False

    def sample(self, *_signal_args: Any) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_ITERATIONS):
            acc += (i * i) & 0xFFFF
        self.samples.append((t0, time.perf_counter()))

    def probe(self) -> None:
        """Take ``PROBE_BURST`` samples now (nothing when not sampling)."""
        if self.active:
            for _ in range(PROBE_BURST):
                self.sample()

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Sample on a timer (main thread only) for the ``with`` body,
        after a burst up front so that the first interval has some."""
        self.active = True
        self.probe()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self.active = False

    @contextmanager
    def between_steps(self) -> Iterator[None]:
        """Turn the timer off for a body that runs work beside the main
        thread, with a burst of samples before and after it.  The body
        calls :meth:`probe` between its steps, when only the main thread
        runs."""
        if not self.active:
            yield
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.probe()
        try:
            yield
        finally:
            self.probe()
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def speed(self, start: float, end: float) -> float:
        """Mean speed relative to the reference host around an interval
        (the three nearest samples when fewer than three are near)."""
        near = [
            (a, b) for a, b in self.samples
            if start - PROBE_WINDOW_S <= a <= end + PROBE_WINDOW_S
        ]
        if len(near) < 3:
            mid = (start + end) / 2
            near = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:3]
        return statistics.fmean(PROBE_REF_S / (b - a) for a, b in near)

    def reference_seconds(self, start: float, end: float) -> float:
        stolen = sum(max(0.0, min(b, end) - max(a, start)) for a, b in self.samples)
        return (end - start - stolen) * self.speed(start, end)


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``q`` of the samples at or below it (``0 < q <= 1``)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 1:
        raise ValueError(f"percentile fraction must be in (0, 1], got {q}")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def median(values: Sequence[float]) -> float:
    return nearest_rank(values, 0.5)


def digest(payload: Any) -> str:
    """sha256 of canonical JSON (sorted keys, no whitespace) — the same
    encoding ``repro.eval.serialize.canonical_json`` produces."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def load_pins(size: str) -> Dict[str, Any]:
    return json.loads(PINS_PATH.read_text())[size]


@dataclass
class Run:
    """What one workload run measured and checked.

    ``metrics`` holds the end-to-end values BENCHMARK.json names,
    ``named`` the workload's own figures (value, unit), ``layers`` the
    per-layer values of a traced run, ``digests`` every output digest
    the checks compared.
    """

    workload: str
    seed: int
    seconds: float
    trace: bool
    size: str
    tracer: Any = None
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    named: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    digests: Dict[str, Any] = field(default_factory=dict)
    setup_times: List[Interval] = field(default_factory=list)
    host: HostSpeed = field(default_factory=HostSpeed)

    def op(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; a failed or incorrect one is
        recorded with ``what`` as its reason."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def check(self, name: str, actual: Any, expected: Any) -> bool:
        """Compare an output against its pinned value (one operation)."""
        self.digests[name] = actual
        return self.op(actual == expected, f"{name}: got {actual!r}, pinned {expected!r}")

    def elapsed(self, start: float, end: float) -> float:
        """Reference-host seconds of an interval; raw seconds in a
        traced run, whose span times are raw too.  Convert once the
        samples after the interval exist, at the end of a workload."""
        return end - start if self.trace else self.host.reference_seconds(start, end)

    def span(self, name: str) -> ContextManager:
        """A benchmark-side span in a traced run; nothing otherwise."""
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def untraced(self) -> ContextManager:
        """Run the benchmark's own checks without counting them toward
        any layer of a traced run."""
        return self.tracer.paused() if self.tracer is not None else nullcontext()

    def timed_setup(self, build: Callable[[], Any]) -> Any:
        """Run ``build`` ``SETUP_REPEATS`` times (once when traced),
        recording each interval; returns the last result."""
        result = None
        for _ in range(1 if self.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            result = build()
            self.setup_times.append((t0, time.perf_counter()))
        return result


@contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A fresh directory under :data:`OUT_DIR`, removed afterwards."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def planned(seconds: float, nominal_s: float, minimum: int) -> int:
    """How many units of work fill ``seconds``, at ``nominal_s`` each.

    The count depends on ``--seconds`` only, never on how fast the host
    happens to be, so every run of a workload does the same work.
    """
    return max(minimum, round(seconds / nominal_s))


def percentiles_ms(samples_s: Sequence[float]) -> Dict[str, float]:
    """p50/p90/p99 in milliseconds plus the sample count."""
    return {
        "n": len(samples_s),
        "p50": nearest_rank(samples_s, 0.50) * 1e3,
        "p90": nearest_rank(samples_s, 0.90) * 1e3,
        "p99": nearest_rank(samples_s, 0.99) * 1e3,
    }
