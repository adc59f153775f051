"""The in-process workloads: synth-cg64, replay-nas16 and sweep-gen16.

Each takes a :class:`~harness.Run`, sets up ``SETUP_REPEATS`` times,
runs a fixed amount of work, checks every output against ``pins.json``,
and fills in the run's metrics.  Timed steps are kept as raw intervals
and turned into reference-host seconds at the end, once the probe has
sampled after the last of them.  A traced run does one untraced set-up
and pass first (the overhead reference) and then one traced set-up and
pass with the layer wrappers installed.

Every call into a layer goes through its module attribute
(``nas.benchmark``, ``sim.simulate``, ...), so the traced mode's
wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import importlib
import random
import time
from typing import Any, Callable, Dict, List

from harness import (
    Interval,
    Run,
    planned,
    digest,
    load_pins,
    median,
    percentiles_ms,
    scratch_dir,
    self_peak_rss_mb,
)
from tracing import Tracer, install_layers, layer_metrics, root_coverage

nas = importlib.import_module("repro.workloads.nas")
builders = importlib.import_module("repro.topology.builders")
gen = importlib.import_module("repro.synthesis.generator")
pf = importlib.import_module("repro.synthesis.portfolio")
fp = importlib.import_module("repro.floorplan.place")
vf = importlib.import_module("repro.verify.verify")
sim = importlib.import_module("repro.simulator.simulation")
driver = importlib.import_module("repro.sweeps.driver")
runner = importlib.import_module("repro.eval.runner")
ser = importlib.import_module("repro.eval.serialize")
parallel = importlib.import_module("repro.eval.parallel")
from repro.simulator.config import SimConfig  # noqa: E402
from repro.synthesis.constraints import DesignConstraints  # noqa: E402
from repro.workloads.events import Program, RecvEvent, SendEvent  # noqa: E402

#: Input sizes: ``full`` is the benchmark, ``tiny`` the smoke test's.
SYNTH = {
    "full": {"benchmark": "cg", "nodes": 64, "max_degree": 8, "warm_min": 100, "warm_traced": 20},
    "tiny": {"benchmark": "cg", "nodes": 8, "max_degree": 5, "warm_min": 3, "warm_traced": 2},
}
REPLAY = {
    "full": {"nodes": 16, "idle_side": 16, "idle_messages": 2000},
    "tiny": {"nodes": 4, "idle_side": 4, "idle_messages": 50},
}
SWEEP = {
    "full": {"nodes": 16, "sweep": {}},
    "tiny": {
        "nodes": 4,
        "sweep": {"initial_points": 2, "refine_iters": 1, "warmup_cycles": 50,
                  "measure_cycles": 100, "drain_cycles": 100},
    },
}
#: Nominal reference seconds of one unit of work, which with
#: ``--seconds`` fixes how many units a run does (harness.planned).
SYNTH_DESIGN_S = 15.0
SYNTH_WARM_S = 0.05
REPLAY_PASS_S = 13.5
REPLAY_OP_S = 2.3
SWEEP_PASS_S = 19.0
SWEEP_OP_S = 4.5
#: Repeats of the ``op_p50_ms`` case beyond its call in the pass.
OP_REPEATS_MIN = 2
PORTFOLIO_SIZE = 2
REPLAY_BENCHMARKS = ("cg", "mg")
#: The replay case whose calls ``op_p50_ms`` follows on replay-nas16.
REPLAY_OP_CASE = "cg{n}-generated"
SWEEP_PATTERNS = ("uniform", "tornado")
#: The sweep whose calls ``op_p50_ms`` follows on sweep-gen16.
SWEEP_OP_CASE = "generated-uniform"


def build_setup(name: str, n: int) -> Any:
    """The evaluation runner's setup (seed 0, 8 restarts) built from
    public pieces, so every set-up repetition really synthesizes and
    floorplans instead of hitting ``prepare``'s in-process memo."""
    bench = nas.benchmark(name, n)
    design = gen.generate_network(bench.pattern, seed=0, restarts=8)
    plan = fp.place(design.network, seed=0)
    baselines = {
        "crossbar": builders.crossbar(n),
        "mesh": builders.mesh_for(n),
        "torus": builders.torus_for(n),
    }
    return runner.BenchmarkSetup(
        benchmark=bench, design=design, floorplan=plan, baselines=baselines
    )


def trace_pass(
    run: Run,
    setup: Callable[[], Any],
    one_pass: Callable[[Any], float],
    root: str = "bench.pass",
) -> Tracer:
    """The traced run's shape: an untraced set-up and pass, then a
    traced set-up and pass.  Records the overhead (traced minus
    untraced time ``one_pass`` returns) and how much of the ``root``
    spans the layer spans cover."""
    untraced = one_pass(run.timed_setup(setup))
    tracer = Tracer()
    run.tracer = tracer
    install_layers(tracer)
    try:
        with tracer.span("bench.setup", rid="setup"):
            state = setup()
        with tracer.span("bench.pass", rid="pass"):
            traced = one_pass(state)
    finally:
        tracer.uninstall()
    run.layers.update(layer_metrics([tracer.export()]))
    run.layers["trace.root_coverage"] = root_coverage(tracer.spans, root)
    run.layers["trace.overhead_s"] = traced - untraced
    run.layers["trace.overhead_ratio"] = (traced - untraced) / untraced
    return tracer


# ---------------------------------------------------------------------------
# synth-cg64
# ---------------------------------------------------------------------------


def synth(run: Run) -> None:
    cfg = SYNTH[run.size]
    pins = load_pins(run.size)[run.workload]
    constraints = DesignConstraints(max_degree=cfg["max_degree"])
    config = pf.PortfolioConfig(size=PORTFOLIO_SIZE)
    warm_calls = cfg["warm_traced"] if run.trace else planned(
        run.seconds - SYNTH_DESIGN_S, SYNTH_WARM_S, cfg["warm_min"]
    )
    warm: List[Interval] = []
    figures: Dict[str, Any] = {}

    def setup() -> Any:
        return nas.benchmark(cfg["benchmark"], cfg["nodes"]).pattern

    def portfolio(pattern: Any, jobs: int, cache: Any) -> Any:
        return pf.synthesize_portfolio(
            pattern, constraints=constraints, config=config, jobs=jobs, cache=cache
        )

    def check_winner(result: Any, label: str) -> None:
        with run.untraced():
            text = {"summary": result.summary_dict(), "design": ser.design_to_dict(result.design)}
            run.check(label, digest(text), pins.get("winner"))

    def one_pass(pattern: Any) -> float:
        """Pattern -> certified, floorplanned design on a fresh cache,
        then the warm re-runs; returns the raw design time."""
        with scratch_dir("synth-") as root:
            cache = parallel.ResultCache(root)
            with run.span("bench.design"):
                t0 = time.perf_counter()
                result = portfolio(pattern, 1, cache)
                cert = vf.certify(result.design.topology, pattern, max_degree=cfg["max_degree"])
                plan = fp.place(result.design.network, seed=0)
                design = (t0, time.perf_counter())
            check_winner(result, "winner")
            run.op(cert.contention_free, "certificate is not contention-free")
            run.op(cert.deadlock_free, "certificate is not deadlock-free")
            # The warm calls fan out over pool workers, so the probe
            # samples between them, never beside them.
            with run.host.between_steps():
                for _ in range(warm_calls):
                    t0 = time.perf_counter()
                    result_warm = portfolio(pattern, 2, cache)
                    warm.append((t0, time.perf_counter()))
                    check_winner(result_warm, "warm winner")
                    run.host.probe()
        figures.update(design=design, links=result.winner.links, area=plan.total_link_area)
        return design[1] - design[0]

    if run.trace:
        trace_pass(run, setup, one_pass, root="bench.design")
        return
    one_pass(run.timed_setup(setup))
    design_s = run.elapsed(*figures["design"])
    warm_ms = percentiles_ms([run.elapsed(*iv) for iv in warm])
    run.metrics["pass_s"] = design_s
    run.metrics["op_p50_ms"] = warm_ms["p50"]
    run.named.update(
        design_s=(design_s, "s"),
        warm_synth_p50_ms=(warm_ms["p50"], "ms"),
        warm_synth_p90_ms=(warm_ms["p90"], "ms"),
        warm_synth_samples=(warm_ms["n"], "count"),
        design_links=(figures["links"], "links"),
        link_area=(figures["area"], "area units"),
    )
    run.metrics["peak_rss_mb"] = self_peak_rss_mb()


# ---------------------------------------------------------------------------
# replay-nas16
# ---------------------------------------------------------------------------


def _idle_program(nodes: int, messages: int) -> Program:
    """A neighbour stream between processes 0 and 1; every other NIC
    idles for the whole run."""
    events: List[tuple] = [()] * nodes
    events[0] = tuple(SendEvent(dest=1, size_bytes=64) for _ in range(messages))
    events[1] = tuple(RecvEvent(source=0) for _ in range(messages))
    return Program(name="idle-heavy", num_processes=nodes, events=tuple(events))


def replay(run: Run) -> None:
    cfg = REPLAY[run.size]
    pins = load_pins(run.size)[run.workload]
    n, side = cfg["nodes"], cfg["idle_side"]
    op_case = REPLAY_OP_CASE.format(n=n)
    rng = random.Random(run.seed)

    def setup() -> List[tuple]:
        cases = []
        for name in REPLAY_BENCHMARKS:
            bench_setup = build_setup(name, n)
            for kind in runner.TOPOLOGY_ORDER:
                cases.append((
                    f"{name}{n}-{kind}",
                    bench_setup.benchmark.program,
                    bench_setup.topology(kind),
                    bench_setup.link_delays(kind),
                    SimConfig(),
                ))
        cases.append((
            f"idle-mesh{side}x{side}",
            _idle_program(side * side, cfg["idle_messages"]),
            builders.mesh(side, side),
            None,
            SimConfig(max_cycles=5_000_000),
        ))
        return cases

    calls: Dict[str, List[Interval]] = {}
    hops: List[int] = []
    exec_cycles: Dict[str, int] = {}

    def replay_case(case: tuple) -> float:
        """One checked ``simulate`` call; returns its raw time."""
        label, program, topology, delays, config = case
        t0 = time.perf_counter()
        result = sim.simulate(program, topology, config, link_delays=delays)
        t1 = time.perf_counter()
        calls.setdefault(label, []).append((t0, t1))
        hops.append(result.flit_hops)
        if label.endswith("-generated"):
            exec_cycles[label] = result.execution_cycles
        with run.untraced():
            run.check(label, digest(ser.result_to_dict(result)), pins.get(label))
        return t1 - t0

    def one_pass(cases: List[tuple]) -> float:
        order = list(cases)
        rng.shuffle(order)
        return sum(replay_case(case) for case in order)

    if run.trace:
        trace_pass(run, setup, one_pass)
        return
    cases = run.timed_setup(setup)
    one_pass(cases)
    op = next(case for case in cases if case[0] == op_case)
    for _ in range(planned(run.seconds - REPLAY_PASS_S, REPLAY_OP_S, OP_REPEATS_MIN)):
        replay_case(op)
    times = {label: [run.elapsed(*iv) for iv in ivs] for label, ivs in calls.items()}
    every_call = [dt for dts in times.values() for dt in dts]
    # A pass is the sum of each case's median call.
    run.metrics["pass_s"] = sum(median(dts) for dts in times.values())
    run.metrics["op_p50_ms"] = median(times[op_case]) * 1e3
    run.named.update(
        flit_hops_per_s=(sum(hops) / sum(every_call), "hops/s"),
        exec_cycles=(sum(exec_cycles.values()), "cycles"),
        op_calls=(len(times[op_case]), "count"),
    )
    run.metrics["peak_rss_mb"] = self_peak_rss_mb()


# ---------------------------------------------------------------------------
# sweep-gen16
# ---------------------------------------------------------------------------


def sweep(run: Run) -> None:
    cfg = SWEEP[run.size]
    pins = load_pins(run.size)[run.workload]
    n = cfg["nodes"]
    sweep_config = driver.SweepConfig(**cfg["sweep"])
    rng = random.Random(run.seed)

    def setup() -> List[tuple]:
        cg = build_setup("cg", n)
        _, mesh, mesh_delays = driver.study_topology("mesh", n)
        topologies = [
            ("generated", cg.design.topology, cg.floorplan.link_delays()),
            ("mesh", mesh, mesh_delays),
        ]
        return [(t, p) for t in topologies for p in SWEEP_PATTERNS]

    calls: Dict[str, List[Interval]] = {}
    saturation: Dict[str, float] = {}

    def sweep_pair(pair: tuple, cache: Any) -> float:
        """One checked ``run_sweep`` call; returns its raw time."""
        (kind, topology, delays), pattern = pair
        label = f"{kind}-{pattern}"
        t0 = time.perf_counter()
        curve = driver.run_sweep(
            topology, pattern, sweep=sweep_config, link_delays=delays,
            cache=cache, label=kind,
        )
        t1 = time.perf_counter()
        calls.setdefault(label, []).append((t0, t1))
        saturation[label] = curve.saturation_rate
        with run.untraced():
            run.check(label, digest(curve.to_dict()), pins.get(label))
        return t1 - t0

    def one_pass(pairs: List[tuple]) -> float:
        order = list(pairs)
        rng.shuffle(order)
        with scratch_dir("sweep-") as root:
            cache = parallel.ResultCache(root)
            return sum(sweep_pair(pair, cache) for pair in order)

    if run.trace:
        tracer = trace_pass(run, setup, one_pass)
        hops = tracer.counts.get("simulator.flit_hops", 0)
        run.check("flit_hops", hops, pins.get("flit_hops"))
        return
    pairs = run.timed_setup(setup)
    one_pass(pairs)
    op = next(pair for pair in pairs if f"{pair[0][0]}-{pair[1]}" == SWEEP_OP_CASE)
    for _ in range(planned(run.seconds - SWEEP_PASS_S, SWEEP_OP_S, OP_REPEATS_MIN)):
        with scratch_dir("sweep-") as root:
            sweep_pair(op, parallel.ResultCache(root))
    times = {label: [run.elapsed(*iv) for iv in ivs] for label, ivs in calls.items()}
    # A pass is the sum of each sweep's median call.
    pass_s = sum(median(dts) for dts in times.values())
    run.metrics["pass_s"] = pass_s
    run.metrics["op_p50_ms"] = median(times[SWEEP_OP_CASE]) * 1e3
    run.named.update(
        # Flit hops per pass are pinned (and re-counted by every traced
        # run), so the untraced run needs no engine hook to report them.
        flit_hops_per_s=(pins["flit_hops"] / pass_s, "hops/s"),
        saturation_rate=(sum(saturation.values()) / len(saturation), "flits/node/cycle"),
        op_calls=(len(times[SWEEP_OP_CASE]), "count"),
    )
    run.metrics["peak_rss_mb"] = self_peak_rss_mb()
