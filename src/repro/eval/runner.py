"""Orchestration: benchmark -> synthesized design -> floorplan -> sims.

Setups are cached per (benchmark, size, seed), since synthesis and
placement dominate the cost of regenerating the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional

from repro.defaults import DEFAULT_RESTARTS
from repro.floorplan.place import Floorplan, place
from repro.obs import DISABLED, Observability
from repro.simulator.config import SimConfig
from repro.simulator.simulation import simulate
from repro.simulator.stats import SimulationResult
from repro.synthesis.generator import GeneratedDesign, generate_network
from repro.topology import Topology, crossbar, mesh_for, torus_for, torus_link_delays
from repro.workloads.nas import Benchmark, benchmark

# Topologies compared throughout the paper's evaluation.
TOPOLOGY_ORDER = ("crossbar", "mesh", "torus", "generated")


@dataclass
class BenchmarkSetup:
    """Everything needed to evaluate one benchmark configuration."""

    benchmark: Benchmark
    design: GeneratedDesign
    floorplan: Floorplan
    baselines: Dict[str, Topology]

    @property
    def name(self) -> str:
        return self.benchmark.name

    def topology(self, kind: str) -> Topology:
        if kind == "generated":
            return self.design.topology
        return self.baselines[kind]

    def link_delays(self, kind: str) -> Optional[Dict[int, int]]:
        """Per-link delays: floorplan lengths for the generated network,
        one cycle for mesh links, two for (folded) torus wraparounds."""
        if kind == "generated":
            return self.floorplan.link_delays()
        if kind == "torus":
            return torus_link_delays(self.baselines["torus"])
        return None


def _build_setup(
    name: str, n: int, seed: int, restarts: int, obs: Observability
) -> BenchmarkSetup:
    tracer = obs.tracer
    with tracer.span("setup.benchmark", benchmark=name, n=n):
        bench = benchmark(name, n)
    with tracer.span("setup.synthesize", benchmark=name, n=n, seed=seed):
        design = generate_network(bench.pattern, seed=seed, restarts=restarts, obs=obs)
    with tracer.span("setup.floorplan", benchmark=name, n=n, seed=seed):
        plan = place(design.network, seed=seed, obs=obs)
    with tracer.span("setup.baselines", n=n):
        baselines = {
            "crossbar": crossbar(n),
            "mesh": mesh_for(n),
            "torus": torus_for(n),
        }
    return BenchmarkSetup(
        benchmark=bench,
        design=design,
        floorplan=plan,
        baselines=baselines,
    )


@lru_cache(maxsize=None)
def _prepare_cached(name: str, n: int, seed: int, restarts: int) -> BenchmarkSetup:
    return _build_setup(name, n, seed, restarts, DISABLED)


def prepare(
    name: str,
    n: int,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
    obs: Optional[Observability] = None,
) -> BenchmarkSetup:
    """Build (and cache) the full setup for one benchmark at size n.

    With observability enabled the in-process memo is bypassed — a
    profiled setup must actually run its synthesis and placement phases
    to have anything to measure (synthesis is deterministic per seed, so
    the rebuilt setup is identical to a memoized one).
    """
    if obs is None or not obs.enabled:
        return _prepare_cached(name, n, seed, restarts)
    return _build_setup(name, n, seed, restarts, obs)


def run_performance(
    setup: BenchmarkSetup,
    config: Optional[SimConfig] = None,
    kinds: tuple = TOPOLOGY_ORDER,
    obs: Optional[Observability] = None,
) -> Dict[str, SimulationResult]:
    """Simulate the benchmark's program on each requested topology."""
    config = config or SimConfig()
    obs = obs if obs is not None else DISABLED
    results = {}
    for kind in kinds:
        with obs.tracer.span("eval.performance", benchmark=setup.name, kind=kind):
            results[kind] = simulate(
                setup.benchmark.program,
                setup.topology(kind),
                config,
                link_delays=setup.link_delays(kind),
                obs=obs,
            )
    return results


def run_cross_workload(
    host_setup: BenchmarkSetup,
    guest_setup: BenchmarkSetup,
    config: Optional[SimConfig] = None,
) -> Dict[str, SimulationResult]:
    """Replay a guest benchmark on the host's generated network
    (Section 4.2's robustness study).

    Returns results for the guest on its own network, on the host's
    network, and on the mesh baseline.
    """
    config = config or SimConfig()
    program = guest_setup.benchmark.program
    return {
        "own": simulate(
            program,
            guest_setup.design.topology,
            config,
            link_delays=guest_setup.floorplan.link_delays(),
        ),
        "host": simulate(
            program,
            host_setup.design.topology,
            config,
            link_delays=host_setup.floorplan.link_delays(),
        ),
        "mesh": simulate(program, guest_setup.baselines["mesh"], config),
    }
