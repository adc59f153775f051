"""Automated saturation sweeps with adaptive knee refinement.

:func:`run_sweep` walks offered injection rates over one
(topology, pattern) pair: an initial evenly spaced grid is measured
first (fanned out through the cached parallel eval runner —
:class:`repro.eval.parallel.OpenLoopCell` — so repeats hit the
content-addressed cache byte-identically), then the knee is located by
bisecting the bracket between the last unsaturated and first saturated
rate.  Every rate is rounded to :data:`RATE_DECIMALS` decimals so the
bisection grid, and therefore every cache key, is reproducible across
runs and machines.

Saturation criteria (any one marks a point saturated):

* **backlog** — the engine could not drain the offered load within the
  drain window (:attr:`LoadPoint.saturated`);
* **throughput plateau** — accepted falls below
  ``plateau_fraction x offered``;
* **latency slope** — the criterion latency exceeds
  ``latency_factor x`` the latency of the lowest-rate point (skipped
  when the reference point delivered nothing).  Which latency feeds the
  slope is the sweep's *criterion*: ``mean-knee`` (the default) knees on
  the average latency, ``p99-knee`` on the p99 tail — tail latency
  degrades before the mean near the knee, so ``p99-knee`` reports the
  saturation point a latency-SLO would observe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.defaults import DEFAULT_RESTARTS
from repro.errors import SimulationError
from repro.eval.parallel import (
    OpenLoopCell,
    ProgressCallback,
    ResultCache,
    run_cells,
)
from repro.eval.serialize import loadpoint_from_dict
from repro.obs import DISABLED, Observability
from repro.simulator.config import SimConfig
from repro.simulator.openloop import LoadPoint
from repro.sweeps.patterns import canonical_spec, resolve_pattern
from repro.sweeps.report import SaturationCurve, SweepResult
from repro.topology import Topology, crossbar, mesh_for, torus_for, torus_link_delays
from repro.topology.routing import ShortestPathRouting

#: Rates are rounded to this many decimals so bisection midpoints (and
#: the cache keys derived from them) are byte-stable.
RATE_DECIMALS = 6

#: Saturation criteria: which latency the slope test knees on.
CRITERIA = ("mean-knee", "p99-knee")


def criterion_latency(point: LoadPoint, criterion: str) -> float:
    """The latency of one point under a saturation criterion."""
    if criterion == "p99-knee":
        return float(point.p99_latency)
    return point.avg_latency


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one automated sweep.

    ``initial_points`` rates are spaced evenly over
    ``[min_rate, max_rate]``; ``refine_iters`` bisection steps then
    tighten the knee bracket.  Cycle windows are deliberately shorter
    than :func:`~repro.simulator.openloop.run_open_loop`'s defaults —
    a sweep multiplies them by dozens of cells.
    """

    min_rate: float = 0.05
    max_rate: float = 1.0
    initial_points: int = 6
    refine_iters: int = 4
    latency_factor: float = 4.0
    plateau_fraction: float = 0.85
    packet_bytes: int = 32
    warmup_cycles: int = 300
    measure_cycles: int = 1500
    drain_cycles: int = 1500
    seed: int = 0
    criterion: str = "mean-knee"

    def __post_init__(self) -> None:
        if self.criterion not in CRITERIA:
            raise SimulationError(
                f"unknown saturation criterion {self.criterion!r}; "
                f"choose from {CRITERIA}"
            )
        if not 0 < self.min_rate <= self.max_rate:
            raise SimulationError(
                f"need 0 < min_rate <= max_rate, got "
                f"{self.min_rate}..{self.max_rate}"
            )
        if self.initial_points < 1:
            raise SimulationError(
                f"initial_points must be positive, got {self.initial_points}"
            )
        if self.refine_iters < 0:
            raise SimulationError(
                f"refine_iters must be non-negative, got {self.refine_iters}"
            )
        if self.latency_factor <= 1.0:
            raise SimulationError(
                f"latency_factor must exceed 1, got {self.latency_factor}"
            )
        if not 0.0 < self.plateau_fraction <= 1.0:
            raise SimulationError(
                f"plateau_fraction must be in (0, 1], got {self.plateau_fraction}"
            )

    def params_dict(self) -> Dict[str, object]:
        """The artifact's ``params`` section."""
        return {
            "min_rate": self.min_rate,
            "max_rate": self.max_rate,
            "initial_points": self.initial_points,
            "refine_iters": self.refine_iters,
            "latency_factor": self.latency_factor,
            "plateau_fraction": self.plateau_fraction,
            "packet_bytes": self.packet_bytes,
            "warmup_cycles": self.warmup_cycles,
            "measure_cycles": self.measure_cycles,
            "drain_cycles": self.drain_cycles,
            "criterion": self.criterion,
        }


def point_is_saturated(
    point: LoadPoint,
    base_latency: Optional[float],
    latency_factor: float = 4.0,
    plateau_fraction: float = 0.85,
    payload_fraction: float = 1.0,
    criterion: str = "mean-knee",
) -> bool:
    """Whether one measured point meets any saturation criterion.

    ``payload_fraction`` corrects the plateau criterion for header
    overhead: offered load counts every flit, but accepted throughput
    counts payload flits only, so even an unloaded network accepts at
    most ``payload_fraction x offered``.  ``criterion`` picks the
    latency the slope test reads (``base_latency`` must come from the
    same criterion — :func:`latency_reference` takes care of that).
    """
    if point.saturated:
        return True
    if (
        point.accepted_flits_per_node_cycle
        < plateau_fraction * payload_fraction * point.offered_flits_per_node_cycle
    ):
        return True
    if base_latency is not None and base_latency > 0:
        return criterion_latency(point, criterion) > latency_factor * base_latency
    return False


def latency_reference(
    points: Sequence[LoadPoint],
    plateau_fraction: float = 0.85,
    payload_fraction: float = 1.0,
    criterion: str = "mean-knee",
) -> Optional[float]:
    """Latency baseline for the slope criterion: the criterion latency
    of the lowest-rate measured point that delivered traffic and is not
    itself saturated by the backlog or plateau criteria.

    ``None`` when no such point exists (every measured point is already
    backlogged or below the plateau threshold) — the latency criterion
    is then skipped, which is safe because those points saturate through
    the other criteria anyway.
    """
    for point in points:
        if point.delivered > 0 and not point_is_saturated(
            point,
            base_latency=None,
            plateau_fraction=plateau_fraction,
            payload_fraction=payload_fraction,
        ):
            return criterion_latency(point, criterion)
    return None


def detect_saturation(
    points: Sequence[LoadPoint],
    latency_factor: float = 4.0,
    plateau_fraction: float = 0.85,
    payload_fraction: float = 1.0,
    criterion: str = "mean-knee",
) -> Optional[int]:
    """Index of the first saturated point of a rate-sorted curve.

    Returns ``None`` for an empty curve or one that never saturates
    (e.g. a monotone curve on a non-blocking network).  The latency
    reference is the lowest *unsaturated* measured point
    (:func:`latency_reference`), so bisection refinements probing below
    a saturated lowest grid point classify against the same baseline as
    this final pass.  The reference point itself can never trip the
    slope criterion (``latency_factor > 1``).  Points are classified
    independently, so one noisy dip above the plateau threshold near
    the knee does not flag saturation early.
    """
    if not points:
        return None
    base = latency_reference(points, plateau_fraction, payload_fraction, criterion)
    for i, point in enumerate(points):
        if point_is_saturated(
            point,
            base_latency=base,
            latency_factor=latency_factor,
            plateau_fraction=plateau_fraction,
            payload_fraction=payload_fraction,
            criterion=criterion,
        ):
            return i
    return None


def _round_rate(rate: float) -> float:
    return round(rate, RATE_DECIMALS)


def _initial_rates(sweep: SweepConfig) -> List[float]:
    if sweep.initial_points == 1:
        return [_round_rate(sweep.max_rate)]
    step = (sweep.max_rate - sweep.min_rate) / (sweep.initial_points - 1)
    rates = [
        _round_rate(sweep.min_rate + i * step) for i in range(sweep.initial_points)
    ]
    return sorted(set(rates))


def _make_cell(
    label: str,
    topology: Topology,
    spec: str,
    rate: float,
    sweep: SweepConfig,
    config: SimConfig,
    link_delays: Optional[Dict[int, int]],
) -> OpenLoopCell:
    return OpenLoopCell(
        label=f"{label}/{spec}@{rate:g}",
        topology=topology,
        pattern=spec,
        injection_rate=rate,
        config=config,
        packet_bytes=sweep.packet_bytes,
        warmup_cycles=sweep.warmup_cycles,
        measure_cycles=sweep.measure_cycles,
        drain_cycles=sweep.drain_cycles,
        link_delays=link_delays,
        seed=sweep.seed,
    )


def run_sweep(
    topology: Topology,
    pattern: str,
    sweep: Optional[SweepConfig] = None,
    config: Optional[SimConfig] = None,
    link_delays: Optional[Dict[int, int]] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
    obs: Optional[Observability] = None,
    label: Optional[str] = None,
    premeasured: Optional[Dict[float, LoadPoint]] = None,
) -> SaturationCurve:
    """Sweep offered load to saturation on one (topology, pattern) pair.

    The initial grid fans out over ``jobs`` workers; bisection steps are
    inherently sequential but still run through the cache, so a re-run
    of an identical sweep is free end to end and byte-identical
    (serial == parallel == cache-hit).

    ``premeasured`` seeds the sweep with already-measured load points
    keyed by (rounded) offered rate — :func:`run_sweep_suite` uses it to
    fan the whole grid's initial rates through one batched
    :func:`~repro.eval.parallel.run_cells` call and hand each pair its
    slice, so only the bisection refinements still run here.  Points
    must come from cells built with identical parameters, or the curve
    will mix measurements (the suite guarantees this by construction).
    """
    sweep = sweep or SweepConfig()
    config = config or SimConfig()
    obs = obs if obs is not None else DISABLED
    spec = canonical_spec(pattern)
    # Validate spec, size requirements, and routing-awareness up front,
    # in the coordinator, so a bad sweep fails before any cell runs.
    resolve_pattern(spec, topology=topology)
    label = label or topology.name
    flits = config.flits_for(sweep.packet_bytes)
    payload_fraction = (flits - 1) / flits

    with obs.tracer.span(
        "sweep.run", topology=label, pattern=spec, nodes=topology.network.num_processors
    ):
        measured: Dict[float, LoadPoint] = dict(premeasured or {})

        def measure(rates: Sequence[float]) -> None:
            todo = [rate for rate in rates if rate not in measured]
            if not todo:
                return
            cells = [
                _make_cell(label, topology, spec, rate, sweep, config, link_delays)
                for rate in todo
            ]
            outcomes = run_cells(
                cells, jobs=jobs, cache=cache, progress=progress, obs=obs
            )
            obs.metrics.counter("sweep.cells").inc(len(outcomes))
            for rate, outcome in zip(todo, outcomes):
                measured[rate] = loadpoint_from_dict(outcome.payload)

        measure(_initial_rates(sweep))

        def sorted_points() -> List[LoadPoint]:
            return [measured[r] for r in sorted(measured)]

        points = sorted_points()
        first = detect_saturation(
            points,
            sweep.latency_factor,
            sweep.plateau_fraction,
            payload_fraction,
            sweep.criterion,
        )
        saturation_rate: Optional[float] = None
        if first is not None:
            rates = sorted(measured)
            hi = rates[first]
            # When even the lowest rate saturates, bisect down toward a
            # quarter of it rather than toward zero (rates must stay
            # positive).
            lo = rates[first - 1] if first > 0 else _round_rate(rates[0] / 4)
            for _ in range(sweep.refine_iters):
                mid = _round_rate((lo + hi) / 2)
                if mid <= lo or mid >= hi or mid in measured:
                    break
                measure([mid])
                obs.metrics.counter("sweep.refine_steps").inc()
                # Recompute the latency baseline from the lowest
                # unsaturated point measured so far: when the lowest
                # grid point itself saturates, down-bisection probes
                # below it, and classifying those probes against the
                # saturated point's (inflated) latency would disagree
                # with the final detect_saturation pass, which sees the
                # new probe as the curve's lowest point.
                base = latency_reference(
                    sorted_points(),
                    sweep.plateau_fraction,
                    payload_fraction,
                    sweep.criterion,
                )
                if point_is_saturated(
                    measured[mid],
                    base,
                    sweep.latency_factor,
                    sweep.plateau_fraction,
                    payload_fraction,
                    sweep.criterion,
                ):
                    hi = mid
                else:
                    lo = mid
            saturation_rate = _round_rate((lo + hi) / 2)
            obs.metrics.gauge("sweep.saturation_rate").set(saturation_rate)

        points = sorted_points()
        first = detect_saturation(
            points,
            sweep.latency_factor,
            sweep.plateau_fraction,
            payload_fraction,
            sweep.criterion,
        )
        unsaturated = points if first is None else points[:first]
        pool = unsaturated if unsaturated else points
        saturation_throughput = max(
            (p.accepted_flits_per_node_cycle for p in pool), default=0.0
        )

        return SaturationCurve(
            topology_name=label,
            pattern=spec,
            num_nodes=topology.network.num_processors,
            seed=sweep.seed,
            points=tuple(points),
            saturation_rate=saturation_rate,
            saturation_throughput=saturation_throughput,
            saturated=first is not None,
            params=sweep.params_dict(),
        )


def run_sweep_suite(
    topologies: Sequence[Tuple[str, Topology, Optional[Dict[int, int]]]],
    patterns: Sequence[str],
    sweep: Optional[SweepConfig] = None,
    config: Optional[SimConfig] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
    obs: Optional[Observability] = None,
    label: str = "sweep-suite",
) -> SweepResult:
    """Sweep every pattern over every ``(label, topology, link_delays)``.

    The *entire* grid's initial rate points — every (topology, pattern)
    pair times every initial rate — fan out through **one**
    :func:`~repro.eval.parallel.run_cells` call, so a worker pool sees
    the whole suite at once instead of one pair's handful of cells
    between barriers (per-pair sweeps stall the pool on each pair's
    slowest cell; the batch keeps every worker busy until the grid is
    done).  Bisection refinements then run per pair, in-process,
    against the already-measured initial points (and the shared result
    cache, when one is given).  Curves are byte-identical to running
    :func:`run_sweep` per pair — same cells, same rounding, same
    detection — which the determinism suite pins.
    """
    sweep = sweep or SweepConfig()
    config = config or SimConfig()
    obs = obs if obs is not None else DISABLED
    rates = _initial_rates(sweep)
    # Canonicalize and validate every pair up front, in the
    # coordinator, so a bad spec fails before any cell runs.
    pairs = []
    for top_label, topology, link_delays in topologies:
        for pattern in patterns:
            spec = canonical_spec(pattern)
            resolve_pattern(spec, topology=topology)
            pairs.append((top_label, topology, link_delays, spec))

    cells = [
        _make_cell(top_label, topology, spec, rate, sweep, config, link_delays)
        for top_label, topology, link_delays, spec in pairs
        for rate in rates
    ]
    outcomes = run_cells(cells, jobs=jobs, cache=cache, progress=progress, obs=obs)
    obs.metrics.counter("sweep.cells").inc(len(outcomes))

    curves = []
    for i, (top_label, topology, link_delays, spec) in enumerate(pairs):
        pair_outcomes = outcomes[i * len(rates) : (i + 1) * len(rates)]
        premeasured = {
            rate: loadpoint_from_dict(outcome.payload)
            for rate, outcome in zip(rates, pair_outcomes)
        }
        curve = run_sweep(
            topology,
            spec,
            sweep=sweep,
            config=config,
            link_delays=link_delays,
            # Refinements measure one cell at a time; a worker pool
            # would add pure spawn overhead, and serial == parallel
            # byte identity makes the in-process path equivalent.
            jobs=None,
            cache=cache,
            progress=progress,
            obs=obs,
            label=top_label,
            premeasured=premeasured,
        )
        curves.append((top_label, curve.pattern, curve))
    return SweepResult(label=label, curves=tuple(curves))


# ---------------------------------------------------------------------------
# Study topologies
# ---------------------------------------------------------------------------


def spare_link_variant(topology: Topology, name: Optional[str] = None) -> Topology:
    """A copy of ``topology`` with one spare link added per switch.

    Each switch (ascending id) gains one link to its nearest
    non-neighbour switch (BFS distance over the current switch graph,
    ties toward the lowest id); switches already linked to every other
    switch are skipped.  Routing is rebuilt as deterministic BFS
    shortest-path so the spares are actually used — the question this
    variant answers is how much robustness one extra port per switch
    buys back on off-design traffic.  Note the torus's adaptive
    routing would be replaced by the same deterministic policy.
    """
    net = topology.network.copy()
    for s in net.switches:
        others = [t for t in net.switches if t != s and not net.links_between(s, t)]
        if not others:
            continue
        dist = _bfs_distances(net, s)
        target = min(others, key=lambda t: (dist.get(t, float("inf")), t))
        net.add_link(s, target)
    return Topology(
        name=name or f"{topology.name}+spare",
        network=net,
        routing=ShortestPathRouting(net),
        coords=topology.coords,
        kind=f"{topology.kind}-spare",
        grid_shape=topology.grid_shape,
    )


def _bfs_distances(net, start: int) -> Dict[int, int]:
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt: List[int] = []
        for s in frontier:
            for t in net.neighbors(s):
                if t not in dist:
                    dist[t] = dist[s] + 1
                    nxt.append(t)
        frontier = nxt
    return dist


STUDY_TOPOLOGIES = ("generated", "generated-spare", "mesh", "torus", "crossbar")


def study_topology(
    kind: str,
    nodes: int,
    benchmark: str = "cg",
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> Tuple[str, Topology, Optional[Dict[int, int]]]:
    """Build one study topology as a ``(label, topology, link_delays)`` row.

    ``mesh``/``torus``/``crossbar`` are the plain baselines (torus
    wraparounds cost two cycles, as in the paper's evaluation);
    ``generated`` synthesizes the network for ``benchmark`` at
    ``nodes`` and uses its floorplan link delays; ``generated-spare``
    is the generated network with one spare link per switch (spare
    links, having no floorplan length, keep the one-cycle default).
    """
    if kind == "mesh":
        return kind, mesh_for(nodes), None
    if kind == "crossbar":
        return kind, crossbar(nodes), None
    if kind == "torus":
        top = torus_for(nodes)
        return kind, top, torus_link_delays(top)
    if kind in ("generated", "generated-spare"):
        from repro.eval.runner import prepare

        setup = prepare(benchmark, nodes, seed=seed, restarts=restarts)
        delays = setup.floorplan.link_delays()
        if kind == "generated":
            return kind, setup.design.topology, delays
        return kind, spare_link_variant(setup.design.topology), delays
    raise SimulationError(
        f"unknown study topology {kind!r}; choose from {STUDY_TOPOLOGIES}"
    )
