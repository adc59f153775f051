"""Job specs: validation, canonicalization, and execution.

A client submits a workload spec as a JSON object; this module turns
it into the *canonical* form the service dedupes on.  Canonicalization
fills every default explicitly, so two specs asking for the same work
with different amounts of shorthand produce the same canonical dict —
and therefore the same :func:`job_key`, the content address every
layer of deduplication (in-flight single-flight, in-memory completed
jobs, the on-disk bundle store) shares.

Three job kinds, each riding the existing content-addressed cells:

* ``synthesize`` — one :class:`~repro.eval.parallel.SynthesisCell`
  (or a portfolio of them) through :func:`~repro.eval.parallel.run_cells`,
  plus a :class:`~repro.verify.NetworkCertificate` of the winner and
  optional saturation curves of the generated network;
* ``simulate`` — :class:`~repro.eval.parallel.PerformanceCell` per
  requested topology;
* ``sweep`` — :func:`~repro.sweeps.run_sweep`, whose measurements are
  :class:`~repro.eval.parallel.OpenLoopCell` grids internally.

Determinism contract: :func:`execute_spec` builds the result bundle
exclusively from cell payloads (byte-identity pinned by the eval
determinism harness), pure certification, and the canonical spec — no
timings, no cache state — so a job's bundle is byte-identical whether
it is served cold, warm, or deduped mid-flight.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.errors import ServiceError, SimulationError
from repro.eval.parallel import (
    PerformanceCell,
    ProgressCallback,
    ResultCache,
    SynthesisCell,
    code_version_tag,
    run_cells,
)
from repro.eval.serialize import canonical_json
from repro.obs import DISABLED, Observability
from repro.workloads.nas import BENCHMARK_NAMES

#: Version component of every job key: bundles change shape with this
#: schema or with the cell cache schema, and either must invalidate
#: completed-bundle dedupe.
SERVICE_SCHEMA = 1

JOB_KINDS = ("synthesize", "simulate", "sweep")

_SIM_TOPOLOGIES = ("crossbar", "mesh", "torus", "generated")
_SWEEP_TOPOLOGIES = ("mesh", "torus", "crossbar", "generated", "generated-spare")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ServiceError(message)


def _take_int(
    spec: Dict[str, Any], field: str, default: int, minimum: int = 0
) -> int:
    value = spec.pop(field, default)
    _require(
        isinstance(value, int) and not isinstance(value, bool) and value >= minimum,
        f"{field!r} must be an integer >= {minimum}, got {value!r}",
    )
    return value


def _take_float(
    spec: Dict[str, Any], field: str, default: float
) -> float:
    value = spec.pop(field, default)
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{field!r} must be a number, got {value!r}",
    )
    return float(value)


def _take_benchmark(spec: Dict[str, Any]) -> str:
    value = spec.pop("benchmark", None)
    _require(
        value in BENCHMARK_NAMES,
        f"'benchmark' must be one of {BENCHMARK_NAMES}, got {value!r}",
    )
    return str(value)


def _reject_unknown(spec: Dict[str, Any], kind: str) -> None:
    _require(
        not spec,
        f"unknown field(s) for {kind!r} job: {sorted(spec)}",
    )


def _canonical_synthesize(spec: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "kind": "synthesize",
        "benchmark": _take_benchmark(spec),
        "nodes": _take_int(spec, "nodes", 16, minimum=2),
        "seed": _take_int(spec, "seed", 0),
        "restarts": _take_int(spec, "restarts", 8, minimum=1),
        "max_degree": _take_int(spec, "max_degree", 5, minimum=2),
    }
    portfolio = spec.pop("portfolio", None)
    if portfolio is not None:
        _require(
            isinstance(portfolio, int)
            and not isinstance(portfolio, bool)
            and portfolio >= 1,
            f"'portfolio' must be a positive integer or null, got {portfolio!r}",
        )
        objective = spec.pop("objective", "links")
        from repro.synthesis.portfolio import OBJECTIVES

        _require(
            objective in OBJECTIVES,
            f"'objective' must be one of {sorted(OBJECTIVES)}, got {objective!r}",
        )
        out["portfolio"] = portfolio
        out["objective"] = objective
    else:
        _require(
            "objective" not in spec,
            "'objective' is only meaningful with 'portfolio'",
        )
        out["portfolio"] = None
    curves = spec.pop("curves", None)
    out["curves"] = _canonical_curves(curves, out["nodes"])
    _reject_unknown(spec, "synthesize")
    return out


def _canonical_pattern(pattern: str, nodes: int, field: str) -> str:
    """Canonical pattern spec, rejected unless it can run on ``nodes``."""
    from repro.sweeps.patterns import canonical_spec, size_violation

    try:
        spec = canonical_spec(pattern)
    except SimulationError as exc:
        raise ServiceError(f"{field!r}: {exc}") from None
    violation = size_violation(spec, nodes)
    _require(violation is None, f"{field!r}: {violation}")
    return spec


def _canonical_curves(curves: Any, nodes: int) -> Optional[Dict[str, Any]]:
    """Canonical form of a synthesize job's optional curve request."""
    if curves is None:
        return None
    _require(
        isinstance(curves, Mapping),
        f"'curves' must be an object or null, got {curves!r}",
    )
    curves = dict(curves)
    patterns = curves.pop("patterns", ["uniform"])
    _require(
        isinstance(patterns, list) and patterns
        and all(isinstance(p, str) for p in patterns),
        f"'curves.patterns' must be a non-empty list of pattern specs, "
        f"got {patterns!r}",
    )
    out = {
        "patterns": [
            _canonical_pattern(p, nodes, "curves.patterns") for p in patterns
        ],
        "points": _take_int(curves, "points", 4, minimum=1),
        "refine": _take_int(curves, "refine", 2),
        "min_rate": _take_float(curves, "min_rate", 0.05),
        "max_rate": _take_float(curves, "max_rate", 1.0),
    }
    _reject_unknown(curves, "synthesize.curves")
    return out


def _canonical_simulate(spec: Dict[str, Any]) -> Dict[str, Any]:
    topologies = spec.pop("topologies", ["generated"])
    _require(
        isinstance(topologies, list) and topologies,
        f"'topologies' must be a non-empty list, got {topologies!r}",
    )
    unknown = [t for t in topologies if t not in _SIM_TOPOLOGIES]
    _require(
        not unknown,
        f"unknown topologies {unknown}; choose from {_SIM_TOPOLOGIES}",
    )
    _require(
        len(set(topologies)) == len(topologies),
        f"'topologies' has duplicates: {topologies!r}",
    )
    out = {
        "kind": "simulate",
        "benchmark": _take_benchmark(spec),
        "nodes": _take_int(spec, "nodes", 16, minimum=2),
        "seed": _take_int(spec, "seed", 0),
        "restarts": _take_int(spec, "restarts", 8, minimum=1),
        # Sorted: topology order does not change any per-topology
        # result, so it must not change the job key either.
        "topologies": sorted(topologies),
    }
    _reject_unknown(spec, "simulate")
    return out


def _canonical_sweep(spec: Dict[str, Any]) -> Dict[str, Any]:
    topology = spec.pop("topology", "mesh")
    _require(
        topology in _SWEEP_TOPOLOGIES,
        f"'topology' must be one of {_SWEEP_TOPOLOGIES}, got {topology!r}",
    )
    pattern = spec.pop("pattern", "uniform")
    _require(isinstance(pattern, str), f"'pattern' must be a string, got {pattern!r}")
    benchmark = spec.pop("benchmark", "cg")
    _require(
        benchmark in BENCHMARK_NAMES,
        f"'benchmark' must be one of {BENCHMARK_NAMES}, got {benchmark!r}",
    )
    from repro.sweeps.driver import CRITERIA

    criterion = spec.pop("criterion", "mean-knee")
    _require(
        criterion in CRITERIA,
        f"'criterion' must be one of {CRITERIA}, got {criterion!r}",
    )
    nodes = _take_int(spec, "nodes", 16, minimum=2)
    out = {
        "kind": "sweep",
        "topology": topology,
        "pattern": _canonical_pattern(pattern, nodes, "pattern"),
        "benchmark": benchmark,
        "nodes": nodes,
        "seed": _take_int(spec, "seed", 0),
        "restarts": _take_int(spec, "restarts", 8, minimum=1),
        "points": _take_int(spec, "points", 6, minimum=1),
        "refine": _take_int(spec, "refine", 4),
        "min_rate": _take_float(spec, "min_rate", 0.05),
        "max_rate": _take_float(spec, "max_rate", 1.0),
        "criterion": criterion,
    }
    _reject_unknown(spec, "sweep")
    return out


_CANONICALIZERS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "synthesize": _canonical_synthesize,
    "simulate": _canonical_simulate,
    "sweep": _canonical_sweep,
}


def canonicalize_spec(raw: Any) -> Dict[str, Any]:
    """Validate a submitted spec and fill every default explicitly.

    Raises :class:`~repro.errors.ServiceError` on anything malformed:
    unknown kinds, unknown fields (typos must not silently become
    defaults), or out-of-range values.
    """
    _require(
        isinstance(raw, Mapping),
        f"job spec must be a JSON object, got {type(raw).__name__}",
    )
    spec = dict(raw)
    kind = spec.pop("kind", None)
    _require(
        kind in JOB_KINDS,
        f"'kind' must be one of {JOB_KINDS}, got {kind!r}",
    )
    return _CANONICALIZERS[str(kind)](spec)


def job_key(spec: Mapping[str, Any]) -> str:
    """Content address of one canonical spec.

    Covers the service schema and the cell-cache version tag, so a
    bundle produced by an older code version can never satisfy a new
    submission.
    """
    return hashlib.sha256(
        canonical_json(
            {
                "service": SERVICE_SCHEMA,
                "version": code_version_tag(),
                "spec": dict(spec),
            }
        ).encode("utf-8")
    ).hexdigest()


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _execute_synthesize(
    spec: Mapping[str, Any],
    cache: Optional[ResultCache],
    jobs: Optional[int],
    progress: Optional[ProgressCallback],
    obs: Observability,
) -> dict:
    from repro.synthesis.constraints import DesignConstraints
    from repro.verify import certify
    from repro.workloads.nas import benchmark as load_benchmark

    pattern = load_benchmark(spec["benchmark"], spec["nodes"]).pattern
    constraints = DesignConstraints(max_degree=spec["max_degree"])
    portfolio_summary: Optional[dict] = None
    if spec["portfolio"] is not None:
        from repro.synthesis.portfolio import PortfolioConfig, synthesize_portfolio

        result = synthesize_portfolio(
            pattern,
            constraints=constraints,
            config=PortfolioConfig(
                size=spec["portfolio"],
                seed_base=spec["seed"],
                objective=spec["objective"],
                restarts=spec["restarts"],
            ),
            jobs=jobs,
            cache=cache,
            progress=progress,
            obs=obs,
        )
        design = result.design
        portfolio_summary = result.summary_dict()
    else:
        from repro.eval.serialize import design_from_dict

        cell = SynthesisCell(
            label=f"synth:{pattern.name}:s{spec['seed']}",
            pattern=pattern,
            seed=spec["seed"],
            constraints=constraints,
            restarts=spec["restarts"],
        )
        (outcome,) = run_cells(
            [cell], jobs=jobs, cache=cache, progress=progress, obs=obs
        )
        if outcome.payload.get("status") != "ok":
            raise ServiceError(
                f"synthesis infeasible for {pattern.name} "
                f"(seed {spec['seed']}): {outcome.payload.get('error')}"
            )
        design = design_from_dict(outcome.payload["design"], pattern)
    from repro.eval.serialize import design_to_dict

    certificate = certify(
        design.topology, pattern, max_degree=spec["max_degree"]
    )
    curves: List[dict] = []
    if spec["curves"] is not None:
        from repro.floorplan import place
        from repro.sweeps.driver import SweepConfig, run_sweep

        plan = place(design.network, seed=spec["seed"])
        for pattern_spec in spec["curves"]["patterns"]:
            curve = run_sweep(
                design.topology,
                pattern_spec,
                sweep=SweepConfig(
                    min_rate=spec["curves"]["min_rate"],
                    max_rate=spec["curves"]["max_rate"],
                    initial_points=spec["curves"]["points"],
                    refine_iters=spec["curves"]["refine"],
                    seed=spec["seed"],
                ),
                link_delays=plan.link_delays(),
                jobs=jobs,
                cache=cache,
                progress=progress,
                obs=obs,
            )
            curves.append(curve.to_dict())
    return {
        "schema": SERVICE_SCHEMA,
        "kind": "synthesize",
        "spec": dict(spec),
        "design": design_to_dict(design),
        "network_certificate": certificate.to_dict(),
        "portfolio": portfolio_summary,
        "curves": curves,
    }


def _execute_simulate(
    spec: Mapping[str, Any],
    cache: Optional[ResultCache],
    jobs: Optional[int],
    progress: Optional[ProgressCallback],
    obs: Observability,
) -> dict:
    from repro.eval.runner import prepare
    from repro.simulator.config import SimConfig

    setup = prepare(
        spec["benchmark"], spec["nodes"], seed=spec["seed"], restarts=spec["restarts"]
    )
    config = SimConfig()
    cells = [
        PerformanceCell(
            label=f"perf:{setup.name}:{kind}",
            program=setup.benchmark.program,
            topology=setup.topology(kind),
            config=config,
            link_delays=setup.link_delays(kind),
        )
        for kind in spec["topologies"]
    ]
    outcomes = run_cells(cells, jobs=jobs, cache=cache, progress=progress, obs=obs)
    return {
        "schema": SERVICE_SCHEMA,
        "kind": "simulate",
        "spec": dict(spec),
        "results": {
            kind: outcome.payload
            for kind, outcome in zip(spec["topologies"], outcomes)
        },
    }


def _execute_sweep(
    spec: Mapping[str, Any],
    cache: Optional[ResultCache],
    jobs: Optional[int],
    progress: Optional[ProgressCallback],
    obs: Observability,
) -> dict:
    from repro.sweeps.driver import SweepConfig, run_sweep, study_topology

    label, topology, link_delays = study_topology(
        spec["topology"],
        spec["nodes"],
        benchmark=spec["benchmark"],
        seed=spec["seed"],
        restarts=spec["restarts"],
    )
    curve = run_sweep(
        topology,
        spec["pattern"],
        sweep=SweepConfig(
            min_rate=spec["min_rate"],
            max_rate=spec["max_rate"],
            initial_points=spec["points"],
            refine_iters=spec["refine"],
            seed=spec["seed"],
            criterion=spec["criterion"],
        ),
        link_delays=link_delays,
        jobs=jobs,
        cache=cache,
        progress=progress,
        obs=obs,
        label=label,
    )
    return {
        "schema": SERVICE_SCHEMA,
        "kind": "sweep",
        "spec": dict(spec),
        "curve": curve.to_dict(),
    }


_EXECUTORS = {
    "synthesize": _execute_synthesize,
    "simulate": _execute_simulate,
    "sweep": _execute_sweep,
}


def execute_spec(
    spec: Mapping[str, Any],
    cache: Optional[ResultCache] = None,
    jobs: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    obs: Optional[Observability] = None,
) -> dict:
    """Compute the result bundle of one *canonical* spec.

    Every expensive step runs through :func:`run_cells` against
    ``cache``, so repeats are cache hits and the bundle is
    byte-identical (under :func:`~repro.eval.serialize.canonical_json`)
    across cold, warm, serial and fanned execution.
    """
    obs = obs if obs is not None else DISABLED
    with obs.tracer.span("service.job", kind=spec["kind"]):
        return _EXECUTORS[spec["kind"]](spec, cache, jobs, progress, obs)
