"""Golden pin for the floorplanner's full output.

Freezes everything observable about a :class:`Floorplan` — the grid,
every switch corner, every processor cell, every link cost and the
feasibility flag — for the generated cg-16 and mg-16 designs (placement
seeds 0 and 1), cg-8, an 8-processor crossbar and a 4x4 mesh, plus a
slow cg-64 case (the degree-8 seed-0 design).  Any change to the
annealer's move set, its energy or the repair pass that alters a
placement shows up here as a diff.

Regenerate the fixture after an *intentional* placement change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/floorplan/test_place_golden.py -q
"""

import json
import os
from pathlib import Path

import pytest

from repro.eval.runner import prepare
from repro.floorplan import place
from repro.synthesis import DesignConstraints, generate_network
from repro.topology import crossbar, mesh
from repro.workloads import benchmark

GOLDEN_DIR = Path(__file__).parent / "golden"


def _network(name):
    if name == "crossbar8":
        return crossbar(8).network
    if name == "mesh4x4":
        return mesh(4, 4).network
    if name == "cg64":
        pattern = benchmark("cg", 64).pattern
        return generate_network(
            pattern, constraints=DesignConstraints(max_degree=8), seed=0, restarts=1
        ).network
    bench, nodes = name[:2], int(name[2:])
    return prepare(bench, nodes).design.network


#: case name -> (network name, placement seed)
CASES = {
    "cg16-seed0": ("cg16", 0),
    "cg16-seed1": ("cg16", 1),
    "mg16-seed0": ("mg16", 0),
    "mg16-seed1": ("mg16", 1),
    "cg8-seed0": ("cg8", 0),
    "crossbar8-seed0": ("crossbar8", 0),
    "mesh4x4-seed0": ("mesh4x4", 0),
}
SLOW_CASES = {"cg64-seed0": ("cg64", 0)}


def _signature(plan):
    """Everything observable about a floorplan, as plain JSON."""
    return {
        "grid": [plan.grid.width, plan.grid.height],
        "switch_corner": {str(s): list(c) for s, c in sorted(plan.switch_corner.items())},
        "processor_cell": {
            str(p): list(c) for p, c in sorted(plan.processor_cell.items())
        },
        "link_costs": {str(lid): cost for lid, cost in sorted(plan.link_costs.items())},
        "feasible": plan.feasible,
        "total_link_area": plan.total_link_area,
    }


def _check(case, network, seed):
    got = _signature(place(network, seed=seed))
    path = GOLDEN_DIR / f"{case}.json"
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        pytest.skip(f"regenerated {path}")
    golden = json.loads(path.read_text(encoding="utf-8"))
    assert got == golden, f"floorplan drifted: {case}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_floorplan_matches_golden(case):
    name, seed = CASES[case]
    _check(case, _network(name), seed)


@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(SLOW_CASES))
def test_large_floorplan_matches_golden(case):
    name, seed = SLOW_CASES[case]
    _check(case, _network(name), seed)
