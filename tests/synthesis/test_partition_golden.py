"""Golden pin for the partitioner's full output.

Freezes everything observable about a ``PartitionResult`` — the
switch → processors map, every route, each pipe's exact width and
forward/backward colors, the connectivity links, and the bisection,
move and link counts — for three seeded cases under default
``DesignConstraints``. Any change to the main partitioning loop,
``Best_Route``, the move evaluators or coloring that alters a design
shows up here as a diff.

Regenerate the fixture after an *intentional* synthesis change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/synthesis/test_partition_golden.py -q
"""

import json
import os
from pathlib import Path

import pytest

from repro.model.cliques import CliqueAnalysis
from repro.synthesis.constraints import DesignConstraints
from repro.synthesis.partition import Partitioner
from repro.workloads.nas import benchmark as nas_benchmark

GOLDEN_PATH = Path(__file__).parent / "golden" / "partition_signatures.json"

SEED = 0

#: case name -> (benchmark, nodes, anneal)
CASES = {
    "cg16-anneal": ("cg", 16, True),
    "cg16-greedy": ("cg", 16, False),
    "mg16-anneal": ("mg", 16, True),
}


def _comm_key(comm):
    return f"{comm.source}->{comm.dest}"


def _signature(result):
    """Everything observable about a ``PartitionResult``, as plain JSON."""
    state = result.state
    pipes = sorted(result.pipe_finals.items(), key=lambda kv: sorted(kv[0]))
    return {
        "switch_procs": {
            str(s): sorted(ps) for s, ps in sorted(state.switch_procs.items())
        },
        "routes": {
            _comm_key(comm): list(state.routes[comm]) for comm in sorted(state.routes)
        },
        "pipe_finals": [
            {
                "pipe": sorted(pair),
                "width": final.width,
                "forward_colors": [
                    [_comm_key(c), col] for c, col in sorted(final.forward_colors.items())
                ],
                "backward_colors": [
                    [_comm_key(c), col] for c, col in sorted(final.backward_colors.items())
                ],
            }
            for pair, final in pipes
        ],
        "connectivity_links": [list(link) for link in sorted(result.connectivity_links)],
        "bisections": result.bisections,
        "route_moves": result.route_moves,
        "processor_moves": result.processor_moves,
        "total_links": result.total_links(),
    }


def _run(name):
    bench, nodes, anneal = CASES[name]
    analysis = CliqueAnalysis.of(nas_benchmark(bench, nodes).pattern)
    part = Partitioner(
        analysis, constraints=DesignConstraints(), seed=SEED, anneal=anneal
    )
    return _signature(part.run())


def test_partition_signatures_match_golden():
    got = {name: _run(name) for name in CASES}
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(got, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(golden)
    for name in CASES:
        assert got[name] == golden[name], f"partition signature drifted: {name}"
