"""Open-loop latency/throughput curves: the cost of specialization.

Not a paper figure — it quantifies the flip side of the methodology.
A network generated for CG's permutations undercuts the mesh's
resources, so under *uniform random* traffic (which it was never
designed for) it runs hotter; under its own transpose-like traffic it
holds up.  The crossbar bounds everything from below.
"""

import pytest

from repro.eval import prepare
from repro.simulator.openloop import latency_throughput_curve
from repro.sweeps.patterns import transpose_pattern, uniform_random
from repro.topology import crossbar, mesh

RATES = (0.05, 0.2, 0.4, 0.6)


def _curves():
    setup = prepare("cg", 16, seed=0)
    topologies = {
        "crossbar": (crossbar(16), None),
        "mesh": (mesh(4, 4), None),
        "generated-cg": (setup.design.topology, setup.floorplan.link_delays()),
    }
    out = {}
    for name, (top, delays) in topologies.items():
        for pattern_name, pattern in (
            ("uniform", uniform_random),
            ("transpose", transpose_pattern),
        ):
            out[(name, pattern_name)] = latency_throughput_curve(
                top,
                RATES,
                pattern=pattern,
                link_delays=delays,
                measure_cycles=1200,
                warmup_cycles=300,
            )
    return out


@pytest.mark.figure("latency-throughput-extension")
def test_latency_throughput(benchmark, show):
    curves = benchmark.pedantic(_curves, rounds=1, iterations=1)
    lines = ["avg latency (cycles) by offered load (flits/node/cycle):"]
    for (name, pattern), points in sorted(curves.items()):
        series = "  ".join(
            f"{p.offered_flits_per_node_cycle:.2f}->{p.avg_latency:.0f}"
            for p in points
        )
        lines.append(f"  {name:>12} / {pattern:<9}: {series}")
    show("\n".join(lines))

    def latency(key, idx):
        return curves[key][idx].avg_latency

    # Below saturation (second-to-last load point) the non-blocking
    # crossbar lower-bounds everything; at deep saturation endpoint
    # head-of-line effects can reorder the tail, so we do not assert
    # there.
    for pattern in ("uniform", "transpose"):
        for name in ("mesh", "generated-cg"):
            assert latency(("crossbar", pattern), -2) <= latency(
                (name, pattern), -2
            ), (name, pattern)
    # The network designed around CG's transpose handles transpose-like
    # traffic far better than the mesh, despite half the resources...
    assert latency(("generated-cg", "transpose"), -1) <= latency(
        ("mesh", "transpose"), -1
    )
    # ...and pays for that specialization under uniform random load.
    assert latency(("generated-cg", "uniform"), -1) >= latency(
        ("mesh", "uniform"), -1
    )
