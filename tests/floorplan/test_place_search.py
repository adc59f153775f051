"""Property tests for the floorplan annealer's incremental energy.

``_Search.neighbor`` prices each move by delta: only the moved switch's
links and the violations of the processors whose cell or switch corner
changed are re-priced.  These properties pin that the carried
``(area, violations)`` of every state equal a full recomputation, and
that the arithmetic adjacency test agrees with ``TileGrid.touches``.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.floorplan import TileGrid
from repro.floorplan.place import (
    _PENALTY,
    _default_grid,
    _initial_placement,
    _link_area,
    _Search,
    _touches,
    _violations,
)
from repro.synthesis import generate_network
from repro.topology import Network, crossbar, mesh
from repro.workloads import benchmark


def _relay_network():
    """Parallel links, a processor-free relay switch and a crowded switch."""
    net = Network(7)
    a, b, relay, c = (net.add_switch() for _ in range(4))
    for p in range(5):
        net.attach_processor(p, a)
    net.attach_processor(5, b)
    net.attach_processor(6, c)
    net.add_link(a, relay)
    net.add_link(a, relay)
    net.add_link(relay, b)
    net.add_link(relay, c)
    net.add_link(b, c)
    return net


NETWORKS = {
    "cg8": generate_network(benchmark("cg", 8).pattern, seed=0, restarts=16).network,
    "crossbar8": crossbar(8).network,
    "mesh3x3": mesh(3, 3).network,
    "relay": _relay_network(),
}


def _full(net, p):
    return (_link_area(net, p), _violations(net, p))


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(NETWORKS)),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 150),
)
def test_carried_scores_equal_full_recomputation(name, seed, steps):
    net = NETWORKS[name]
    grid = _default_grid(net.num_processors)
    search = _Search(net, grid)
    rng = random.Random(seed)
    p = _initial_placement(net, grid, rng)
    assert (p.area, p.violations) == _full(net, p)
    for _ in range(steps):
        before = (dict(p.switch_corner), dict(p.processor_cell), p.area, p.violations)
        q = search.neighbor(p, rng)
        assert (q.area, q.violations) == _full(net, q)
        assert search.energy(q) == q.area + _PENALTY * q.violations
        # neighbor() returns a new state and leaves its argument alone.
        assert (p.switch_corner, p.processor_cell, p.area, p.violations) == before
        p = q


@given(width=st.integers(1, 6), height=st.integers(1, 6))
def test_arithmetic_touches_matches_grid(width, height):
    grid = TileGrid(width, height)
    for cell in grid.cells():
        for corner in grid.corners():
            assert _touches(cell, corner) == grid.touches(cell, corner)
