"""Simulated-annealing switch/tile placement.

Jointly assigns switches to corner lattice points and processors to
tiles (each tile touching its switch's corner), minimizing total link
area.  Infeasible intermediate states are allowed during the search and
priced with a large penalty; the returned floorplan reports whether the
final state is feasible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import FloorplanError
from repro.floorplan.tiles import Cell, Corner, TileGrid, manhattan
from repro.obs import DISABLED, Observability
from repro.synthesis.annealing import AnnealSchedule, SimulatedAnnealing
from repro.topology.network import Network

# Each adjacency violation costs more than any single link could save.
_PENALTY = 1000.0

# Independent annealing restarts per placement call.
_RESTARTS = 8


@dataclass(frozen=True)
class Floorplan:
    """A placed network.

    Attributes:
        grid: the tile grid.
        switch_corner: switch id -> corner lattice point.
        processor_cell: processor id -> tile cell.
        link_costs: link id -> Manhattan tile distance of its endpoints.
        feasible: every processor's tile touches its switch's corner and
            no tile is shared.
    """

    grid: TileGrid
    switch_corner: Dict[int, Corner]
    processor_cell: Dict[int, Cell]
    link_costs: Dict[int, int]
    feasible: bool

    @property
    def total_link_area(self) -> int:
        return sum(self.link_costs.values())

    def link_delays(self) -> Dict[int, int]:
        """Per-link cycle delays for the simulator (minimum one clock)."""
        return {lid: max(1, cost) for lid, cost in self.link_costs.items()}

    def render(self) -> str:
        """ASCII sketch of the floorplan, Figure 6 style.

        Tiles are drawn as a grid of processor ids; switch corner
        positions are listed below (corner lattice coordinates), since
        several switches can share a corner region.
        """
        width = max(3, max((len(str(p)) for p in self.processor_cell), default=1) + 1)
        by_cell = {cell: proc for proc, cell in self.processor_cell.items()}
        lines = []
        for j in range(self.grid.height - 1, -1, -1):
            row = []
            for i in range(self.grid.width):
                proc = by_cell.get((i, j))
                row.append((f"P{proc}" if proc is not None else ".").rjust(width))
            lines.append(" ".join(row))
        lines.append("")
        for s in sorted(self.switch_corner):
            x, y = self.switch_corner[s]
            lines.append(f"S{s} at corner ({x},{y})")
        return "\n".join(lines)


@dataclass
class _Placement:
    """One annealing state; ``area`` and ``violations`` are carried
    alongside the maps and kept equal to :func:`_link_area` and
    :func:`_violations` of them."""

    switch_corner: Dict[int, Corner]
    processor_cell: Dict[int, Cell]
    area: int = 0
    violations: int = 0


def _touches(cell: Cell, corner: Corner) -> bool:
    """:meth:`TileGrid.touches` for an in-grid cell, without building
    the cell's corner set."""
    dx = corner[0] - cell[0]
    dy = corner[1] - cell[1]
    return 0 <= dx <= 1 and 0 <= dy <= 1


def _violations(net: Network, p: _Placement) -> int:
    count = 0
    for proc in range(net.num_processors):
        if not _touches(p.processor_cell[proc], p.switch_corner[net.switch_of(proc)]):
            count += 1
    return count


def _link_area(net: Network, p: _Placement) -> int:
    return sum(
        manhattan(p.switch_corner[link.u], p.switch_corner[link.v])
        for link in net.links
    )


def _rescore(net: Network, p: _Placement) -> None:
    """Recompute the carried ``area`` and ``violations`` from scratch."""
    p.area = _link_area(net, p)
    p.violations = _violations(net, p)


class _Search:
    """The annealer's energy and neighbourhood for one network and grid.

    The network's indexes are built once, so a move re-prices only what
    it touched: moving a switch changes only its own links' lengths, and
    a processor's violation depends only on its own cell and its
    switch's corner.  ``neighbor`` therefore updates the carried
    ``area`` and ``violations`` by delta, and ``energy`` just reads them.
    """

    def __init__(self, net: Network, grid: TileGrid) -> None:
        self.net = net
        self.grid = grid
        self.switches = list(net.switches)
        self.corners = grid.corners()
        self.cells = grid.cells()
        self.proc_switch = [net.switch_of(proc) for proc in range(net.num_processors)]
        self.switch_procs = {s: tuple(sorted(net.processors_of(s))) for s in self.switches}
        links: Dict[int, List[Tuple[int, int]]] = {s: [] for s in self.switches}
        for link in net.links:  # links are never self-loops
            links[link.u].append((link.u, link.v))
            links[link.v].append((link.u, link.v))
        self.switch_links = links

    def energy(self, p: _Placement) -> float:
        return p.area + _PENALTY * p.violations

    def neighbor(self, p: _Placement, move_rng: random.Random) -> _Placement:
        q = _Placement(dict(p.switch_corner), dict(p.processor_cell), p.area, p.violations)
        num_processors = len(self.proc_switch)
        roll = move_rng.random()
        if roll < 0.35:
            # Cluster move: relocate a switch together with its
            # processors onto the tiles around a new corner, swapping
            # cells with the displaced occupants.
            s = move_rng.choice(self.switches)
            moved = _move_cluster(
                self.net, self.grid, q, s, move_rng.choice(self.corners), move_rng
            )
            self._reprice(p, q, s, set(self.switch_procs[s]).union(moved))
        elif roll < 0.6:
            s = move_rng.choice(self.switches)
            q.switch_corner[s] = move_rng.choice(self.corners)
            self._reprice(p, q, s, self.switch_procs[s])
        elif roll < 0.9 and num_processors >= 2:
            a, b = move_rng.sample(range(num_processors), 2)
            q.processor_cell[a], q.processor_cell[b] = (
                q.processor_cell[b],
                q.processor_cell[a],
            )
            self._reprice(p, q, None, (a, b))
        else:
            proc = move_rng.randrange(num_processors)
            used = set(q.processor_cell.values())
            free = [c for c in self.cells if c not in used]
            if free:
                q.processor_cell[proc] = move_rng.choice(free)
                self._reprice(p, q, None, (proc,))
        return q

    def _reprice(
        self, p: _Placement, q: _Placement, switch: Optional[int], procs: Iterable[int]
    ) -> None:
        """Update ``q``'s carried values from ``p``'s, given that ``q``
        differs from ``p`` at most in ``switch``'s corner and the cells
        of ``procs`` (which must include every processor of ``switch``)."""
        if switch is not None:
            old, new = p.switch_corner, q.switch_corner
            for u, v in self.switch_links[switch]:
                q.area += manhattan(new[u], new[v]) - manhattan(old[u], old[v])
        proc_switch = self.proc_switch
        for proc in procs:
            s = proc_switch[proc]
            was = _touches(p.processor_cell[proc], p.switch_corner[s])
            now = _touches(q.processor_cell[proc], q.switch_corner[s])
            q.violations += was - now


def place(
    network: Network,
    grid: Optional[TileGrid] = None,
    seed: int = 0,
    schedule: Optional[AnnealSchedule] = None,
    obs: Optional[Observability] = None,
) -> Floorplan:
    """Place a network on a tile grid, minimizing link area.

    Raises :class:`FloorplanError` when the grid cannot hold the
    processors; returns a (possibly infeasible) best-effort floorplan
    otherwise — callers should check :attr:`Floorplan.feasible`.
    """
    network.validate()
    obs = obs if obs is not None else DISABLED
    if grid is None:
        grid = _default_grid(network.num_processors)
    if grid.num_cells < network.num_processors:
        raise FloorplanError(
            f"{grid.width}x{grid.height} grid cannot hold "
            f"{network.num_processors} processors"
        )
    search = _Search(network, grid)
    sched = schedule or AnnealSchedule(
        initial_temperature=8.0, cooling=0.96, steps=5000
    )
    best: Optional[_Placement] = None
    best_key = None
    for restart in range(_RESTARTS):
        rng = random.Random(seed * _RESTARTS + restart)
        initial = _initial_placement(network, grid, rng)
        sa = SimulatedAnnealing(
            search.energy,
            search.neighbor,
            sched,
            seed=seed * _RESTARTS + restart,
            obs=obs,
            label="floorplan.anneal",
        )
        with obs.tracer.span("floorplan.restart", restart=restart):
            candidate, _ = sa.run(initial)
        if candidate.violations > 0:
            # Local repair only when the annealer left violations; a
            # feasible placement must not be perturbed.
            _repair(network, grid, candidate)
        key = (candidate.violations, candidate.area)
        if best_key is None or key < best_key:
            best, best_key = candidate, key
    assert best is not None  # _RESTARTS >= 1
    if obs.metrics.enabled:
        obs.metrics.gauge("floorplan.link_area").set(best.area)
        obs.metrics.gauge("floorplan.violations").set(best.violations)
    link_costs = {
        link.link_id: manhattan(
            best.switch_corner[link.u], best.switch_corner[link.v]
        )
        for link in network.links
    }
    return Floorplan(
        grid=grid,
        switch_corner=dict(best.switch_corner),
        processor_cell=dict(best.processor_cell),
        link_costs=link_costs,
        feasible=best.violations == 0,
    )


def _move_cluster(
    net: Network,
    grid: TileGrid,
    p: _Placement,
    switch: int,
    corner: Corner,
    rng: random.Random,
) -> List[int]:
    """Relocate a switch and its processors around ``corner``, swapping
    cells with the current occupants.  Returns every processor whose
    cell changed (possibly with repeats)."""
    p.switch_corner[switch] = corner
    target_cells = sorted(grid.corner_cells(corner))
    rng.shuffle(target_cells)
    cell_owner = {cell: proc for proc, cell in p.processor_cell.items()}
    moved: List[int] = []
    for proc, target in zip(sorted(net.processors_of(switch)), target_cells):
        old_cell = p.processor_cell[proc]
        if old_cell == target:
            continue
        other = cell_owner.get(target)
        p.processor_cell[proc] = target
        cell_owner[target] = proc
        moved.append(proc)
        if other is not None and other != proc:
            p.processor_cell[other] = old_cell
            cell_owner[old_cell] = other
            moved.append(other)
        else:
            del cell_owner[old_cell]
    return moved


def _default_grid(num_processors: int) -> TileGrid:
    from repro.topology.builders import grid_dims

    w, h = grid_dims(num_processors)
    return TileGrid(width=w, height=h)


def _initial_placement(net: Network, grid: TileGrid, rng: random.Random) -> _Placement:
    """Cluster-aware start: place each switch's processors around it."""
    cells = grid.cells()
    rng.shuffle(cells)
    proc_cell: Dict[int, Cell] = {}
    switch_corner: Dict[int, Corner] = {}
    free = list(cells)
    for s in net.switches:
        procs = sorted(net.processors_of(s))
        if not procs:
            switch_corner[s] = rng.choice(grid.corners())
            continue
        anchor = free[0] if free else rng.choice(grid.cells())
        corner = (anchor[0] + 1 if anchor[0] + 1 <= grid.width else anchor[0], anchor[1] + 1 if anchor[1] + 1 <= grid.height else anchor[1])
        switch_corner[s] = corner
        nearby = sorted(free, key=lambda c: manhattan((c[0], c[1]), corner))
        for proc, cell in zip(procs, nearby):
            proc_cell[proc] = cell
            free.remove(cell)
    # Any processor still unplaced (more procs than nearby cells) takes
    # whatever is left.
    for proc in range(net.num_processors):
        if proc not in proc_cell:
            proc_cell[proc] = free.pop()
    p = _Placement(switch_corner=switch_corner, processor_cell=proc_cell)
    _rescore(net, p)
    return p


def _repair(net: Network, grid: TileGrid, p: _Placement) -> None:
    """Greedy post-pass: move each switch to the corner that the most of
    its processors' tiles touch (ties broken by the smallest total
    distance to those tiles, then by corner order).  Processors stay
    where they are.  Rescores ``p`` at the end."""
    for s in net.switches:
        procs = sorted(net.processors_of(s))
        if not procs:
            continue
        best_corner = p.switch_corner[s]
        best_score = None
        for corner in grid.corners():
            touching = sum(
                1 for proc in procs if _touches(p.processor_cell[proc], corner)
            )
            dist = sum(
                manhattan(
                    corner,
                    (
                        p.processor_cell[proc][0],
                        p.processor_cell[proc][1],
                    ),
                )
                for proc in procs
            )
            score = (-touching, dist)
            if best_score is None or score < best_score:
                best_score = score
                best_corner = corner
        p.switch_corner[s] = best_corner
    _rescore(net, p)
