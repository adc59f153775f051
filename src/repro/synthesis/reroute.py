"""Global route optimization for design-constraint satisfaction.

``Best_Route`` only considers detours through the sibling of a freshly
split switch.  Patterns whose processes talk to many distinct partners
(BT/SP's six-neighbour sweeps) additionally need *multi-hop* routes
that funnel several logical neighbours over one physical link; the
paper folds this into its simulated-annealing route optimization.  This
module implements that global pass: communications crossing a pipe of
an over-budget switch are detoured through intermediate switches
whenever doing so reduces, lexicographically, (total degree excess,
total estimated links).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.model.message import Communication
from repro.synthesis.constraints import DesignConstraints
from repro.synthesis.state import SynthesisState


def degree_excess(state: SynthesisState, constraints: DesignConstraints) -> int:
    """Total port overshoot across all switches under link estimates."""
    deg = state.all_estimated_degrees()
    return sum(max(0, d - constraints.max_degree) for d in deg.values())


def _objective(state: SynthesisState, constraints: DesignConstraints) -> Tuple[int, int]:
    return state.objective(constraints.max_degree)


def reduce_degree_violations(
    state: SynthesisState,
    constraints: DesignConstraints,
    max_rounds: int = 30,
) -> int:
    """Greedy global rerouting until no move lowers the objective.

    In each round, every communication crossing a pipe of an over-budget
    switch tries (a) a detour through every other switch and (b) a
    shortcut that removes an intermediate switch from its path.  Moves
    are committed when they strictly lower (degree excess, total
    links), so the loop terminates.  Returns the number of committed
    moves.
    """
    moves = 0
    for _ in range(max_rounds):
        violators = [
            s
            for s in state.switches
            if state.estimated_degree(s) > constraints.max_degree
        ]
        if not violators:
            break
        improved = False
        for s in sorted(violators, key=state.estimated_degree, reverse=True):
            for k in state.pipes_of(s):
                crossing = sorted(
                    state.pipe_forward(s, k) | state.pipe_forward(k, s)
                )
                for comm in crossing:
                    if _improve_comm(state, constraints, comm, s, k):
                        moves += 1
                        improved = True
            # Compound move: emptying a whole pipe drops one port at
            # both endpoints; single-communication moves cannot cross
            # that barrier when the pipe carries several non-conflicting
            # communications.
            for k in state.pipes_of(s):
                if _try_eliminate_pipe(state, constraints, s, k):
                    moves += 1
                    improved = True
        if not improved:
            break
    return moves


def _try_eliminate_pipe(
    state: SynthesisState,
    constraints: DesignConstraints,
    s: int,
    k: int,
) -> bool:
    """Reroute every communication off the ``s-k`` pipe if that lowers
    the objective overall (each communication takes its individually
    best detour)."""
    crossing = sorted(state.pipe_forward(s, k) | state.pipe_forward(k, s))
    if not crossing:
        return False
    before = _objective(state, constraints)
    with state.transaction() as txn:
        for comm in crossing:
            path = state.route_of(comm)
            if not _uses_hop(path, s, k):
                continue
            best_path = None
            best_score = None
            for candidate in _candidate_paths(state, path, s, k):
                if _uses_hop(candidate, s, k):
                    continue
                changed = state.preview_route_change(comm, candidate)
                score = state.preview_objective(changed, constraints.max_degree)
                if best_score is None or score < best_score:
                    best_score = score
                    best_path = candidate
            if best_path is None:
                return False
            state.set_route(comm, best_path)
        if _objective(state, constraints) < before:
            txn.commit()
            return True
    return False


def global_processor_moves(
    state: SynthesisState,
    constraints: DesignConstraints,
    max_rounds: int = 10,
) -> int:
    """Move processors off over-budget switches onto any other switch.

    A last-resort escape used when no violating switch can be split
    further: relocating a processor (with direct route re-anchoring)
    can relieve a port-starved switch.  Moving a switch's only
    processor is allowed — the switch then becomes a pure relay (or
    dies and is dropped at materialization).  Moves commit only when
    they strictly lower (degree excess, total links).  Returns the
    number of committed moves.
    """
    moves = 0
    for _ in range(max_rounds):
        violators = [
            s
            for s in state.switches
            if state.estimated_degree(s) > constraints.max_degree
        ]
        if not violators:
            break
        improved = False
        for s in violators:
            if not state.switch_procs[s]:
                continue
            before = _objective(state, constraints)
            for proc in sorted(state.switch_procs[s]):
                for target in state.switches:
                    if target == s:
                        continue
                    with state.transaction() as txn:
                        state.move_processor(proc, target)
                        if _objective(state, constraints) < before:
                            txn.commit()
                            moves += 1
                            improved = True
                    if improved:
                        break
                if improved:
                    break
            if improved:
                break
        if not improved:
            break
    return moves


def _improve_comm(
    state: SynthesisState,
    constraints: DesignConstraints,
    comm: Communication,
    s: int,
    k: int,
) -> bool:
    """Try all single-switch detours/shortcuts for one hop of ``comm``.

    Detours are scored only when taking ``comm`` off the ``s-k`` pipe
    lowers that pipe's estimate.  ``Fast_Color`` is ``max_K |K ∩ C|``,
    which never falls when a communication is added to ``C``; a detour
    removes ``comm`` from the ``s-k`` pipe and adds it to ``s-m`` and
    ``m-k``.  If the removal brings no relief, no pipe estimate, hence
    no degree and no link total, can fall, so no detour can beat
    ``before`` and skipping them changes nothing.
    """
    old_path = state.route_of(comm)
    hop = _directed_hop(old_path, s, k)
    if hop is None:
        return False
    before = _objective(state, constraints)
    candidates = _shortcut_paths(old_path)
    if _relieves(state, comm, hop):
        candidates = _detour_paths(state, old_path, s, k) + candidates
    for candidate in candidates:
        changed = state.preview_route_change(comm, candidate)
        if state.preview_objective(changed, constraints.max_degree) < before:
            state.set_route(comm, candidate)
            return True
    return False


def _directed_hop(
    path: Tuple[int, ...], s: int, k: int
) -> Optional[Tuple[int, int]]:
    """The ``(u, v)`` hop of ``path`` between ``s`` and ``k``, if any."""
    prev = path[0]
    for node in path[1:]:
        if (prev == s and node == k) or (prev == k and node == s):
            return (prev, node)
        prev = node
    return None


def _uses_hop(path: Tuple[int, ...], s: int, k: int) -> bool:
    return _directed_hop(path, s, k) is not None


def _relieves(state: SynthesisState, comm: Communication, hop: Tuple[int, int]) -> bool:
    """Whether taking ``comm`` off the directed ``hop`` lowers the
    estimate of that pipe."""
    u, v = hop
    rest = state.pipe_forward(u, v) - {comm}
    after = state.color_memo.fast_pair(rest, state.pipe_forward(v, u))
    return after < state.pipe_estimate(u, v)


def _candidate_paths(
    state: SynthesisState, path: Tuple[int, ...], s: int, k: int
) -> List[Tuple[int, ...]]:
    """Detours (insert one switch in the s-k hop) and shortcuts (drop an
    interior switch), all normalized and deduplicated."""
    return _detour_paths(state, path, s, k) + _shortcut_paths(path)


def _detour_paths(
    state: SynthesisState, path: Tuple[int, ...], s: int, k: int
) -> List[Tuple[int, ...]]:
    """``path`` with one switch inserted in its s-k hop, deduplicated."""
    out: List[Tuple[int, ...]] = []
    seen = {path}
    # Routes are simple paths, so inserting a switch not already on the
    # path (detour) or dropping an interior one (shortcut) yields a
    # simple path again — no re-normalization needed.
    # Detours through switches already piped to either endpoint: a
    # disconnected intermediate would add two fresh pipes without
    # relieving the endpoints, so it can never lower the objective.
    candidates = sorted(set(state.pipes_of(s)) | set(state.pipes_of(k)))
    for m in candidates:
        if m in path:
            continue
        detoured: List[int] = []
        for idx, node in enumerate(path):
            detoured.append(node)
            if idx + 1 < len(path) and (node, path[idx + 1]) in ((s, k), (k, s)):
                detoured.append(m)
        candidate = tuple(detoured)
        if candidate not in seen:
            seen.add(candidate)
            out.append(candidate)
    return out


def _shortcut_paths(path: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """``path`` with one interior switch dropped.  Shortcuts are shorter
    than ``path`` and detours longer, so neither list can repeat the
    other."""
    return [path[:idx] + path[idx + 1 :] for idx in range(1, len(path) - 1)]
