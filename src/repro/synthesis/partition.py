"""The main partitioning algorithm (paper Section 3 and Appendix).

Starting from one mega-switch, switches violating the design
constraints are recursively bisected; after each bisection the routing
is re-optimized (``Best_Route``) and single-processor moves between the
two halves are committed while they lower the ``Fast_Color`` link
estimate.  When every switch satisfies the constraints under the
estimates, exact graph coloring finalizes each pipe's width; if the
exact widths re-violate a constraint, partitioning resumes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import SynthesisError
from repro.model.cliques import CliqueAnalysis
from repro.model.message import Communication
from repro.obs import DISABLED, Observability
from repro.synthesis.annealing import AnnealSchedule
from repro.synthesis.best_route import best_route
from repro.synthesis.constraints import DesignConstraints
from repro.synthesis.moves import annealed_moves, best_processor_move
from repro.synthesis.reroute import global_processor_moves, reduce_degree_violations
from repro.synthesis.state import SynthesisState


@dataclass(frozen=True)
class PipeFinal:
    """Exact-coloring result for one pipe.

    Attributes:
        switches: the unordered switch pair.
        width: number of full-duplex links the pipe receives.
        forward_colors: link index per communication, forward direction
            (from ``min(switches)`` to ``max(switches)``).
        backward_colors: link index per communication, backward direction.
    """

    switches: Tuple[int, int]
    width: int
    forward_colors: Dict[Communication, int]
    backward_colors: Dict[Communication, int]


@dataclass
class PartitionResult:
    """Everything the main algorithm produced.

    Attributes:
        state: the final synthesis state (switch membership + routes).
        pipe_finals: exact pipe widths and per-communication link colors.
        connectivity_links: traffic-free switch pairs that must receive
            one link each so the system graph is strongly connected
            (Definition 1) when the pattern's clusters never talk.
        bisections: how many switch splits were performed.
        route_moves: how many ``Best_Route`` re-routings were committed.
        processor_moves: how many inter-partition processor moves were
            committed.
        estimate_gap: pipes where the exact chromatic number exceeded
            the ``Fast_Color`` estimate (the paper expects this to be
            rare; the ablation benchmark quantifies it).
    """

    state: SynthesisState
    pipe_finals: Dict[FrozenSet[int], PipeFinal]
    connectivity_links: Tuple[Tuple[int, int], ...] = ()
    bisections: int = 0
    route_moves: int = 0
    processor_moves: int = 0
    estimate_gap: List[Tuple[Tuple[int, int], int, int]] = field(default_factory=list)

    def total_links(self) -> int:
        """Final link count over all pipes plus connectivity links."""
        return sum(p.width for p in self.pipe_finals.values()) + len(
            self.connectivity_links
        )

    def final_degree(self, switch: int) -> int:
        """Exact port count of a switch in the finalized network."""
        procs = len(self.state.switch_procs[switch])
        links = sum(
            p.width for key, p in self.pipe_finals.items() if switch in key
        )
        links += sum(1 for pair in self.connectivity_links if switch in pair)
        return procs + links


def finalize_pipes(state: SynthesisState) -> Dict[FrozenSet[int], PipeFinal]:
    """Exact-color every pipe's two conflict graphs (Appendix step 3).

    Colorings come from the state's content-keyed memo: re-partitioning
    rounds (and the two directions of symmetric pipes) hit the cache
    instead of re-running branch and bound.
    """
    finals: Dict[FrozenSet[int], PipeFinal] = {}
    for pair in state.pipes():
        u, v = sorted(pair)
        fwd = state.pipe_forward(u, v)
        bwd = state.pipe_forward(v, u)
        k_f, colors_f = state.color_memo.exact(fwd)
        k_b, colors_b = state.color_memo.exact(bwd)
        finals[frozenset(pair)] = PipeFinal(
            switches=(u, v),
            width=max(k_f, k_b),
            forward_colors=colors_f,
            backward_colors=colors_b,
        )
    return finals


class Partitioner:
    """Runs the main partitioning algorithm over one clique analysis."""

    def __init__(
        self,
        analysis: CliqueAnalysis,
        constraints: Optional[DesignConstraints] = None,
        seed: int = 0,
        max_bisections: Optional[int] = None,
        reroute: bool = True,
        moves: bool = True,
        anneal: bool = False,
        anneal_schedule: Optional[AnnealSchedule] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.analysis = analysis
        self.constraints = constraints or DesignConstraints()
        self.constraints.check_feasible(analysis.pattern.num_processes)
        self.reroute = reroute
        self.moves = moves
        # An explicit schedule turns the annealed walk on; ``anneal=True``
        # without one keeps the historical default parameters.
        self.anneal = anneal or anneal_schedule is not None
        self.anneal_schedule = anneal_schedule
        self.obs = obs if obs is not None else DISABLED
        self.rng = random.Random(seed)
        # Each bisection adds a switch; N-1 splits reach one processor
        # per switch, the finest possible partition.  A small multiple
        # tolerates re-partitioning after finalization.
        self.max_bisections = max_bisections or 3 * analysis.pattern.num_processes

    def run(self) -> PartitionResult:
        """Execute the algorithm until constraints hold or splitting is
        exhausted; raises :class:`SynthesisError` when infeasible."""
        state = SynthesisState.initial(self.analysis)
        result = PartitionResult(state=state, pipe_finals={})
        metrics = self.obs.metrics
        tracer = self.obs.tracer
        c_bisections = metrics.counter("synthesis.bisections")
        c_route_moves = metrics.counter("synthesis.route_moves")
        c_proc_moves = metrics.counter("synthesis.processor_moves")
        while True:
            violators = self._estimate_violators(state)
            if violators and self.reroute:
                # Multi-hop route optimization can satisfy constraints
                # without creating more switches (see reroute module).
                rerouted = reduce_degree_violations(state, self.constraints)
                result.route_moves += rerouted
                c_route_moves.inc(rerouted)
                violators = self._estimate_violators(state)
            if not violators:
                with tracer.span(
                    "synthesis.color",
                    pipes=len(state.pipes()),
                    switches=len(state.switches),
                ):
                    finals = finalize_pipes(state)
                result.pipe_finals = finals
                result.connectivity_links = self._connectivity_plan(state)
                self._record_estimate_gaps(state, result)
                exact_violators = self._exact_violators(state, result)
                if not exact_violators:
                    self._record_hotpath_counters(state)
                    return result
                violators = exact_violators
            splittable = [s for s in violators if len(state.switch_procs[s]) >= 2]
            if not splittable:
                # Last resort: alternate global processor moves (which
                # may turn switches into pure relays) with route
                # re-optimization until violations clear or nothing
                # improves.
                while self._estimate_violators(state):
                    escaped = global_processor_moves(state, self.constraints)
                    rerouted = reduce_degree_violations(state, self.constraints)
                    result.processor_moves += escaped
                    result.route_moves += rerouted
                    c_proc_moves.inc(escaped)
                    c_route_moves.inc(rerouted)
                    if escaped + rerouted == 0:
                        break
                if not self._estimate_violators(state):
                    continue
                raise SynthesisError(
                    "design constraints unsatisfiable: switches "
                    f"{violators} violate them but cannot be split further "
                    f"(constraints: {self.constraints})"
                )
            if result.bisections >= self.max_bisections:
                raise SynthesisError(
                    f"partitioning did not converge within {self.max_bisections} "
                    "bisections; constraints may be too tight for this pattern"
                )
            si = self.rng.choice(sorted(splittable))
            with tracer.span(
                "synthesis.bisect",
                level=result.bisections,
                switch=si,
                violators=len(violators),
            ):
                sj = state.split_switch(si, self.rng)
                result.bisections += 1
                c_bisections.inc()
                moved = best_route(state, si, sj)
                result.route_moves += moved
                c_route_moves.inc(moved)
                if self.anneal and self.moves:
                    sched = self.anneal_schedule
                    if sched is None:
                        annealed = annealed_moves(state, si, sj, self.rng)
                    else:
                        annealed = annealed_moves(
                            state,
                            si,
                            sj,
                            self.rng,
                            steps=sched.steps,
                            initial_temperature=sched.initial_temperature,
                            cooling=sched.cooling,
                            moves_per_temperature=sched.moves_per_temperature,
                        )
                    result.processor_moves += annealed
                    c_proc_moves.inc(annealed)
                    moved = best_route(state, si, sj)
                    result.route_moves += moved
                    c_route_moves.inc(moved)
                while self.moves:
                    move = best_processor_move(state, si, sj)
                    if move is None:
                        break
                    state.move_processor(move.processor, move.to_switch)
                    result.processor_moves += 1
                    c_proc_moves.inc()
                    moved = best_route(state, si, sj)
                    result.route_moves += moved
                    c_route_moves.inc(moved)

    def _record_hotpath_counters(self, state: SynthesisState) -> None:
        """Report the hot-path machinery's work through the registry:
        transaction reverts from move evaluation and the coloring memo's
        hit/miss split.  Counts are pure functions of the seeded run, so
        they are deterministic and safe in canonical metric output."""
        metrics = self.obs.metrics
        if not metrics.enabled:
            return
        metrics.counter("synthesis.txn_reverts").inc(state.txn_reverts)
        memo = state.color_memo
        metrics.counter("synthesis.color.fast_hits").inc(memo.fast_hits)
        metrics.counter("synthesis.color.fast_misses").inc(memo.fast_misses)
        metrics.counter("synthesis.color.exact_hits").inc(memo.exact_hits)
        metrics.counter("synthesis.color.exact_misses").inc(memo.exact_misses)

    def _estimate_violators(self, state: SynthesisState) -> Tuple[int, ...]:
        return self.constraints.violators(state)

    def _exact_violators(
        self, state: SynthesisState, result: PartitionResult
    ) -> Tuple[int, ...]:
        """Constraint check against exact pipe widths (not estimates)."""
        out = []
        for s in state.switches:
            if result.final_degree(s) > self.constraints.max_degree:
                out.append(s)
                continue
            if self.constraints.max_pipe_width is not None:
                for key, p in result.pipe_finals.items():
                    if s in key and p.width > self.constraints.max_pipe_width:
                        out.append(s)
                        break
        return tuple(out)

    def _connectivity_plan(self, state: SynthesisState) -> Tuple[Tuple[int, int], ...]:
        """Extra links joining pipe-disconnected switch groups.

        Patterns whose processor clusters never communicate leave the
        switch graph in several components; Definition 1 requires strong
        connectivity, so one link joins each extra component, attached
        at the lowest-degree switch of each side.  Counting these links
        in :meth:`PartitionResult.final_degree` lets the main loop react
        (by splitting) when the repair would bust the port budget.
        """
        adjacency: Dict[int, set] = {s: set() for s in state.switches}
        for pair in state.pipes():
            u, v = sorted(pair)
            adjacency[u].add(v)
            adjacency[v].add(u)
        components: List[List[int]] = []
        remaining = set(state.switches)
        while remaining:
            start = min(remaining)
            seen = {start}
            frontier = [start]
            while frontier:
                s = frontier.pop()
                for nxt in adjacency[s]:
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            components.append(sorted(seen))
            remaining -= seen
        plan: List[Tuple[int, int]] = []
        degrees = {s: state.estimated_degree(s) for s in state.switches}
        while len(components) > 1:
            a = min(components[0], key=lambda s: degrees[s])
            b = min(components[1], key=lambda s: degrees[s])
            plan.append((a, b))
            degrees[a] += 1
            degrees[b] += 1
            components = [sorted(components[0] + components[1])] + components[2:]
        return tuple(plan)

    def _record_estimate_gaps(
        self, state: SynthesisState, result: PartitionResult
    ) -> None:
        metrics = self.obs.metrics
        metrics.counter("synthesis.color.pipes").inc(len(result.pipe_finals))
        for key, final in result.pipe_finals.items():
            u, v = final.switches
            estimate = state.pipe_estimate(u, v)
            if final.width != estimate:
                result.estimate_gap.append(((u, v), estimate, final.width))
                metrics.counter("synthesis.color.estimate_gaps").inc()
                self.obs.tracer.event(
                    "synthesis.color.gap",
                    pipe=f"{u}-{v}",
                    estimate=estimate,
                    exact=final.width,
                )


def partition(
    analysis: CliqueAnalysis,
    constraints: Optional[DesignConstraints] = None,
    seed: int = 0,
) -> PartitionResult:
    """Convenience wrapper around :class:`Partitioner`."""
    return Partitioner(analysis, constraints=constraints, seed=seed).run()
