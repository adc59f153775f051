"""Ablation: Fast_Color bound quality and speed (paper Section 3.3).

The methodology's complexity rests on Fast_Color being (a) a tight
lower bound on each pipe's chromatic number and (b) much cheaper than
exact coloring.  This bench quantifies both over every pipe of every
benchmark design.
"""

import time

import pytest

from repro.eval import paper_sizes, prepare
from repro.model import CliqueAnalysis
from repro.synthesis import (
    Partitioner,
    build_conflict_graph,
    exact_coloring,
    fast_color_directional,
)


def _all_pipes():
    """(pipe direction communications, max cliques) for every pipe of
    every small benchmark design, from the partitioner state of each
    design's winning seed."""
    pipes = []
    for name, n in paper_sizes("small").items():
        design = prepare(name, n, seed=0).design
        state = Partitioner(CliqueAnalysis.of(design.pattern), seed=design.seed).run().state
        cliques = state.max_cliques
        for pair in state.pipes():
            u, v = sorted(pair)
            pipes.append((state.pipe_forward(u, v), cliques))
            pipes.append((state.pipe_forward(v, u), cliques))
    return pipes


@pytest.fixture(scope="module")
def pipes():
    return _all_pipes()


def test_fast_color_is_tight_on_real_pipes(pipes, show):
    """Section 3.3 claims the clique bound is a close (usually exact)
    estimate; verify exactness rate on the pipes the methodology
    actually encounters."""
    exact_hits = 0
    total = 0
    for comms, cliques in pipes:
        if not comms:
            continue
        total += 1
        bound = fast_color_directional(comms, cliques)
        chromatic, _ = exact_coloring(build_conflict_graph(comms, cliques))
        assert bound <= chromatic  # lower bound, always
        if bound == chromatic:
            exact_hits += 1
    show(f"Fast_Color exact on {exact_hits}/{total} benchmark pipes")
    assert total > 0
    assert exact_hits / total >= 0.9


def test_fast_color_speed(benchmark, pipes):
    loaded = [(c, k) for c, k in pipes if c]

    def run_fast():
        for comms, cliques in loaded:
            fast_color_directional(comms, cliques)

    benchmark(run_fast)


def test_exact_coloring_cost_reference(benchmark, pipes):
    loaded = [(c, k) for c, k in pipes if c]

    def run_exact():
        for comms, cliques in loaded:
            exact_coloring(build_conflict_graph(comms, cliques))

    benchmark(run_exact)
