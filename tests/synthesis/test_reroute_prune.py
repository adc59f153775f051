"""The lemma behind degree repair's detour prune.

``_improve_comm`` scores detour candidates only when taking the
communication off its ``s-k`` pipe lowers that pipe's ``Fast_Color``
estimate.  The prune is exact because the directional bound
``max_K |K ∩ C|`` is monotone in ``C`` and moves by at most one per
communication; these tests pin both facts over a real pattern, and pin
on real partitioning states that every detour the rule skips could not
have lowered the objective.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import CliqueAnalysis
from repro.synthesis import reroute
from repro.synthesis.constraints import DesignConstraints
from repro.synthesis.memo import ColorMemo
from repro.synthesis.partition import Partitioner
from repro.workloads import benchmark

CG16 = CliqueAnalysis.of(benchmark("cg", 16).pattern)
COMMS = sorted(CG16.pattern.communications)
MEMO = ColorMemo(CG16.max_cliques)


@settings(max_examples=200, deadline=None)
@given(
    members=st.sets(st.integers(0, len(COMMS) - 1)),
    extra=st.integers(0, len(COMMS) - 1),
)
def test_fast_directional_is_monotone_and_one_lipschitz(members, extra):
    base = frozenset(COMMS[i] for i in members)
    grown = base | {COMMS[extra]}
    before = MEMO.fast_directional(base)
    after = MEMO.fast_directional(grown)
    assert before <= after <= before + 1


def test_skipped_detours_never_lower_the_objective(monkeypatch):
    """Wrap ``_improve_comm`` through a whole cg-16 partitioning run and,
    at every trial the rule prunes, score the skipped detours anyway."""
    constraints = DesignConstraints()
    improve = reroute._improve_comm
    checked = {"trials": 0, "detours": 0}

    def checking(state, constraints, comm, s, k):
        path = state.route_of(comm)
        hop = reroute._directed_hop(path, s, k)
        if hop is not None and not reroute._relieves(state, comm, hop):
            objective = state.objective(constraints.max_degree)
            checked["trials"] += 1
            for detour in reroute._detour_paths(state, path, s, k):
                changed = state.preview_route_change(comm, detour)
                score = state.preview_objective(changed, constraints.max_degree)
                assert score >= objective, (comm, path, detour)
                checked["detours"] += 1
        return improve(state, constraints, comm, s, k)

    monkeypatch.setattr(reroute, "_improve_comm", checking)
    Partitioner(CG16, constraints=constraints, seed=0, anneal=True).run()
    assert checked["trials"] > 0 and checked["detours"] > 0
