"""Property tests for the transactional synthesis-state hot path.

Three contracts the hot-path overhaul rests on, checked over random
patterns and operation sequences:

* **transaction revert is exact** — after any sequence of
  ``move_processor``/``set_route`` mutations inside an uncommitted
  transaction, the undo-log rewind restores the state a deep snapshot
  captured (routes, pipe contents, estimates, degrees, objective);
* **memoized coloring is transparent** — ``ColorMemo`` returns exactly
  what the unmemoized ``Fast_Color`` computes, including on cache hits,
  and never holds more entries than its ``maxsize``;
* **preview equals apply** — the preview evaluators
  (``preview_route_change``/``preview_objective``/
  ``preview_local_links``/``preview_move_score``) predict precisely
  what mutating and re-reading the state yields.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.model import CliqueAnalysis
from repro.synthesis.fast_color import fast_color
from repro.synthesis.memo import ColorMemo
from repro.synthesis.moves import _score
from repro.synthesis.state import SynthesisState, normalize_path
from repro.workloads import random_permutation_pattern

MAX_DEGREE = 8


def _prepared_state(pattern_seed, rng):
    """A small synthesis state with several switches to move between."""
    pattern = random_permutation_pattern(6, 2, seed=pattern_seed)
    analysis = CliqueAnalysis.of(pattern)
    state = SynthesisState.initial(analysis)
    state.split_switch(state.switches[0], rng)
    for s in state.switches:
        if len(state.switch_procs[s]) >= 2:
            state.split_switch(s, rng)
            break
    return state


def _canonical(state):
    """Everything observable about a state, in comparable form."""
    return (
        {s: tuple(sorted(ps)) for s, ps in state.switch_procs.items()},
        dict(state.proc_switch),
        dict(state.routes),
        {k: frozenset(v) for k, v in state.pipe_comms.items() if v},
        state.all_estimated_degrees(),
        state.total_links(),
        state.objective(MAX_DEGREE),
    )


def _random_path(state, rng, comm):
    """A random valid route for ``comm`` (endpoints anchored, existing
    switches only); ``set_route`` normalizes it."""
    start = state.switch_of(comm.source)
    end = state.switch_of(comm.dest)
    switches = list(state.switches)
    middle = rng.sample(switches, k=rng.randrange(0, min(3, len(switches)) + 1))
    return [start, *middle, end]


def _mutate_randomly(state, rng, steps):
    comms = sorted(state.comms)
    for _ in range(steps):
        if rng.randrange(2) == 0 and comms:
            comm = rng.choice(comms)
            state.set_route(comm, _random_path(state, rng, comm))
        else:
            proc = rng.choice(sorted(state.proc_switch))
            to = rng.choice(list(state.switches))
            if to != state.switch_of(proc):
                state.move_processor(proc, to)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=500),
    steps=st.integers(min_value=1, max_value=12),
)
def test_transaction_revert_equals_deep_snapshot(seed, steps):
    rng = random.Random(seed)
    state = _prepared_state(seed % 3, rng)
    snap = state.snapshot()
    before = _canonical(state)
    with state.transaction():
        _mutate_randomly(state, rng, steps)
        # no commit: leaving the scope must rewind everything
    assert _canonical(state) == before
    # The deep snapshot agrees with the undo-log rewind.
    state.restore(snap)
    assert _canonical(state) == before


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=500),
    steps=st.integers(min_value=1, max_value=10),
    keep=st.integers(min_value=0, max_value=5),
)
def test_savepoint_rewind_is_partial_and_exact(seed, steps, keep):
    """Rolling back to a mid-sequence savepoint reproduces the state a
    deep snapshot captured at the same point."""
    rng = random.Random(seed)
    state = _prepared_state(seed % 3, rng)
    with state.transaction() as txn:
        _mutate_randomly(state, rng, min(keep, steps))
        mark = txn.savepoint()
        at_mark = _canonical(state)
        _mutate_randomly(state, rng, steps)
        txn.rollback_to(mark)
        assert _canonical(state) == at_mark
        txn.commit()
    assert _canonical(state) == at_mark


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    pattern_seed=st.sampled_from([0, 1, 2]),
    subset_seed=st.integers(min_value=0, max_value=500),
)
def test_memoized_fast_color_equals_unmemoized(pattern_seed, subset_seed):
    pattern = random_permutation_pattern(6, 2, seed=pattern_seed)
    analysis = CliqueAnalysis.of(pattern)
    memo = ColorMemo(analysis.max_cliques)
    rng = random.Random(subset_seed)
    comms = sorted(analysis.communications)
    draws = []
    for _ in range(8):
        fwd = frozenset(rng.sample(comms, rng.randrange(0, len(comms) + 1)))
        bwd = frozenset(rng.sample(comms, rng.randrange(0, len(comms) + 1)))
        draws.append((fwd, bwd))
    # Two passes over the same draws: the second is all cache hits and
    # must still agree with the pure function.
    for _ in range(2):
        for fwd, bwd in draws:
            expected = fast_color(fwd, bwd, analysis.max_cliques)
            assert memo.fast(fwd, bwd) == expected
            assert memo.fast_pair(fwd, bwd) == expected
    assert memo.fast_hits > 0


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    pattern_seed=st.sampled_from([0, 1, 2]),
    subset_seed=st.integers(min_value=0, max_value=500),
    maxsize=st.integers(min_value=1, max_value=4),
)
def test_color_memo_stays_within_maxsize(pattern_seed, subset_seed, maxsize):
    """The bound holds after every call, whichever direction missed —
    including a forward miss paired with a backward hit."""
    pattern = random_permutation_pattern(6, 2, seed=pattern_seed)
    analysis = CliqueAnalysis.of(pattern)
    memo = ColorMemo(analysis.max_cliques, maxsize=maxsize)
    rng = random.Random(subset_seed)
    comms = sorted(analysis.communications)
    backward = frozenset(comms[:2])
    for _ in range(40):
        fwd = frozenset(rng.sample(comms, rng.randrange(0, len(comms) + 1)))
        bwd = backward if rng.random() < 0.5 else frozenset(
            rng.sample(comms, rng.randrange(0, len(comms) + 1))
        )
        expected = fast_color(fwd, bwd, analysis.max_cliques)
        assert memo.fast_pair(fwd, bwd) == expected
        assert len(memo._fast) <= maxsize
        assert memo.fast(fwd, bwd) == expected
        assert len(memo._fast) <= maxsize
        memo.exact(fwd)
        assert len(memo._exact) <= maxsize


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    pattern_seed=st.sampled_from([0, 1, 2]),
    subset_seed=st.integers(min_value=0, max_value=500),
    maxsize=st.integers(min_value=1, max_value=4),
)
def test_color_memo_evicts_oldest_insertion_first(pattern_seed, subset_seed, maxsize):
    """Eviction is FIFO by first insertion: a hit does not refresh an
    entry, and the survivors are always the ``maxsize`` most recently
    inserted keys, in insertion order."""
    pattern = random_permutation_pattern(6, 2, seed=pattern_seed)
    analysis = CliqueAnalysis.of(pattern)
    memo = ColorMemo(analysis.max_cliques, maxsize=maxsize)
    rng = random.Random(subset_seed)
    comms = sorted(analysis.communications)
    pool = [
        frozenset(rng.sample(comms, rng.randrange(0, len(comms) + 1)))
        for _ in range(6)
    ]
    fast_model, exact_model = [], []

    def insert(model, key):
        if key not in model:
            model.append(key)
            del model[:-maxsize]

    for _ in range(40):
        fwd, bwd = rng.choice(pool), rng.choice(pool)
        op = rng.randrange(3)
        if op == 0:
            memo.fast_pair(fwd, bwd)
            insert(fast_model, fwd)
            insert(fast_model, bwd)
        elif op == 1:
            memo.fast(fwd, bwd)
            insert(fast_model, fwd)
            insert(fast_model, bwd)
        else:
            memo.exact(fwd)
            insert(exact_model, fwd)
        assert list(memo._fast) == fast_model
        assert list(memo._exact) == exact_model


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=500))
def test_preview_route_change_equals_apply(seed):
    rng = random.Random(seed)
    state = _prepared_state(seed % 3, rng)
    comms = sorted(state.comms)
    for _ in range(6):
        comm = rng.choice(comms)
        candidate = normalize_path(_random_path(state, rng, comm))
        changed = state.preview_route_change(comm, candidate)
        predicted_objective = state.preview_objective(changed, MAX_DEGREE)
        affected = set(state.route_of(comm)) | set(candidate)
        predicted_local = state.preview_local_links(changed, affected)
        with state.transaction():
            state.set_route(comm, candidate)
            assert state.objective(MAX_DEGREE) == predicted_objective
            assert state.local_links(affected) == predicted_local
            # no commit: next iteration previews against the old state


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=500))
def test_preview_move_score_equals_apply(seed):
    rng = random.Random(seed)
    state = _prepared_state(seed % 3, rng)
    switches = list(state.switches)
    checked = 0
    for _ in range(10):
        si, sj = rng.sample(switches, 2)
        candidates = [(p, sj) for p in sorted(state.switch_procs[si])] + [
            (p, si) for p in sorted(state.switch_procs[sj])
        ]
        if not candidates:
            continue
        proc, to = rng.choice(candidates)
        predicted = state.preview_move_score(proc, to, si, sj)
        # The preview cache must not go stale: ask twice.
        assert state.preview_move_score(proc, to, si, sj) == predicted
        with state.transaction():
            state.move_processor(proc, to)
            assert _score(state, si, sj) == predicted
        checked += 1
    assert checked > 0
