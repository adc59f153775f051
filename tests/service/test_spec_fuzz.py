"""Property tests for the job-spec trust boundary.

Whatever a client sends, :func:`canonicalize_spec` either accepts it
and returns a canonical spec that is a fixed point of canonicalization
(with a stable :func:`job_key`), or rejects it with a
:class:`~repro.errors.ServiceError` — which the HTTP layer answers
with a 400 — and never with any other exception.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.eval.serialize import canonical_json
from repro.service import JOB_KINDS, canonicalize_spec, job_key
from repro.sweeps.patterns import resolve_pattern

#: Every field name any job kind reads, plus near-misses.
FIELDS = (
    "benchmark", "nodes", "seed", "restarts", "portfolio", "max_degree",
    "objective", "curves", "topologies", "topology", "pattern", "points",
    "refine", "min_rate", "max_rate", "criterion", "restart", "Kind",
)

#: Values a field may plausibly hold, valid or not.
PLAUSIBLE = st.sampled_from(
    [
        "bt", "cg", "fft", "mg", "sp", "linpack",
        "links", "switches", "avg-hops", "fastest",
        "uniform", "tornado", "transpose", "shuffle", "hotspot:1:0.8",
        "hotspot:x", "hotspot:1:2", "wormhole", "",
        "mesh", "torus", "crossbar", "generated", "generated-spare",
        "mean-knee", "p99-knee",
    ]
)

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=70),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    PLAUSIBLE,
    st.text(max_size=8),
)

VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(FIELDS + ("patterns",)), inner, max_size=5),
    ),
    max_leaves=8,
)

PATTERNS = st.sampled_from(
    ["uniform", "tornado", "transpose", "shuffle", "bit_reverse", "hotspot:1:0.8",
     "hotspot:12:0.5"]
)

#: Valid values per field: specs drawn from these are mostly accepted,
#: so the fixed-point property is exercised, not just rejection.
VALID = {
    "benchmark": st.sampled_from(["bt", "cg", "fft", "mg", "sp"]),
    "nodes": st.one_of(st.sampled_from([4, 8, 9, 16]), st.integers(2, 64)),
    "seed": st.integers(0, 1000),
    "restarts": st.integers(1, 16),
    "portfolio": st.one_of(st.none(), st.integers(1, 16)),
    "max_degree": st.integers(2, 8),
    "objective": st.sampled_from(["links", "switches", "avg-hops"]),
    "curves": st.one_of(
        st.none(),
        st.fixed_dictionaries(
            {"patterns": st.lists(PATTERNS, min_size=1, max_size=3)},
            optional={
                "points": st.integers(1, 8),
                "refine": st.integers(0, 4),
                "min_rate": st.floats(0, 1),
                "max_rate": st.floats(0, 1),
            },
        ),
    ),
    "topologies": st.lists(
        st.sampled_from(["crossbar", "mesh", "torus", "generated"]),
        min_size=1, max_size=4, unique=True,
    ),
    "topology": st.sampled_from(
        ["mesh", "torus", "crossbar", "generated", "generated-spare"]
    ),
    "pattern": PATTERNS,
    "points": st.integers(1, 10),
    "refine": st.integers(0, 6),
    "min_rate": st.floats(0, 1),
    "max_rate": st.floats(0, 1),
    "criterion": st.sampled_from(["mean-knee", "p99-knee"]),
}

KIND_FIELDS = {
    "synthesize": ("benchmark", "nodes", "seed", "restarts", "portfolio",
                   "max_degree", "objective", "curves"),
    "simulate": ("benchmark", "nodes", "seed", "restarts", "topologies"),
    "sweep": ("topology", "pattern", "benchmark", "nodes", "seed", "restarts",
              "points", "refine", "min_rate", "max_rate", "criterion"),
}


#: Fields without a default.
REQUIRED = {"synthesize": ("benchmark",), "simulate": ("benchmark",), "sweep": ()}


def _spec_of(kind, field):
    """Specs of one kind: required fields always, the others optional,
    each value drawn from ``field(name)``."""
    return st.fixed_dictionaries(
        {"kind": st.just(kind), **{name: field(name) for name in REQUIRED[kind]}},
        optional={
            name: field(name)
            for name in KIND_FIELDS[kind]
            if name not in REQUIRED[kind]
        },
    )


#: Specs whose every value is valid for its field (a few are still
#: rejected: a pattern the node count cannot serve, such as a hotspot
#: node outside the system, or ``portfolio`` together with ``restarts``).
VALID_SPECS = st.one_of([_spec_of(kind, VALID.__getitem__) for kind in JOB_KINDS])



#: Values of a field's own type that are out of range or malformed.
NEAR_MISS = st.one_of(
    st.integers(),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -1, 0, True]),
    st.text(max_size=12),
)


def _mutated(kind):
    """A valid spec of ``kind`` with one of its fields set to anything."""
    return st.builds(
        lambda spec, name, value: {**spec, name: value},
        _spec_of(kind, VALID.__getitem__),
        st.sampled_from(KIND_FIELDS[kind]),
        st.one_of(NEAR_MISS, SCALARS, VALUES),
    )


#: Valid specs with one field replaced by an arbitrary value.
MUTATED_SPECS = st.one_of([_mutated(kind) for kind in JOB_KINDS])

RAW_SPECS = st.one_of(
    VALUES,
    MUTATED_SPECS,
    st.builds(
        lambda spec, extra: {**spec, **extra},
        VALID_SPECS,
        st.dictionaries(st.sampled_from(FIELDS), VALUES, min_size=1, max_size=2),
    ),
    st.builds(
        lambda kind, fields: {"kind": kind, **fields},
        st.one_of(st.sampled_from(JOB_KINDS), SCALARS),
        st.dictionaries(st.sampled_from(FIELDS), VALUES, max_size=6),
    ),
)


def _accepted(raw):
    try:
        return canonicalize_spec(raw)
    except ServiceError:
        return None


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=st.one_of(VALID_SPECS, MUTATED_SPECS, RAW_SPECS))
def test_accepted_specs_are_canonical_fixed_points(raw):
    """Any accepted spec canonicalizes to itself, is strict JSON (no
    NaN or infinities, which other clients' parsers reject), and keys
    identically however often it is canonicalized."""
    spec = _accepted(raw)
    if spec is None:
        return
    assert json.loads(json.dumps(spec, allow_nan=False)) == spec
    again = canonicalize_spec(spec)
    assert canonical_json(again) == canonical_json(spec)
    assert job_key(again) == job_key(spec) == job_key(dict(spec))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=VALID_SPECS)
def test_accepted_patterns_run_at_the_job_size(raw):
    """A pattern an accepted spec names resolves on the spec's node
    count, so the job cannot fail on it after being scheduled."""
    spec = _accepted(raw)
    if spec is None:
        return
    if spec["kind"] == "sweep":
        patterns = [spec["pattern"]]
    else:
        patterns = (spec.get("curves") or {}).get("patterns", [])
    for pattern in patterns:
        resolve_pattern(pattern, n=spec["nodes"])


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=RAW_SPECS)
def test_rejections_are_service_errors(raw):
    """The only exception canonicalization may raise is ServiceError
    (``_accepted`` lets every other exception through)."""
    _accepted(raw)


@settings(max_examples=200, deadline=None)
@given(
    restarts=st.integers(min_value=1, max_value=64),
    objective=st.sampled_from(["links", "switches", "avg-hops"]),
)
def test_portfolio_is_a_spelling_of_restarts(restarts, objective):
    base = {"kind": "synthesize", "benchmark": "cg", "objective": objective}
    via_portfolio = canonicalize_spec(dict(base, portfolio=restarts))
    via_restarts = canonicalize_spec(dict(base, restarts=restarts))
    assert via_portfolio == via_restarts
    assert job_key(via_portfolio) == job_key(via_restarts)
