"""Tests for the synthetic traffic suite and its registry."""

import random

import pytest

from repro.errors import SimulationError
from repro.sweeps.patterns import (
    adversarial_pattern,
    adversarial_permutation,
    bit_complement_pattern,
    bit_reverse_pattern,
    bit_rotation_pattern,
    canonical_spec,
    hotspot_pattern,
    pattern_catalog,
    pattern_entries,
    pattern_names,
    register_pattern,
    resolve_pattern,
    shuffle_pattern,
    size_violation,
    tornado_pattern,
    transpose_pattern,
)
from repro.topology import mesh, torus


class TestRegistry:
    def test_canonical_families_registered(self):
        names = pattern_names()
        for name in (
            "uniform", "neighbor", "tornado", "transpose", "bit_complement",
            "bit_reverse", "bit_rotation", "shuffle", "hotspot", "adversarial",
        ):
            assert name in names

    def test_hotspot_registered_in_patterns_dict(self):
        """Regression: hotspot was defined but never registered, so the
        pattern registry silently lacked it."""
        assert "hotspot" in pattern_names()
        rng = random.Random(0)
        fn = resolve_pattern("hotspot")
        hits = sum(fn(5, 8, rng) == 0 for _ in range(400))
        assert 120 <= hits <= 280  # default bias 0.5 toward node 0

    def test_catalog_covers_every_name(self):
        catalog = pattern_catalog()
        assert set(catalog) == set(pattern_names())
        assert all(catalog.values())
        assert [e.name for e in pattern_entries()] == sorted(catalog)

    def test_register_and_resolve_custom_pattern(self):
        register_pattern(
            "everyone-to-zero",
            lambda params, topology: (lambda s, n, rng: 0 if s else 1),
            description="test-only",
        )
        try:
            fn = resolve_pattern("everyone-to-zero")
            assert fn(5, 8, random.Random(0)) == 0
        finally:
            from repro.sweeps.patterns import _REGISTRY

            del _REGISTRY["everyone-to-zero"]

    def test_register_rejects_unknown_size_requirement(self):
        with pytest.raises(SimulationError, match="size requirement"):
            register_pattern("odd-only", lambda params, topology: None, requires="odd")

    def test_register_rejects_colon_names(self):
        with pytest.raises(SimulationError):
            register_pattern("a:b", lambda params, topology: None)

    def test_unknown_spec_raises(self):
        with pytest.raises(SimulationError, match="unknown pattern"):
            resolve_pattern("wormhole")


class TestHotspotSpec:
    def test_factory_spec_parses_node_and_bias(self):
        rng = random.Random(0)
        fn = resolve_pattern("hotspot:3:0.8", n=8)
        hits = sum(fn(src, 8, rng) == 3 for src in range(8) for _ in range(50))
        assert hits > 0.6 * 8 * 50  # ~0.8 bias plus uniform spillover

    def test_defaults(self):
        assert canonical_spec("hotspot") == "hotspot:0:0.5"
        assert canonical_spec("hotspot:7") == "hotspot:7:0.5"

    def test_canonicalization_normalizes_formatting(self):
        assert canonical_spec("hotspot:03:0.50") == "hotspot:3:0.5"
        assert canonical_spec("hotspot:3:1") == "hotspot:3:1"

    def test_bad_bias_rejected(self):
        with pytest.raises(SimulationError, match="bias"):
            resolve_pattern("hotspot:0:1.5")

    def test_bad_node_rejected(self):
        with pytest.raises(SimulationError, match="node"):
            resolve_pattern("hotspot:-1:0.5")
        with pytest.raises(SimulationError, match="outside range"):
            resolve_pattern("hotspot:8:0.5", n=8)

    def test_malformed_params_rejected(self):
        with pytest.raises(SimulationError):
            resolve_pattern("hotspot:x:0.5")
        with pytest.raises(SimulationError):
            resolve_pattern("hotspot:0:0.5:9")

    def test_non_parameterized_family_rejects_params(self):
        with pytest.raises(SimulationError, match="takes no parameters"):
            canonical_spec("tornado:3")

    def test_hotspot_never_returns_source(self):
        rng = random.Random(2)
        fn = hotspot_pattern(hotspot=3, bias=1.0)
        assert all(fn(3, 8, rng) != 3 for _ in range(100))


class TestSizeRequirements:
    """Incompatible sizes raise on every path — resolution and the
    primitive itself — with one message naming the spec, ``n`` and the
    nearest valid sizes; nothing degrades to uniform under the label."""

    @pytest.mark.parametrize(
        "spec", ["transpose", "bit_complement", "bit_reverse", "bit_rotation", "shuffle"]
    )
    def test_strict_resolve_raises_on_bad_size(self, spec):
        with pytest.raises(SimulationError, match="requires"):
            resolve_pattern(spec, n=12)

    @pytest.mark.parametrize(
        "spec", ["transpose", "bit_complement", "bit_reverse", "bit_rotation", "shuffle"]
    )
    def test_strict_resolve_names_the_violating_pattern(self, spec):
        with pytest.raises(SimulationError, match=f"pattern spec '{spec}'"):
            resolve_pattern(spec, n=12)

    @pytest.mark.parametrize(
        "spec,n,sizes",
        [("transpose", 12, "9 and 16"), ("shuffle", 12, "8 and 16")],
    )
    def test_strict_error_reports_nearest_valid_sizes(self, spec, n, sizes):
        with pytest.raises(SimulationError) as excinfo:
            resolve_pattern(spec, n=n)
        message = str(excinfo.value)
        assert message == size_violation(spec, n)
        assert f"n={n}" in message
        assert f"nearest valid sizes: {sizes}" in message

    @pytest.mark.parametrize(
        "spec,good_n", [("transpose", 16), ("bit_reverse", 16), ("shuffle", 8)]
    )
    def test_strict_resolve_accepts_good_size(self, spec, good_n):
        assert callable(resolve_pattern(spec, n=good_n))

    @pytest.mark.parametrize(
        "fn,name,sizes",
        [
            (transpose_pattern, "transpose", "9 and 16"),
            (bit_complement_pattern, "bit_complement", "8 and 16"),
            (bit_reverse_pattern, "bit_reverse", "8 and 16"),
            (bit_rotation_pattern, "bit_rotation", "8 and 16"),
            (shuffle_pattern, "shuffle", "8 and 16"),
        ],
    )
    def test_primitive_raises_on_bad_size(self, fn, name, sizes):
        with pytest.raises(SimulationError) as excinfo:
            fn(0, 12, random.Random(0))
        assert str(excinfo.value) == size_violation(name, 12)
        assert f"pattern spec '{name}'" in str(excinfo.value)
        assert f"n=12 (nearest valid sizes: {sizes})" in str(excinfo.value)

    @pytest.mark.parametrize(
        "spec,n",
        [("transpose", 16), ("shuffle", 8), ("uniform", 7), ("hotspot:3:0.8", 12),
         ("tornado", 5), ("adversarial", 6)],
    )
    def test_size_violation_none_when_runnable(self, spec, n):
        assert size_violation(spec, n) is None

    @pytest.mark.parametrize("spec,n", [("hotspot:8", 8), ("hotspot:100:0.2", 16)])
    def test_size_violation_names_an_out_of_range_hotspot(self, spec, n):
        with pytest.raises(SimulationError) as excinfo:
            resolve_pattern(spec, n=n)
        assert str(excinfo.value) == size_violation(spec, n)
        assert f"outside range(0, {n})" in str(excinfo.value)

    def test_size_violation_rejects_unknown_spec(self):
        with pytest.raises(SimulationError, match="unknown pattern"):
            size_violation("wormhole", 8)


class TestStructuredPatterns:
    def test_tornado(self):
        rng = random.Random(0)
        assert tornado_pattern(0, 8, rng) == 4
        assert tornado_pattern(6, 8, rng) == 2

    def test_transpose_values(self):
        rng = random.Random(0)
        assert transpose_pattern(1, 16, rng) == 4
        assert transpose_pattern(14, 16, rng) == 11

    def test_bit_complement(self):
        rng = random.Random(0)
        assert bit_complement_pattern(0b0110, 16, rng) == 0b1001

    def test_bit_reverse(self):
        rng = random.Random(0)
        assert bit_reverse_pattern(0b0011, 16, rng) == 0b1100

    def test_bit_rotation_and_shuffle_are_inverses(self):
        rng = random.Random(0)
        # 0b0000 and 0b1111 are rotation fixed points (uniform draws);
        # every other address rotates right then shuffles back exactly.
        for src in range(1, 15):
            rotated = bit_rotation_pattern(src, 16, rng)
            assert shuffle_pattern(rotated, 16, rng) == src

    def test_fixed_points_draw_uniform_not_self(self):
        rng = random.Random(0)
        for _ in range(50):
            assert transpose_pattern(0, 16, rng) != 0  # diagonal
            assert shuffle_pattern(15, 16, rng) != 15  # all-ones cycle


class TestAdversarial:
    def test_permutation_is_valid_derangement(self):
        top = mesh(4, 4)
        perm = adversarial_permutation(top)
        assert sorted(perm) == list(range(16))
        assert sorted(perm.values()) == list(range(16))
        assert all(perm[s] != s for s in perm)

    def test_permutation_loads_a_channel_heavily(self):
        """The whole point: peak channel load must exceed a permutation
        with no overlap (load 1)."""
        from repro.model.message import Communication

        top = mesh(4, 4)
        perm = adversarial_permutation(top)
        loads = {}
        for src, dest in perm.items():
            for hop in top.routing.route(Communication(src, dest)).hops:
                loads[hop] = loads.get(hop, 0) + 1
        assert max(loads.values()) >= 3

    def test_deterministic(self):
        top = torus(4, 2)
        assert adversarial_permutation(top) == adversarial_permutation(top)

    def test_pattern_never_returns_source(self):
        top = mesh(2, 2)
        fn = adversarial_pattern(top)
        rng = random.Random(0)
        assert all(fn(s, 4, rng) != s for s in range(4) for _ in range(20))

    def test_resolve_requires_topology(self):
        with pytest.raises(SimulationError, match="routing-aware"):
            resolve_pattern("adversarial")

    def test_resolve_with_topology(self):
        top = mesh(2, 2)
        fn = resolve_pattern("adversarial", topology=top)
        assert callable(fn)

    def test_single_node_rejected(self):
        with pytest.raises(SimulationError):
            adversarial_permutation(mesh(1, 1))
