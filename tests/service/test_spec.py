"""Spec canonicalization, job keys, and the bundle determinism contract."""

import pytest

from repro.errors import ServiceError
from repro.eval.parallel import ResultCache
from repro.eval.serialize import canonical_json
from repro.service import JOB_KINDS, SERVICE_SCHEMA, canonicalize_spec, execute_spec, job_key


class TestCanonicalize:
    def test_synthesize_fills_every_default(self):
        spec = canonicalize_spec({"kind": "synthesize", "benchmark": "cg"})
        assert spec == {
            "kind": "synthesize",
            "benchmark": "cg",
            "nodes": 16,
            "seed": 0,
            "restarts": 8,
            "max_degree": 5,
            "portfolio": None,
            "curves": None,
        }

    def test_shorthand_and_explicit_defaults_share_a_key(self):
        short = canonicalize_spec({"kind": "synthesize", "benchmark": "cg"})
        long = canonicalize_spec(
            {
                "kind": "synthesize", "benchmark": "cg", "nodes": 16,
                "seed": 0, "restarts": 8, "max_degree": 5,
                "portfolio": None, "curves": None,
            }
        )
        assert short == long
        assert job_key(short) == job_key(long)

    def test_simulate_topology_order_is_canonicalized(self):
        a = canonicalize_spec(
            {"kind": "simulate", "benchmark": "cg", "topologies": ["mesh", "generated"]}
        )
        b = canonicalize_spec(
            {"kind": "simulate", "benchmark": "cg", "topologies": ["generated", "mesh"]}
        )
        assert a["topologies"] == ["generated", "mesh"]
        assert job_key(a) == job_key(b)

    def test_simulate_duplicate_topologies_rejected(self):
        with pytest.raises(ServiceError, match="duplicates"):
            canonicalize_spec(
                {"kind": "simulate", "benchmark": "cg", "topologies": ["mesh", "mesh"]}
            )

    def test_sweep_defaults_and_pattern_canonicalization(self):
        spec = canonicalize_spec({"kind": "sweep", "pattern": "hotspot:1:0.8"})
        assert spec["topology"] == "mesh"
        assert spec["pattern"] == "hotspot:1:0.8"
        assert spec["points"] == 6 and spec["refine"] == 4
        assert spec["criterion"] == "mean-knee"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError, match="'kind'"):
            canonicalize_spec({"kind": "destroy", "benchmark": "cg"})

    def test_unknown_field_rejected_not_defaulted(self):
        with pytest.raises(ServiceError, match="unknown field"):
            canonicalize_spec(
                {"kind": "synthesize", "benchmark": "cg", "restart": 4}
            )

    def test_non_object_spec_rejected(self):
        with pytest.raises(ServiceError, match="JSON object"):
            canonicalize_spec(["synthesize"])

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ServiceError, match="'seed'"):
            canonicalize_spec(
                {"kind": "synthesize", "benchmark": "cg", "seed": True}
            )

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ServiceError, match="'nodes'"):
            canonicalize_spec({"kind": "synthesize", "benchmark": "cg", "nodes": 1})
        with pytest.raises(ServiceError, match="'restarts'"):
            canonicalize_spec(
                {"kind": "synthesize", "benchmark": "cg", "restarts": 0}
            )

    def test_objective_requires_portfolio(self):
        with pytest.raises(ServiceError, match="'objective'"):
            canonicalize_spec(
                {"kind": "synthesize", "benchmark": "cg", "objective": "links"}
            )

    def test_portfolio_spec_carries_objective(self):
        spec = canonicalize_spec(
            {"kind": "synthesize", "benchmark": "cg", "portfolio": 3}
        )
        assert spec["portfolio"] == 3
        assert spec["objective"] == "links"

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ServiceError, match="'benchmark'"):
            canonicalize_spec({"kind": "synthesize", "benchmark": "linpack"})

    @pytest.mark.parametrize(
        "raw,field",
        [
            ({"kind": "sweep", "pattern": "transpose", "nodes": 8}, "pattern"),
            ({"kind": "sweep", "pattern": "shuffle", "nodes": 12,
              "topology": "torus"}, "pattern"),
            ({"kind": "synthesize", "benchmark": "cg", "nodes": 8,
              "curves": {"patterns": ["uniform", "transpose"]}}, "curves.patterns"),
            ({"kind": "synthesize", "benchmark": "bt", "nodes": 9,
              "curves": {"patterns": ["bit_reverse"]}}, "curves.patterns"),
        ],
    )
    def test_pattern_size_violation_rejected(self, raw, field):
        """A pattern the job's node count cannot serve is refused up
        front instead of returning a bundle labelled with it."""
        with pytest.raises(ServiceError) as excinfo:
            canonicalize_spec(raw)
        message = str(excinfo.value)
        assert message.startswith(f"{field!r}: pattern spec ")
        assert f"n={raw['nodes']} (nearest valid sizes:" in message

    def test_pattern_at_a_valid_size_accepted(self):
        spec = canonicalize_spec({"kind": "sweep", "pattern": "transpose", "nodes": 16})
        assert spec["pattern"] == "transpose"
        spec = canonicalize_spec(
            {"kind": "synthesize", "benchmark": "cg", "nodes": 8,
             "curves": {"patterns": ["shuffle", "bit_complement"]}}
        )
        assert spec["curves"]["patterns"] == ["shuffle", "bit_complement"]

    def test_unknown_pattern_is_a_service_error(self):
        with pytest.raises(ServiceError, match="'pattern': unknown pattern"):
            canonicalize_spec({"kind": "sweep", "pattern": "wormhole"})
        with pytest.raises(ServiceError, match="'curves.patterns': unknown pattern"):
            canonicalize_spec(
                {"kind": "synthesize", "benchmark": "cg",
                 "curves": {"patterns": ["wormhole"]}}
            )

    def test_curves_request_canonicalized(self):
        spec = canonicalize_spec(
            {"kind": "synthesize", "benchmark": "cg",
             "curves": {"patterns": ["uniform"]}}
        )
        assert spec["curves"] == {
            "patterns": ["uniform"], "points": 4, "refine": 2,
            "min_rate": 0.05, "max_rate": 1.0,
        }


class TestJobKey:
    def test_key_is_sha256_hex(self):
        key = job_key(canonicalize_spec({"kind": "synthesize", "benchmark": "cg"}))
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_different_specs_different_keys(self):
        base = {"kind": "synthesize", "benchmark": "cg", "nodes": 8}
        keys = {
            job_key(canonicalize_spec(dict(base, seed=s))) for s in range(4)
        }
        assert len(keys) == 4

    def test_kinds_never_collide(self):
        keys = {
            job_key(canonicalize_spec({"kind": k, "benchmark": "cg"}))
            for k in JOB_KINDS
        }
        assert len(keys) == len(JOB_KINDS)


class TestExecute:
    SPEC = {"kind": "synthesize", "benchmark": "cg", "nodes": 8, "restarts": 2}

    def test_synthesize_bundle_shape(self, tmp_path):
        spec = canonicalize_spec(self.SPEC)
        bundle = execute_spec(spec, cache=ResultCache(str(tmp_path / "c")))
        assert bundle["schema"] == SERVICE_SCHEMA
        assert bundle["kind"] == "synthesize"
        assert bundle["spec"] == spec
        assert bundle["design"]["num_processors"] == 8
        cert = bundle["network_certificate"]
        assert cert["pattern_name"] == "cg-8"
        assert all(f["status"] == "pass" for f in cert["findings"])
        assert bundle["portfolio"] is None
        assert bundle["curves"] == []

    def test_bundle_byte_identical_cold_vs_warm(self, tmp_path):
        spec = canonicalize_spec(self.SPEC)
        cache = ResultCache(str(tmp_path / "c"))
        cold = canonical_json(execute_spec(spec, cache=cache))
        warm = canonical_json(execute_spec(spec, cache=cache))
        uncached = canonical_json(execute_spec(spec, cache=None))
        assert cold == warm == uncached

    def test_infeasible_synthesis_is_a_service_error(self):
        spec = canonicalize_spec(dict(self.SPEC, max_degree=2))
        with pytest.raises(ServiceError, match="infeasible"):
            execute_spec(spec)

    def test_simulate_bundle_has_one_result_per_topology(self, tmp_path):
        spec = canonicalize_spec(
            {"kind": "simulate", "benchmark": "cg", "nodes": 8,
             "topologies": ["mesh"]}
        )
        bundle = execute_spec(spec, cache=ResultCache(str(tmp_path / "c")))
        assert set(bundle["results"]) == {"mesh"}
        assert bundle["results"]["mesh"]["delivered_packets"] > 0
