"""Round-trip and stability tests for the result serialization layer."""

import json

import pytest

from repro.eval.serialize import (
    SerializationError,
    canonical_json,
    config_from_dict,
    config_to_dict,
    decode_link_utilization,
    decode_resource,
    design_from_dict,
    design_to_dict,
    encode_link_utilization,
    encode_resource,
    loadpoint_from_dict,
    loadpoint_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.simulator import SimConfig, simulate
from repro.simulator.openloop import LoadPoint, run_open_loop
from repro.topology import mesh
from repro.topology import crossbar
from repro.workloads import PhaseProgramBuilder


def _small_result():
    program = (
        PhaseProgramBuilder(4, "tiny")
        .compute(10)
        .phase([(0, 1, 64), (2, 3, 128)])
        .phase([(1, 0, 32)])
        .build()
    )
    return simulate(program, crossbar(4), SimConfig())


class TestResourceEncoding:
    def test_known_encodings(self):
        assert encode_resource(("link", 3, 0)) == "link:3:0"
        assert encode_resource(("link", 12, 1)) == "link:12:1"
        assert encode_resource(("inj", 2)) == "inj:2"
        assert encode_resource(("ej", 15)) == "ej:15"

    def test_decode_inverts_encode(self):
        for res in (("link", 0, 0), ("link", 7, 1), ("inj", 0), ("ej", 9)):
            assert decode_resource(encode_resource(res)) == res

    @pytest.mark.parametrize(
        "bad",
        [
            ("queue", 1),  # unknown kind
            ("link", 3),  # missing direction
            ("link", 3, 0, 1),  # extra field
            ("inj", 1, 2),  # extra field
            ("link", "3", 0),  # non-integer field
            ("link", True, 0),  # bool is not an id
            (),
            "link:3:0",  # not a tuple
        ],
    )
    def test_encode_rejects_malformed(self, bad):
        with pytest.raises(SerializationError):
            encode_resource(bad)

    @pytest.mark.parametrize(
        "bad", ["queue:1", "link:3", "link:3:0:1", "link:x:0", "", "inj"]
    )
    def test_decode_rejects_malformed(self, bad):
        with pytest.raises(SerializationError):
            decode_resource(bad)

    def test_utilization_round_trip_and_key_order(self):
        util = {("link", 10, 1): 0.5, ("inj", 2): 0.25, ("link", 2, 0): 0.75}
        encoded = encode_link_utilization(util)
        assert list(encoded) == sorted(encoded)
        assert decode_link_utilization(encoded) == util


class TestResultRoundTrip:
    def test_result_survives_json(self):
        result = _small_result()
        raw = json.loads(json.dumps(result_to_dict(result)))
        restored = result_from_dict(raw)
        assert restored == result

    def test_round_trip_is_canonically_stable(self):
        """to_dict → JSON → from_dict → to_dict is a fixed point: the
        determinism harness's byte-identity notion is well defined."""
        result = _small_result()
        once = result_to_dict(result)
        twice = result_to_dict(result_from_dict(json.loads(json.dumps(once))))
        assert canonical_json(once) == canonical_json(twice)

    def test_config_round_trip(self):
        config = SimConfig(num_vcs=2, deadlock_threshold=123)
        assert config_from_dict(config_to_dict(config)) == config

    def test_canonical_json_sorts_and_strips(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


class TestDesignRoundTrip:
    """Lossless GeneratedDesign serialization (the synthesis-cell payload)."""

    @pytest.fixture(scope="class")
    def design(self):
        from repro.synthesis import generate_network
        from repro.workloads import benchmark

        pattern = benchmark("cg", 8).pattern
        return pattern, generate_network(pattern, seed=0, restarts=16)

    def test_round_trip_is_canonically_stable(self, design):
        pattern, generated = design
        raw = json.loads(json.dumps(design_to_dict(generated)))
        restored = design_from_dict(raw, pattern)
        assert canonical_json(design_to_dict(restored)) == canonical_json(
            design_to_dict(generated)
        )

    def test_round_trip_preserves_structure(self, design):
        pattern, generated = design
        restored = design_from_dict(design_to_dict(generated), pattern)
        assert restored.num_switches == generated.num_switches
        assert restored.num_links == generated.num_links
        assert restored.switch_map == generated.switch_map
        assert restored.pipe_links == generated.pipe_links
        assert restored.stats == generated.stats
        assert restored.seed == generated.seed
        assert (
            restored.certificate.contention_free
            == generated.certificate.contention_free
        )
        # Every route resolves to the same switch path.
        for comm in pattern.communications:
            assert (
                restored.topology.routing.route(comm).hops
                == generated.topology.routing.route(comm).hops
            )

    def test_partition_result_is_not_serialized(self, design):
        """A design carries no in-process PartitionResult (every design
        comes out of a serialized portfolio cell); the stats summary
        is what survives the JSON round trip."""
        pattern, generated = design
        assert not hasattr(generated, "result")
        restored = design_from_dict(design_to_dict(generated), pattern)
        assert restored.stats == generated.stats
        assert restored.stats.bisections > 0

    def test_pattern_name_mismatch_rejected(self, design):
        from repro.workloads import benchmark

        pattern, generated = design
        with pytest.raises(SerializationError, match="pattern"):
            design_from_dict(design_to_dict(generated), benchmark("mg", 8).pattern)


class TestLoadPointRoundTrip:
    def test_synthetic_point_survives_json(self):
        point = LoadPoint(
            offered_flits_per_node_cycle=0.3,
            accepted_flits_per_node_cycle=0.28,
            avg_latency=21.5,
            delivered=144,
            saturated=False,
            p50_latency=19,
            p95_latency=44,
            p99_latency=61,
        )
        raw = json.loads(json.dumps(loadpoint_to_dict(point)))
        assert loadpoint_from_dict(raw) == point

    def test_percentile_fields_serialized(self):
        raw = loadpoint_to_dict(LoadPoint(0.1, 0.09, 10.0, 5, False, 9, 12, 14))
        assert raw["p50_latency"] == 9
        assert raw["p95_latency"] == 12
        assert raw["p99_latency"] == 14

    def test_measured_point_round_trips(self):
        point = run_open_loop(
            mesh(2, 2), 0.2,
            warmup_cycles=100, measure_cycles=300, drain_cycles=300,
        )
        assert point.delivered > 0
        assert 0 < point.p50_latency <= point.p95_latency <= point.p99_latency
        raw = json.loads(json.dumps(loadpoint_to_dict(point)))
        restored = loadpoint_from_dict(raw)
        assert restored == point
        assert canonical_json(loadpoint_to_dict(restored)) == canonical_json(
            loadpoint_to_dict(point)
        )
