"""Unit tests for reference topology builders."""

import pytest

from repro.errors import TopologyError
from repro.topology import (
    crossbar,
    fully_connected,
    grid_dims,
    mesh,
    mesh_for,
    ring,
    torus,
    torus_for,
    torus_link_delays,
)


class TestGridDims:
    @pytest.mark.parametrize(
        "n,expected",
        [(8, (4, 2)), (9, (3, 3)), (16, (4, 4)), (12, (4, 3)), (7, (7, 1)), (1, (1, 1))],
    )
    def test_near_square_factorization(self, n, expected):
        assert grid_dims(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(TopologyError):
            grid_dims(0)


class TestMesh:
    def test_4x4_counts(self):
        top = mesh(4, 4)
        assert top.network.num_switches == 16
        assert top.network.num_links == 24  # 2 * 4 * 3
        assert top.network.max_degree() == 5  # centre switch: 1 proc + 4 links

    def test_3x3_counts(self):
        top = mesh(3, 3)
        assert top.network.num_switches == 9
        assert top.network.num_links == 12

    def test_one_processor_per_switch(self):
        top = mesh(4, 2)
        for p in range(8):
            assert top.network.processors_of(top.network.switch_of(p)) == {p}

    def test_validates(self):
        mesh(4, 4).network.validate()

    def test_rejects_bad_dims(self):
        with pytest.raises(TopologyError):
            mesh(0, 4)


class TestTorus:
    def test_4x4_has_double_link_count_shape(self):
        # 4x4 torus: 32 links (mesh 24 + 8 wraparound).
        top = torus(4, 4)
        assert top.network.num_links == 32

    def test_wraparound_skipped_on_extent_two(self):
        # A 4x2 torus adds x wraparounds only: y extent 2 already links
        # the two rows directly.
        top = torus(4, 2)
        mesh_links = mesh(4, 2).network.num_links
        assert top.network.num_links == mesh_links + 2

    def test_degrees(self):
        top = torus(4, 4)
        for s in top.network.switches:
            assert top.network.degree(s) == 5  # 1 proc + 4 links

    @pytest.mark.parametrize("w,h,wraps", [(4, 4, 8), (4, 2, 2), (3, 3, 6)])
    def test_link_delays_charge_two_cycles_per_wraparound(self, w, h, wraps):
        top = torus(w, h)
        delays = torus_link_delays(top)
        assert set(delays) == {link.link_id for link in top.network.links}
        assert sorted(set(delays.values())) == [1, 2]
        assert sum(1 for d in delays.values() if d == 2) == wraps


class TestCrossbar:
    def test_single_megaswitch(self):
        top = crossbar(16)
        assert top.network.num_switches == 1
        assert top.network.num_links == 0
        assert top.network.degree(0) == 16

    def test_validates(self):
        crossbar(8).network.validate()


class TestRing:
    def test_link_count_equals_node_count(self):
        top = ring(8)
        assert top.network.num_links == 8

    def test_rejects_tiny_ring(self):
        with pytest.raises(TopologyError):
            ring(2)


class TestFullyConnected:
    def test_link_count_is_all_pairs(self):
        top = fully_connected(6)
        assert top.network.num_links == 15

    def test_every_route_is_at_most_one_hop(self):
        from repro.model import Communication

        top = fully_connected(5)
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert top.routing.route(Communication(i, j)).num_hops == 1


class TestForHelpers:
    def test_mesh_for_uses_near_square(self):
        assert mesh_for(8).name == "mesh-4x2"
        assert mesh_for(9).name == "mesh-3x3"
        assert torus_for(16).name == "torus-4x4"
