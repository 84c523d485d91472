"""Tests for the synthetic topology generator."""

import hashlib
from dataclasses import replace

import pytest

from repro.cli import SCALES
from repro.errors import TopologyError
from repro.topology.generator import (
    GeneratedTopology,
    TopologyParams,
    generate_topology,
)
from repro.topology.relationships import Relationship
from repro.topology.serialization import dumps_as_rel

#: SHA-256 of the as-rel dump of the ``SCALES`` topologies, by scale and
#: seed.  Every testbed, schedule and pinned digest downstream is built
#: on these graphs, so a generator speed-up must leave them unchanged.
EDGE_DIGESTS = {
    ("small", 0): "15ef45435adad5ed522f26914019c1afa1b34dcabd632e3b48e0a56882b35b04",
    ("small", 1): "9532050ae3df6eff8b902472feee4a2fb6629daabea6e06ebeefd2bcdb765bef",
    ("small", 2): "a335a6ce1e291eae05589e4240b7110acb3f5190c0fa0dbefc74b31965add1d6",
    ("paper", 0): "776322bf31fe8b3483bab5c077f424a65934c4304e29d0017c320bc7156af3b2",
    ("paper", 1): "68a3bc213b37970cd4e89856143f3cd8ac192f85d39bd79d97f0f0eea07b7357",
    ("paper", 2): "6ddd37b55473bf2da6f3e60fc9e12ae787fd47f9eeb490cb9d340899e3e0044a",
}


class TestParams:
    def test_total_ases(self):
        params = TopologyParams(num_tier1=3, num_transit=10, num_stub=20)
        assert params.total_ases == 33

    def test_rejects_no_tier1(self):
        with pytest.raises(TopologyError):
            TopologyParams(num_tier1=0)

    def test_rejects_negative_counts(self):
        with pytest.raises(TopologyError):
            TopologyParams(num_transit=-1)

    def test_rejects_bad_provider_choices(self):
        with pytest.raises(TopologyError):
            TopologyParams(transit_provider_choices=(3, 1))
        with pytest.raises(TopologyError):
            TopologyParams(stub_provider_choices=(0, 1))

    def test_rejects_bad_probability(self):
        with pytest.raises(TopologyError):
            TopologyParams(transit_peering_probability=1.5)
        with pytest.raises(TopologyError):
            TopologyParams(stub_multihome_fraction=-0.1)


class TestGeneration:
    def test_counts_match_params(self):
        params = TopologyParams(num_tier1=4, num_transit=20, num_stub=50, seed=1)
        topo = generate_topology(params)
        assert len(topo.tier1) == 4
        assert len(topo.transit) == 20
        assert len(topo.stubs) == 50
        assert len(topo.graph) == params.total_ases

    def test_graph_validates(self):
        generate_topology(TopologyParams(seed=2)).graph.validate()

    def test_tier1_forms_clique(self):
        topo = generate_topology(TopologyParams(num_tier1=5, seed=3))
        for i, a in enumerate(topo.tier1):
            for b in topo.tier1[i + 1:]:
                assert topo.graph.relationship(a, b) is Relationship.PEER

    def test_tier1_has_no_providers(self):
        topo = generate_topology(TopologyParams(seed=4))
        for asn in topo.tier1:
            assert topo.graph.providers(asn) == []

    def test_stubs_have_providers_no_customers(self):
        topo = generate_topology(TopologyParams(seed=5))
        for asn in topo.stubs:
            assert topo.graph.providers(asn)
            assert topo.graph.customers(asn) == []

    def test_deterministic_for_seed(self):
        params = TopologyParams(num_transit=30, num_stub=60, seed=9)
        first = generate_topology(params)
        second = generate_topology(params)
        assert list(first.graph.links()) == list(second.graph.links())

    def test_different_seeds_differ(self):
        a = generate_topology(TopologyParams(seed=1))
        b = generate_topology(TopologyParams(seed=2))
        assert list(a.graph.links()) != list(b.graph.links())

    def test_all_ases_property(self):
        topo = generate_topology(TopologyParams(seed=6))
        assert set(topo.all_ases) == set(topo.graph.ases)

    def test_heavy_tail_degree(self):
        """Preferential attachment should produce a skewed transit degree
        distribution: the max transit degree well above the median."""
        topo = generate_topology(
            TopologyParams(num_transit=80, num_stub=400, seed=7)
        )
        degrees = sorted(topo.graph.degree(asn) for asn in topo.transit)
        median = degrees[len(degrees) // 2]
        assert degrees[-1] >= 2 * median

    def test_no_peering_when_probability_zero(self):
        topo = generate_topology(
            TopologyParams(
                num_tier1=1, transit_peering_probability=0.0, seed=8
            )
        )
        for asn in topo.transit:
            assert topo.graph.peers(asn) == []

    def test_zero_stubs(self):
        topo = generate_topology(TopologyParams(num_stub=0, seed=1))
        assert topo.stubs == []
        topo.graph.validate()

    def test_multihoming_fraction_effective(self):
        topo = generate_topology(
            TopologyParams(
                num_stub=300, stub_multihome_fraction=1.0, seed=10
            )
        )
        multihomed = sum(
            1 for asn in topo.stubs if len(topo.graph.providers(asn)) >= 2
        )
        assert multihomed == len(topo.stubs)


@pytest.mark.parametrize("scale, seed", sorted(EDGE_DIGESTS))
def test_scale_edge_lists_are_pinned(scale, seed):
    graph = generate_topology(replace(SCALES[scale], seed=seed)).graph
    digest = hashlib.sha256(dumps_as_rel(graph).encode()).hexdigest()
    assert digest == EDGE_DIGESTS[(scale, seed)]
