"""Tests for spoofed traffic generation and per-link volumes."""

import random

import pytest

from repro.bgp.announcement import anycast_all
from repro.spoof.sources import SourcePlacement
from repro.spoof.traffic import (
    LinkVolumeMap,
    SpoofedTrafficGenerator,
    link_volumes,
    link_volumes_from_outcome,
    volumes_from_packets,
)

CATCHMENTS = {
    "l1": frozenset({1, 2, 3}),
    "l2": frozenset({4, 5}),
}


class TestLinkVolumes:
    def test_volume_follows_catchment(self):
        placement = SourcePlacement({1: 1, 4: 3})
        volumes = link_volumes(placement, CATCHMENTS, total_volume=4.0)
        assert volumes["l1"] == pytest.approx(1.0)
        assert volumes["l2"] == pytest.approx(3.0)

    def test_unrouted_sources_contribute_nothing(self):
        placement = SourcePlacement({99: 5, 1: 5})
        volumes = link_volumes(placement, CATCHMENTS)
        assert volumes["l1"] == pytest.approx(0.5)
        assert volumes["l2"] == pytest.approx(0.0)

    def test_all_links_present_even_when_zero(self):
        placement = SourcePlacement({1: 1})
        volumes = link_volumes(placement, CATCHMENTS)
        assert set(volumes) == {"l1", "l2"}

    def test_unrouted_volume_lands_in_unattributed(self):
        placement = SourcePlacement({99: 5, 1: 5})
        volumes = link_volumes(placement, CATCHMENTS, total_volume=2.0)
        assert volumes.unattributed == pytest.approx(1.0)
        assert volumes.attributed == pytest.approx(1.0)

    def test_volume_conservation(self):
        placement = SourcePlacement({1: 2, 4: 3, 99: 5})
        total = 7.5
        volumes = link_volumes(placement, CATCHMENTS, total_volume=total)
        assert volumes.offered == pytest.approx(total)
        assert sum(volumes.values()) + volumes.unattributed == pytest.approx(total)

    def test_fully_attributed_map_has_zero_unattributed(self):
        placement = SourcePlacement({1: 1, 4: 1})
        volumes = link_volumes(placement, CATCHMENTS)
        assert volumes.unattributed == 0.0
        assert volumes.offered == pytest.approx(1.0)

    def test_map_still_behaves_like_dict(self):
        placement = SourcePlacement({1: 1, 99: 1})
        volumes = link_volumes(placement, CATCHMENTS)
        assert isinstance(volumes, dict)
        assert isinstance(volumes, LinkVolumeMap)
        assert volumes["l1"] == pytest.approx(0.5)
        assert dict(volumes) == {"l1": 0.5, "l2": 0.0}

    def test_from_outcome_matches_catchments(self, mini_simulator):
        from tests.conftest import A, B

        outcome = mini_simulator.simulate(anycast_all(["l1", "l2"]))
        placement = SourcePlacement({A: 1, B: 1})
        volumes = link_volumes_from_outcome(placement, outcome)
        assert volumes["l1"] == pytest.approx(0.5)
        assert volumes["l2"] == pytest.approx(0.5)


    def test_later_catchment_wins_an_overlap(self):
        placement = SourcePlacement({3: 1, 4: 1})
        overlapping = {"l2": frozenset({3, 4}), "l1": frozenset({1, 2, 3})}
        volumes = link_volumes(placement, overlapping)
        assert list(volumes) == ["l2", "l1"]
        assert volumes == {"l2": 0.5, "l1": 0.5}

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_inverted_catchment_lookup(self, seed):
        """Same keys, key order, floats and ``unattributed`` as looking
        every source up in the inverted catchments (later link wins)."""
        rng = random.Random(seed)
        links = [f"l{k}" for k in rng.sample(range(8), 4)]
        catchments = {
            link: frozenset(rng.sample(range(60), rng.randint(0, 25)))
            for link in links
        }
        placement = SourcePlacement(
            {asn: rng.randint(1, 9) for asn in rng.sample(range(80), 30)}
        )
        catchment_of = {}
        for link, members in catchments.items():
            for asn in members:
                catchment_of[asn] = link
        want = LinkVolumeMap({link: 0.0 for link in catchments})
        for asn, volume in placement.volume_by_as(2.5).items():
            if asn in catchment_of:
                want[catchment_of[asn]] += volume
            else:
                want.unattributed += volume
        got = link_volumes(placement, catchments, 2.5)
        assert list(got.items()) == list(want.items())
        assert got.unattributed == want.unattributed


class TestGenerator:
    def test_packets_routed_by_catchment(self):
        placement = SourcePlacement({1: 1, 4: 1})
        generator = SpoofedTrafficGenerator(
            placement, CATCHMENTS, rng=random.Random(1)
        )
        packets = list(generator.packets(200))
        assert len(packets) == 200
        for packet in packets:
            expected = "l1" if packet.true_source_as == 1 else "l2"
            assert packet.ingress_link == expected

    def test_packet_mix_proportional_to_sources(self):
        placement = SourcePlacement({1: 9, 4: 1})
        generator = SpoofedTrafficGenerator(
            placement, CATCHMENTS, rng=random.Random(2)
        )
        packets = list(generator.packets(1000))
        from_one = sum(1 for p in packets if p.true_source_as == 1)
        assert 0.8 < from_one / 1000 < 0.98

    def test_spoofed_addresses_look_random(self):
        placement = SourcePlacement({1: 1})
        generator = SpoofedTrafficGenerator(
            placement, CATCHMENTS, rng=random.Random(3)
        )
        addresses = {p.spoofed_source for p in generator.packets(100)}
        assert len(addresses) > 90  # essentially all distinct

    def test_inactive_sources_yield_nothing(self):
        placement = SourcePlacement({999: 1})  # not in any catchment
        generator = SpoofedTrafficGenerator(placement, CATCHMENTS)
        assert list(generator.packets(10)) == []
        assert generator.active_source_ases == []

    def test_rejects_negative_count(self):
        generator = SpoofedTrafficGenerator(SourcePlacement({1: 1}), CATCHMENTS)
        with pytest.raises(ValueError):
            list(generator.packets(-1))

    def test_rejects_bad_packet_size(self):
        with pytest.raises(ValueError):
            SpoofedTrafficGenerator(
                SourcePlacement({1: 1}), CATCHMENTS, packet_size_bytes=0
            )


class TestVolumesFromPackets:
    def test_aggregates_bytes_per_link(self):
        placement = SourcePlacement({1: 1, 4: 1})
        generator = SpoofedTrafficGenerator(
            placement, CATCHMENTS, rng=random.Random(4), packet_size_bytes=10
        )
        packets = list(generator.packets(100))
        volumes = volumes_from_packets(packets)
        assert sum(volumes.values()) == pytest.approx(1000.0)
