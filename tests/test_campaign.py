"""Tests for the end-to-end measurement campaign."""

import pytest

from repro.bgp.announcement import AnnouncementConfig, anycast_all
from repro.measurement.campaign import MeasurementCampaign
from repro.measurement.traceroute import Traceroute
from repro.obs.metrics import MetricsRegistry


def anycast_outcome(testbed):
    return testbed.simulator.simulate(anycast_all(testbed.origin.link_ids))


class TestCampaign:
    def test_measures_a_substantial_universe(self, small_testbed):
        measurement = small_testbed.campaign.measure(anycast_outcome(small_testbed))
        # Feeds + probes cover many ASes via on-path observations.
        assert len(measurement.assignment) > 50
        assert measurement.bgp_paths_observed > 0
        assert measurement.traceroutes_observed > 0

    def test_assignments_mostly_match_ground_truth(self, small_testbed):
        outcome = anycast_outcome(small_testbed)
        measurement = small_testbed.campaign.measure(outcome)
        agree = sum(
            1
            for source, link in measurement.assignment.items()
            if outcome.catchment_of(source) == link
        )
        assert agree / len(measurement.assignment) > 0.9

    def test_origin_not_a_source(self, small_testbed):
        measurement = small_testbed.campaign.measure(anycast_outcome(small_testbed))
        assert small_testbed.origin.asn not in measurement.assignment

    def test_multi_catchment_fraction_small_but_tracked(self, small_testbed):
        measurement = small_testbed.campaign.measure(anycast_outcome(small_testbed))
        assert 0.0 <= measurement.stats.multi_catchment_fraction < 0.3

    def test_withdrawal_changes_measured_assignments(self, small_testbed):
        links = small_testbed.origin.link_ids
        full = small_testbed.campaign.measure(anycast_outcome(small_testbed))
        partial_outcome = small_testbed.simulator.simulate(
            AnnouncementConfig(announced=frozenset(links[1:]))
        )
        partial = small_testbed.campaign.measure(partial_outcome)
        withdrawn_link = links[0]
        assert withdrawn_link not in set(partial.assignment.values())
        moved = [
            source
            for source, link in full.assignment.items()
            if link == withdrawn_link and partial.assignment.get(source)
        ]
        assert moved  # previously-l0 sources observed elsewhere now

    def test_assignment_links_are_real(self, small_testbed):
        measurement = small_testbed.campaign.measure(anycast_outcome(small_testbed))
        valid_links = set(small_testbed.origin.link_ids)
        assert set(measurement.assignment.values()) <= valid_links


class _FixedFleet:
    """A probe fleet that always returns the same traceroutes."""

    def __init__(self, traceroutes):
        self.traceroutes = list(traceroutes)

    def all_traceroutes(self, outcome):
        return list(self.traceroutes)


class TestUnattributedTraceroutes:
    """A reached, repaired trace whose AS path names no origin link is
    neither usable nor dropped; the campaign counts it on its own."""

    def stray_trace(self, testbed):
        origin = testbed.origin
        stranger = next(
            asn
            for asn in sorted(testbed.graph.ases)
            if asn != origin.asn and origin.link_id_toward(asn) is None
        )
        target = testbed.plan.target_address()
        # Repairs to the AS path (stranger, origin): stranger is no provider.
        return Traceroute(
            probe_as=stranger,
            target=target,
            hops=(testbed.plan.router_address(stranger, 0), target),
            reached_target=True,
        )

    def measure_with(self, testbed, traceroutes):
        campaign = testbed.campaign
        stub = MeasurementCampaign(
            campaign.origin,
            campaign.collectors,
            _FixedFleet(traceroutes),
            campaign.mapper,
        )
        registry = MetricsRegistry()
        measurement = stub.measure(anycast_outcome(testbed), registry=registry)
        return measurement, registry.counter_totals()

    def test_counted_as_unattributed(self, small_testbed):
        measurement, totals = self.measure_with(
            small_testbed, [self.stray_trace(small_testbed)] * 2
        )
        assert totals["repro_campaign_traceroutes_unattributed_total"] == 2
        assert totals["repro_campaign_traceroutes_total"] == 0
        assert measurement.traceroutes_observed == 0
        assert measurement.traceroutes_dropped == {}

    def test_contributes_no_observation(self, small_testbed):
        stray, _ = self.measure_with(small_testbed, [self.stray_trace(small_testbed)])
        bare, totals = self.measure_with(small_testbed, [])
        assert totals["repro_campaign_traceroutes_unattributed_total"] == 0
        assert stray.assignment == bare.assignment
        assert stray.stats == bare.stats
