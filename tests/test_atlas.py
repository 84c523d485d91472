"""Tests for the Atlas-like probe fleet."""

import pytest

from repro.bgp.announcement import anycast_all
from repro.errors import MeasurementError
from repro.measurement.atlas import AtlasProbeFleet, select_probe_ases
from repro.measurement.ip2as import AddressPlan
from repro.measurement.ixp import IXPRegistry
from repro.measurement.traceroute import TracerouteEngine, TracerouteParams


class TestSelectProbes:
    def test_count_and_exclusion(self, small_testbed):
        probes = select_probe_ases(
            small_testbed.graph, 20, seed=2, exclude=[small_testbed.origin.asn]
        )
        assert len(probes) == 20
        assert small_testbed.origin.asn not in probes

    def test_deterministic(self, small_testbed):
        assert select_probe_ases(small_testbed.graph, 15, seed=4) == (
            select_probe_ases(small_testbed.graph, 15, seed=4)
        )

    def test_too_many_raises(self, small_testbed):
        with pytest.raises(MeasurementError):
            select_probe_ases(small_testbed.graph, 10**6)


class TestFleet:
    def make_fleet(self, testbed, rounds=2, probes=10):
        probe_ases = select_probe_ases(
            testbed.graph, probes, seed=1, exclude=[testbed.origin.asn]
        )
        engine = TracerouteEngine(
            testbed.graph,
            testbed.plan,
            IXPRegistry(),
            TracerouteParams(seed=3),
        )
        return AtlasProbeFleet(probe_ases, engine, rounds_per_config=rounds)

    @staticmethod
    def rounds_of(fleet, outcome):
        """Each round's traces, synthesized one round at a time."""
        return [
            fleet.engine.synthesize(outcome, fleet.probe_ases, [round_index])
            for round_index in range(fleet.rounds_per_config)
        ]

    def test_measures_all_rounds(self, small_testbed):
        fleet = self.make_fleet(small_testbed, rounds=3)
        outcome = small_testbed.simulator.simulate(
            anycast_all(small_testbed.origin.link_ids)
        )
        rounds = self.rounds_of(fleet, outcome)
        assert len(rounds) == 3
        for traces in rounds:
            assert 0 < len(traces) <= len(fleet.probe_ases)
            assert [t.probe_as for t in traces] == sorted(t.probe_as for t in traces)
        assert fleet.all_traceroutes(outcome) == [t for r in rounds for t in r]

    def test_all_traceroutes_flattens(self, small_testbed):
        fleet = self.make_fleet(small_testbed, rounds=2)
        outcome = small_testbed.simulator.simulate(
            anycast_all(small_testbed.origin.link_ids)
        )
        traces = fleet.all_traceroutes(outcome)
        one_by_one = [
            fleet.engine.measure(outcome, probe_as, round_index)
            for round_index in range(2)
            for probe_as in fleet.probe_ases
        ]
        assert traces == [trace for trace in one_by_one if trace is not None]

    def test_rounds_vary_artifacts(self, small_testbed):
        fleet = self.make_fleet(small_testbed, rounds=2)
        outcome = small_testbed.simulator.simulate(
            anycast_all(small_testbed.origin.link_ids)
        )
        rounds = self.rounds_of(fleet, outcome)
        # Same probes, different rounds: hop artifacts should differ for
        # at least one probe (unresponsive pattern is per-round).
        first = {t.probe_as: t.hops for t in rounds[0]}
        second = {t.probe_as: t.hops for t in rounds[1]}
        shared = set(first) & set(second)
        assert any(first[p] != second[p] for p in shared)

    def test_rejects_empty_fleet(self, small_testbed):
        engine = TracerouteEngine(
            small_testbed.graph, small_testbed.plan, IXPRegistry()
        )
        with pytest.raises(MeasurementError):
            AtlasProbeFleet([], engine)

    def test_rejects_zero_rounds(self, small_testbed):
        engine = TracerouteEngine(
            small_testbed.graph, small_testbed.plan, IXPRegistry()
        )
        with pytest.raises(MeasurementError):
            AtlasProbeFleet([1], engine, rounds_per_config=0)
