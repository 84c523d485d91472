"""Tests for the traceroute engine."""

import random
import zlib

import pytest

from repro.bgp.announcement import anycast_all
from repro.bgp.policy import PolicyModel
from repro.bgp.simulator import RoutingSimulator
from repro.core.engine import SimulationEngine
from repro.errors import MeasurementError, SimulationError
from repro.measurement.ip2as import AddressPlan, IPToASMapper
from repro.measurement.ixp import IXPRegistry
from repro.measurement.traceroute import Traceroute, TracerouteEngine, TracerouteParams
from bgp_reference import RouteMap
from tests.conftest import A, C, ORIGIN, build_mini_internet


def make_tracer(**params):
    mini = build_mini_internet()
    policy = PolicyModel(
        mini.graph, policy_noise=0.0, loop_prevention_disabled_fraction=0.0
    )
    simulator = RoutingSimulator(mini.graph, mini.origin, policy)
    outcome = SimulationEngine(simulator).simulate(anycast_all(["l1", "l2"]))
    plan = AddressPlan(mini.graph.ases, ORIGIN)
    engine = TracerouteEngine(
        mini.graph, plan, IXPRegistry(), TracerouteParams(**params)
    )
    return engine, outcome, plan


CLEAN = dict(
    unresponsive_rate=0.0,
    border_sharing_rate=0.0,
    path_error_rate=0.0,
    truncation_rate=0.0,
    divergence_rate=0.0,
)


class TestCleanMeasurements:
    def test_reaches_target(self):
        engine, outcome, plan = make_tracer(**CLEAN)
        trace = engine.measure(outcome, A)
        assert trace.reached_target
        assert trace.hops[-1] == plan.target_address()

    def test_hops_follow_forwarding_path(self):
        engine, outcome, plan = make_tracer(**CLEAN, max_routers_per_as=1)
        mapper = IPToASMapper(plan)
        trace = engine.measure(outcome, C)
        hop_ases = [mapper.map_address(hop) for hop in trace.hops]
        collapsed = []
        for asn in hop_ases:
            if not collapsed or collapsed[-1] != asn:
                collapsed.append(asn)
        assert tuple(collapsed) == outcome.forwarding_path(C)

    def test_deterministic_per_round(self):
        engine, outcome, _ = make_tracer(**CLEAN)
        first = engine.measure(outcome, A, round_index=0)
        second = engine.measure(outcome, A, round_index=0)
        assert first == second

    def test_no_route_returns_none(self):
        engine, outcome, _ = make_tracer(**CLEAN)
        # Simulate an AS with no route by probing from the origin's
        # perspective of a nonexistent path: drop A's route artificially.
        outcome.routes = RouteMap(
            {asn: route for asn, route in outcome.routes.items() if asn != A},
            ORIGIN,
            engine.graph.ases,
        )
        assert engine.measure(outcome, A) is None


class TestArtifacts:
    def test_unresponsive_hops_appear(self):
        engine, outcome, _ = make_tracer(
            unresponsive_rate=0.5,
            border_sharing_rate=0.0,
            path_error_rate=0.0,
            truncation_rate=0.0,
            divergence_rate=0.0,
        )
        traces = [engine.measure(outcome, C, round_index=r) for r in range(20)]
        assert any(None in trace.hops for trace in traces)

    def test_responsive_hops_property(self):
        engine, outcome, _ = make_tracer(
            unresponsive_rate=0.5,
            border_sharing_rate=0.0,
            path_error_rate=0.0,
            truncation_rate=0.0,
            divergence_rate=0.0,
        )
        trace = engine.measure(outcome, C, round_index=3)
        assert None not in trace.responsive_hops

    def test_border_sharing_misattributes_entry_hop(self):
        engine, outcome, plan = make_tracer(
            unresponsive_rate=0.0,
            border_sharing_rate=1.0,
            path_error_rate=0.0,
            truncation_rate=0.0,
            divergence_rate=0.0,
            max_routers_per_as=1,
        )
        mapper = IPToASMapper(plan)
        trace = engine.measure(outcome, C)
        hop_ases = [mapper.map_address(hop) for hop in trace.hops[:-1]]
        true_path = outcome.forwarding_path(C)[:-1]
        # With certain border sharing, every AS after the first reports its
        # entry interface from the previous AS's space: with one router per
        # AS, the visible ASes collapse toward the upstream.
        assert hop_ases[0] == C
        assert set(hop_ases) < set(true_path)

    def test_truncation_never_reaches_target(self):
        engine, outcome, _ = make_tracer(
            unresponsive_rate=0.0,
            border_sharing_rate=0.0,
            path_error_rate=0.0,
            truncation_rate=1.0,
            divergence_rate=0.0,
        )
        trace = engine.measure(outcome, C)
        assert not trace.reached_target

    def test_divergence_forks_onto_alternate_path(self):
        engine, outcome, plan = make_tracer(
            unresponsive_rate=0.0,
            border_sharing_rate=0.0,
            path_error_rate=0.0,
            truncation_rate=0.0,
            divergence_rate=1.0,
            max_routers_per_as=1,
        )
        mapper = IPToASMapper(plan)
        # C's true path is C–M–T1–P1–origin (length 5 > 3, divergable).
        diverged = False
        for round_index in range(30):
            trace = engine.measure(outcome, C, round_index=round_index)
            hop_ases = []
            for hop in trace.hops[:-1]:
                asn = mapper.map_address(hop)
                if not hop_ases or hop_ases[-1] != asn:
                    hop_ases.append(asn)
            if tuple(hop_ases) != outcome.forwarding_path(C)[:-1]:
                diverged = True
                # The diverged path is still loop-free.
                assert len(hop_ases) == len(set(hop_ases))
        assert diverged

    def test_path_error_switches_to_neighbor_path(self):
        engine, outcome, plan = make_tracer(
            unresponsive_rate=0.0,
            border_sharing_rate=0.0,
            path_error_rate=1.0,
            truncation_rate=0.0,
            divergence_rate=0.0,
            max_routers_per_as=1,
        )
        mapper = IPToASMapper(plan)
        trace = engine.measure(outcome, A)
        first_as = mapper.map_address(trace.hops[0])
        assert first_as != A  # measured some neighbor's path instead


class TestParams:
    def test_rejects_bad_rates(self):
        with pytest.raises(MeasurementError):
            TracerouteParams(unresponsive_rate=1.5)
        with pytest.raises(MeasurementError):
            TracerouteParams(border_sharing_rate=-0.1)
        with pytest.raises(MeasurementError):
            TracerouteParams(max_routers_per_as=0)

    def test_router_count_stable_per_as(self):
        engine, outcome, _ = make_tracer(**CLEAN, max_routers_per_as=3)
        assert engine._routers_in(C) == engine._routers_in(C)
        assert 1 <= engine._routers_in(C) <= 3


def reference_measure(engine, outcome, probe_as, round_index):
    """Traceroute synthesis deriving every hop address afresh (no memo
    tables): the oracle the memoized engine must match draw for draw."""
    params = engine.params
    key = f"probe|{probe_as}|{round_index}|{outcome.config.describe()}|{params.seed}"
    rng = random.Random(zlib.crc32(key.encode("ascii")))
    measured_as = probe_as
    if params.path_error_rate and rng.random() < params.path_error_rate:
        neighbors = [
            n for n in sorted(engine.graph.neighbors(probe_as)) if n in outcome.routes
        ]
        if neighbors:
            measured_as = rng.choice(neighbors)
    try:
        as_path = outcome.forwarding_path(measured_as)
    except SimulationError:
        return None
    if (
        params.divergence_rate
        and len(as_path) > 3
        and rng.random() < params.divergence_rate
    ):
        as_path = engine._diverge(outcome.routes, as_path, rng, {})
    target = engine.plan.target_address()
    hops = []
    previous_as = None
    for asn in as_path[:-1]:
        if previous_as is not None:
            ixp = engine.ixps.ixp_for_link(previous_as, asn)
            if ixp is not None:
                hops.append(
                    None
                    if rng.random() < params.unresponsive_rate
                    else engine.ixps.lan_address(ixp, asn)
                )
        for router_index in range(engine._routers_in(asn)):
            if rng.random() < params.unresponsive_rate:
                hops.append(None)
                continue
            owner = asn
            if (
                router_index == 0
                and previous_as is not None
                and rng.random() < params.border_sharing_rate
            ):
                owner = previous_as
            hops.append(
                engine.plan.router_address(owner, engine._hop_slot(asn, router_index))
            )
        previous_as = asn
    if params.truncation_rate and rng.random() < params.truncation_rate and hops:
        cut = rng.randrange(1, len(hops) + 1)
        return Traceroute(probe_as, target, tuple(hops[:cut]), False)
    hops.append(target)
    return Traceroute(probe_as, target, tuple(hops), True)


class TestMemoizedSynthesis:
    """Memoized hop addresses reproduce the per-hop derivation exactly."""

    @pytest.mark.parametrize(
        "params",
        [
            dict(),
            dict(border_sharing_rate=0.0),
            dict(border_sharing_rate=1.0, unresponsive_rate=0.5),
            dict(
                max_routers_per_as=3,
                path_error_rate=0.3,
                truncation_rate=0.3,
                divergence_rate=0.5,
            ),
        ],
    )
    def test_matches_reference(self, small_testbed, params):
        engine = TracerouteEngine(
            small_testbed.graph,
            small_testbed.plan,
            small_testbed.ixps,
            TracerouteParams(seed=3, **params),
        )
        outcome = small_testbed.simulator.simulate(
            anycast_all(small_testbed.origin.link_ids)
        )
        probes = small_testbed.fleet.probe_ases
        every = []
        is_ixp = small_testbed.campaign.mapper.is_ixp_address
        crossed_ixp = False
        for round_index in range(3):
            for probe_as in probes:
                expected = reference_measure(engine, outcome, probe_as, round_index)
                assert engine.measure(outcome, probe_as, round_index) == expected
                if expected is not None:
                    every.append(expected)
                    crossed_ixp |= any(
                        hop is not None and is_ixp(hop) for hop in expected.hops
                    )
        # One call for all probes and rounds, sharing the path memo.
        assert engine.synthesize(outcome, probes, range(3)) == every
        # The testbed's IXPs were crossed.
        assert crossed_ixp
