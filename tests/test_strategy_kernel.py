"""Tests for the strategy array kernel (repro.strategy.kernel).

Every kernel-backed decision is checked against verbatim copies of the
per-candidate loops it replaced: greedy ``propose`` (weighted and not),
base ``converged``, and the bisect and bgpeek candidate searches.  The
live-path tests drive the adaptive service through a churn-forced
remeasurement and a checkpoint resume, and replay one run in two
processes with different ``PYTHONHASHSEED``.
"""

import os
import random
import subprocess
import sys
import textwrap
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.strategy.base as strategy_base
import repro.strategy.builtin as strategy_builtin
from repro.core.clustering import ClusterState
from repro.core.configgen import PHASE_LOCATIONS, PHASE_POISONING
from repro.core.scheduler import refinement_gain
from repro.live import LiveTracebackService, ReplayScenario, load_checkpoint
from repro.strategy import (
    NO_SPLIT_REASON,
    NOISE_FLOOR,
    GreedyStrategy,
    VolumeGreedyStrategy,
    make_strategy,
    run_strategy,
    weighted_cost,
    weighted_split_score,
)
from repro.strategy.kernel import BLOCK_ROWS, LabelMatrix, choose_greedy

# ----------------------------------------------------------------------
# Oracles: the per-candidate loops the kernel replaced, verbatim
# ----------------------------------------------------------------------


def reference_propose(self, state, volume_by_as=None):
    # Verbatim GreedyStrategy.propose before the array kernel.
    volumes = self._volumes(volume_by_as)
    best_index = None
    best_score = (0.0, 0)
    for index in self.remaining:
        score = weighted_split_score(
            state, self.catchment_maps[index], volumes
        )
        if score > best_score:
            best_score = score
            best_index = index
    return best_index


def reference_converged(self, state, volume_by_as=None):
    # Verbatim TracebackStrategy.converged before the array kernel.
    if not self.remaining:
        return "schedule exhausted"
    if all(
        refinement_gain(state, self.catchment_maps[i].values()) == 0
        for i in self.remaining
    ):
        return NO_SPLIT_REASON
    return None


def reference_bisect(self, state):
    # Verbatim BisectStrategy.propose before the array kernel.
    for target in state.clusters():
        if len(target) < 2:
            break
        best_index = None
        best_key = None
        for index in self.remaining:
            working = ClusterState(target)
            if not working.refine_with_catchments(
                self.catchment_maps[index]
            ):
                continue
            largest = len(working.clusters()[0])
            key = (largest, index)
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        if best_index is not None:
            return best_index
    return None


def reference_bgpeek(self, state):
    # Verbatim PoisonWalkStrategy.propose before the array kernel.
    target = self._target_members(state, self._suspects(state))
    if len(target) > 1:
        best_index = None
        best_key = None
        for index in self.remaining:
            working = ClusterState(target)
            if not working.refine_with_catchments(
                self.catchment_maps[index]
            ):
                continue
            largest = len(working.clusters()[0])
            key = (0 if self._is_poisoning(index) else 1, largest, index)
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        if best_index is not None:
            return best_index
    best_index = None
    best_gain = 0
    for index in self.remaining:
        gain = refinement_gain(state, self.catchment_maps[index].values())
        if gain > best_gain:
            best_gain = gain
            best_index = index
    return best_index


# ----------------------------------------------------------------------
# Random evidence
# ----------------------------------------------------------------------

#: Universe ASes are drawn from 0..29; catchments also name 30..35,
#: which are never in the universe.
members = st.frozensets(st.integers(0, 35), max_size=18)
link_maps = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]), members, max_size=4
)
volume_values = st.one_of(
    st.sampled_from([0.0, 1e-12, 1e-9, 0.5, 1.0, 3.0, 1e8, 1e8 + 1e-7]),
    st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
)
#: Decimal volumes make mathematically equal reductions differ in the
#: last bits depending on summation order: the case the reference
#: fallback exists for.
decimal_values = st.sampled_from([0.1, 0.2, 0.3, 0.6, 0.7, 1 / 3])
volume_maps = st.one_of(
    st.none(),
    st.just({}),
    st.dictionaries(st.integers(0, 35), volume_values, max_size=30),
    st.dictionaries(
        st.integers(0, 35), decimal_values, min_size=10, max_size=36
    ),
)


@st.composite
def evidence(draw):
    """(universe, catchment maps with duplicates, prior refinements)."""
    universe = sorted(draw(st.sets(st.integers(0, 29), min_size=1, max_size=20)))
    maps = draw(st.lists(link_maps, min_size=1, max_size=8))
    duplicates = draw(st.lists(st.integers(0, len(maps) - 1), max_size=3))
    maps = maps + [dict(maps[index]) for index in duplicates]
    prior = draw(st.lists(link_maps, max_size=3))
    return universe, maps, prior


def prepared_state(universe, prior):
    state = ClusterState(universe)
    for catchments in prior:
        state.refine_with_catchments(catchments)
    return state


def lockstep(strategy, state, volumes, reference, steps=6):
    """Drive ``strategy`` and assert each step matches ``reference``."""
    maps = strategy.catchment_maps
    for _ in range(steps):
        assert strategy.converged(state, volumes) == reference_converged(
            strategy, state, volumes
        )
        expected = reference(strategy, state)
        assert strategy.propose(state, volumes) == expected
        if expected is None:
            return
        strategy.observe(expected, state, volumes)
        state.refine_with_catchments(maps[expected])


class TestProposalsMatchReference:
    @settings(max_examples=150, deadline=None)
    @given(evidence(), volume_maps)
    def test_greedy(self, case, volumes):
        universe, maps, prior = case
        strategy = GreedyStrategy().bind(maps)
        lockstep(
            strategy,
            prepared_state(universe, prior),
            volumes,
            lambda s, state: reference_propose(s, state, volumes),
        )

    @settings(max_examples=60, deadline=None)
    @given(evidence(), volume_maps)
    def test_volume_greedy(self, case, volumes):
        universe, maps, prior = case
        strategy = VolumeGreedyStrategy(volume_by_as=volumes).bind(maps)
        lockstep(
            strategy,
            prepared_state(universe, prior),
            None,
            lambda s, state: reference_propose(s, state, None),
        )

    @settings(max_examples=100, deadline=None)
    @given(evidence())
    def test_bisect(self, case):
        universe, maps, prior = case
        strategy = make_strategy("bisect").bind(maps)
        lockstep(strategy, prepared_state(universe, prior), None,
                 reference_bisect)

    @settings(max_examples=100, deadline=None)
    @given(evidence(), volume_maps, st.data())
    def test_bgpeek(self, case, volumes, data):
        universe, maps, prior = case
        phases = data.draw(
            st.lists(
                st.sampled_from([PHASE_POISONING, PHASE_LOCATIONS]),
                min_size=len(maps),
                max_size=len(maps),
            )
        )
        schedule = [SimpleNamespace(phase=phase) for phase in phases]
        strategy = make_strategy("bgpeek").bind(maps, schedule=schedule)
        state = prepared_state(universe, prior)
        for _ in range(6):
            expected = reference_bgpeek(strategy, state)
            assert strategy.propose(state, volumes) == expected
            if expected is None:
                return
            strategy.observe(expected, state, volumes)
            state.refine_with_catchments(maps[expected])

    def test_exact_ties_break_toward_the_first_remaining(self):
        maps = [
            {"a": frozenset({0, 1})},
            {"a": frozenset({2, 3})},
            {"a": frozenset({0, 1})},
            {"a": frozenset({2, 3})},
        ]
        volume = {asn: 1.0 for asn in range(4)}
        strategy = GreedyStrategy().bind(maps)
        strategy.restore_remaining([3, 2, 1, 0])
        state = ClusterState(range(4))
        assert strategy.propose(state, volume) == reference_propose(
            strategy, state, volume
        ) == 3
        assert strategy.propose(state) == reference_propose(
            strategy, state
        ) == 3


class TestSummationOrder:
    """Equal reductions whose float sums differ only in the last bits."""

    def test_reference_breaks_the_near_tie(self):
        # Both configs cut the 7-AS cluster into three pieces whose
        # cost (volume × size) sums to 0.7, so their reductions are
        # equal in exact arithmetic and so are their gains.  The
        # reference's float sums make config 1 larger by an ulp; the
        # kernel's sums alone would keep config 0.
        maps = [
            {"a": frozenset({1}), "b": frozenset({0, 10})},
            {"a": frozenset({0}), "b": frozenset({0, 1})},
        ]
        volume = {asn: 0.1 for asn in range(10)}
        state = ClusterState([0, 1, 2, 10, 11, 12, 13])
        strategy = GreedyStrategy().bind(maps)
        assert strategy.propose(state, volume) == reference_propose(
            strategy, state, volume
        ) == 1

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(link_maps, min_size=2, max_size=5),
        st.lists(decimal_values, min_size=12, max_size=12),
    )
    def test_decimal_volumes(self, maps, values):
        universe = list(range(12))
        volume = dict(zip(universe, values))
        strategy = GreedyStrategy().bind(maps)
        lockstep(
            strategy,
            ClusterState(universe),
            volume,
            lambda s, state: reference_propose(s, state, volume),
        )


class TestNoiseFloor:
    """Reductions placed right at the clamp threshold."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.one_of(
            st.sampled_from(
                [0.25, 0.5, 0.75, 0.9999999, 1.0, 1.0000001, 1.25, 1.5, 2.0]
            ),
            st.floats(0.0, 3.0),
        ),
        st.one_of(st.just(None), st.floats(0.0, 3.0)),
        st.sampled_from([1.0, 1e-6, 1e6]),
    )
    def test_clamp_boundary(self, first, second, scale):
        # One busy cluster no candidate can split holds almost all the
        # cost; candidate 0 splits {6, 7}, candidate 1 splits {8, 9},
        # each reducing the cost by a chosen multiple of the threshold.
        universe = list(range(10))
        state = ClusterState(universe)
        state.refine_with_catchments(
            {"a": frozenset(range(6)), "b": frozenset({6, 7})}
        )
        base = {asn: scale for asn in range(6)}
        threshold = NOISE_FLOOR * max(1.0, weighted_cost(state, base))
        volume = dict(base)
        volume[6] = first * threshold
        volume[8] = (second if second is not None else first) * threshold
        maps = [
            {"a": frozenset({6})},
            {"a": frozenset({8})},
            {"a": frozenset({6}), "b": frozenset({8})},
            {"a": frozenset({8})},
        ]
        strategy = GreedyStrategy().bind(maps)
        assert strategy.propose(state, volume) == reference_propose(
            strategy, state, volume
        )

    @pytest.mark.parametrize(
        "volume",
        [
            {0: 1e9, 1: -1e9, 2: 3.0, 3: -2.0, 4: 1e-7},
            {0: float("inf"), 2: 3.0, 4: 1e-7},
            {0: 1.0, 2: float("nan"), 4: 2.0},
        ],
    )
    def test_volumes_outside_the_error_bound_are_all_rescored(self, volume):
        state = ClusterState(range(6))
        maps = [
            {"a": frozenset({0, 1})},
            {"a": frozenset({2, 3})},
            {"a": frozenset({4})},
            {"a": frozenset({0, 2, 4})},
        ]
        strategy = GreedyStrategy().bind(maps)
        assert strategy.propose(state, volume) == reference_propose(
            strategy, state, volume
        )


class TestKernel:
    @settings(max_examples=100, deadline=None)
    @given(evidence(), volume_maps)
    def test_gains_and_reductions_match_reference(self, case, volumes):
        universe, maps, prior = case
        state = prepared_state(universe, prior)
        matrix = LabelMatrix(maps, universe)
        rows = list(range(len(maps)))
        expected = [refinement_gain(state, m.values()) for m in maps]
        assert list(matrix.split_gains(rows, state)) == expected
        volumes = volumes or {}
        gains, reductions, before = matrix.reductions(rows, state, volumes)
        assert list(gains) == expected
        reference_before = weighted_cost(state, volumes)
        tolerance = 1e-12 * max(1.0, abs(reference_before))
        assert before == pytest.approx(reference_before, abs=tolerance)
        for row, catchments in enumerate(maps):
            working = state.copy()
            working.refine_with_catchments(catchments)
            reduction = reference_before - weighted_cost(working, volumes)
            assert reductions[row] == pytest.approx(reduction, abs=tolerance)

    def test_rows_spanning_several_blocks(self):
        rng = random.Random(7)
        universe = list(range(40))
        maps = [
            {
                link: frozenset(rng.sample(range(44), rng.randint(0, 20)))
                for link in rng.sample("abcd", rng.randint(1, 4))
            }
            for _ in range(3 * BLOCK_ROWS + 5)
        ]
        state = ClusterState(universe)
        state.refine_with_catchments(maps[0])
        volumes = {asn: rng.choice([0.0, 0.1, 0.7, 2.0]) for asn in universe}
        strategy = GreedyStrategy().bind(maps)
        lockstep(
            strategy,
            state,
            volumes,
            lambda s, st_: reference_propose(s, st_, volumes),
            steps=4,
        )
        matrix = LabelMatrix(maps, universe)
        rows = list(range(len(maps)))[::-1]
        assert list(matrix.split_gains(rows, state)) == [
            refinement_gain(state, maps[row].values()) for row in rows
        ]

    def test_unweighted_path_never_calls_the_reference_scorer(
        self, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("reference scorer called")

        monkeypatch.setattr(strategy_builtin, "weighted_split_score", forbidden)
        maps = [
            {"a": frozenset({0, 1, 2}), "b": frozenset({3, 4})},
            {"a": frozenset({0, 3}), "b": frozenset({1, 4})},
            {"a": frozenset({0, 1, 2}), "b": frozenset({3, 4})},
        ]
        for volumes in (None, {}):
            result = run_strategy(
                GreedyStrategy(), range(5), maps, volume_by_as=volumes
            )
            # Config 1 cuts three pieces; then 0 and its duplicate 2 tie.
            assert result.order == [1, 0]

    def test_rescore_only_near_ties(self):
        calls = []

        def rescore(position):
            calls.append(position)
            return 5.0

        gains = np.array([1, 2, 1, 0])
        reductions = np.array([5.0, 5.0, 1.0, 0.0])
        assert choose_greedy(gains, reductions, 10.0, rescore, NOISE_FLOOR) == 1
        assert calls == [0, 1]
        calls.clear()
        reductions[0] = 4.0
        assert choose_greedy(gains, reductions, 10.0, rescore, NOISE_FLOOR) == 1
        assert calls == []  # a clear winner needs no reference value

    def test_matrix_is_dropped_when_evidence_changes(self):
        first = [{"a": frozenset({0, 1})}, {"a": frozenset({2})}]
        fresh = [{"a": frozenset({2})}, {"a": frozenset({0, 1, 3})}]
        strategy = GreedyStrategy().bind(first)
        state = ClusterState(range(4))
        assert strategy.propose(state) == 0
        strategy.update_catchments(fresh)
        assert strategy.propose(state) == reference_propose(strategy, state)
        # A state over another universe gets a matrix of its own.
        other = ClusterState(range(3))
        assert strategy.propose(other) == reference_propose(strategy, other)
        assert strategy.label_matrix(other).universe == [0, 1, 2]


# ----------------------------------------------------------------------
# The live path
# ----------------------------------------------------------------------


def run_service(scenario, testbed):
    service = LiveTracebackService(scenario=scenario, testbed=testbed)
    report = service.run()
    service.close()
    return service, report


def use_reference(monkeypatch):
    monkeypatch.setattr(GreedyStrategy, "propose", reference_propose)
    monkeypatch.setattr(
        strategy_base.TracebackStrategy, "converged", reference_converged
    )


class TestLivePath:
    def test_remeasurement_rebuilds_the_matrix(
        self, small_testbed, monkeypatch
    ):
        builds = []

        class CountingMatrix(LabelMatrix):
            def __init__(self, catchment_maps, universe):
                builds.append(len(catchment_maps))
                super().__init__(catchment_maps, universe)

        monkeypatch.setattr(strategy_base, "LabelMatrix", CountingMatrix)
        scenario = ReplayScenario(
            seed=5,
            max_configs=8,
            min_configs=1,
            adaptive=True,
            churn_events=((6, 0.5),),
        )
        service, report = run_service(scenario, small_testbed)
        assert report.run_stats.remeasurements == 1
        assert len(builds) == 2
        with monkeypatch.context() as patch:
            use_reference(patch)
            reference, reference_report = run_service(scenario, small_testbed)
        assert service.deployed == reference.deployed
        assert report.windows == reference_report.windows
        assert report.run_stats == reference_report.run_stats

    def test_checkpoint_resume_matches_reference(
        self, small_testbed, monkeypatch, tmp_path
    ):
        path = str(tmp_path / "live.json")
        scenario = ReplayScenario(seed=5, max_configs=8, adaptive=True)
        service = LiveTracebackService(scenario=scenario, testbed=small_testbed)
        while len(service.deployed) < 3:
            assert service.step()
        service.checkpoint(path)
        full = service.run()
        service.close()
        restored = load_checkpoint(path, testbed=small_testbed)
        assert len(restored.deployed) == 3
        resumed = restored.run()
        restored.close()
        assert len(full.steps) > 4  # proposals were left after the kill
        with monkeypatch.context() as patch:
            use_reference(patch)
            reference, _ = run_service(scenario, small_testbed)
        assert restored.deployed == service.deployed == reference.deployed
        assert resumed.windows == full.windows
        assert resumed.run_stats == full.run_stats

    PROBE = textwrap.dedent(
        """
        from repro.core.pipeline import build_testbed
        from repro.fleet import attribution_digest
        from repro.live import LiveTracebackService, ReplayScenario
        from repro.topology.generator import TopologyParams

        testbed = build_testbed(
            seed=5,
            topology_params=TopologyParams(
                num_tier1=5, num_transit=40, num_stub=160, seed=5
            ),
            num_links=5,
            num_vantages=12,
            num_probes=40,
        )
        service = LiveTracebackService(
            scenario=ReplayScenario(seed=3, max_configs=12, adaptive=True),
            testbed=testbed,
        )
        report = service.run()
        service.close()
        print(service.deployed)
        print(attribution_digest(report))
        """
    )

    def run_probe(self, hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = src + os.pathsep * bool(
            env.get("PYTHONPATH")
        ) + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", self.PROBE],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_adaptive_replay_identical_across_hash_seeds(self):
        first = self.run_probe("3")
        assert first.count("\n") == 2
        assert first == self.run_probe("41")
