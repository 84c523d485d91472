"""Restart guarantees of the live traceback service.

A :class:`~repro.live.service.LiveTracebackService` killed mid-attack
and brought back with :func:`~repro.live.checkpoint.load_checkpoint`
must land on the uninterrupted run's final attribution, window by
window.  That holds when the kill leaves an intact checkpoint, when it
leaves none (the replay restarts from scratch; stateless seeding lands
it on the same answer), and when the last write before the kill was
torn (the resume rolls back one generation).  What the run emitted up
to the kill point — its bus history with measured fields stripped, and
its counter totals — is a replay invariant, and none of it depends on
the interpreter's string hash seed.
"""

import hashlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.core import pipeline
from repro.faults import CHECKPOINT_CORRUPTION, FaultInjector, FaultPlan, FaultSpec
from repro.live import (
    LiveTracebackService,
    ReplayScenario,
    attribution_digest,
    load_checkpoint,
)
from repro.obs import Observability, strip_measured
from repro.topology.generator import TopologyParams

#: A 90-stub origin network: small enough to replay in about a second.
SPEC = pipeline.TestbedSpec(
    seed=1529027449,
    topology_params=TopologyParams(
        num_tier1=4, num_transit=24, num_stub=90, seed=1529027449
    ),
    num_links=5,
    num_vantages=12,
    num_probes=40,
)

#: Every scenario here is killed at the first step that reaches this
#: simulated minute.  With 20-minute windows and a checkpoint every 2
#: windows, that step is the window whose end writes the third
#: checkpoint (minute 122.5, after the dwell slack of the first
#: configuration).
KILL_MINUTE = 120.0

#: Attribution of the uninterrupted replay.
ATTRIBUTION_DIGEST = (
    "de4b3f06d4d1609abee037643fadd12c17bd835df2079e28b2eb418b92bc7efd"
)

#: Tears exactly the third checkpoint write (ordinal 2, the kill step's).
TORN_WRITE = FaultPlan(
    name="torn-write",
    specs=(FaultSpec(kind=CHECKPOINT_CORRUPTION, rate=1.0, start=2, stop=3),),
)


def scenario(checkpoint_path=""):
    """The replay; with a path it checkpoints every 2 windows."""
    return ReplayScenario(
        seed=524229121,
        num_sources=6,
        max_configs=3,
        checkpoint_every=2 if checkpoint_path else 0,
        checkpoint_path=checkpoint_path,
    )


def step_until_kill(service):
    """Step ``service`` up to the kill minute; the replay must not end
    first, or the kill would prove nothing."""
    while service.clock.now < KILL_MINUTE:
        assert service.step(), "replay finished before the kill minute"
    return service.clock.now


def run_to_end(service):
    try:
        return service.run()
    finally:
        service.close()


@pytest.fixture(scope="module")
def testbed():
    return SPEC.build()


@pytest.fixture(scope="module")
def baseline(testbed):
    """The uninterrupted replay."""
    return run_to_end(LiveTracebackService(scenario=scenario(), testbed=testbed))


def assert_same_run(report, baseline):
    assert attribution_digest(report) == attribution_digest(baseline)
    assert report.windows == baseline.windows
    assert report.run_stats == baseline.run_stats


class TestKillAndResume:
    def test_baseline_attribution_pinned(self, baseline):
        assert baseline.run_stats.dwell_minutes > KILL_MINUTE
        assert attribution_digest(baseline) == ATTRIBUTION_DIGEST

    def test_kill_resumes_from_checkpoint_to_identical_run(
        self, testbed, baseline, tmp_path
    ):
        path = str(tmp_path / "live.json")
        service = LiveTracebackService(scenario=scenario(path), testbed=testbed)
        killed_at = step_until_kill(service)
        service.close()
        del service  # everything in memory is lost; only disk survives
        restored = load_checkpoint(path)
        assert restored.clock.now == killed_at
        assert not restored.restored_via_rollback
        assert_same_run(run_to_end(restored), baseline)

    def test_kill_without_checkpoint_restarts_from_scratch(
        self, testbed, baseline
    ):
        service = LiveTracebackService(scenario=scenario(), testbed=testbed)
        step_until_kill(service)
        service.close()
        restarted = LiveTracebackService(scenario=scenario(), spec=SPEC)
        assert_same_run(run_to_end(restarted), baseline)

    def test_torn_write_before_kill_rolls_back(
        self, testbed, baseline, tmp_path
    ):
        path = str(tmp_path / "live.json")
        service = LiveTracebackService(
            scenario=scenario(path),
            testbed=testbed,
            injector=FaultInjector(TORN_WRITE),
        )
        killed_at = step_until_kill(service)
        assert service.checkpoint_corruptions == 1
        service.close()
        restored = load_checkpoint(path)
        assert restored.restored_via_rollback
        assert restored.clock.now < killed_at
        # The rollback replays the windows after the older generation;
        # the evidence they produce is the same.
        report = run_to_end(restored)
        assert attribution_digest(report) == attribution_digest(baseline)
        assert report.windows == baseline.windows


def run_killed_with_digest(base, testbed=None):
    """Kill the checkpointed replay, digest what it emitted up to the
    kill point, then resume it from its checkpoint to the end.

    The digest is a SHA-256 over the bus history (each event's
    :func:`~repro.obs.bus.strip_measured` projection, in publish order)
    and the registry's counter totals.  Returns ``(report, digest,
    history)``; checkpoints go under ``base``.
    """
    path = os.path.join(base, "live.json")
    obs = Observability.for_run("live")
    service = LiveTracebackService(
        scenario=scenario(path), spec=SPEC, testbed=testbed, obs=obs
    )
    try:
        step_until_kill(service)
        assert obs.bus.events_dropped == 0, "history window overflowed"
        history = [strip_measured(event) for event in obs.bus.history()]
        events = json.dumps(history, sort_keys=True)
        counters = json.dumps(obs.registry.counter_totals(), sort_keys=True)
    finally:
        service.close()
    digest = hashlib.sha256(f"{events}\n{counters}".encode()).hexdigest()
    report = run_to_end(load_checkpoint(path))
    return report, digest, history


class TestKillPointDeterminism:
    def test_history_covers_the_run_to_the_kill(self, testbed, baseline, tmp_path):
        report, _, history = run_killed_with_digest(str(tmp_path), testbed)
        assert attribution_digest(report) == attribution_digest(baseline)
        kinds = {event["kind"] for event in history}
        assert {"window", "span", "checkpoint"} <= kinds
        assert not any(
            key.endswith("_seconds") for event in history for key in event
        )

    def test_replays_emit_identical_history_and_counters(
        self, testbed, tmp_path
    ):
        runs = [
            run_killed_with_digest(str(tmp_path / run), testbed)
            for run in ("a", "b")
        ]
        assert runs[0][1] == runs[1][1]


def run_probe(source, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    tests = os.path.join(os.path.dirname(__file__), os.pardir)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, tests, env.get("PYTHONPATH", "")) if part
    )
    result = subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestHashSeedInvariance:
    """Digests must not depend on the interpreter's string hash seed.

    LinkIds are strings; a dict built by iterating a frozenset of them
    inherits hash-randomized insertion order, and any float sum over
    that dict then drifts at the last ulp — enough to flip NNLS ties and
    reorder zero-volume clusters between *processes*.  Same-process
    comparisons can never catch that, so these replay one scenario in
    two subprocesses pinned to different PYTHONHASHSEEDs.
    """

    ATTRIBUTION_PROBE = textwrap.dedent(
        """
        from dataclasses import replace

        from repro.cli import SCALES
        from repro.core.pipeline import TestbedSpec
        from repro.live import (
            LiveTracebackService, ReplayScenario, attribution_digest,
        )

        # The historical offender: its final ranking carried zero-volume
        # ties that hash-seed-ordered catchment dicts used to break
        # differently per process.
        spec = TestbedSpec(
            seed=1553763592,
            topology_params=replace(SCALES["small"], seed=1553763592),
        )
        service = LiveTracebackService(
            scenario=ReplayScenario(
                seed=1968153984, num_sources=6, max_configs=3
            ),
            spec=spec,
        )
        report = service.run()
        service.close()
        print(attribution_digest(report))
        for cluster in report.localization.ranked:
            print(repr(cluster.estimated_volume), sorted(cluster.members))
        """
    )

    KILL_POINT_PROBE = textwrap.dedent(
        """
        import tempfile

        from repro.live import attribution_digest
        from tests.test_live_restart import run_killed_with_digest

        report, digest, _ = run_killed_with_digest(tempfile.mkdtemp())
        print("attribution", attribution_digest(report))
        print("kill point", digest)
        """
    )

    def test_attribution_identical_across_hash_seeds(self):
        first = run_probe(self.ATTRIBUTION_PROBE, "11")
        assert first == run_probe(self.ATTRIBUTION_PROBE, "22")

    def test_kill_point_digest_identical_across_hash_seeds(self):
        first = run_probe(self.KILL_POINT_PROBE, "11")
        assert "kill point" in first
        assert first == run_probe(self.KILL_POINT_PROBE, "22")
