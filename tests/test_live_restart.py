"""Restart guarantees of the live traceback service.

A :class:`~repro.live.service.LiveTracebackService` killed mid-attack
and brought back with :func:`~repro.live.checkpoint.load_checkpoint`
must land on the uninterrupted run's final attribution, window by
window.  That holds when the kill leaves an intact checkpoint, when it
leaves none (the replay restarts from scratch; stateless seeding lands
it on the same answer), and when the last write before the kill was
torn (the resume rolls back one generation).  Flight bundles dumped at
the kill point, and the timeline rebuilt from them, are replay
invariants, and none of it depends on the interpreter's string hash
seed.
"""

import hashlib
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
from repro.obs import Observability, build_timeline
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


def run_killed_with_flight(base, testbed=None):
    """Kill the checkpointed replay with a flight recorder armed, dump
    its black box at the kill point, then resume it to the end.

    ``base`` gets ``ckpt/`` and ``flight/`` subdirectories.
    """
    checkpoint_dir = os.path.join(base, "ckpt")
    flight_dir = os.path.join(base, "flight")
    obs = Observability.for_run("live")
    flight = obs.arm_flight(name="live", directory=flight_dir)
    service = LiveTracebackService(
        scenario=scenario(os.path.join(checkpoint_dir, "live.json")),
        spec=SPEC,
        testbed=testbed,
        obs=obs,
    )
    try:
        step_until_kill(service)
        flight.dump("kill", context={"clock_minutes": service.clock.now})
    finally:
        flight.detach()
        service.close()
    report = run_to_end(load_checkpoint(os.path.join(checkpoint_dir, "live.json")))
    return report, checkpoint_dir, flight_dir


def bundle_hashes(flight_dir):
    """Sorted (filename, sha256-of-bytes) for every bundle in a dir."""
    hashes = []
    for name in sorted(os.listdir(flight_dir)):
        if name.startswith("flight-") and name.endswith(".json"):
            with open(os.path.join(flight_dir, name), "rb") as handle:
                hashes.append((name, hashlib.sha256(handle.read()).hexdigest()))
    return hashes


class TestFlightDumpDeterminism:
    def test_kill_bundle_and_stable_timeline(self, testbed, baseline, tmp_path):
        report, checkpoint_dir, flight_dir = run_killed_with_flight(
            str(tmp_path), testbed
        )
        assert attribution_digest(report) == attribution_digest(baseline)
        assert [name for name, _ in bundle_hashes(flight_dir)] == [
            "flight-live-kill-000.json"
        ]
        timeline = build_timeline(
            flight_dir=flight_dir, checkpoint_dir=checkpoint_dir
        )
        again = build_timeline(
            flight_dir=flight_dir, checkpoint_dir=checkpoint_dir
        )
        assert len(timeline) > 0
        assert timeline.digest() == again.digest()

    def test_replays_dump_identical_bundles_and_timelines(
        self, testbed, tmp_path
    ):
        runs = [
            run_killed_with_flight(str(tmp_path / run), testbed)
            for run in ("a", "b")
        ]
        assert bundle_hashes(runs[0][2]) == bundle_hashes(runs[1][2])
        digests = [
            build_timeline(
                flight_dir=flight_dir, checkpoint_dir=checkpoint_dir
            ).digest()
            for _, checkpoint_dir, flight_dir in runs
        ]
        assert digests[0] == digests[1]


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

    BUNDLE_PROBE = textwrap.dedent(
        """
        import tempfile

        from repro.live import attribution_digest
        from repro.obs import build_timeline
        from tests.test_live_restart import bundle_hashes, run_killed_with_flight

        report, checkpoint_dir, flight_dir = run_killed_with_flight(
            tempfile.mkdtemp()
        )
        print("attribution", attribution_digest(report))
        for name, digest in bundle_hashes(flight_dir):
            print(name, digest)
        timeline = build_timeline(
            flight_dir=flight_dir, checkpoint_dir=checkpoint_dir
        )
        print("timeline", timeline.digest())
        """
    )

    def test_attribution_identical_across_hash_seeds(self):
        first = run_probe(self.ATTRIBUTION_PROBE, "11")
        assert first == run_probe(self.ATTRIBUTION_PROBE, "22")

    def test_bundles_identical_across_hash_seeds(self):
        first = run_probe(self.BUNDLE_PROBE, "11")
        assert "kill" in first
        assert first == run_probe(self.BUNDLE_PROBE, "22")
