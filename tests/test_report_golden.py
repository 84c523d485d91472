"""Golden bit-identity digests of whole :class:`TrackerReport` runs.

Cluster refinement (§III-B) and the NNLS build (§III-C) may be made
faster, never different.  These digests pin what
:meth:`SpoofTracker.run` reports for four full schedules at seed 0, each
attacked by the same 40 pareto-placed sources:

* ``small-truth``: the ``small`` testbed with ground-truth catchments;
* ``small-measured``: the same, measured through feeds and traceroutes;
* ``small-loss``: ground truth thinned by a measurement-loss fault plan,
  so some steps are degraded and left out of clustering and NNLS;
* ``paper-truth``: the ``paper`` testbed with ground-truth catchments.

Per run there are three digests: every step's :class:`StepStats` (floats
by ``repr``), the final clusters, and the ranked clusters' members with
``repr`` volumes plus the NNLS residual.  A subprocess re-derives them
all under ``PYTHONHASHSEED`` 0 and 4242.

A new pin is computed on the commit before the code it covers changes:
in a ``git archive`` copy of it, run :func:`golden_digests` from this
module with ``PYTHONPATH=src:tests``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap

import pytest

from repro.cli import SCALES
from repro.core.pipeline import SpoofTracker, build_testbed
from repro.faults import FaultInjector
from repro.faults.plan import MEASUREMENT_LOSS, FaultPlan, FaultSpec
from repro.spoof.sources import make_placement

SEED = 0
SOURCES = 40

#: run name → (scale, measured, measurement-loss faults)
RUNS = {
    "small-truth": ("small", False, False),
    "small-measured": ("small", True, False),
    "small-loss": ("small", False, True),
    "paper-truth": ("paper", False, False),
}

GOLDEN = {
    "small-truth": {
        "steps": "d27aa40bfd5a5948a5ce966d6a5ccb2d08c465e9cea3af38a4b6bd4f432cc9d2",
        "clusters": "d1e2a7c3fd3a9f689dcd062069024b627f6717785024611d2c77bda081f5de48",
        "localization": "e2a50e6df1d45ee0ae4ce3f4a1f20affd0a9450080936a1912a456f8f73713b8",
    },
    "small-measured": {
        "steps": "c97935215cb08d150b623206882a71f347be0fadfa4d618d2caccf88218924fd",
        "clusters": "529a98cab0a075110954a26dba43b514e949fb2c3595a943826b6e2db87c5bce",
        "localization": "c42d94856b31f3b86c87883b5237a5ae7cf3a35c237320ba38c4320b7a291d14",
    },
    "small-loss": {
        "steps": "cc594eb7449a5cf55cd64d610b7405e59982b0fe0a362a898503d6ed7ae059e5",
        "clusters": "39fb8f3d27eb885ce9f81dbabf61ceabe1a97eae3a6d3a45fc10cfc5109c6234",
        "localization": "a2d180b4b4e919230be7f93df183d513e22440390d48f892f6b7b594e2a73e98",
    },
    "paper-truth": {
        "steps": "b9dc8abb0f3f399ecb03f6512f744e801ab99736fe00837db91628813cab0d81",
        "clusters": "5c996c1dd3b792ab35dac72b12b8e923dbf90606d60fe2bdeef800ebfed56f25",
        "localization": "6aaf8573f0d7dad43e31e65e75db8b0c25ab5b8509b6ef807502bc681e8c9a4c",
    },
}


def _sha(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _loss_injector() -> FaultInjector:
    return FaultInjector(
        FaultPlan(
            name="golden-loss",
            seed=SEED,
            specs=(FaultSpec(kind=MEASUREMENT_LOSS, rate=0.4, intensity=0.3),),
        )
    )


def report_digests(report) -> dict:
    """The three digests of one report."""
    steps = [
        (
            step.config_label,
            step.phase,
            step.num_clusters,
            repr(step.mean_cluster_size),
            repr(step.p90_cluster_size),
        )
        for step in report.steps
    ]
    localization = report.localization
    ranked = [
        (sorted(cluster.members), repr(cluster.estimated_volume))
        for cluster in localization.ranked
    ]
    return {
        "steps": _sha(steps),
        "clusters": _sha([sorted(cluster) for cluster in report.clusters]),
        "localization": _sha((ranked, repr(localization.residual))),
    }


def golden_run(name: str):
    """The :class:`TrackerReport` of run ``name``."""
    scale, measured, loss = RUNS[name]
    testbed = build_testbed(seed=SEED, topology_params=SCALES[scale])
    candidates = sorted(testbed.topology.stubs or testbed.graph.ases)
    placement = make_placement(
        "pareto", candidates, SOURCES, random.Random(SEED + 1)
    )
    tracker = SpoofTracker(
        testbed, workers=1, injector=_loss_injector() if loss else None
    )
    try:
        report = tracker.run(placement=placement, measured=measured)
    finally:
        tracker.engine.close()
    return report


def golden_digests() -> dict:
    """Every run's digests (what :data:`GOLDEN` pins)."""
    return {name: report_digests(golden_run(name)) for name in RUNS}


@pytest.fixture(scope="module")
def digests():
    return golden_digests()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden(digests, name):
    assert digests[name] == GOLDEN[name]


def test_loss_run_has_degraded_steps():
    report = golden_run("small-loss")
    assert report.resilience is not None
    assert report.resilience.degraded_configs > 0


class TestHashSeedInvariance:
    PROBE = textwrap.dedent(
        """
        import json, sys
        sys.path.insert(0, {tests!r})
        from test_report_golden import golden_digests
        print(json.dumps(golden_digests(), sort_keys=True))
        """
    )

    def run_probe(self, hash_seed: str) -> dict:
        tests = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        src = os.path.join(tests, os.pardir, "src")
        env["PYTHONPATH"] = src + os.pathsep * bool(
            env.get("PYTHONPATH")
        ) + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", self.PROBE.format(tests=tests)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout.strip().splitlines()[-1])

    @pytest.mark.parametrize("hash_seed", ["0", "4242"])
    def test_digests_identical_across_hash_seeds(self, hash_seed):
        assert self.run_probe(hash_seed) == GOLDEN
