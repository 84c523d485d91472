"""Golden bit-identity digests of the measure phase.

The measurement kernel (traceroute synthesis, IP-to-AS mapping, gap
repair, conflict resolution, smax imputation) may be made faster, never
different.  These digests pin every :class:`ConfigMeasurement` field for
the ``small`` testbed at seed 0 over its first 60 configurations — once
clean and once under the bundled ``partial-measurement`` fault plan
(traceroute loss + collector flaps) — and the measured, imputed
``catchment_history`` of a tracker run over the same configurations.
Aggregated measurements could hide offsetting errors, so a fourth digest
pins every synthesized traceroute ``(probe_as, hops, reached_target)``
and each reached trace's :func:`as_path_with_reason` result under the
campaign's own gap and BGP segment indexes.  A subprocess pinned to
another ``PYTHONHASHSEED`` must reproduce all four.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.cli import SCALES
from repro.core.pipeline import SpoofTracker, build_testbed
from repro.faults import FaultInjector, load_fault_plan
from repro.measurement.repair import (
    as_path_with_reason,
    build_bgp_segment_index,
    build_gap_index,
    gap_queries,
)

SEED = 0
MAX_CONFIGS = 60
FAULT_PLAN = "partial-measurement"

GOLDEN = {
    "campaign": "f627ea450455da0bbe485e9e4b0cb941cc859ab9c6acf1c3105251e045e8223b",
    "campaign_faults": "052b36e0069f164acb1c160b116a866c7b2495b69fc02b0e07df2cb36690131b",
    "catchment_history": "ae0110d53cb1ff9fd6389fe555f4a4efddb3d1ca3173ae5f57f3ba665aa16017",
    "traces": "ef9dd996527b304df144d669a9589f9baee3d833851a901f289040c4d7dc1014",
}


def _sha(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()
    ).hexdigest()


def measurement_record(measurement) -> list:
    """Every field of one ConfigMeasurement, in canonical order."""
    return [
        sorted(measurement.assignment.items()),
        measurement.stats.sources_observed,
        measurement.stats.sources_in_multiple_catchments,
        measurement.bgp_paths_observed,
        measurement.traceroutes_observed,
        measurement.collectors_flapped,
        measurement.traceroutes_lost,
        sorted(measurement.traceroutes_dropped.items()),
    ]


def trace_records(campaign, outcomes) -> list:
    """Per configuration, every synthesized traceroute and each reached
    trace's repaired AS path (or drop reason), as the campaign derives it."""
    records = []
    for outcome in outcomes:
        traces = campaign.fleet.all_traceroutes(outcome)
        reached = [trace for trace in traces if trace.reached_target]
        gap_index = build_gap_index(traces, gap_queries(reached))
        segments = build_bgp_segment_index(
            campaign.collectors.observe(outcome).values()
        )
        records.append(
            [
                [[t.probe_as, list(t.hops), t.reached_target] for t in traces],
                [
                    list(as_path_with_reason(t, campaign.mapper, gap_index, segments))
                    for t in reached
                ],
            ]
        )
    return records


def golden_runs():
    """``(digests, campaign records, faulted records)`` for the pinned run."""
    testbed = build_testbed(seed=SEED, topology_params=SCALES["small"])
    tracker = SpoofTracker(testbed, workers=1)
    try:
        outcomes = tracker.engine.simulate_many(tracker.schedule[:MAX_CONFIGS])
        campaign = testbed.campaign
        traces = trace_records(campaign, outcomes)
        clean = [
            measurement_record(campaign.measure(outcome, fault_token=index))
            for index, outcome in enumerate(outcomes)
        ]
        injector = FaultInjector(load_fault_plan(FAULT_PLAN))
        faulted = [
            measurement_record(
                campaign.measure(outcome, fault_token=index, injector=injector)
            )
            for index, outcome in enumerate(outcomes)
        ]
        report = tracker.run(max_configs=MAX_CONFIGS, measured=True)
    finally:
        tracker.engine.close()
    history = [
        sorted((link, sorted(members)) for link, members in maps.items())
        for maps in report.catchment_history
    ]
    digests = {
        "campaign": _sha(clean),
        "campaign_faults": _sha(faulted),
        "catchment_history": _sha(history),
        "traces": _sha(traces),
    }
    return digests, clean, faulted


@pytest.fixture(scope="module")
def runs():
    return golden_runs()


class TestGoldenDigests:
    def test_campaign_digest(self, runs):
        digests, _, _ = runs
        assert digests["campaign"] == GOLDEN["campaign"]

    def test_faulted_campaign_digest(self, runs):
        digests, _, _ = runs
        assert digests["campaign_faults"] == GOLDEN["campaign_faults"]

    def test_catchment_history_digest(self, runs):
        digests, _, _ = runs
        assert digests["catchment_history"] == GOLDEN["catchment_history"]

    def test_trace_digest(self, runs):
        digests, _, _ = runs
        assert digests["traces"] == GOLDEN["traces"]

    def test_fault_plan_fires_both_measurement_faults(self, runs):
        _, _, faulted = runs
        assert sum(record[5] for record in faulted) > 0  # collector flaps
        assert sum(record[6] for record in faulted) > 0  # traceroute loss

    def test_faults_change_the_measurements(self, runs):
        _, clean, faulted = runs
        assert clean != faulted


class TestHashSeedInvariance:
    PROBE = textwrap.dedent(
        """
        import json, sys
        sys.path.insert(0, {tests!r})
        from test_measurement_golden import golden_runs
        print(json.dumps(golden_runs()[0], sort_keys=True))
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

    def test_digests_identical_across_hash_seeds(self):
        assert self.run_probe("0") == GOLDEN
        assert self.run_probe("4242") == GOLDEN
