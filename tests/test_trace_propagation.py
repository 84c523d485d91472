"""Span-tree determinism + flight-dump determinism.

Two halves of the contract:

* span identity is pure structure, so the span tree — and its
  :func:`span_tree_signature` — matches a pinned serial oracle; and
* flight bundles capture only the deterministic projection, so the same
  seeded kill scenario dumps byte-identical black boxes across
  interpreter hash seeds and across the serial/asyncio fleet drivers,
  and its reconstructed timeline digest is a replay invariant.
"""

import asyncio
import hashlib
import os
import subprocess
import sys
import textwrap

from repro.fleet import (
    CRASH,
    FleetEvent,
    FleetRuntime,
    FleetSpec,
    scripted_stream,
)
from repro.core.pipeline import SpoofTracker
from repro.obs import (
    Observability,
    build_timeline,
    load_spans,
    span_tree_signature,
)
from repro.topology.generator import TopologyParams
from tests.test_obs import TRACK_SPAN_SIGNATURE

#: 2 tenants x 1 attack: the smallest fleet where a kill is observable.
TWO_SHARD_SPEC = FleetSpec(
    seed=11,
    tenants=2,
    attacks_per_tenant=1,
    max_configs=3,
    num_sources=6,
    num_links=5,
    num_vantages=12,
    num_probes=40,
    checkpoint_every=2,
    topology_params=TopologyParams(
        num_tier1=4, num_transit=24, num_stub=90, seed=1
    ),
)

#: The shard every kill scenario here targets.
VICTIM = ("tenant-00", "198.18.0.0/29")


def crash_events(spec):
    return scripted_stream(
        spec,
        [
            FleetEvent(
                minute=120.0, action=CRASH,
                tenant=VICTIM[0], prefix=VICTIM[1],
            )
        ],
    )


def run_crashed_fleet(tmp_path, use_async=False):
    """Run the kill scenario; returns the fleet report.

    ``tmp_path`` gets ``ckpt/`` and ``flight/`` subdirectories.
    """
    runtime = FleetRuntime(
        TWO_SHARD_SPEC,
        events=crash_events(TWO_SHARD_SPEC),
        checkpoint_dir=str(tmp_path / "ckpt"),
        flight_dir=str(tmp_path / "flight"),
    )
    try:
        if use_async:
            return asyncio.run(runtime.run_async())
        return runtime.run()
    finally:
        runtime.close()


def bundle_hashes(flight_dir):
    """Sorted (filename, sha256-of-bytes) for every bundle in a dir."""
    hashes = []
    for name in sorted(os.listdir(flight_dir)):
        if name.startswith("flight-") and name.endswith(".json"):
            with open(os.path.join(flight_dir, name), "rb") as handle:
                hashes.append(
                    (name, hashlib.sha256(handle.read()).hexdigest())
                )
    return hashes


class TestSerialSpanTree:
    def _run(self, testbed):
        obs = Observability.for_run("track")
        SpoofTracker(testbed, obs=obs).run(max_configs=10)
        obs.tracer.finish()
        return obs

    def test_span_signature_pinned_and_survives_jsonl(
        self, small_testbed, tmp_path
    ):
        obs = self._run(small_testbed)
        signature = span_tree_signature(obs.tracer.records())
        assert signature == TRACK_SPAN_SIGNATURE
        # The signature survives the JSONL round trip (what the CLI
        # writes is what `spooftrack timeline --trace` reads back).
        path = str(tmp_path / "trace.jsonl")
        obs.tracer.write_jsonl(path)
        assert span_tree_signature(load_spans(path)) == signature

    def test_simulation_spans_nest_under_engine_batch(self, small_testbed):
        spans = self._run(small_testbed).tracer.records()
        by_id = {span["span_id"]: span for span in spans}
        parents = {
            span["span_id"]: by_id[span["parent_id"]]["name"]
            for span in spans
            if span["parent_id"]  # every span but the root has a parent
        }
        children = [
            span for span in spans
            if parents.get(span["span_id"]) == "engine_batch"
        ]
        assert children
        for span in children:
            assert span["name"] in ("simulate", "warm_start")
            assert span["attrs"]["configs"] >= 1


class TestFlightDumpDeterminism:
    def test_kill_produces_bundle_and_stable_timeline(self, tmp_path):
        report = run_crashed_fleet(tmp_path)
        by_key = {shard.key: shard for shard in report.shards}
        assert by_key[VICTIM].crashes == 1 and by_key[VICTIM].resumes == 1
        hashes = bundle_hashes(tmp_path / "flight")
        assert any("kill" in name for name, _ in hashes)
        # Reconstruction is deterministic: two reads, one digest.
        timeline = build_timeline(
            flight_dir=str(tmp_path / "flight"),
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        again = build_timeline(
            flight_dir=str(tmp_path / "flight"),
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        assert len(timeline) > 0
        assert timeline.digest() == again.digest()

    def test_replays_dump_identical_bundles_and_timelines(self, tmp_path):
        run_crashed_fleet(tmp_path / "a")
        run_crashed_fleet(tmp_path / "b")
        assert bundle_hashes(tmp_path / "a" / "flight") == bundle_hashes(
            tmp_path / "b" / "flight"
        )
        digests = [
            build_timeline(
                flight_dir=str(tmp_path / run / "flight"),
                checkpoint_dir=str(tmp_path / run / "ckpt"),
            ).digest()
            for run in ("a", "b")
        ]
        assert digests[0] == digests[1]

    def test_asyncio_driver_dumps_identical_bundles(self, tmp_path):
        run_crashed_fleet(tmp_path / "serial")
        run_crashed_fleet(tmp_path / "asyncio", use_async=True)
        serial = bundle_hashes(tmp_path / "serial" / "flight")
        fanned = bundle_hashes(tmp_path / "asyncio" / "flight")
        assert serial and serial == fanned


class TestHashSeedInvariance:
    """Bundles must not depend on the interpreter's string hash seed.

    Ring entries pass through dicts keyed by strings; canonical JSON
    (sort_keys) is what keeps the bundle bytes seed-independent.  Only a
    subprocess pinned to a different PYTHONHASHSEED can prove it.
    """

    PROBE = textwrap.dedent(
        """
        import hashlib, os, sys, tempfile

        from repro.fleet import (
            CRASH, FleetEvent, FleetRuntime, FleetSpec, scripted_stream,
        )
        from repro.obs import build_timeline
        from repro.topology.generator import TopologyParams

        spec = FleetSpec(
            seed=11, tenants=2, attacks_per_tenant=1, max_configs=3,
            num_sources=6, num_links=5, num_vantages=12, num_probes=40,
            checkpoint_every=2,
            topology_params=TopologyParams(
                num_tier1=4, num_transit=24, num_stub=90, seed=1
            ),
        )
        events = scripted_stream(spec, [
            FleetEvent(minute=120.0, action=CRASH,
                       tenant="tenant-00", prefix="198.18.0.0/29"),
        ])
        base = tempfile.mkdtemp()
        flight_dir = os.path.join(base, "flight")
        runtime = FleetRuntime(
            spec, events=events,
            checkpoint_dir=os.path.join(base, "ckpt"),
            flight_dir=flight_dir,
        )
        try:
            runtime.run()
        finally:
            runtime.close()
        for name in sorted(os.listdir(flight_dir)):
            with open(os.path.join(flight_dir, name), "rb") as handle:
                print(name, hashlib.sha256(handle.read()).hexdigest())
        print("timeline", build_timeline(flight_dir=flight_dir).digest())
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

    def test_bundles_identical_across_hash_seeds(self):
        first = self.run_probe("11")
        second = self.run_probe("22")
        assert "kill" in first
        assert first == second
