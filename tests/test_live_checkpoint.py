"""Tests for live-service checkpointing: kill, restore, resume, equivalence."""

import dataclasses
import json
import os
import shutil

import pytest

from repro.errors import CheckpointCorruptionError, LiveServiceError
from repro.faults.resilience import content_checksum
from repro.live import (
    LiveTracebackService,
    ReplayScenario,
    attribution_digest,
    load_checkpoint,
    save_checkpoint,
)
from repro.live.checkpoint import (
    CHECKPOINT_VERSION,
    _canonical_json,
    backup_path,
)

from repro.live.service import _scenario_from_payload, _seeded_churn_log

FIXTURE_V1 = os.path.join(
    os.path.dirname(__file__), "fixtures", "checkpoint_v1.json"
)


def _checksummed(payload: dict) -> str:
    """``payload`` wrapped as an intact on-disk checkpoint document."""
    return _canonical_json(
        {"checksum": content_checksum(_canonical_json(payload)),
         "payload": payload}
    )


def _small_scenario(path: str, **overrides) -> ReplayScenario:
    """The small deterministic replay the migration tests checkpoint."""
    base = dict(
        seed=5,
        max_configs=3,
        min_configs=1,
        strategy="schedule",
        checkpoint_every=5,
        checkpoint_path=path,
    )
    base.update(overrides)
    return ReplayScenario(**base)


@pytest.fixture(scope="module")
def checkpointed(small_testbed, tmp_path_factory):
    """An uninterrupted run that left periodic checkpoints behind.

    The checkpoint file holds the *last* periodic snapshot (window 21 of
    24), so loading it simulates a run killed three windows before the
    end.
    """
    path = str(tmp_path_factory.mktemp("live") / "checkpoint.json")
    scenario = ReplayScenario(
        seed=5,
        max_configs=6,
        checkpoint_every=7,
        checkpoint_path=path,
    )
    service = LiveTracebackService(scenario=scenario, testbed=small_testbed)
    report = service.run()
    yield service, report, path
    service.close()


class TestRoundTrip:
    def test_restored_state_matches_killed_state(self, checkpointed):
        service, _, path = checkpointed
        restored = load_checkpoint(path)
        assert restored.universe == service.universe
        assert restored.scenario == service.scenario
        assert restored.spec == service.spec
        assert [c.key() for c in restored.schedule] == [
            c.key() for c in service.schedule
        ]
        # The snapshot was taken at window 21; the restored run hasn't
        # replayed the last windows yet.
        assert restored.window_index == 21
        assert not restored._finished
        restored.close()

    def test_killed_then_restored_equals_uninterrupted(self, checkpointed):
        _, uninterrupted, path = checkpointed
        restored = load_checkpoint(path)
        resumed = restored.run()
        restored.close()
        assert resumed.windows == uninterrupted.windows
        assert resumed.run_stats == uninterrupted.run_stats
        assert resumed.clusters == uninterrupted.clusters
        before = {
            frozenset(c.members): c.estimated_volume
            for c in uninterrupted.localization.ranked
        }
        after = {
            frozenset(c.members): c.estimated_volume
            for c in resumed.localization.ranked
        }
        assert before.keys() == after.keys()
        for members, volume in before.items():
            assert after[members] == pytest.approx(volume, abs=1e-12)

    def test_finished_run_round_trips_idempotently(
        self, checkpointed, tmp_path
    ):
        service, report, _ = checkpointed
        path = str(tmp_path / "final.json")
        save_checkpoint(service, path)
        restored = load_checkpoint(path)
        assert restored._finished
        again = restored.run()  # idempotent: nothing left to do
        restored.close()
        assert again.windows == report.windows
        assert again.run_stats == report.run_stats

    def test_packet_mode_resume_is_deterministic(
        self, small_testbed, tmp_path
    ):
        path = str(tmp_path / "packets.json")
        scenario = ReplayScenario(
            seed=5,
            max_configs=3,
            min_configs=1,
            strategy="schedule",
            packets_per_window=200,
            checkpoint_every=5,
            checkpoint_path=path,
        )
        service = LiveTracebackService(scenario=scenario, testbed=small_testbed)
        full = service.run()
        service.close()
        restored = load_checkpoint(path)
        resumed = restored.run()
        restored.close()
        # Stateless per-window traffic seeding: the resumed run replays
        # the exact packet batches the killed run would have generated.
        assert resumed.windows == full.windows
        assert resumed.run_stats == full.run_stats

    def test_churn_state_survives_restore(self, small_testbed, tmp_path):
        path = str(tmp_path / "churn.json")
        scenario = ReplayScenario(
            seed=5,
            max_configs=3,
            min_configs=1,
            strategy="schedule",
            churn_events=((2, 0.5),),
            checkpoint_every=5,
            checkpoint_path=path,
        )
        service = LiveTracebackService(scenario=scenario, testbed=small_testbed)
        full = service.run()
        service.close()
        restored = load_checkpoint(path)
        assert restored.churn_log == service.churn_log
        resumed = restored.run()
        restored.close()
        assert resumed.windows == full.windows
        assert resumed.run_stats == full.run_stats

    def test_resume_after_unremeasured_churn_equals_uninterrupted(
        self, small_testbed, tmp_path
    ):
        """A remeasuring churn followed by one that does not remeasure:
        the resumed run must plan with the first strike's maps and
        generate traffic from the second's ground truth."""
        path = str(tmp_path / "two-churns.json")
        scenario = ReplayScenario(
            seed=5,
            max_configs=12,
            min_configs=12,
            strategy="greedy",
            churn_events=((2, 1.0), (5, 0.0)),
            churn_remeasure_threshold=0.1,
        )
        full_service = LiveTracebackService(
            scenario=scenario, testbed=small_testbed
        )
        full = full_service.run()
        full_service.close()
        assert [e["remeasured"] for e in full_service.churn_log] == [
            True, False,
        ]

        killed = LiveTracebackService(scenario=scenario, testbed=small_testbed)
        while killed.window_index < 6:
            assert killed.step()
        killed.checkpoint(path)
        killed.close()
        attributor = json.load(open(path))["payload"]["attributor"]
        assert set(attributor) == {"observations"}  # no clusters
        observations = attributor["observations"]
        assert not any("catchments" in obs for obs in observations)

        restored = load_checkpoint(path, testbed=small_testbed)
        resumed = restored.run()
        restored.close()
        assert restored.deployed == full_service.deployed
        assert resumed.windows == full.windows
        assert attribution_digest(resumed) == attribution_digest(full)

    def test_unseeded_churn_entries_take_the_run_window_seeds(self):
        """Version 1 and 2 documents logged churn without seeds."""
        scenario = ReplayScenario(seed=5, churn_events=((2, 0.5), (5, 0.1)))
        entries = [
            {"window": 2, "drift": 0.5, "remeasured": True},
            {"window": 2, "drift": 0.3, "remeasured": False},  # storm
            {"window": 4, "drift": 0.3, "remeasured": False},  # storm
            {"window": 6, "drift": 0.1, "remeasured": False},  # event 1
            {"window": 6, "drift": 0.3, "remeasured": True},  # storm
        ]
        seeds = [e["churn_seed"] for e in _seeded_churn_log(entries, scenario)]
        assert seeds == [
            5 + 101, 5 + 10_101 + 2, 5 + 10_101 + 4, 5 + 101 + 1,
            5 + 10_101 + 6,
        ]
        seeded = [dict(entry, churn_seed=7) for entry in entries]
        assert _seeded_churn_log(seeded, scenario) == seeded


class TestCheckpointLocation:
    """Checkpoints sharing one directory, and checkpoints that move."""

    @pytest.fixture()
    def two_runs(self, small_testbed, tmp_path):
        """Two services checkpointing into one shared directory."""
        paths = {}
        for seed in (5, 6):
            path = str(tmp_path / f"run-{seed}.json")
            scenario = ReplayScenario(
                seed=seed,
                max_configs=3,
                min_configs=1,
                strategy="schedule",
                checkpoint_every=5,
                checkpoint_path=path,
            )
            service = LiveTracebackService(
                scenario=scenario, testbed=small_testbed
            )
            service.run()
            service.close()
            paths[seed] = path
        return paths

    def test_sibling_runs_write_independent_documents(self, two_runs):
        paths = list(two_runs.values())
        assert len(set(paths)) == 2
        for path in paths:
            assert json.load(open(path))  # intact primary
            assert json.load(open(backup_path(path)))  # rotated previous
        # The two runs saw different traffic: distinct state documents.
        bodies = [open(path).read() for path in paths]
        assert bodies[0] != bodies[1]

    def test_corrupting_one_run_leaves_the_other_intact(self, two_runs):
        victim, bystander = two_runs.values()
        with open(victim, "w") as handle:
            handle.write('{"torn":')  # torn write on the primary
        restored = load_checkpoint(victim)
        assert restored.restored_via_rollback  # recovered from .1
        restored.close()
        untouched = load_checkpoint(bystander)
        assert not untouched.restored_via_rollback
        untouched.close()

    def test_checkpoint_bytes_are_location_independent(
        self, small_testbed, tmp_path
    ):
        bodies = []
        for directory in ("one", "two"):
            path = str(tmp_path / directory / "live.json")
            scenario = ReplayScenario(
                seed=5,
                max_configs=3,
                min_configs=1,
                strategy="schedule",
                checkpoint_every=5,
                checkpoint_path=path,
            )
            service = LiveTracebackService(
                scenario=scenario, testbed=small_testbed
            )
            service.run()
            service.close()
            bodies.append(open(path).read())
        assert bodies[0] == bodies[1]

    def test_relocated_checkpoint_rebinds_future_writes(
        self, two_runs, tmp_path
    ):
        source = next(iter(two_runs.values()))
        moved = str(tmp_path / "elsewhere" / "moved.json")
        os.makedirs(os.path.dirname(moved))
        shutil.copy(source, moved)
        restored = load_checkpoint(moved)
        assert restored.scenario.checkpoint_path == moved
        restored.close()


class TestSchemaVersioning:
    """Accepted versions: v1, v2 and v3 documents keep loading."""

    def test_current_documents_store_only_observed_state(
        self, small_testbed, tmp_path
    ):
        path = str(tmp_path / "v4.json")
        service = LiveTracebackService(
            scenario=_small_scenario(path), testbed=small_testbed
        )
        service.run()
        service.close()
        payload = json.load(open(path))["payload"]
        assert payload["version"] == CHECKPOINT_VERSION == 4
        assert not {"written_by", "window"} & set(payload)
        assert set(payload["ingest"]) == {"stats"}
        assert "half_life_windows" not in payload["scenario"]
        assert set(payload["attributor"]) == {"observations"}
        for entry in payload["attributor"]["observations"]:
            assert set(entry) == {"volumes", "offered_volume"}
        assert not {"last_churn", "maps_fresh"} & set(payload["progress"])
        for row in payload["progress"]["windows"]:
            assert not {"queue_depth", "recent_concentration"} & set(row)

    def test_golden_v1_fixture_matches_native_v2_run(
        self, small_testbed, tmp_path
    ):
        """The committed v1 fixture must restore — and attribute
        identically to a from-scratch run — on every future build."""
        path = str(tmp_path / "checkpoint_v1.json")
        shutil.copy(FIXTURE_V1, path)
        restored = load_checkpoint(path)
        assert restored.scenario.strategy == "schedule"  # was adaptive: false
        # The restored service saves *current*-schema documents again.
        save_checkpoint(restored, path)
        assert json.load(open(path))["payload"]["version"] == (
            CHECKPOINT_VERSION
        )
        resumed = restored.run()
        restored.close()
        native = LiveTracebackService(
            scenario=_small_scenario(str(tmp_path / "native.json")),
            testbed=small_testbed,
        )
        full = native.run()
        native.close()
        assert attribution_digest(resumed) == attribution_digest(full)

    def test_retired_adaptive_switch_resumes_as_schedule(self):
        """``adaptive: false`` bypassed the greedy strategy, whose
        convergence check is the schedule strategy's; any other stored
        strategy would now observe and converge differently."""
        stored = json.load(open(FIXTURE_V1))["payload"]["scenario"]
        assert "strategy" not in stored and stored["adaptive"] is False
        for extra in ({}, {"strategy": "greedy"}):
            scenario = _scenario_from_payload(dict(stored, **extra))
            assert scenario.strategy == "schedule"
        kept = _scenario_from_payload(
            dict(stored, adaptive=True, strategy="bisect")
        )
        assert kept.strategy == "bisect"
        with pytest.raises(LiveServiceError, match="bgpeek"):
            _scenario_from_payload(dict(stored, strategy="bgpeek"))

    def test_version_mismatched_primary_falls_back_to_generation(
        self, small_testbed, tmp_path
    ):
        """A bad version routes through the same fallback walk as
        corruption instead of raising immediately."""
        path = str(tmp_path / "mixed.json")
        service = LiveTracebackService(
            scenario=_small_scenario(path), testbed=small_testbed
        )
        full = service.run()
        service.close()
        document = json.load(open(path))
        document["payload"]["version"] = 999  # future schema, intact bytes
        with open(path, "w") as handle:
            handle.write(_checksummed(document["payload"]))
        restored = load_checkpoint(path)
        assert restored.restored_via_rollback
        resumed = restored.run()
        restored.close()
        assert resumed.run_stats == full.run_stats

    def test_version_only_failure_is_not_corruption(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(_checksummed({"version": 999}))
        with pytest.raises(LiveServiceError) as excinfo:
            load_checkpoint(str(path))
        assert not isinstance(excinfo.value, CheckpointCorruptionError)
        assert "newer than this build" in str(excinfo.value)

    def test_version_2_document_loads(self, small_testbed, tmp_path):
        """A v2 document — written_by envelope, stored maps and clusters,
        unseeded churn — resumes to the native run."""

        def as_v2(payload):
            payload["version"] = 2
            payload["written_by"] = {"library": "repro", "schema": 2}
            payload["attributor"]["clusters"] = [[0]]  # ignored on load
            for entry in payload["progress"]["churn_log"]:
                del entry["churn_seed"]

        _assert_legacy_document_resumes(small_testbed, tmp_path, as_v2)

    def test_version_3_document_loads(self, small_testbed, tmp_path):
        """A v3 document — empty pending queue, decaying window, labelled
        observations with window counts, per-window queue depth and
        concentration, a scenario half-life — resumes to the native run."""

        def as_v3(payload):
            payload["version"] = 3
            payload["window"] = {"l1": 0.5}
            payload["ingest"]["pending"] = []
            payload["scenario"]["half_life_windows"] = 4.0
            for entry in payload["attributor"]["observations"]:
                entry["label"] = "loc:AMS-IX"
                entry["windows"] = 4
            for row in payload["progress"]["windows"]:
                row["queue_depth"] = 0
                row["recent_concentration"] = 0.675

        _assert_legacy_document_resumes(small_testbed, tmp_path, as_v3)


def _assert_legacy_document_resumes(small_testbed, tmp_path, downgrade):
    """A native checkpoint rewritten by ``downgrade`` into an older
    schema loads and resumes to the uninterrupted run's attribution."""
    path = str(tmp_path / "legacy.json")
    scenario = _small_scenario(path, churn_events=((2, 0.5),))
    native = LiveTracebackService(scenario=scenario, testbed=small_testbed)
    full = native.run()
    native.close()
    payload = json.load(open(path))["payload"]
    downgrade(payload)
    with open(path, "w") as handle:
        handle.write(_checksummed(payload))
    os.remove(backup_path(path))
    restored = load_checkpoint(path)
    assert not restored.restored_via_rollback
    assert restored.churn_log == native.churn_log
    resumed = restored.run()
    restored.close()
    assert resumed.windows == full.windows
    assert attribution_digest(resumed) == attribution_digest(full)


class TestGenerationRotation:
    """One backup generation: each save moves the previous checkpoint
    to ``<path>.1``."""

    def test_default_keep_retains_exactly_one_generation(
        self, checkpointed
    ):
        _, _, path = checkpointed
        assert os.path.exists(backup_path(path))
        assert not os.path.exists(f"{path}.2")

    def test_rollback_walks_generations_newest_first(
        self, small_testbed, tmp_path
    ):
        """The primary first, then ``.1``; with both damaged there is
        nothing left to walk to."""
        path = str(tmp_path / "walk.json")
        service = LiveTracebackService(
            scenario=_small_scenario(path, checkpoint_every=3),
            testbed=small_testbed,
        )
        full = service.run()
        service.close()
        with open(path, "w") as handle:
            handle.write('{"torn":')
        restored = load_checkpoint(path)
        assert restored.restored_via_rollback
        with open(backup_path(path), "w") as handle:
            handle.write('{"torn":')
        with pytest.raises(CheckpointCorruptionError):
            load_checkpoint(path)
        resumed = restored.run()
        restored.close()
        assert resumed.run_stats == full.run_stats

    def test_unchecksummed_primary_is_damaged(self, small_testbed, tmp_path):
        """A document stripped down to its bare payload has lost its
        integrity check: rollback walks on to ``.1``, and with no
        generation left it is corruption, not a legacy format."""
        path = str(tmp_path / "bare.json")
        service = LiveTracebackService(
            scenario=_small_scenario(path), testbed=small_testbed
        )
        service.run()
        service.close()
        bare = json.load(open(path))["payload"]
        with open(path, "w") as handle:
            handle.write(_canonical_json(bare))
        restored = load_checkpoint(path)
        assert restored.restored_via_rollback
        restored.close()
        os.remove(backup_path(path))
        with pytest.raises(CheckpointCorruptionError) as excinfo:
            load_checkpoint(path)
        assert "no checksum" in str(excinfo.value)


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(LiveServiceError):
            load_checkpoint(str(tmp_path / "absent.json"))

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(_checksummed({"version": 999}))
        with pytest.raises(LiveServiceError):
            load_checkpoint(str(path))

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json")
        with pytest.raises(LiveServiceError):
            load_checkpoint(str(path))

    def test_spec_less_testbed_cannot_checkpoint(self, small_testbed):
        bare = dataclasses.replace(small_testbed, spec=None)
        service = LiveTracebackService(
            scenario=ReplayScenario(seed=5, max_configs=2, min_configs=1),
            testbed=bare,
        )
        with pytest.raises(LiveServiceError):
            service.as_serializable()
        service.close()
