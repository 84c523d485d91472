"""Tests for live-service checkpointing: kill, restore, resume, equivalence."""

import dataclasses
import json
import os
import shutil

import pytest

from repro.errors import CheckpointCorruptionError, LiveServiceError
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
    generation_path,
    register_migration,
    rotate_generations,
)

FIXTURE_V1 = os.path.join(
    os.path.dirname(__file__), "fixtures", "checkpoint_v1.json"
)


def _small_scenario(path: str, **overrides) -> ReplayScenario:
    """The small deterministic replay the migration tests checkpoint."""
    base = dict(
        seed=5,
        max_configs=3,
        min_configs=1,
        adaptive=False,
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
        adaptive=True,
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
            adaptive=False,
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
            adaptive=False,
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
                adaptive=False,
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
        assert restored.restored_via_rollback  # recovered from .bak
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
                adaptive=False,
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
    """The migration registry: v1 documents keep loading forever."""

    def test_current_documents_carry_a_written_by_envelope(
        self, small_testbed, tmp_path
    ):
        path = str(tmp_path / "v2.json")
        service = LiveTracebackService(
            scenario=_small_scenario(path), testbed=small_testbed
        )
        service.run()
        service.close()
        payload = json.load(open(path))["payload"]
        assert payload["version"] == CHECKPOINT_VERSION == 2
        assert payload["written_by"]["library"] == "repro"
        assert payload["written_by"]["schema"] == CHECKPOINT_VERSION

    def test_golden_v1_fixture_matches_native_v2_run(
        self, small_testbed, tmp_path
    ):
        """The committed v1 fixture must restore — and attribute
        identically to a from-scratch run — on every future build."""
        path = str(tmp_path / "checkpoint_v1.json")
        shutil.copy(FIXTURE_V1, path)
        restored = load_checkpoint(path)
        assert restored.checkpoint_migrated_from == 1
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

    def test_version_mismatched_primary_falls_back_to_generation(
        self, small_testbed, tmp_path
    ):
        """Satellite bugfix: a bad version routes through the same
        fallback walk as corruption instead of raising immediately."""
        path = str(tmp_path / "mixed.json")
        service = LiveTracebackService(
            scenario=_small_scenario(path), testbed=small_testbed
        )
        full = service.run()
        service.close()
        document = json.load(open(path))
        document["payload"]["version"] = 999  # future schema, intact bytes
        from repro.faults.resilience import content_checksum

        document["checksum"] = content_checksum(
            _canonical_json(document["payload"])
        )
        with open(path, "w") as handle:
            handle.write(_canonical_json(document))
        restored = load_checkpoint(path)
        assert restored.restored_via_rollback
        resumed = restored.run()
        restored.close()
        assert resumed.run_stats == full.run_stats

    def test_version_only_failure_is_not_corruption(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"version": 999}))
        with pytest.raises(LiveServiceError) as excinfo:
            load_checkpoint(str(path), allow_rollback=False)
        assert not isinstance(excinfo.value, CheckpointCorruptionError)
        assert "newer than this build" in str(excinfo.value)

    def test_registry_validates_direction(self):
        with pytest.raises(LiveServiceError):
            register_migration(2, 1, lambda payload: payload)


class TestGenerationRotation:
    """Satellite bugfix: retention-aware rotation instead of one
    immortal ``.bak``."""

    def test_keep_bounds_the_generations(self, small_testbed, tmp_path):
        path = str(tmp_path / "rotated.json")
        service = LiveTracebackService(
            scenario=_small_scenario(path, checkpoint_every=3),
            testbed=small_testbed,
        )
        service.checkpoint_keep = 2
        service.run()  # 12 windows / cadence 3: four rotations
        service.close()
        assert os.path.exists(path)
        assert os.path.exists(generation_path(path, 1))
        assert os.path.exists(generation_path(path, 2))
        assert not os.path.exists(generation_path(path, 3))

    def test_default_keep_retains_exactly_one_generation(
        self, checkpointed
    ):
        _, _, path = checkpointed
        assert os.path.exists(backup_path(path))
        assert not os.path.exists(generation_path(path, 2))

    def test_shrinking_keep_prunes_stale_generations(self, tmp_path):
        path = str(tmp_path / "shrink.json")
        for name in (path, f"{path}.1", f"{path}.2", f"{path}.3"):
            with open(name, "w") as handle:
                handle.write("{}")
        rotate_generations(path, keep=1)
        assert os.path.exists(generation_path(path, 1))
        assert not os.path.exists(generation_path(path, 2))
        assert not os.path.exists(generation_path(path, 3))

    def test_rollback_walks_generations_newest_first(
        self, small_testbed, tmp_path
    ):
        path = str(tmp_path / "walk.json")
        service = LiveTracebackService(
            scenario=_small_scenario(path, checkpoint_every=3),
            testbed=small_testbed,
        )
        service.checkpoint_keep = 3
        full = service.run()
        service.close()
        # Damage the primary AND the newest generation: recovery must
        # keep walking to ``.2``.
        for victim in (path, generation_path(path, 1)):
            with open(victim, "w") as handle:
                handle.write('{"torn":')
        restored = load_checkpoint(path)
        assert restored.restored_via_rollback
        resumed = restored.run()
        restored.close()
        assert resumed.run_stats == full.run_stats

    def test_legacy_bak_still_loads(self, small_testbed, tmp_path):
        path = str(tmp_path / "legacy.json")
        service = LiveTracebackService(
            scenario=_small_scenario(path), testbed=small_testbed
        )
        service.run()
        service.close()
        # Simulate a directory written by the pre-generation release:
        # only a primary and a ``.bak``.
        shutil.copy(path, f"{path}.bak")
        os.remove(generation_path(path, 1))
        with open(path, "w") as handle:
            handle.write("damaged")
        restored = load_checkpoint(path)
        assert restored.restored_via_rollback
        restored.close()

    def test_rotation_prunes_superseded_legacy_bak(
        self, small_testbed, tmp_path
    ):
        path = str(tmp_path / "prune.json")
        service = LiveTracebackService(
            scenario=_small_scenario(path), testbed=small_testbed
        )
        service.run()
        service.close()
        shutil.copy(path, f"{path}.bak")
        rotate_generations(path, keep=1)
        assert not os.path.exists(f"{path}.bak")
        assert os.path.exists(generation_path(path, 1))

    def test_rotation_rejects_zero_retention(self, tmp_path):
        with pytest.raises(LiveServiceError):
            rotate_generations(str(tmp_path / "x.json"), keep=0)

    def test_generation_numbers_start_at_one(self):
        with pytest.raises(LiveServiceError):
            generation_path("x.json", 0)


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(LiveServiceError):
            load_checkpoint(str(tmp_path / "absent.json"))

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 999}))
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
