"""Serialize/restore the full live-service state for mid-attack resume.

A checkpoint is a single JSON document.  Derivable state — topology,
routing, schedule, stale catchment maps — is *not* stored: it is rebuilt
deterministically from the embedded :class:`~repro.core.pipeline.TestbedSpec`
on load.  Only observed state travels: the clock, controller and
attributor progress, pending ingest batches with their drop accounting,
the decaying volume window, and the per-window statistics emitted so far.
Traffic uses stateless per-window seeding, so no PRNG state is needed:
a restored run replays the exact windows the killed run would have seen.

**Integrity**: the on-disk document wraps the state payload with a
SHA-256 content checksum, writes are atomic (tmp file + fsync + rename),
and previous checkpoints are rotated through bounded generations
``<path>.1 .. <path>.K`` first (``keep=K``, default 1; stale generations
beyond the retention are pruned).  A torn or corrupted write is detected
on load and recovery walks the generations newest-first; only when every
candidate is damaged does :func:`load_checkpoint` raise
:class:`~repro.errors.CheckpointCorruptionError`.

**Versioning**: documents carry a schema ``version`` plus a
``written_by`` envelope naming the writing release.  Old documents load
through the migration registry (:func:`register_migration`): a chain of
pure payload transforms upgrades any historical version to the current
one, so a checkpoint written by release N restores under release N+1 —
version mismatch is recoverable exactly like corruption (fall through to
an older generation) instead of bricking resume.  Saves always write
the current version; the golden v1 fixture under ``tests/fixtures``
keeps the upgrade chain honest.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..errors import CheckpointCorruptionError, LiveServiceError
from ..faults.resilience import atomic_write_text, content_checksum

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .service import LiveTracebackService

#: Current checkpoint document version (the version :func:`save_checkpoint`
#: writes; older documents load through the migration chain).
CHECKPOINT_VERSION = 2

#: Payload transform applied during an upgrade step.
Migration = Callable[[dict], dict]

#: ``from_version -> (to_version, transform)`` upgrade steps.  Loading
#: chains these until the payload reaches :data:`CHECKPOINT_VERSION`.
_MIGRATIONS: Dict[int, Tuple[int, Migration]] = {}


def register_migration(
    from_version: int, to_version: int, fn: Migration
) -> None:
    """Register an upgrade step ``from_version -> to_version``.

    Steps must move forward one registry hop at a time; loading chains
    them until the payload reaches :data:`CHECKPOINT_VERSION`.  The
    transform receives the payload dict and returns the upgraded payload
    (it may mutate a copy; it must set ``payload["version"]``).
    """
    if to_version <= from_version:
        raise LiveServiceError(
            f"migrations must move forward ({from_version} -> {to_version})"
        )
    _MIGRATIONS[from_version] = (to_version, fn)


def migrate_payload(payload: dict) -> Tuple[dict, Optional[int], str]:
    """Upgrade ``payload`` to :data:`CHECKPOINT_VERSION` via the registry.

    Returns ``(payload, migrated_from, reason)``: ``migrated_from`` is
    the original version when a migration ran (None when the document
    was already current), and ``reason`` is non-empty when no migration
    path exists (future versions, gaps in the chain, missing version).
    """
    version = payload.get("version")
    if version == CHECKPOINT_VERSION:
        return payload, None, ""
    if not isinstance(version, int):
        return payload, None, f"checkpoint has no usable version ({version!r})"
    if version > CHECKPOINT_VERSION:
        return payload, None, (
            f"checkpoint version {version} is newer than this build's "
            f"{CHECKPOINT_VERSION}; no downgrade path on load"
        )
    original = version
    current = dict(payload)
    while version != CHECKPOINT_VERSION:
        step = _MIGRATIONS.get(version)
        if step is None:
            return payload, None, (
                f"no migration path from checkpoint version {original} "
                f"(chain stops at {version}; this build reads "
                f"{CHECKPOINT_VERSION})"
            )
        version, fn = step
        current = fn(dict(current))
        current["version"] = version
    return current, original, ""


def _migrate_1_to_2(payload: dict) -> dict:
    """v1 -> v2: introduce the ``written_by`` schema envelope.

    v1 documents predate the envelope; the restored service regenerates
    it at the next save, so the marker injected here is informational
    only and never reaches disk.
    """
    payload["written_by"] = {
        "library": "repro",
        "release": "pre-1.0",
        "schema": 2,
        "migrated_from": 1,
    }
    return payload


register_migration(1, 2, _migrate_1_to_2)


def generation_path(path: str, generation: int) -> str:
    """Path of one rotated checkpoint generation (1 = newest backup)."""
    if generation < 1:
        raise LiveServiceError("checkpoint generations start at 1")
    return f"{path}.{generation}"


def backup_path(path: str) -> str:
    """Where :func:`save_checkpoint` rotates the previous checkpoint
    (the newest retained generation, ``<path>.1``)."""
    return generation_path(path, 1)


def rotate_generations(path: str, keep: int = 1) -> None:
    """Rotate ``path`` into bounded generations ``path.1 .. path.keep``.

    The existing primary becomes ``.1``, ``.1`` becomes ``.2``, and so
    on; the generation that falls off the end — plus any stale
    generations beyond the retention — is pruned.  No-op when no
    primary exists yet.
    """
    if keep < 1:
        raise LiveServiceError("checkpoint retention must keep >= 1 copies")
    if os.path.exists(path):
        for generation in range(keep, 1, -1):
            older = generation_path(path, generation - 1)
            if os.path.exists(older):
                os.replace(older, generation_path(path, generation))
        os.replace(path, generation_path(path, 1))
    stale = keep + 1
    while os.path.exists(generation_path(path, stale)):
        os.remove(generation_path(path, stale))
        stale += 1


def _canonical_json(payload) -> str:
    """The canonical encoding the checksum covers."""
    return json.dumps(payload, indent=2, sort_keys=True)


def save_checkpoint(
    service: "LiveTracebackService",
    path: str,
    keep: Optional[int] = None,
) -> str:
    """Write the service's full state to ``path`` as JSON; returns the path.

    The write is atomic, and existing checkpoints rotate through bounded
    generations first (``keep``, defaulting to the service's configured
    ``checkpoint_keep``), so at every instant at least one intact
    checkpoint exists on disk.
    """
    from ..obs import ensure_parent_dir

    payload = service.as_serializable()
    scenario = payload.get("scenario")
    if isinstance(scenario, dict) and scenario.get("checkpoint_path"):
        # Store only the filename: the document must not depend on where
        # it lives (byte-identical checkpoints across directories), and
        # the loader rebinds future checkpoints to wherever it was read
        # from, so a relocated checkpoint keeps working.
        scenario["checkpoint_path"] = os.path.basename(
            str(scenario["checkpoint_path"])
        )
    body = _canonical_json(payload)
    document = {"checksum": content_checksum(body), "payload": payload}
    ensure_parent_dir(path)
    if keep is None:
        keep = int(getattr(service, "checkpoint_keep", 1) or 1)
    rotate_generations(path, keep=keep)
    return atomic_write_text(path, _canonical_json(document))


def _read_payload(path: str) -> Tuple[dict, str]:
    """Load and verify one checkpoint document.

    Returns ``(payload, "")`` on success or ``({}, reason)`` when the
    file is unreadable, malformed, lacks its checksum wrapper, or fails
    its checksum.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return {}, f"cannot read checkpoint {path!r}: {exc}"
    if not isinstance(document, dict):
        return {}, f"checkpoint {path!r} is not a JSON object"
    if "checksum" not in document:
        return {}, f"checkpoint {path!r} carries no checksum"
    payload = document.get("payload")
    if not isinstance(payload, dict):
        return {}, f"checkpoint {path!r} has no payload"
    expected = document["checksum"]
    actual = content_checksum(_canonical_json(payload))
    if actual != expected:
        return {}, (
            f"checkpoint {path!r} failed its integrity check "
            f"(checksum {actual[:12]}… != recorded {str(expected)[:12]}…)"
        )
    return payload, ""


def _candidate_paths(path: str, allow_rollback: bool) -> List[str]:
    """The primary plus every fallback document, newest first."""
    candidates = [path]
    if not allow_rollback:
        return candidates
    generation = 1
    while os.path.exists(generation_path(path, generation)):
        candidates.append(generation_path(path, generation))
        generation += 1
    return candidates


def load_checkpoint(
    path: str,
    allow_rollback: bool = True,
    testbed=None,
) -> "LiveTracebackService":
    """Rebuild a service from a checkpoint written by :func:`save_checkpoint`.

    Candidates are tried newest-first: the primary, then every rotated
    generation (``<path>.1`` …).  A candidate is rejected — and the next
    one tried — when it is damaged *or* when no migration path upgrades
    its version; a half-upgraded write pair therefore falls back to the
    older-but-loadable copy instead of bricking resume.

    Args:
        path: checkpoint JSON path.
        allow_rollback: when the primary document is unusable, fall back
            to rotated generations; the restored service has
            ``restored_via_rollback`` set so callers can account the
            recovery.
        testbed: pre-built testbed matching the checkpoint's spec.

    The restored service carries ``checkpoint_migrated_from`` (the
    original document version, or None when it was already current) so
    callers can count migrations.

    Raises:
        CheckpointCorruptionError: when every candidate document is
            damaged (unreadable, malformed, unchecksummed, or
            checksum-failed).
        LiveServiceError: when the only failures are version-related
            (no candidate had a migration path).
    """
    from .service import LiveTracebackService

    payload: Optional[dict] = None
    migrated_from: Optional[int] = None
    loaded_from = path
    reasons: List[str] = []
    saw_damage = False
    for candidate in _candidate_paths(path, allow_rollback):
        doc, reason = _read_payload(candidate)
        if reason:
            saw_damage = True
            reasons.append(reason)
            continue
        doc, original, reason = migrate_payload(doc)
        if reason:
            reasons.append(f"{candidate!r}: {reason}")
            continue
        payload, migrated_from, loaded_from = doc, original, candidate
        break
    if payload is None:
        detail = "; ".join(reasons) or f"no checkpoint at {path!r}"
        if saw_damage:
            raise CheckpointCorruptionError(detail)
        raise LiveServiceError(detail)
    scenario_payload = payload.get("scenario")
    if isinstance(scenario_payload, dict) and scenario_payload.get(
        "checkpoint_path"
    ):
        # The document stores only a filename; future checkpoints of the
        # restored service go where this one was loaded from.
        scenario_payload["checkpoint_path"] = path
    service = LiveTracebackService.from_serializable(payload, testbed=testbed)
    service.restored_via_rollback = loaded_from != path
    service.checkpoint_migrated_from = migrated_from
    return service
