"""Serialize/restore the live-service state for mid-attack resume.

A checkpoint is a single JSON document holding only *observed* state:
the clock, controller progress, each deployed configuration's per-link
and offered volume, the ingest drop accounting, the per-window
statistics emitted so far, and the churn log (each strike's window,
drift, seed and remeasurement decision).  Checkpoints fall between
windows, and a window drains every batch it offers, so no queued batch
is ever stored.  Everything derivable is rebuilt on load from the embedded
:class:`~repro.core.pipeline.TestbedSpec`: topology, routing, schedule
and the pre-attack catchment maps, then — replaying the churn log — the
drifted ground truth, the remeasured maps, and the attributor's maps
and partition.  Traffic uses stateless per-window seeding, so no PRNG
state is needed: a restored run replays the exact windows the killed
run would have seen.

**Integrity**: the on-disk document wraps the state payload with a
SHA-256 content checksum, and writes are atomic (tmp file + fsync +
rename).  Each save first moves the previous checkpoint to the single
backup ``<path>.1``.  A torn or corrupted primary is detected on load
and recovery rolls back to ``.1``; only when both are damaged does
:func:`load_checkpoint` raise
:class:`~repro.errors.CheckpointCorruptionError`.

**Versioning**: documents carry a schema ``version``.  Saves write
:data:`CHECKPOINT_VERSION`; loads accept every version in
:data:`ACCEPTED_VERSIONS`.  Versions 1 and 2 also stored derived state
(catchment maps, clusters), which the loader ignores, and their churn
entries lack seeds, which the service fills in from its scenario.
Versions 1-3 also stored state nothing read (an always-empty queue, a
decaying volume window, per-observation labels and window counts, a
zero queue depth per window row); the loader ignores it.  A
newer or unknown version is not corruption: the loader falls back to
``.1`` like a damaged document, and raises
:class:`~repro.errors.LiveServiceError` when no candidate loads.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..errors import CheckpointCorruptionError, LiveServiceError
from ..faults.resilience import atomic_write_text, content_checksum

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .service import LiveTracebackService

#: Checkpoint document version :func:`save_checkpoint` writes.
CHECKPOINT_VERSION = 4

#: Document versions :func:`load_checkpoint` restores.
ACCEPTED_VERSIONS = (1, 2, 3, CHECKPOINT_VERSION)


def backup_path(path: str) -> str:
    """Where :func:`save_checkpoint` moves the previous checkpoint."""
    return f"{path}.1"


def _canonical_json(payload) -> str:
    """The canonical encoding the checksum covers."""
    return json.dumps(payload, indent=2, sort_keys=True)


def save_checkpoint(service: "LiveTracebackService", path: str) -> str:
    """Write the service's state to ``path`` as JSON; returns the path.

    The write is atomic, and an existing checkpoint is moved to
    :func:`backup_path` first, so at every instant at least one intact
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
    if os.path.exists(path):
        os.replace(path, backup_path(path))
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


def _version_problem(payload: dict) -> str:
    """Why this build cannot restore ``payload``'s version ("" if it can)."""
    version = payload.get("version")
    if version in ACCEPTED_VERSIONS:
        return ""
    if isinstance(version, int) and version > CHECKPOINT_VERSION:
        return (
            f"checkpoint version {version} is newer than this build's "
            f"{CHECKPOINT_VERSION}"
        )
    return (
        f"checkpoint version {version!r} is not one of "
        f"{list(ACCEPTED_VERSIONS)}"
    )


def load_checkpoint(path: str, testbed=None) -> "LiveTracebackService":
    """Rebuild a service from a checkpoint written by :func:`save_checkpoint`.

    The primary is tried first, then its backup ``<path>.1``.  A
    candidate is rejected — and the backup tried — when it is damaged
    *or* of a version this build does not accept.  The restored service
    has ``restored_via_rollback`` set when it came from the backup.

    Args:
        path: checkpoint JSON path.
        testbed: pre-built testbed matching the checkpoint's spec.

    Raises:
        CheckpointCorruptionError: when a candidate was damaged
            (unreadable, malformed, unchecksummed, or checksum-failed)
            and none loaded.
        LiveServiceError: when the only failures are version-related.
    """
    from .service import LiveTracebackService

    candidates = [path]
    if os.path.exists(backup_path(path)):
        candidates.append(backup_path(path))
    payload: Optional[dict] = None
    loaded_from = path
    reasons: List[str] = []
    saw_damage = False
    for candidate in candidates:
        doc, reason = _read_payload(candidate)
        if reason:
            saw_damage = True
            reasons.append(reason)
            continue
        reason = _version_problem(doc)
        if reason:
            reasons.append(f"{candidate!r}: {reason}")
            continue
        payload, loaded_from = doc, candidate
        break
    if payload is None:
        detail = "; ".join(reasons)
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
    return service
