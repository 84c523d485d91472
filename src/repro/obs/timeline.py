"""Post-mortem timeline forensics: one causally-ordered view per run.

After a crash (or just a confusing run) the evidence is scattered: the
event bus knows what happened in publish order (spans, log records and
fault firings included), the trace JSONL keeps the span structure on
disk, flight bundles (:mod:`repro.obs.flight`) hold a run's last
seconds, and the checkpoint directory holds the states that reached
disk.  This module merges all four into one **timeline**: a flat,
deterministic sequence of :class:`TimelineEntry` rows aligned on
*simulated minutes* (the repo's only trustworthy clock) and ordered by
the bus sequence within a minute.

Determinism is the contract: entries carry only the deterministic
projection of their sources (measured ``*_seconds`` stripped, span
durations dropped, no paths or wall times), so :meth:`Timeline.digest`
is a replay invariant — two runs of the same seeded scenario render
byte-identical timelines, which is what lets a timeline diff *localize*
a divergence instead of merely detecting one.

Surfaces: ``spooftrack timeline`` (CLI over on-disk artifacts), the
:class:`~repro.obs.server.ObsServer` ``/timeline`` endpoint (live JSON
view), and ``spooftrack dash --timeline`` (rendered after a watch).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from .bus import strip_measured
from .flight import load_flight_dump

#: Sort rank for entries with no simulated-minute alignment (run
#: prologue: spans, setup events) — they sort before minute 0.
_UNALIGNED = -1.0

#: Sort rank for entries with no bus sequence (flight/checkpoint rows
#: land after every sequenced event of their minute).
_NO_SEQ = 1 << 60

#: ``<name>.json`` checkpoint filenames and their rotated ``.N``
#: generations.
_CHECKPOINT_FILE = re.compile(
    r"^(?P<name>.+\.json)(?:\.(?P<generation>\d+))?$"
)

#: Payload fields that align an event on the simulated clock, in
#: preference order.
_MINUTE_FIELDS = ("clock_minutes", "minute", "timestamp")


def _event_minute(event: Mapping) -> Optional[float]:
    """Simulated-minute alignment of one bus event (None = unaligned)."""
    for key in _MINUTE_FIELDS:
        value = event.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    return None


@dataclass(frozen=True)
class TimelineEntry:
    """One row of the merged forensic timeline.

    Attributes:
        minute: simulated-minute alignment (None = run prologue /
            unaligned source; sorts before minute 0).
        seq: bus sequence number when the row came from (or through) the
            event bus; None rows sort after sequenced rows of the same
            minute.
        source: where the row came from: ``bus``, ``trace``, ``flight``,
            or ``checkpoint``.
        kind: row type within the source (bus event kind, ``span``,
            flight ``dump``/ring-entry kind, ``checkpoint``).
        label: one-line human summary.
        detail: the deterministic payload projection (JSON-safe).
    """

    minute: Optional[float]
    seq: Optional[int]
    source: str
    kind: str
    label: str = ""
    detail: Dict[str, object] = field(default_factory=dict)

    def sort_key(self):
        canonical = json.dumps(self.detail, sort_keys=True, default=str)
        return (
            self.minute if self.minute is not None else _UNALIGNED,
            self.seq if self.seq is not None else _NO_SEQ,
            self.source,
            self.kind,
            self.label,
            canonical,
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "minute": (
                round(self.minute, 6) if self.minute is not None else None
            ),
            "seq": self.seq,
            "source": self.source,
            "kind": self.kind,
            "label": self.label,
            "detail": self.detail,
        }


class Timeline:
    """An ordered, filterable, digestible set of timeline entries."""

    def __init__(self, entries: Iterable[TimelineEntry] = ()) -> None:
        self.entries: List[TimelineEntry] = sorted(
            entries, key=TimelineEntry.sort_key
        )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def filtered(self, since: Optional[float] = None) -> "Timeline":
        """A narrowed copy.

        ``since`` keeps rows at or after that simulated minute — which
        drops unaligned prologue rows, deliberately: "from minute X" is
        a statement about the simulated clock.
        """
        if since is None:
            return Timeline(self.entries)
        return Timeline(
            entry
            for entry in self.entries
            if entry.minute is not None and entry.minute >= since
        )

    def digest(self) -> str:
        """SHA-256 over the canonical entry list — the replay invariant."""
        canonical = json.dumps(
            [entry.as_dict() for entry in self.entries],
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe dump (the ``/timeline`` endpoint body)."""
        return {
            "entries": [entry.as_dict() for entry in self.entries],
            "count": len(self.entries),
            "digest": self.digest(),
        }

    def render(self, limit: int = 0) -> str:
        """Fixed-width terminal rendering, one row per entry.

        ``limit`` keeps only the last N rows (0 = everything); the
        header always states totals so truncation is visible.
        """
        shown = self.entries[-limit:] if limit > 0 else self.entries
        header = (
            f"{'minute':>10}  {'seq':>6}  {'source':<10} {'kind':<16} detail"
        )
        lines = [
            f"timeline: {len(self.entries)} entries"
            + (f" (showing last {len(shown)})" if limit > 0 else "")
            + f", digest {self.digest()[:16]}",
            header,
            "-" * len(header),
        ]
        for entry in shown:
            minute = (
                f"{entry.minute:10.1f}" if entry.minute is not None else " " * 9 + "-"
            )
            seq = f"{entry.seq:>6d}" if entry.seq is not None else "     -"
            lines.append(
                f"{minute}  {seq}  {entry.source:<10} {entry.kind:<16} "
                f"{entry.label}"
            )
        return "\n".join(lines)


# -- per-source entry builders ----------------------------------------------


def _bus_label(event: Mapping) -> str:
    kind = str(event.get("kind", ""))
    if kind == "window":
        return (
            f"window {event.get('window_index', '?')} "
            f"(queue {event.get('queue_depth', '?')})"
        )
    if kind in ("phase", "span"):
        return str(event.get("name", ""))
    if kind == "log":
        return f"[{event.get('level', '?')}] {event.get('msg', '')}"
    if kind == "fault":
        return f"{event.get('fault_kind', '?')} x{event.get('count', '?')}"
    if kind == "checkpoint":
        return f"ordinal {event.get('ordinal', '?')}"
    if kind == "compare":
        return str(event.get("strategy", ""))
    return ""


def entry_from_bus_event(
    event: Mapping, source: str = "bus"
) -> TimelineEntry:
    """One timeline row from one (live or flight-recorded) bus event."""
    stripped = strip_measured(dict(event))
    seq = stripped.pop("seq", None)
    kind = str(stripped.pop("kind", ""))
    return TimelineEntry(
        minute=_event_minute(event),
        seq=int(seq) if isinstance(seq, int) else None,
        source=source,
        kind=kind,
        label=_bus_label(event),
        detail=stripped,
    )


def entries_from_bus(events: Iterable[Mapping]) -> List[TimelineEntry]:
    """Rows for a bus history (or any stripped-event sequence)."""
    return [entry_from_bus_event(event) for event in events]


def entries_from_spans(
    records: Iterable[Mapping],
) -> List[TimelineEntry]:
    """Rows for trace JSONL span records.

    Spans carry no simulated clock, so they form the unaligned prologue,
    kept in file order via the sequence slot.
    """
    return [
        TimelineEntry(
            minute=None,
            seq=index,
            source="trace",
            kind="span",
            label=str(record.get("name", "")),
            detail=strip_measured(record),
        )
        for index, record in enumerate(records)
    ]


def entries_from_flight_payload(
    payload: Mapping,
) -> List[TimelineEntry]:
    """Rows for one flight bundle: a ``dump`` summary plus its ring.

    Ring entries that captured bus events re-enter the merge as regular
    ``bus``-source rows (with their original sequence numbers), so a
    timeline built offline from bundles alone still shows the event
    stream — and :func:`build_timeline` dedupes them against a live bus
    history by sequence.  Any other ring entry (metric deltas, or the
    ``log``/``span``/``fault`` entries of version-1 bundles) becomes a
    generic ``flight`` row carrying the entry as its detail.
    """
    context = dict(payload.get("context", {}))
    minute = _event_minute(context)
    entries = [
        TimelineEntry(
            minute=minute,
            seq=None,
            source="flight",
            kind="dump",
            label=(
                f"{payload.get('reason', '?')} "
                f"#{payload.get('ordinal', 0)} "
                f"({len(payload.get('entries', []))} entries)"
            ),
            detail={
                "reason": payload.get("reason", ""),
                "ordinal": payload.get("ordinal", 0),
                "flight": payload.get("flight", ""),
                "context": context,
                "entries_seen": payload.get("entries_seen", 0),
            },
        )
    ]
    for item in payload.get("entries", []):
        kind = str(item.get("kind"))
        if kind == "bus":
            entries.append(
                entry_from_bus_event(item.get("event", {}), source="bus")
            )
            continue
        entries.append(
            TimelineEntry(
                minute=minute,
                seq=None,
                source="flight",
                kind=kind,
                detail={
                    key: value
                    for key, value in item.items()
                    if key not in ("kind", "n")
                },
            )
        )
    return entries


def entries_from_flight_dir(directory: str) -> List[TimelineEntry]:
    """Rows for every ``flight-*.json`` bundle under ``directory``."""
    entries: List[TimelineEntry] = []
    if not directory or not os.path.isdir(directory):
        return entries
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("flight-") and name.endswith(".json")):
            continue
        path = os.path.join(directory, name)
        try:
            payload = load_flight_dump(path)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            entries.append(
                TimelineEntry(
                    minute=None,
                    seq=None,
                    source="flight",
                    kind="damaged",
                    label=f"{name}: {exc}",
                    detail={"file": name},
                )
            )
            continue
        entries.extend(entries_from_flight_payload(payload))
    return entries


def entries_from_checkpoint_dir(directory: str) -> List[TimelineEntry]:
    """Rows for every checkpoint (and rotated generation) on disk.

    Every ``<name>.json`` and ``<name>.json.N`` under ``directory`` is
    read and labelled by its filename.  Damaged documents become
    ``damaged`` rows instead of being skipped — a post-mortem cares
    exactly about the checkpoints that did *not* survive.  Readable JSON
    without a simulated clock is not a checkpoint and is left out.
    """
    from ..live.checkpoint import _read_payload

    entries: List[TimelineEntry] = []
    if not directory or not os.path.isdir(directory):
        return entries
    for name in sorted(os.listdir(directory)):
        match = _CHECKPOINT_FILE.match(name)
        if match is None:
            continue
        checkpoint = match.group("name")
        generation = int(match.group("generation") or 0)
        payload, reason = _read_payload(os.path.join(directory, name))
        if reason:
            entries.append(
                TimelineEntry(
                    minute=None,
                    seq=None,
                    source="checkpoint",
                    kind="damaged",
                    label=f"{checkpoint} generation {generation}: unreadable",
                    detail={"file": name, "generation": generation},
                )
            )
            continue
        clock = payload.get("clock")
        if not isinstance(clock, (int, float)):
            continue
        minute = float(clock)
        entries.append(
            TimelineEntry(
                minute=minute,
                seq=None,
                source="checkpoint",
                kind="checkpoint",
                label=(
                    f"{checkpoint} generation {generation}, "
                    f"schema v{payload.get('version', '?')}"
                ),
                detail={
                    "file": name,
                    "generation": generation,
                    "version": payload.get("version"),
                    "clock": minute,
                },
            )
        )
    return entries


# -- merged builders --------------------------------------------------------


def _merge(groups: Sequence[List[TimelineEntry]]) -> Timeline:
    """Merge entry groups, deduping bus rows by sequence number and span
    rows by span id.

    A bus event can arrive twice — once from the live bus history and
    once through a flight bundle's ring — and a span up to three times
    (trace JSONL, bus history, flight ring); each must appear once.  The
    first occurrence (source priority = group order) wins.
    """
    seen_seqs = set()
    seen_spans = set()
    merged: List[TimelineEntry] = []
    for group in groups:
        for entry in group:
            if entry.kind == "span":
                span_id = entry.detail.get("span_id")
                if span_id in seen_spans:
                    continue
                seen_spans.add(span_id)
            if entry.source == "bus" and entry.seq is not None:
                if entry.seq in seen_seqs:
                    continue
                seen_seqs.add(entry.seq)
            merged.append(entry)
    return Timeline(merged)


def build_timeline(
    trace_path: str = "",
    flight_dir: str = "",
    checkpoint_dir: str = "",
    bus_events: Optional[Iterable[Mapping]] = None,
) -> Timeline:
    """The offline (CLI) builder: merge whatever artifacts exist.

    Every source is optional; a missing file or directory contributes
    nothing rather than failing — a post-mortem works with what
    survived.
    """
    groups: List[List[TimelineEntry]] = []
    if bus_events is not None:
        groups.append(entries_from_bus(bus_events))
    if trace_path and os.path.exists(trace_path):
        from .tracing import load_spans

        groups.append(entries_from_spans(load_spans(trace_path)))
    groups.append(entries_from_flight_dir(flight_dir))
    groups.append(entries_from_checkpoint_dir(checkpoint_dir))
    return _merge(groups)


def timeline_from_obs(
    obs,
    flight_dir: str = "",
    checkpoint_dir: str = "",
) -> Timeline:
    """The live builder: the bus history of ``obs`` (anything with a
    ``bus`` attribute — an armed bundle, an
    :class:`~repro.obs.server.ObsServer`), plus any on-disk bundles and
    checkpoints (the ``/timeline`` body)."""
    bus = getattr(obs, "bus", None)
    return build_timeline(
        flight_dir=flight_dir,
        checkpoint_dir=checkpoint_dir,
        bus_events=bus.history() if bus is not None else None,
    )
