"""Black-box flight recorder: bounded event capture + post-mortem dumps.

When a run crashes, breaches an SLO, or an operator asks for it, the
*recent* context — which bus events fired, what was logged, which
spans closed, which faults struck, how the counters moved — is exactly
what an operator needs and exactly what used to die with the process.
Spans, log records and fault firings are all bus events, so a
:class:`FlightRecorder` is a lock-safe ring buffer riding the bus as one
cheap synchronous listener and, on demand, dumping an atomic,
checksummed JSON bundle (the "black box") for the timeline layer
(:mod:`repro.obs.timeline`) to reconstruct.

**Determinism**: ring entries keep only the
:func:`~repro.obs.bus.strip_measured` projection of what they capture
(measured ``*_seconds`` fields, span durations included, are dropped),
and bundles are canonical JSON with no wall-clock timestamps, pids, or
absolute paths.  Two replays of the same seeded scenario that crash at
the same logical point therefore dump *byte-identical* bundles, across
interpreter hash seeds; the bundle checksum doubles as the crash's
forensic fingerprint.

Dump triggers wired across the repo:

* the CLI's crash handler (an exception escaping a ``--flight-dir``
  run),
* SLO breaches (:class:`~repro.obs.slo.SloWatchdog.flight`),
* explicit operator request — :func:`install_flight_signal` binds
  ``SIGUSR1`` so a live run can be asked for its black box any time.
"""

from __future__ import annotations

import json
import os
import re
import threading
from collections import deque
from typing import Dict, List, Mapping, Optional

from ..faults.resilience import atomic_write_text, content_checksum
from . import ensure_parent_dir
from .bus import strip_measured

#: Bundle schema version (2: spans, logs and faults are ``bus`` entries).
FLIGHT_VERSION = 2

#: Default ring capacity (most recent entries retained).
DEFAULT_CAPACITY = 256

#: Filename characters kept verbatim by :func:`_slug`.
_SLUG_UNSAFE = re.compile(r"[^A-Za-z0-9_.-]+")


def _slug(text: str) -> str:
    """Filesystem-safe token for bundle filenames."""
    return _SLUG_UNSAFE.sub("-", text).strip("-") or "run"


class FlightRecorder:
    """Bounded, lock-safe ring of recent observability entries.

    Args:
        name: identity token for bundle filenames (the run name);
            slugged into the dump path.
        capacity: ring size — the *last* ``capacity`` entries survive.
        directory: where post-mortem bundles land ("" records without
            ever dumping — :meth:`dump` then returns "").
        context: deterministic identity fields embedded in every bundle
            (seed, …).
        registry: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when present, counter *deltas* are recorded as ring entries
            at every dump and the bundle embeds the full deterministic
            ``counter_totals()`` snapshot.

    Attach with :meth:`attach` and always :meth:`detach` on teardown —
    buses outlive runtimes.
    """

    def __init__(
        self,
        name: str = "run",
        capacity: int = DEFAULT_CAPACITY,
        directory: str = "",
        context: Optional[Mapping[str, object]] = None,
        registry=None,
    ) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.directory = directory
        self.context: Dict[str, object] = dict(context or {})
        self.registry = registry
        self.dumps: List[str] = []
        self._ring: "deque[Dict[str, object]]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._entries_seen = 0
        self._dump_ordinals: Dict[str, int] = {}
        self._last_counters: Dict[str, float] = {}
        self._bus = None
        # A rerun into the same directory must not overwrite the
        # bundles an earlier process dumped there: resume each reason's
        # ordinal after the highest already on disk.
        if directory and os.path.isdir(directory):
            pattern = re.compile(
                rf"^flight-{re.escape(_slug(name))}-(?P<reason>.+)"
                rf"-(?P<ordinal>\d{{3}})\.json$"
            )
            for filename in os.listdir(directory):
                match = pattern.match(filename)
                if match is None:
                    continue
                reason = match.group("reason")
                ordinal = int(match.group("ordinal")) + 1
                if ordinal > self._dump_ordinals.get(reason, 0):
                    self._dump_ordinals[reason] = ordinal

    # -- capture --------------------------------------------------------

    def record(self, kind: str, **payload) -> None:
        """Append one ring entry (older entries fall off the window)."""
        with self._lock:
            entry: Dict[str, object] = {"n": self._entries_seen, "kind": kind}
            entry.update(payload)
            self._entries_seen += 1
            self._ring.append(entry)

    @property
    def entries_seen(self) -> int:
        return self._entries_seen

    def snapshot(self) -> List[Dict[str, object]]:
        """Copy of the current ring contents (oldest first)."""
        with self._lock:
            return [dict(entry) for entry in self._ring]

    # -- bus capture ----------------------------------------------------

    def _on_bus(self, event: Mapping) -> None:
        self.record("bus", event=strip_measured(event))

    def attach(self, bus) -> "FlightRecorder":
        """Ride ``bus`` as a synchronous listener (None: capture nothing).

        Returns ``self`` so construction and attachment chain; attaching
        again first detaches the previous hook.
        """
        self.detach()
        if bus is not None:
            bus.attach(self._on_bus)
            self._bus = bus
        return self

    def detach(self) -> None:
        """Unhook the listener registered by :meth:`attach`."""
        if self._bus is not None:
            self._bus.detach(self._on_bus)
            self._bus = None

    # -- metric deltas --------------------------------------------------

    def record_metric_deltas(self) -> Dict[str, float]:
        """Record counter movement since the last call as a ring entry.

        Uses the registry's deterministic ``counter_totals()`` layer, so
        the entry is identical across runs and hash seeds.
        Returns the (possibly empty) delta map; without a registry this
        is a no-op.
        """
        if self.registry is None:
            return {}
        totals = self.registry.counter_totals()
        delta = {
            series: round(value - self._last_counters.get(series, 0.0), 9)
            for series, value in sorted(totals.items())
            if value != self._last_counters.get(series, 0.0)
        }
        self._last_counters = totals
        if delta:
            self.record("metrics", delta=delta)
        return delta

    # -- dumping --------------------------------------------------------

    def dump(
        self,
        reason: str,
        context: Optional[Mapping[str, object]] = None,
        directory: Optional[str] = None,
    ) -> str:
        """Write the post-mortem bundle; returns its path ("" unarmed).

        The bundle is canonical JSON wrapped with a SHA-256 content
        checksum and written atomically (tmp + fsync + rename), exactly
        like a checkpoint.  Filenames are deterministic:
        ``flight-<name>-<reason>-<ordinal>.json`` — repeated dumps for
        one reason rotate the ordinal instead of overwriting.
        """
        target_dir = self.directory if directory is None else directory
        self.record_metric_deltas()
        with self._lock:
            ordinal = self._dump_ordinals.get(reason, 0)
            self._dump_ordinals[reason] = ordinal + 1
            payload: Dict[str, object] = {
                "version": FLIGHT_VERSION,
                "flight": self.name,
                "reason": reason,
                "ordinal": ordinal,
                "context": dict(self.context, **(context or {})),
                "entries_seen": self._entries_seen,
                "entries": [dict(entry) for entry in self._ring],
            }
            if self.registry is not None:
                payload["counters"] = self.registry.counter_totals()
        if not target_dir:
            return ""
        body = json.dumps(payload, indent=2, sort_keys=True, default=str)
        document = {
            "checksum": content_checksum(body),
            "payload": payload,
        }
        path = os.path.join(
            target_dir,
            f"flight-{_slug(self.name)}-{_slug(reason)}-{ordinal:03d}.json",
        )
        ensure_parent_dir(path)
        atomic_write_text(
            path,
            json.dumps(document, indent=2, sort_keys=True, default=str) + "\n",
        )
        self.dumps.append(path)
        # Announce the bundle to live consumers (dash, SSE) — only its
        # deterministic identity, never the path: bundles must stay
        # byte-identical across checkout locations.
        if self._bus is not None:
            self._bus.publish(
                "flight", flight=self.name, reason=reason, ordinal=ordinal
            )
        return path


def load_flight_dump(path: str) -> Dict[str, object]:
    """Read a bundle back, verifying its content checksum.

    Raises ``ValueError`` on a torn or tampered bundle — post-mortems
    must be trustworthy or explicitly rejected.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    payload = document.get("payload")
    if payload is None:
        raise ValueError(f"{path}: not a flight bundle (no payload)")
    body = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if content_checksum(body) != document.get("checksum"):
        raise ValueError(f"{path}: flight bundle checksum mismatch")
    return payload


def install_flight_signal(recorder: FlightRecorder, signum=None):
    """Bind an OS signal to :meth:`FlightRecorder.dump` (SIGUSR1-style).

    Returns the previous handler, or None when the platform has no such
    signal (Windows) — callers need not guard.  The handler dumps with
    reason ``"signal"`` so an operator can ask a live run for its black
    box without stopping it: ``kill -USR1 <pid>``.
    """
    import signal as _signal

    if signum is None:
        signum = getattr(_signal, "SIGUSR1", None)
        if signum is None:  # pragma: no cover - non-POSIX platform
            return None

    def _handler(signo, frame):  # pragma: no cover - exercised via kill
        recorder.dump("signal")

    return _signal.signal(signum, _handler)
