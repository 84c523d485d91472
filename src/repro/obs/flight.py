"""Black-box flight recorder: bounded event capture + post-mortem dumps.

When a fleet shard dies, a soak kill fires, or a checkpoint rolls back,
the *recent* context — which bus events fired, what was logged, which
spans closed, how the counters moved — is exactly what an operator needs
and exactly what used to die with the process.  A :class:`FlightRecorder`
is a lock-safe ring buffer that rides the observability surface as a set
of cheap synchronous listeners and, on demand, dumps an atomic,
checksummed JSON bundle (the "black box") for the timeline layer
(:mod:`repro.obs.timeline`) to reconstruct.

**Determinism**: ring entries keep only the deterministic projection of
what they capture — measured ``*_seconds`` fields are stripped from bus
events and log fields, span durations are dropped — and bundles are
canonical JSON with no wall-clock timestamps, pids, or absolute paths.
Two replays of the same seeded scenario that crash at the same logical
point therefore dump *byte-identical* bundles, across interpreter hash
seeds and across the serial/asyncio fleet drivers; the bundle checksum
doubles as the crash's forensic fingerprint.

Dump triggers wired across the repo:

* shard crash containment and scripted kills
  (:class:`~repro.fleet.shard.AttackShard`),
* soak-harness kills and checkpoint corruption
  (:class:`~repro.soak.runner.SoakRunner`),
* checkpoint rollback on resume,
* SLO breaches (:class:`~repro.obs.slo.SloWatchdog.flight`),
* injected faults (:meth:`FlightRecorder.attach` with an injector),
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

#: Bundle schema version.
FLIGHT_VERSION = 1

#: Default ring capacity (most recent entries retained).
DEFAULT_CAPACITY = 256

#: Filename characters kept verbatim by :func:`_slug`.
_SLUG_UNSAFE = re.compile(r"[^A-Za-z0-9_.-]+")


def _slug(text: str) -> str:
    """Filesystem-safe token for bundle filenames."""
    return _SLUG_UNSAFE.sub("-", text).strip("-") or "run"


def _strip_fields(fields: Mapping) -> Dict[str, object]:
    """Deterministic projection of a log record's structured fields."""
    return {
        str(key): value
        for key, value in fields.items()
        if not str(key).endswith("_seconds")
    }


class FlightRecorder:
    """Bounded, lock-safe ring of recent observability entries.

    Args:
        name: identity token for bundle filenames (shard label, run
            name); slugged into the dump path.
        capacity: ring size — the *last* ``capacity`` entries survive.
        directory: where post-mortem bundles land ("" records without
            ever dumping — :meth:`dump` then returns "").
        context: deterministic identity fields embedded in every bundle
            (tenant, attack, seed, …).
        registry: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when present, counter *deltas* are recorded as ring entries
            at every dump and the bundle embeds the full deterministic
            ``counter_totals()`` snapshot.
        tag_filter: only bus events whose payload matches every
            ``key: value`` pair are captured — how a per-shard recorder
            rides the fleet's *shared* bus without recording its
            neighbours (events missing a filtered key are skipped, so a
            tenant-tagged engine event stays out of per-attack rings).

    Attach with :meth:`attach` (bus / logbook / tracer / injector) and
    always :meth:`detach` on teardown — buses outlive runtimes.
    """

    def __init__(
        self,
        name: str = "run",
        capacity: int = DEFAULT_CAPACITY,
        directory: str = "",
        context: Optional[Mapping[str, object]] = None,
        registry=None,
        tag_filter: Optional[Mapping[str, object]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.directory = directory
        self.context: Dict[str, object] = dict(context or {})
        self.registry = registry
        self.tag_filter: Dict[str, object] = dict(tag_filter or {})
        self.dumps: List[str] = []
        self._ring: "deque[Dict[str, object]]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._entries_seen = 0
        self._dump_ordinals: Dict[str, int] = {}
        self._last_counters: Dict[str, float] = {}
        self._bus = None
        self._logbook = None
        self._tracer = None
        self._injector_log = None
        # A rebuilt recorder (soak restart epochs) must not overwrite
        # the bundles its predecessor dumped: resume each reason's
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

    # -- listeners ------------------------------------------------------

    def _on_bus(self, event: Mapping) -> None:
        if self.tag_filter and any(
            event.get(key) != value for key, value in self.tag_filter.items()
        ):
            return
        self.record("bus", event=strip_measured(dict(event)))

    def _on_log(self, record) -> None:
        self.record(
            "log",
            level=record.level,
            msg=record.message,
            event=record.event,
            span=record.span_id,
            fields=_strip_fields(record.fields),
        )

    def _on_span(self, record: Mapping) -> None:
        self.record(
            "span",
            span_id=record.get("span_id", ""),
            parent_id=record.get("parent_id", ""),
            name=record.get("name", ""),
            attrs=dict(record.get("attrs", {})),
        )

    def _on_fault(self, kind: str, count: int) -> None:
        self.record("fault", fault=kind, count=count)

    def attach(
        self, bus=None, logbook=None, tracer=None, injector=None
    ) -> "FlightRecorder":
        """Ride the given surfaces as synchronous listeners.

        Returns ``self`` so construction and attachment chain.  Each
        surface is optional; attaching twice to the same recorder first
        detaches the previous hooks.
        """
        self.detach()
        if bus is not None:
            bus.attach(self._on_bus)
            self._bus = bus
        if logbook is not None:
            logbook.listeners.append(self._on_log)
            self._logbook = logbook
        if tracer is not None:
            tracer.listeners.append(self._on_span)
            self._tracer = tracer
        if injector is not None:
            injector.log.listeners.append(self._on_fault)
            self._injector_log = injector.log
        return self

    def detach(self) -> None:
        """Unhook every listener registered by :meth:`attach`."""
        if self._bus is not None:
            self._bus.detach(self._on_bus)
            self._bus = None
        if self._logbook is not None:
            if self._on_log in self._logbook.listeners:
                self._logbook.listeners.remove(self._on_log)
            self._logbook = None
        if self._tracer is not None:
            if self._on_span in self._tracer.listeners:
                self._tracer.listeners.remove(self._on_span)
            self._tracer = None
        if self._injector_log is not None:
            if self._on_fault in self._injector_log.listeners:
                self._injector_log.listeners.remove(self._on_fault)
            self._injector_log = None

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
            announce: Dict[str, object] = {
                "flight": self.name,
                "reason": reason,
                "ordinal": ordinal,
            }
            for key in ("tenant", "shard"):
                if key in self.context:
                    announce[key] = self.context[key]
            self._bus.publish("flight", **announce)
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
