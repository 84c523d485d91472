"""Threaded HTTP exporter serving the live observability surface.

PR 4 made telemetry write-only: metrics, traces, and manifests landed in
files after the run.  :class:`ObsServer` turns them into an operable
service surface while the run is still going — the shape the ROADMAP's
production attribution service needs, and the shape BGPeek-a-Boo argues
for (active traceback is monitored and aborted *in flight*).

Endpoints (all GET, stdlib :mod:`http.server` only):

``/metrics``
    Prometheus text from the live registry.  Rendering happens under the
    registry lock, so concurrent scrapes see consistent snapshots even
    while a run on another thread is mutating counters.
``/healthz``
    Liveness, fed by a health source (an
    :class:`~repro.faults.health.InvariantMonitor`-shaped summary or any
    callable returning ``{"healthy": bool, ...}``): 200 healthy, 503 not.
``/readyz``
    Readiness: 503 until :meth:`ObsServer.set_ready`, and 503 again if
    any :class:`~repro.obs.slo.SloWatchdog` objective breaches.
``/manifest``
    The :class:`~repro.obs.manifest.RunManifest` as JSON.
``/traces``
    Finished span records from the tracer as a JSON list.
``/events``
    Server-sent events: each bus event (spans, log records and faults
    included) as an ``id:``/``data:`` frame.  ``?replay=0`` skips
    history; ``?limit=N`` closes the stream after N events of any kind
    so plain ``curl`` invocations terminate.  An idle stream
    emits ``: keep-alive`` comment frames every ``keepalive_seconds``
    so proxies and clients can tell a quiet run from a dead one.

A malformed ``?limit=`` gets a 400 with a JSON error.

The server binds on construction (so ``port`` is known even with
``port=0``) and serves from a daemon thread after :meth:`start`.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Mapping, Optional
from urllib.parse import parse_qs, urlsplit

#: Seconds an idle SSE loop waits before re-checking for shutdown.
SSE_POLL_SECONDS = 0.25

#: Default idle interval between SSE ``: keep-alive`` comment frames.
SSE_KEEPALIVE_SECONDS = 15.0


class _BadQuery(ValueError):
    """A malformed query parameter (answered with 400)."""


def _query_number(query, key: str, cast):
    """``?key=`` parsed with ``cast`` (None when absent or empty)."""
    raw = query.get(key, [""])[0]
    if not raw:
        return None
    try:
        return cast(raw)
    except ValueError:
        raise _BadQuery(f"{key} must be a number, got {raw!r}") from None


def _health_payload(source) -> Mapping:
    """Normalise a health source into a ``{"healthy": bool, ...}`` dict."""
    if source is None:
        return {"healthy": True}
    value = source() if callable(source) else source
    if value is None:  # no verdict yet (run still going) counts as live
        return {"healthy": True}
    if isinstance(value, Mapping):
        payload = dict(value)
        payload.setdefault("healthy", True)
        return payload
    if hasattr(value, "healthy"):
        summary = value.summary() if hasattr(value, "summary") else ""
        payload = (
            dict(summary) if isinstance(summary, Mapping) else {"summary": str(summary)}
        )
        payload["healthy"] = bool(value.healthy)
        return payload
    return {"healthy": bool(value)}


class _ObsHandler(BaseHTTPRequestHandler):
    """Request handler; the owning :class:`ObsServer` hangs off ``server``."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # an exporter must not spam the CLI's stderr

    # -- plumbing -------------------------------------------------------

    def _send_body(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True, default=str)
        self._send_body(status, body.encode("utf-8") + b"\n", "application/json")

    def _send_text(self, status: int, text: str) -> None:
        self._send_body(
            status, text.encode("utf-8"), "text/plain; version=0.0.4; charset=utf-8"
        )

    # -- routing --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        obs_server: "ObsServer" = self.server.obs_server  # type: ignore[attr-defined]
        parsed = urlsplit(self.path)
        route = parsed.path.rstrip("/") or "/"
        try:
            if route == "/":
                self._send_json(200, {"endpoints": sorted(obs_server.ROUTES)})
            elif route == "/metrics":
                self._handle_metrics(obs_server)
            elif route == "/healthz":
                self._handle_healthz(obs_server)
            elif route == "/readyz":
                self._handle_readyz(obs_server)
            elif route == "/manifest":
                self._handle_manifest(obs_server)
            elif route == "/traces":
                self._handle_traces(obs_server)
            elif route == "/events":
                self._handle_events(obs_server, parse_qs(parsed.query))
            else:
                self._send_json(404, {"error": f"unknown route {route}"})
        except _BadQuery as exc:
            self._send_json(400, {"error": str(exc)})
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to clean up

    # -- endpoints ------------------------------------------------------

    def _handle_metrics(self, obs_server: "ObsServer") -> None:
        registry = obs_server.registry
        if registry is None:
            self._send_json(404, {"error": "no metrics registry armed"})
            return
        self._send_text(200, registry.render_prometheus())

    def _handle_healthz(self, obs_server: "ObsServer") -> None:
        payload = _health_payload(obs_server.health_source)
        status = 200 if payload.get("healthy", True) else 503
        self._send_json(status, payload)

    def _handle_readyz(self, obs_server: "ObsServer") -> None:
        watchdog = obs_server.watchdog
        payload = dict(watchdog.status()) if watchdog is not None else {}
        payload["started"] = obs_server.is_ready
        ready = obs_server.is_ready and (watchdog is None or watchdog.ready)
        payload["ready"] = ready
        self._send_json(200 if ready else 503, payload)

    def _handle_manifest(self, obs_server: "ObsServer") -> None:
        manifest = obs_server.manifest
        if manifest is None:
            self._send_json(404, {"error": "no manifest recorded"})
            return
        payload = manifest.as_dict() if hasattr(manifest, "as_dict") else manifest
        self._send_json(200, payload)

    def _handle_traces(self, obs_server: "ObsServer") -> None:
        tracer = obs_server.tracer
        if tracer is None:
            self._send_json(404, {"error": "no tracer armed"})
            return
        self._send_json(200, tracer.records())

    def _handle_events(self, obs_server: "ObsServer", query) -> None:
        bus = obs_server.bus
        if bus is None:
            self._send_json(404, {"error": "no event bus armed"})
            return
        replay = query.get("replay", ["1"])[0] not in ("0", "false", "no")
        limit = _query_number(query, "limit", int)
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        # SSE is an unbounded stream: close-delimited, not length-delimited.
        self.send_header("Connection", "close")
        self.end_headers()
        subscription = bus.subscribe(replay=replay)
        sent = 0
        idle = 0.0
        try:
            while limit is None or sent < limit:
                if obs_server.stopping.is_set():
                    return
                event = subscription.get(timeout=SSE_POLL_SECONDS)
                if event is None:
                    if subscription._closed:  # bus closed: end of stream
                        return
                    # A silent bus must still prove the stream is alive:
                    # comment frames are ignored by SSE clients but reset
                    # proxy idle timers (and our tests' patience).
                    idle += SSE_POLL_SECONDS
                    if idle >= obs_server.keepalive_seconds:
                        self.wfile.write(b": keep-alive\n\n")
                        self.wfile.flush()
                        idle = 0.0
                    continue
                idle = 0.0
                frame = (
                    f"id: {event.get('seq', sent)}\n"
                    f"data: {json.dumps(event, sort_keys=True, default=str)}\n\n"
                )
                self.wfile.write(frame.encode("utf-8"))
                self.wfile.flush()
                sent += 1
        finally:
            subscription.close()


class ObsServer:
    """Threaded HTTP server over a run's observability surface.

    Args:
        obs: optional :class:`~repro.obs.Observability` bundle; supplies
            ``registry``, ``tracer``, and ``bus`` unless overridden.
        registry: :class:`~repro.obs.metrics.MetricsRegistry` for ``/metrics``.
        bus: :class:`~repro.obs.bus.EventBus` for ``/events``.
        manifest: :class:`~repro.obs.manifest.RunManifest` for ``/manifest``.
        health_source: value or zero-arg callable feeding ``/healthz`` —
            a mapping with a ``healthy`` key, an object with a ``healthy``
            attribute (e.g. a :class:`~repro.faults.health.ResilienceReport`),
            or a bare bool.
        watchdog: :class:`~repro.obs.slo.SloWatchdog` gating ``/readyz``.
        host: bind address (default loopback).
        port: bind port; 0 picks a free one (read :attr:`port` after).
        keepalive_seconds: idle interval between SSE comment frames on
            ``/events``.
    """

    ROUTES = (
        "/metrics",
        "/healthz",
        "/readyz",
        "/manifest",
        "/traces",
        "/events",
    )

    def __init__(
        self,
        obs=None,
        registry=None,
        bus=None,
        manifest=None,
        health_source=None,
        watchdog=None,
        host: str = "127.0.0.1",
        port: int = 0,
        keepalive_seconds: float = SSE_KEEPALIVE_SECONDS,
    ) -> None:
        self.registry = registry if registry is not None else getattr(obs, "registry", None)
        self.tracer = getattr(obs, "tracer", None)
        self.bus = bus if bus is not None else getattr(obs, "bus", None)
        self.manifest = manifest
        self.health_source = health_source
        self.watchdog = watchdog
        self.keepalive_seconds = keepalive_seconds
        self.stopping = threading.Event()
        self._ready = threading.Event()
        self._http = ThreadingHTTPServer((host, port), _ObsHandler)
        self._http.daemon_threads = True
        self._http.obs_server = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def is_ready(self) -> bool:
        return self._ready.is_set()

    def set_ready(self, ready: bool = True) -> None:
        """Flip the startup half of ``/readyz`` (watchdog gates the rest)."""
        if ready:
            self._ready.set()
        else:
            self._ready.clear()

    def start(self) -> "ObsServer":
        """Begin serving from a daemon thread; returns self for chaining."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._http.serve_forever,
            name=f"obs-server:{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        self.stopping.set()
        if self._thread is not None:
            self._http.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._http.server_close()

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
