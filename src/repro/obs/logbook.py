"""Structured, span-correlated logging for the CLI and the runtimes.

The CLI's operational chatter used to be ad-hoc ``print(..., file=
sys.stderr)`` calls — fine for a human at a terminal, useless for the
ROADMAP's production service, where operators grep structured logs and
correlate them with traces.  A :class:`Logbook` renders every record in
one of two modes:

* **human** (default): exactly the message text, to stderr — the CLI's
  existing output is preserved byte for byte.
* **json** (``--log-json``): one JSON object per line with the level,
  message, event name, structured fields, and — when a tracer is armed —
  the id of the innermost open span, so every log line lands inside the
  span tree that produced it.

Levels follow the conventional ladder; records below the logbook's
threshold are dropped before rendering.  A logbook given a bus first
publishes every record (even one below the threshold) as a ``log``
event and then renders the event the bus returns, minus the bus's
``seq``/``kind`` stamps — so the bus history is where records are
retained.  ``seq`` and ``kind`` are
therefore reserved field names.
"""

from __future__ import annotations

import json
import sys
from typing import Optional, TextIO

#: Level names to severities (stdlib ``logging`` numbering).
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

#: Bus stamps left out of rendered JSON lines.
_BUS_STAMPS = ("seq", "kind")


class Logbook:
    """Leveled log sink with human and JSON-lines rendering.

    Args:
        stream: where rendered records go (default ``sys.stderr``).
        json_mode: render JSON lines instead of bare messages.
        level: minimum level rendered (records below are still counted).
        tracer: optional :class:`~repro.obs.tracing.Tracer`; when given,
            each record carries the innermost open span's id.
        bus: optional :class:`~repro.obs.bus.EventBus` each record is
            published to as a ``log`` event.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        json_mode: bool = False,
        level: str = "info",
        tracer=None,
        bus=None,
    ) -> None:
        if level not in LEVELS:
            raise ValueError(f"unknown log level {level!r}")
        self._stream = stream
        self.json_mode = json_mode
        self.level = level
        self.tracer = tracer
        self.bus = bus
        self.suppressed = 0

    @property
    def stream(self) -> TextIO:
        # Resolved lazily so capsys/StringIO redirection in tests works.
        return self._stream if self._stream is not None else sys.stderr

    def _span_id(self) -> str:
        if self.tracer is None:
            return ""
        # After Tracer.finish() the open-span stack is empty; records
        # logged post-run simply carry no span correlation.
        if not getattr(self.tracer, "_stack", None):
            return ""
        return self.tracer.current.span_id

    def log(self, level: str, message: str, *, event: str = "", **fields) -> None:
        """Publish one record; render it when at or above the threshold."""
        if level not in LEVELS:
            raise ValueError(f"unknown log level {level!r}")
        record = {"level": level, "msg": message}
        if event:
            record["event"] = event
        span_id = self._span_id()
        if span_id:
            record["span"] = span_id
        record.update(fields)
        if self.bus is not None:
            record = self.bus.publish("log", **record)
        if LEVELS[level] < LEVELS[self.level]:
            self.suppressed += 1
            return
        if self.json_mode:
            line = {
                key: value
                for key, value in record.items()
                if key not in _BUS_STAMPS
            }
            print(json.dumps(line, sort_keys=True, default=str), file=self.stream)
        else:
            print(message, file=self.stream)

    def debug(self, message: str, *, event: str = "", **fields) -> None:
        self.log("debug", message, event=event, **fields)

    def info(self, message: str, *, event: str = "", **fields) -> None:
        self.log("info", message, event=event, **fields)

    def warning(self, message: str, *, event: str = "", **fields) -> None:
        self.log("warning", message, event=event, **fields)

    def error(self, message: str, *, event: str = "", **fields) -> None:
        self.log("error", message, event=event, **fields)
