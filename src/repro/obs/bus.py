"""In-process publish/subscribe event bus for live telemetry.

The bus is the one event stream of the observability surface: the
pipeline, the live runtime, the controller, the engine, the fault
injector (``fault``), the tracer (``span``, one per closed span) and the
logbook (``log``, one per record) publish small JSON-safe event dicts as
they happen, and any number of subscribers — the SSE ``/events``
endpoint, the SLO watchdogs, the ASCII dashboard — consume them
concurrently.

Determinism follows the repo's counter rule: every *payload field* of a
published event is deterministic data for a seeded scenario, except
fields whose key ends in ``_seconds`` (measured wall times, carried as
data only).  :func:`strip_measured` removes those, so two runs of the
same seeded replay publish byte-identical event sequences once stripped.
It is the one deterministic projection of the bus history
(:meth:`EventBus.history`); :func:`~repro.obs.tracing.span_tree_signature`
uses it too.

Everything is stdlib-only and thread-safe: publishing takes one lock,
fan-out to queue subscribers never blocks the publisher (subscriber
queues are unbounded, history is capped), and synchronous listeners
(the watchdogs) run inline under the publisher's thread.
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from typing import Callable, Dict, Iterator, List, Optional

#: Retained events; older events fall off the replay window.  Large
#: enough for any realistic replay (a 1k-window run publishes ~3k
#: events) while bounding a runaway publisher.
DEFAULT_HISTORY_LIMIT = 10_000

#: Queue sentinel telling subscribers the bus closed.
_CLOSED = object()

Event = Dict[str, object]
Listener = Callable[[Event], None]


def strip_measured(event: Event) -> Event:
    """Copy of ``event`` without measured fields (``*_seconds`` keys).

    What remains is the deterministic layer: two seeded runs of the same
    scenario must publish identical stripped sequences.
    """
    return {
        key: value
        for key, value in event.items()
        if not str(key).endswith("_seconds")
    }


class Subscription:
    """One subscriber's private event queue.

    Iterate it (or call :meth:`get`) to receive events in publish order;
    iteration ends when the bus closes or :meth:`close` is called.
    """

    def __init__(self, bus: "EventBus") -> None:
        self._bus = bus
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._closed = False

    def _offer(self, event) -> None:
        self._queue.put(event)

    def get(self, timeout: Optional[float] = None) -> Optional[Event]:
        """Next event, or None on timeout / closed bus."""
        if self._closed:
            return None
        try:
            item = self._queue.get(timeout=timeout)
        except queue.Empty:
            return None
        if item is _CLOSED:
            self._closed = True
            return None
        return item

    def events(self, timeout: Optional[float] = None) -> Iterator[Event]:
        """Yield events until the bus closes (or a ``get`` times out)."""
        while True:
            event = self.get(timeout=timeout)
            if event is None:
                return
            yield event

    def close(self) -> None:
        """Detach from the bus (idempotent)."""
        self._closed = True
        self._bus.unsubscribe(self)


class EventBus:
    """Ordered publish/subscribe fan-out with bounded replayable history.

    Args:
        history_limit: events retained for late subscribers (``replay=True``
            re-delivers them in order before live events).
    """

    def __init__(self, history_limit: int = DEFAULT_HISTORY_LIMIT) -> None:
        if history_limit < 0:
            raise ValueError("history_limit cannot be negative")
        self._lock = threading.Lock()
        self._history: "deque[Event]" = deque(maxlen=history_limit)
        self._history_limit = history_limit
        self._dropped = 0
        self._seq = 0
        self._subscribers: List[Subscription] = []
        self._listeners: List[Listener] = []
        self._closed = False

    # -- publishing -----------------------------------------------------

    def publish(self, kind: str, **payload) -> Event:
        """Publish one event; returns the enriched event dict.

        The bus assigns a monotonically increasing ``seq`` (deterministic
        under the single-threaded publish order every seeded run follows)
        and stamps the ``kind``.
        """
        with self._lock:
            event: Event = {"seq": self._seq, "kind": kind}
            event.update(payload)
            self._seq += 1
            if self._history_limit:
                if len(self._history) == self._history_limit:
                    self._dropped += 1
                self._history.append(event)
            subscribers = list(self._subscribers)
            listeners = list(self._listeners)
        for subscription in subscribers:
            subscription._offer(event)
        for listener in listeners:
            listener(event)
        return event

    # -- consuming ------------------------------------------------------

    def subscribe(self, replay: bool = True) -> Subscription:
        """New queue subscriber; with ``replay`` the retained history is
        delivered first (in publish order, before any live event)."""
        subscription = Subscription(self)
        with self._lock:
            if replay:
                for event in self._history:
                    subscription._offer(event)
            if self._closed:
                subscription._offer(_CLOSED)
            else:
                self._subscribers.append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        with self._lock:
            if subscription in self._subscribers:
                self._subscribers.remove(subscription)

    def attach(self, listener: Listener) -> None:
        """Register a synchronous listener (runs on the publisher's
        thread — keep it cheap; this is how the SLO watchdogs ride)."""
        with self._lock:
            self._listeners.append(listener)

    def detach(self, listener: Listener) -> None:
        """Remove a listener registered with :meth:`attach` (no-op when
        absent).  A bus can outlive the runtime that attached to it (the
        caller owns it, and may run again on the same one), so consumers
        must detach on teardown or stale listeners stack up and
        double-count."""
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def history(self) -> List[Event]:
        """Copy of the retained event history (publish order)."""
        with self._lock:
            return list(self._history)

    @property
    def events_published(self) -> int:
        return self._seq

    @property
    def events_dropped(self) -> int:
        """Events that fell off the bounded history window."""
        return self._dropped

    def close(self) -> None:
        """Stop delivery; blocked subscribers wake up and finish."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            subscribers = list(self._subscribers)
            self._subscribers.clear()
        for subscription in subscribers:
            subscription._offer(_CLOSED)
