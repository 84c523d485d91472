"""Tenant-labelled observability views for fleet shards.

The fleet shares one :class:`~repro.obs.metrics.MetricsRegistry` and one
:class:`~repro.obs.bus.EventBus` across every shard — a single scrape
and a single SSE stream cover the whole runtime — but each data point
must say *whose* it is.  Rather than threading ``tenant=``/``attack=``
arguments through every call site in :mod:`repro.live`, each shard gets
a **tagged view** of the parent surface:

* :class:`TaggedRegistry` forwards ``counter``/``gauge``/``histogram``
  to the parent registry with the shard's labels merged in, so the
  untouched live-service instrumentation
  (``repro_live_window_seconds`` …) lands as
  ``repro_live_window_seconds{attack="…",tenant="…"}``.  Per-tenant SLO
  watchdogs built on a tagged view likewise emit
  ``repro_slo_breached_total{slo="…",tenant="…"}``.
* :class:`TaggedBus` forwards ``publish`` with the labels injected into
  the payload, so every ``window``/``churn``/``checkpoint`` event on the
  shared stream carries its tenant — which is what ``spooftrack dash
  --tenant`` filters on and what routes events to the right per-tenant
  watchdog.  The shard's log records and fault firings are bus events
  too (its logbook and injector publish through this view), so they are
  tagged the same way: fleet-mode ``--log-json`` lines are filterable by
  tenant/attack while human-mode rendering stays byte for byte what a
  single-tenant run prints.

Views are cheap proxies; the parent objects own all state, locking, and
lifecycle (a shard never closes the shared bus).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..obs import EventBus, Observability


def _clean_labels(labels: Mapping[str, object]) -> Dict[str, str]:
    return {str(key): str(value) for key, value in labels.items()}


class TaggedRegistry:
    """Registry proxy that stamps fixed labels onto every series."""

    def __init__(self, registry, **labels) -> None:
        self._registry = registry
        self.labels = _clean_labels(labels)

    def _merge(self, labels: Optional[Mapping[str, str]]) -> Dict[str, str]:
        merged = dict(self.labels)
        if labels:
            merged.update(_clean_labels(labels))
        return merged

    def counter(self, name, help="", labels=None):
        return self._registry.counter(name, help=help, labels=self._merge(labels))

    def gauge(self, name, help="", labels=None):
        return self._registry.gauge(name, help=help, labels=self._merge(labels))

    def histogram(self, name, help="", labels=None, **kwargs):
        return self._registry.histogram(
            name, help=help, labels=self._merge(labels), **kwargs
        )


class TaggedBus:
    """Bus proxy that injects fixed fields into every published event.

    Only the publish side is proxied (that is all a shard does); payload
    fields win over tags on collision so a publisher can override its
    own labelling explicitly.
    """

    def __init__(self, bus, **tags) -> None:
        self._bus = bus
        self.tags = _clean_labels(tags)

    def publish(self, kind: str, **payload):
        merged = dict(self.tags)
        merged.update(payload)
        return self._bus.publish(kind, **merged)


def shard_observability(
    parent: Optional[Observability], tenant: str, attack: str
) -> Observability:
    """The tagged :class:`Observability` bundle one shard runs under.

    Tracer/profiler/timer stay off: spans and phase timers are per-run
    singletons whose identities would collide across shards, while
    metrics, bus events, and log records carry their shard in their
    labels.  With no parent (or a bare parent) the view is bare too —
    the live service's ``registry is None`` guards keep the hot path
    free.
    """
    if parent is None:
        return Observability()
    registry = (
        TaggedRegistry(parent.registry, tenant=tenant, attack=attack)
        if parent.registry is not None
        else None
    )
    bus = (
        TaggedBus(parent.bus, tenant=tenant, attack=attack)
        if parent.bus is not None
        else None
    )
    logbook = None
    if parent.logbook is not None:
        # Log tags come from the bus; without a shared bus the shard's
        # records are tagged by a private bus that keeps no history.
        logbook = parent.logbook.with_bus(
            bus
            or TaggedBus(EventBus(history_limit=0), tenant=tenant, attack=attack)
        )
    return Observability(registry=registry, bus=bus, logbook=logbook)
