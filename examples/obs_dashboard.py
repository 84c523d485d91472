#!/usr/bin/env python3
"""Serve and watch a live traceback's telemetry (PR: servable obs).

An attack-time traceback is only operable if you can see it while it
runs.  This example replays a seeded attack with the full observability
surface armed — event bus, SLO watchdogs, HTTP/SSE exporter — then
plays operator: scrapes ``/metrics`` mid-run, checks ``/readyz``, and
tails the event stream that ``/events`` serves over SSE.

Run:  python examples/obs_dashboard.py
"""

import json
import threading
import urllib.request
from collections import Counter

from repro.core.pipeline import build_testbed
from repro.live import LiveTracebackService, ReplayScenario
from repro.obs import (
    Observability,
    ObsServer,
    SloWatchdog,
    build_manifest,
    parse_prometheus,
    strip_measured,
)
from repro.topology import TopologyParams


def fetch(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read().decode("utf-8")


def main() -> None:
    testbed = build_testbed(
        seed=7,
        topology_params=TopologyParams(
            num_tier1=6, num_transit=80, num_stub=400, seed=7
        ),
    )
    print(f"testbed: {len(testbed.graph)} ASes")

    # ------------------------------------------------------------------
    # Phase 1: arm the full surface and start serving before the run.
    # ------------------------------------------------------------------
    obs = Observability.for_run("live")
    watchdog = SloWatchdog(registry=obs.registry)
    obs.bus.attach(watchdog.observe)
    server = ObsServer(
        obs=obs,
        manifest=build_manifest("live", seed=7),
        watchdog=watchdog,
        port=0,  # pick any free port
    ).start()
    print(f"\n[1] serving {server.url} " f"(routes: {', '.join(ObsServer.ROUTES)})")

    scenario = ReplayScenario(
        seed=7,
        distribution="pareto",
        num_sources=40,
        max_configs=6,
        churn_events=((10, 0.8),),
    )
    service = LiveTracebackService(scenario=scenario, testbed=testbed, obs=obs)
    server.set_ready()

    # ------------------------------------------------------------------
    # Phase 2: run the replay while an operator-side thread scrapes.
    # ------------------------------------------------------------------
    scrapes = []

    def operator() -> None:
        subscription = obs.bus.subscribe(replay=True)
        while True:
            event = subscription.get(timeout=0.5)
            if event is None:
                if subscription._closed:
                    return
                continue
            if event["kind"] == "window":
                scrapes.append(parse_prometheus(fetch(server.url + "/metrics")))

    watcher = threading.Thread(target=operator, daemon=True)
    watcher.start()
    report = service.run()
    obs.bus.close()
    watcher.join(timeout=10)

    print(f"\n[2] ran {len(report.windows)} windows; "
          f"{len(scrapes)} mid-run /metrics scrapes, window count climbing:")
    counts = [int(s.get("repro_live_window_seconds_count", 0)) for s in scrapes]
    print(f"    {counts[:12]}{' …' if len(counts) > 12 else ''}")

    ready = json.loads(fetch(server.url + "/readyz"))
    print(f"    /readyz: ready={ready['ready']} after {ready['checks']} "
          f"SLO checks, {len(ready['breaches'])} breaches")

    # ------------------------------------------------------------------
    # Phase 3: the /events stream.  Stripped of measured durations it
    # is byte-deterministic for a seeded run.
    # ------------------------------------------------------------------
    events = obs.bus.history()
    kinds = Counter(event["kind"] for event in events)
    print(f"\n[3] event stream: {len(events)} events "
          f"({', '.join(f'{k} {n}' for k, n in sorted(kinds.items()))})")
    print(f"    last, stripped: {json.dumps(strip_measured(events[-1]))[:72]}…")

    server.stop()
    service.close()


if __name__ == "__main__":
    main()
