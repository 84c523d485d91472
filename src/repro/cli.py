"""Command-line front end: ``spooftrack`` (also ``python -m repro``).

Subcommands:

* ``figures`` — reproduce paper figures and print their data series.
* ``tables`` — print Table I (testbed PoPs) and Table II (taxonomy).
* ``track`` — run the end-to-end localization pipeline on a synthetic
  attack and print the report.
* ``live`` — replay a synthetic attack through the online traceback
  service (``repro.live``) with rolling per-window attribution.
* ``chaos`` — sweep a fault plan across intensities and print an
  accuracy-vs-fault-rate table (``repro.faults``).
* ``profile`` — run the pipeline under the observability layer's
  profiler and print per-phase timings plus a top-K hotspot table.
* ``dash`` — ASCII live dashboard: render the observability event
  stream, either attached to a served ``/events`` endpoint or from a
  seeded local replay.
* ``bench-check`` — compare fresh ``benchmarks/BENCH_*.json`` artifacts
  against the recorded baseline history; non-zero exit on regression.
* ``experiments`` — regenerate the EXPERIMENTS.md body from a fresh run.

``track``, ``compare``, ``profile``, ``live``, and ``chaos`` accept
``--trace PATH`` (JSONL span tree with deterministic span ids),
``--metrics PATH`` (Prometheus-format counter/gauge/histogram dump),
``--serve PORT`` (threaded HTTP exporter: ``/metrics``, ``/healthz``,
``/readyz``, ``/manifest``, ``/traces``, and SSE ``/events``), and
``--log-json`` (structured JSON-lines operational logging instead of
bare stderr); one :class:`_RunSession` arms and tears these down for
every command.  ``track`` and ``live`` also accept ``--fault-plan``
(``chaos`` sweeps its own ``--plan``).  Counts, rates, and minutes are
range-checked by the parser, so an out-of-range value is a usage error
(exit 2).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import List, Optional, Sequence

from .analysis.figures import FIGURE_RUNNERS, EvaluationRun
from .analysis.report import figure_markdown, render_figure
from .analysis.tables import table1, table2
from .core.pipeline import SpoofTracker, TestbedSpec, build_testbed
from .errors import FaultInjectionError
from .faults import BUNDLED_PLANS, FaultInjector, load_fault_plan
from .obs import (
    Logbook,
    Observability,
    ObsServer,
    SloWatchdog,
    Stopwatch,
    build_manifest,
)
from .spoof.sources import PLACEMENT_DISTRIBUTIONS, make_placement
from .topology.generator import TopologyParams

import random

#: Topology scales selectable from the command line.
SCALES = {
    "small": TopologyParams(num_tier1=6, num_transit=60, num_stub=300),
    "medium": TopologyParams(num_tier1=8, num_transit=120, num_stub=600),
    "paper": TopologyParams(num_tier1=10, num_transit=220, num_stub=1600),
}


def _build_run(args: argparse.Namespace) -> EvaluationRun:
    params = replace(SCALES[args.scale], seed=args.seed)
    testbed = build_testbed(seed=args.seed, topology_params=params)
    return EvaluationRun(
        testbed=testbed,
        seed=args.seed,
        max_configs=args.max_configs,
        measured=args.measured,
    )


def _cmd_figures(args: argparse.Namespace) -> int:
    wanted = args.ids or sorted(FIGURE_RUNNERS)
    unknown = [figure_id for figure_id in wanted if figure_id not in FIGURE_RUNNERS]
    if unknown:
        print(f"unknown figure ids: {unknown}; known: {sorted(FIGURE_RUNNERS)}")
        return 2
    # Monotonic interval (a wall-clock adjustment mid-run used to be able
    # to skew or even negate this timing when it read time.time()).
    stopwatch = Stopwatch()
    run = _build_run(args)
    print(
        f"# evaluation run: {len(run.schedule)} configurations over "
        f"{len(run.universe)} ASes ({stopwatch.elapsed():.1f}s, "
        f"{run.engine.stats.summary()})",
        file=sys.stderr,
    )
    for figure_id in wanted:
        result = FIGURE_RUNNERS[figure_id](run)
        print(render_figure(result))
        if args.plot:
            from .analysis.ascii_plot import plot_figure

            print()
            print(plot_figure(result))
        print()
    run.engine.close()
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    testbed = build_testbed(seed=args.seed, topology_params=SCALES[args.scale])
    print(table1(testbed).render())
    print()
    print(table2().render())
    return 0


class _RunSession:
    """One command's observability lifecycle: arm, serve, export, tear down.

    Construction arms the :class:`Observability` bundle when a flag (or
    profiling) asks for it — unarmed runs keep :attr:`obs` None, so the
    pipeline's instrumentation guards stay on their no-op path — plus the
    logbook, the ``--fault-plan`` injector on the run's bus, and the run
    manifest (``config`` is its configuration).  Entering an armed
    session attaches the :class:`SloWatchdog` to the bus, so
    ``--metrics`` counts SLO breaches whether or not the run is served,
    and starts the ``--serve`` exporter (gated by that watchdog) ahead
    of the command's slow construction;
    :meth:`ready` flips ``/readyz`` and :attr:`health` (a value or a
    zero-arg callable) feeds ``/healthz``.  Every exit, a crash
    included, writes ``--trace``/``--metrics`` (spans close in
    :meth:`~repro.obs.tracing.Tracer.span`'s ``finally``, so the trace
    holds everything that ran); a clean exit, when serving, also
    publishes ``report``, honours ``--serve-linger`` and closes the
    bus.  Usage checks that return early go before the ``with``.
    """

    def __init__(
        self,
        args: argparse.Namespace,
        command: str,
        *,
        profile: bool = False,
        arm: bool = True,
        **config,
    ) -> None:
        self.args, self.command = args, command
        flags = (args.trace, args.metrics, args.log_json)
        self.obs: Optional[Observability] = None
        if arm and (profile or args.serve is not None or any(flags)):
            self.obs = Observability.for_run(command, profile=profile)
            self.obs.logbook.json_mode = args.log_json
        self.bus = self.obs.bus if self.obs is not None else None
        self.log = (
            self.obs.logbook
            if self.obs is not None
            else Logbook(json_mode=args.log_json)
        )
        plan = getattr(args, "fault_plan", None)
        self.injector = (
            FaultInjector(load_fault_plan(plan), bus=self.bus) if plan else None
        )
        self.manifest = build_manifest(
            command,
            seed=args.seed,
            scale=args.scale,
            config=config,
            fault_plan=self.injector.plan.as_serializable() if plan else None,
        )
        self.health = None
        self.server = None

    def __enter__(self) -> "_RunSession":
        if self.obs is None:
            return self
        watchdog = SloWatchdog(registry=self.obs.registry)
        self.bus.attach(watchdog.observe)
        if self.args.serve is None:
            return self
        self.server = ObsServer(
            obs=self.obs,
            manifest=self.manifest,
            health_source=lambda: (
                self.health() if callable(self.health) else self.health
            ),
            watchdog=watchdog,
            port=self.args.serve,
        ).start()
        self.log.info(
            f"serving observability on {self.server.url}",
            event="serve",
            port=self.server.port,
        )
        return self

    def ready(self) -> None:
        """Flip ``/readyz``."""
        if self.server is not None:
            self.server.set_ready()

    def __exit__(self, exc_type, exc, traceback) -> None:
        self._export()
        if exc_type is None:
            if self.server is not None:
                self.bus.publish("report", command=self.command)
                linger = self.args.serve_linger
                if linger > 0:
                    self.log.info(
                        f"run complete; serving {self.server.url} for {linger:g}s more",
                        event="serve_linger",
                    )
                    time.sleep(linger)
        if self.server is not None:
            self.server.stop()
            if exc_type is None:
                self.bus.close()

    def _export(self) -> None:
        """Write ``--trace`` / ``--metrics`` artifacts and announce them."""
        trace, metrics = self.args.trace, self.args.metrics
        if trace and self.obs is not None:
            self.obs.tracer.write_jsonl(trace)
            self.log.info(f"wrote trace {trace}", event="export", path=trace)
        if metrics and self.obs is not None:
            self.obs.registry.write_prometheus(metrics)
            self.log.info(f"wrote metrics {metrics}", event="export", path=metrics)


def _testbed_and_placement(args: argparse.Namespace):
    """The seeded testbed and the spoofing-source placement attacking it
    (``track``, ``profile``, and ``chaos`` share the derivation)."""
    testbed = build_testbed(seed=args.seed, topology_params=SCALES[args.scale])
    candidate_ases = sorted(testbed.topology.stubs or testbed.graph.ases)
    placement = make_placement(
        args.distribution,
        candidate_ases,
        args.sources,
        random.Random(args.seed + 1),
    )
    return testbed, placement


def _run_tracker(args, testbed, placement, obs, injector=None, **options):
    """One :class:`SpoofTracker` run of ``placement`` on ``testbed``."""
    tracker = SpoofTracker(testbed, injector=injector, obs=obs)
    try:
        return tracker.run(
            max_configs=args.max_configs,
            placement=placement,
            measured=args.measured,
            **options,
        )
    finally:
        tracker.engine.close()


def _cmd_track(args: argparse.Namespace) -> int:
    session = _RunSession(
        args,
        "track",
        max_configs=args.max_configs,
        measured=args.measured,
        distribution=args.distribution,
        sources=args.sources,
        split_threshold=args.split_threshold,
        strategy=args.strategy,
    )
    if args.measured and args.split_threshold is not None:
        session.log.error(
            "--split-threshold needs ground-truth catchments; it cannot be "
            "combined with --measured"
        )
        return 2
    with session:
        testbed, placement = _testbed_and_placement(args)
        session.ready()
        report = _run_tracker(
            args,
            testbed,
            placement,
            session.obs,
            session.injector,
            split_threshold=args.split_threshold,
            strategy=args.strategy,
        )
        report.manifest = session.manifest
        session.health = report.resilience
    print(report.summary())
    true_sources = ", ".join(str(asn) for asn in sorted(placement.spoofing_ases))
    print(f"ground-truth source ASes: {true_sources}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .strategy import available_strategies, compare_strategies, strategy_class

    if args.strategies:
        names = [name.strip() for name in args.strategies.split(",") if name.strip()]
    else:
        names = available_strategies()
    for name in names:
        strategy_class(name)  # fail fast, before the measurement pass
    session = _RunSession(
        args,
        "compare",
        max_configs=args.max_configs,
        strategies=",".join(names),
    )
    with session:
        testbed = build_testbed(seed=args.seed, topology_params=SCALES[args.scale])
        session.ready()
        report = compare_strategies(
            testbed,
            strategies=names,
            max_configs=args.max_configs,
            obs=session.obs,
        )
    print(
        f"racing {len(report.outcomes)} strategies over "
        f"{report.candidate_configs} candidate configurations, "
        f"{report.universe_size} sources (seed {report.seed})"
    )
    if report.engine_stats is not None:
        print(f"shared measurement pass  : {report.engine_stats.summary()}")
    print()
    print(report.table())
    if args.json:
        report.write_json(args.json)
        session.log.info(f"wrote {args.json}", event="export", path=args.json)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    session = _RunSession(
        args,
        "profile",
        profile=True,
        max_configs=args.max_configs,
        measured=args.measured,
    )
    obs = session.obs
    with session:
        testbed, placement = _testbed_and_placement(args)
        session.ready()
        report = _run_tracker(args, testbed, placement, obs)
        report.manifest = session.manifest
    assert obs.timer is not None and obs.profiler is not None
    print("# per-phase wall time")
    print(obs.timer.table())
    print()
    captured = "engine fixpoints + "
    captured += "measurement + NNLS solves" if args.measured else "NNLS solves"
    print(f"# top {args.top} hotspots ({captured})")
    print(obs.profiler.hotspot_table(args.top))
    print()
    print(report.summary())
    return 0


def _cmd_headline(args: argparse.Namespace) -> int:
    from .analysis.headline import headline_metrics, render_headline

    run = _build_run(args)
    print(render_headline(headline_metrics(run)))
    run.engine.close()
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    from .data import Dataset, PathDataset

    run = _build_run(args)
    dataset = Dataset.from_catchment_history(
        run.testbed.origin.link_ids,
        run.schedule,
        run.catchment_history,
        meta={
            "seed": args.seed,
            "scale": args.scale,
            "ases": len(run.testbed.graph),
            "universe": len(run.universe),
        },
    )
    dataset.save(args.output)
    print(
        f"wrote {args.output}: {len(dataset)} configurations over "
        f"{len(dataset.sources())} sources"
    )
    if args.paths:
        # Cache hits: the run already simulated its schedule.
        outcomes = run.engine.simulate_many(run.schedule)
        path_dataset = PathDataset.from_outcomes(outcomes)
        path_dataset.save(args.paths)
        diversity = path_dataset.route_diversity()
        mean_diversity = sum(diversity.values()) / len(diversity)
        print(
            f"wrote {args.paths}: forwarding paths for {len(path_dataset)} "
            f"configurations (mean {mean_diversity:.2f} routes/source)"
        )
    run.engine.close()
    return 0


def _bounded(name: str, kind, minimum, *, above: bool = False, maximum=None):
    """An argparse type parsing ``kind`` values of at least ``minimum``
    (strictly above it when ``above``) and at most ``maximum``, so a
    value the library would reject is a usage error instead."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(f"{text!r} is not {noun}")
        # Written as negations so NaN fails every bound.
        if not (value > minimum if above else value >= minimum):
            bound = "greater than" if above else "at least"
            raise argparse.ArgumentTypeError(
                f"must be {bound} {minimum:g}, got {value:g}"
            )
        if maximum is not None and not value <= maximum:
            raise argparse.ArgumentTypeError(
                f"must be at most {maximum:g}, got {value:g}"
            )
        return value

    parse.__name__ = parse.__qualname__ = name
    return parse


# Counts (``--max-configs``; ``--checkpoint-every``, where 0 = never),
# simulated minutes and scales, probabilities, and volume shares.
_positive_int = _bounded("_positive_int", int, 1)
_non_negative_int = _bounded("_non_negative_int", int, 0)
_positive_float = _bounded("_positive_float", float, 0.0, above=True)
_non_negative_float = _bounded("_non_negative_float", float, 0.0)
_share = _bounded("_share", float, 0.0, above=True, maximum=1.0)


def _parse_churn(text: str) -> tuple:
    """Parse a ``WINDOW:DRIFT`` churn event specification."""
    try:
        window_text, drift_text = text.split(":", 1)
        return (int(window_text), float(drift_text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"churn event {text!r} is not WINDOW:DRIFT (e.g. 12:0.3)"
        )


def _cmd_live(args: argparse.Namespace) -> int:
    from .analysis.live import render_window, render_window_table
    from .live import LiveTracebackService, ReplayScenario, load_checkpoint

    # Resumed services rebuild mid-run state from the checkpoint alone;
    # the premeasure span and controller counters are gone, so tracing,
    # serving, and fault injection apply to fresh runs only.
    session = _RunSession(
        args,
        "live",
        arm=not args.resume,
        max_configs=args.max_configs,
        distribution=args.distribution,
        sources=args.sources,
        window_minutes=args.window_minutes,
        adaptive=not args.in_order,
    )
    log = session.log
    fresh_only = ("--trace", "--metrics", "--serve", "--fault-plan")
    ignored = [
        flag
        for flag in fresh_only
        if getattr(args, flag[2:].replace("-", "_")) is not None
    ]
    if args.resume and ignored:
        log.error(
            f"--resume cannot apply {', '.join(ignored)}: the resumed "
            "service is rebuilt from the checkpoint alone"
        )
        return 2
    if not args.resume and args.checkpoint_every > 0 and not args.checkpoint:
        log.error("--checkpoint-every needs --checkpoint PATH")
        return 2
    with session:
        if args.resume:
            service = load_checkpoint(args.resume)
        else:
            scenario = ReplayScenario(
                seed=args.seed,
                distribution=args.distribution,
                num_sources=args.sources,
                max_configs=args.max_configs,
                window_minutes=args.window_minutes,
                batches_per_window=args.batches_per_window,
                queue_capacity=args.queue_capacity,
                drop_policy=args.drop_policy,
                adaptive=not args.in_order,
                strategy=args.strategy,
                min_configs=args.min_configs,
                stop_entropy=args.stop_entropy,
                stop_volume_share=args.stop_volume_share,
                churn_events=tuple(args.churn),
                checkpoint_every=args.checkpoint_every,
                checkpoint_path=args.checkpoint or "",
                packets_per_window=args.packets_per_window,
            )
            params = replace(SCALES[args.scale], seed=args.seed)
            service = LiveTracebackService(
                scenario=scenario,
                spec=TestbedSpec(seed=args.seed, topology_params=params),
                injector=session.injector,
                obs=session.obs,
            )
            session.health = service._resilience_report
            session.ready()
        on_window = None
        if not args.quiet:

            def on_window(stats):
                log.info(
                    render_window(stats),
                    event="window",
                    window=stats.window_index,
                )

        try:
            report = service.run(on_window=on_window)
            if args.checkpoint and args.checkpoint_every == 0:
                service.checkpoint(args.checkpoint)
                log.info(
                    f"wrote final checkpoint {args.checkpoint}",
                    event="checkpoint",
                    path=args.checkpoint,
                )
        finally:
            service.close()
        if not args.resume:
            report.manifest = session.manifest
    print(report.summary())
    print()
    print(render_window_table(report.windows, every=args.table_every))
    true_sources = ", ".join(
        str(asn) for asn in sorted(report.placement.spoofing_ases)
    )
    print(f"ground-truth source ASes: {true_sources}")
    return 0


def _parse_levels(text: str) -> List[float]:
    """Parse the ``chaos`` sweep's comma-separated intensity levels."""
    try:
        levels = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"levels {text!r} are not comma-separated numbers"
        )
    if not levels or any(level < 0 for level in levels):
        raise argparse.ArgumentTypeError("need non-negative levels")
    return levels


def _cmd_chaos(args: argparse.Namespace) -> int:
    base_plan = load_fault_plan(args.plan)
    # One bundle spans the whole sweep: span ordinals keep the repeated
    # pipeline phases distinct, and counters accumulate across levels.
    session = _RunSession(args, "chaos", plan=args.plan, levels=list(args.levels))
    with session:
        session.ready()
        testbed, placement = _testbed_and_placement(args)
        session.log.info(
            f"# chaos sweep: plan {base_plan.name!r} at levels "
            f"{', '.join(f'{level:g}' for level in args.levels)}",
            event="chaos_sweep",
            plan=base_plan.name,
        )
        header = (
            f"{'level':>6} {'faults':>7} {'degraded':>9} "
            f"{'clusters':>9} {'mean':>6} {'recall':>7} {'precision':>10} "
            f"{'violations':>11}"
        )
        print(header)
        print("-" * len(header))
        worst_violations = 0
        for level in args.levels:
            injector = FaultInjector(base_plan.scaled(level), bus=session.bus)
            report = _run_tracker(args, testbed, placement, session.obs, injector)
            resilience = report.resilience
            assert resilience is not None
            session.health = resilience
            quality = report.localization.evaluate_against(placement)
            worst_violations = max(worst_violations, len(resilience.violations))
            print(
                f"{level:>6g} {resilience.total_faults:>7d} "
                f"{resilience.degraded_configs:>9d} "
                f"{len(report.clusters):>9d} {report.mean_cluster_size:>6.2f} "
                f"{quality.recall:>7.0%} {quality.precision:>10.0%} "
                f"{len(resilience.violations):>11d}"
            )
    if worst_violations:
        print(f"\n{worst_violations} invariant violations — see above")
        return 1
    print("\nall invariants held at every fault level")
    return 0


def _iter_sse(stream):
    """Yield event dicts from a server-sent-events byte stream."""
    import json

    data_lines: List[str] = []
    for raw in stream:
        line = raw.decode("utf-8").rstrip("\r\n")
        if line.startswith("data:"):
            data_lines.append(line[len("data:"):].lstrip())
        elif not line and data_lines:
            yield json.loads("\n".join(data_lines))
            data_lines = []


def _cmd_dash(args: argparse.Namespace) -> int:
    from .analysis.dashboard import Dashboard

    dash = Dashboard()
    if args.url:
        import urllib.error
        import urllib.request

        url = args.url.rstrip("/") + "/events?replay=1"
        if args.limit:
            url += f"&limit={args.limit}"
        try:
            with urllib.request.urlopen(url, timeout=args.timeout) as response:
                for event in _iter_sse(response):
                    dash.ingest(event)
                    if args.every and dash.events_seen % args.every == 0:
                        print(dash.render())
                        print()
        except (urllib.error.URLError, OSError) as exc:
            print(f"cannot read {url}: {exc}", file=sys.stderr)
            return 2
        print(dash.render())
        return 0

    # No --url: drive a seeded local replay and render its event stream.
    from .live import LiveTracebackService, ReplayScenario

    obs = Observability.for_run("dash")
    scenario = ReplayScenario(
        seed=args.seed,
        distribution=args.distribution,
        num_sources=args.sources,
        max_configs=args.max_configs,
    )
    params = replace(SCALES[args.scale], seed=args.seed)
    spec = TestbedSpec(seed=args.seed, topology_params=params)
    service = LiveTracebackService(scenario=scenario, spec=spec, obs=obs)
    try:
        service.run()
    finally:
        service.close()
    for event in obs.bus.history():
        dash.ingest(event)
    print(dash.render())
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    from .obs import benchgate

    if args.update:
        path = benchgate.write_history(args.bench_dir, args.history)
        print(f"wrote bench history {path}")
        return 0
    try:
        result = benchgate.check_benchmarks(
            args.bench_dir,
            args.history,
            tolerance=args.tolerance,
            absolute_slack=args.absolute_slack,
        )
    except FileNotFoundError as exc:
        print(
            f"no bench history ({exc}); record one with "
            "`spooftrack bench-check --update`",
            file=sys.stderr,
        )
        return 2
    for line in result.summary_lines():
        print(line)
    return 0 if result.passed else 1


def _cmd_experiments(args: argparse.Namespace) -> int:
    run = _build_run(args)
    sections: List[str] = []
    for figure_id in sorted(FIGURE_RUNNERS):
        result = FIGURE_RUNNERS[figure_id](run)
        sections.append(figure_markdown(result))
    body = "\n".join(sections)
    if args.output == "-":
        print(body)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(body)
        print(f"wrote {args.output}")
    run.engine.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``spooftrack`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="spooftrack",
        description=(
            "Reproduction of 'Tracking Down Sources of Spoofed IP Packets': "
            "BGP-steered localization of spoofed-traffic sources."
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="global PRNG seed")
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="small",
        help="synthetic Internet size",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_run_options(
        sub: argparse.ArgumentParser, max_configs=None, measured: bool = True
    ) -> None:
        sub.add_argument(
            "--max-configs",
            type=_positive_int,
            default=max_configs,
            help="truncate the announcement schedule",
        )
        if measured:
            sub.add_argument(
                "--measured",
                action="store_true",
                help="use the full measurement pipeline instead of ground truth",
            )

    def add_attack_options(
        sub, distribution: str, sources: int, max_configs=None, measured=False
    ) -> None:
        sub.add_argument(
            "--distribution",
            choices=PLACEMENT_DISTRIBUTIONS,
            default=distribution,
            help="spoofing-source placement",
        )
        sub.add_argument(
            "--sources", type=_positive_int, default=sources,
            help="number of spoofing sources",
        )
        add_run_options(sub, max_configs, measured)

    def add_obs_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--trace",
            default=None,
            metavar="PATH",
            help="write a JSONL span trace (deterministic span ids)",
        )
        sub.add_argument(
            "--metrics",
            default=None,
            metavar="PATH",
            help="write a Prometheus-format metrics dump",
        )
        sub.add_argument(
            "--serve",
            type=int,
            default=None,
            metavar="PORT",
            help=(
                "serve live telemetry over HTTP on this port (0 = pick "
                "free): /metrics /healthz /readyz /manifest /traces "
                "/events (SSE)"
            ),
        )
        sub.add_argument(
            "--serve-linger",
            type=float,
            default=0.0,
            metavar="SECONDS",
            help="keep serving this long after the run finishes",
        )
        sub.add_argument(
            "--log-json",
            action="store_true",
            help="structured JSON-lines operational logs on stderr",
        )

    def add_fault_plan(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--fault-plan",
            default=None,
            metavar="NAME|PATH",
            help=(
                "inject faults from a bundled plan "
                f"({', '.join(sorted(BUNDLED_PLANS))}) or a JSON plan file"
            ),
        )

    figures = subparsers.add_parser("figures", help="reproduce paper figures")
    figures.add_argument("ids", nargs="*", help="figure ids (default: all)")
    figures.add_argument(
        "--plot", action="store_true", help="also render ASCII plots"
    )
    add_run_options(figures)
    figures.set_defaults(func=_cmd_figures)

    tables = subparsers.add_parser("tables", help="print Tables I and II")
    tables.set_defaults(func=_cmd_tables)

    from .strategy import available_strategies

    track = subparsers.add_parser("track", help="run the localization pipeline")
    track.add_argument(
        "--split-threshold",
        type=_positive_int,
        default=None,
        help=(
            "run the §V-B large-cluster splitter on clusters above this "
            "size (ground-truth runs only)"
        ),
    )
    track.add_argument(
        "--strategy",
        choices=available_strategies(),
        default=None,
        help=(
            "plan the deployment order with this traceback strategy "
            "(default: schedule order)"
        ),
    )
    add_attack_options(track, "single", 1, measured=True)
    add_fault_plan(track)
    add_obs_options(track)
    track.set_defaults(func=_cmd_track)

    compare = subparsers.add_parser(
        "compare",
        help="race registered traceback strategies on one seeded testbed",
    )
    compare.add_argument(
        "--strategies",
        default=None,
        metavar="NAMES",
        help=(
            "comma-separated registry names to race "
            f"(default: all of {', '.join(available_strategies())})"
        ),
    )
    compare.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the ranked results as a JSON artifact",
    )
    add_run_options(compare, measured=False)
    add_obs_options(compare)
    compare.set_defaults(func=_cmd_compare)

    profile = subparsers.add_parser(
        "profile",
        help="run the pipeline under the profiler and print hotspots",
    )
    profile.add_argument(
        "--top", type=int, default=15, help="hotspot rows to print"
    )
    add_attack_options(profile, "single", 1, measured=True)
    add_obs_options(profile)
    profile.set_defaults(func=_cmd_profile)

    live = subparsers.add_parser(
        "live",
        help="replay a synthetic attack through the online traceback service",
    )
    add_attack_options(live, "pareto", 40, max_configs=12)
    live.add_argument(
        "--window-minutes",
        type=_positive_float,
        default=20.0,
        help="observation window (honeypot counter-read interval) length",
    )
    live.add_argument(
        "--checkpoint-every",
        type=_non_negative_int,
        default=0,
        help=(
            "checkpoint to --checkpoint every N windows (0 = only "
            "the final state)"
        ),
    )
    live.add_argument(
        "--batches-per-window",
        type=_positive_int,
        default=1,
        help="traffic batches offered to the ingest queue per window",
    )
    live.add_argument(
        "--queue-capacity", type=_positive_int, default=64, help="ingest queue bound"
    )
    live.add_argument(
        "--drop-policy",
        choices=("newest", "oldest"),
        default="newest",
        help="which batch to drop when the queue overflows",
    )
    live.add_argument(
        "--in-order",
        action="store_true",
        help="deploy configurations in schedule order (no adaptive reordering)",
    )
    live.add_argument(
        "--strategy",
        choices=available_strategies(),
        default="greedy",
        help="traceback strategy the adaptive controller consults",
    )
    live.add_argument(
        "--min-configs",
        type=_positive_int,
        default=3,
        help="never short-circuit before this many configurations",
    )
    live.add_argument(
        "--stop-entropy",
        type=float,
        default=None,
        help="stop once attribution entropy (bits) drops to this",
    )
    live.add_argument(
        "--stop-volume-share",
        type=_share,
        default=None,
        help="stop once a singleton cluster holds this estimated-volume share",
    )
    live.add_argument(
        "--churn",
        type=_parse_churn,
        action="append",
        default=[],
        metavar="WINDOW:DRIFT",
        help="schedule route churn (repeatable, e.g. --churn 12:0.3)",
    )
    live.add_argument(
        "--packets-per-window",
        type=_non_negative_int,
        default=0,
        help=">0 switches to packet-sampled traffic at this rate",
    )
    live.add_argument(
        "--checkpoint", default=None, help="checkpoint JSON path"
    )
    live.add_argument(
        "--resume",
        default=None,
        help="resume from a checkpoint (other scenario flags are ignored)",
    )
    live.add_argument(
        "--table-every",
        type=_positive_int,
        default=4,
        help="row stride of the final window table",
    )
    live.add_argument(
        "--quiet",
        action="store_true",
        help="suppress rolling per-window progress on stderr",
    )
    add_fault_plan(live)
    add_obs_options(live)
    live.set_defaults(func=_cmd_live)

    chaos = subparsers.add_parser(
        "chaos",
        help="sweep a fault plan across intensities (accuracy vs fault rate)",
    )
    chaos.add_argument(
        "--plan",
        default="mixed",
        metavar="NAME|PATH",
        help=(
            "fault plan to sweep: bundled "
            f"({', '.join(sorted(BUNDLED_PLANS))}) or a JSON plan file"
        ),
    )
    chaos.add_argument(
        "--levels",
        type=_parse_levels,
        default=[0.0, 0.25, 0.5, 1.0],
        help="comma-separated rate multipliers (default 0,0.25,0.5,1.0)",
    )
    add_attack_options(chaos, "single", 1, measured=True)
    add_obs_options(chaos)
    chaos.set_defaults(func=_cmd_chaos)

    headline = subparsers.add_parser(
        "headline", help="paper-vs-reproduction headline metrics"
    )
    add_run_options(headline)
    headline.set_defaults(func=_cmd_headline)

    dataset = subparsers.add_parser(
        "dataset", help="export the measured catchment dataset as JSON (§VI)"
    )
    dataset.add_argument(
        "--output", default="spoof-dataset.json", help="output JSON path"
    )
    dataset.add_argument(
        "--paths",
        default=None,
        help="also export per-configuration forwarding paths (JSONL)",
    )
    add_run_options(dataset)
    dataset.set_defaults(func=_cmd_dataset)

    dash = subparsers.add_parser(
        "dash",
        help="ASCII live dashboard over the observability event stream",
    )
    dash.add_argument(
        "--url",
        default=None,
        help="attach to a served exporter (e.g. http://127.0.0.1:8787); "
        "without it a seeded local replay is rendered",
    )
    dash.add_argument(
        "--limit",
        type=int,
        default=0,
        help="with --url: stop after N events of any kind (0 = until close)",
    )
    dash.add_argument(
        "--every",
        type=int,
        default=0,
        help="with --url: re-render after every N events (0 = only at end)",
    )
    dash.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="with --url: socket timeout in seconds",
    )
    add_attack_options(dash, "pareto", 10, max_configs=6)
    dash.set_defaults(func=_cmd_dash)

    bench_check = subparsers.add_parser(
        "bench-check",
        help="gate fresh BENCH_*.json artifacts against recorded history",
    )
    bench_check.add_argument(
        "--bench-dir",
        default="benchmarks",
        help="directory holding BENCH_*.json artifacts",
    )
    bench_check.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help="baseline file (default: <bench-dir>/BENCH_history.json)",
    )
    bench_check.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional slowdown per metric (default 0.15)",
    )
    bench_check.add_argument(
        "--absolute-slack",
        type=float,
        default=0.005,
        metavar="SECONDS",
        help="ignore deltas below this many seconds (default 0.005)",
    )
    bench_check.add_argument(
        "--update",
        action="store_true",
        help="record the current artifacts as the new baseline",
    )
    bench_check.set_defaults(func=_cmd_bench_check)

    experiments = subparsers.add_parser(
        "experiments", help="regenerate EXPERIMENTS.md figure sections"
    )
    experiments.add_argument(
        "--output", default="-", help="output path ('-' for stdout)"
    )
    add_run_options(experiments)
    experiments.set_defaults(func=_cmd_experiments)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``spooftrack`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FaultInjectionError as exc:
        print(f"fault plan error: {exc}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())
