"""The three headline workloads, their output checks, and one child run.

Every workload runs on one fixed testbed per scale (testbed seed
:data:`TESTBED_SEED`, the ROADMAP's baseline Internet).  The benchmark
seed draws the attack: the 40 pareto-placed spoofing sources (placement
seeded ``seed + 1``) and, live, the packet traffic.  Seeding the
topology too would change the schedule length and the measured
universe from seed to seed (574-597 configurations at ``paper`` scale)
and that, not the code, would dominate the spread between seeds.

The program is imported lazily, inside the functions, so that the
parent process and the tests import this module cheaply.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional

#: name → why it was chosen (mirrored in BENCHMARK.json and README.md).
WORKLOADS: Dict[str, str] = {
    "truth-paper": (
        "paper-scale full schedule with ground-truth catchments: simulation "
        "and NNLS do the work, measurement is never called"
    ),
    "measured-small": (
        "small-scale full schedule measured through feeds and traceroutes: "
        "the measure phase is ~89% of the run"
    ),
    "live-adaptive": (
        "online service in a closed step() loop: greedy propose and per-window "
        "NNLS dominate, simulation only in set-up"
    ),
}

TESTBED_SEED = 0
SOURCES = 40
DISTRIBUTION = "pareto"

#: Set-up is repeated in each untraced child until this many samples or
#: this many seconds, whichever comes first, so ``setup_s`` is a median.
#: The live service's ~1 s premeasure therefore sets up once per child.
SETUP_REPEATS = 5
SETUP_BUDGET_S = 0.5

#: Decimal places of the per-cluster volumes folded into the digest.
VOLUME_DIGITS = 9


@dataclass
class Prepared:
    """A set-up workload: ``call()`` is the timed call."""

    call: Callable[[], object]
    close: Callable[[], None]
    live: bool
    obs: object = None
    engine: object = None
    step_seconds: List[float] = field(default_factory=list)


def load_program() -> None:
    """Import everything :func:`prepare` needs, outside any timed region."""
    import repro.cli  # noqa: F401  (pulls in the whole pipeline)
    import repro.live  # noqa: F401


def prepare(
    workload: str, seed: int, max_configs: Optional[int], traced: bool
) -> Prepared:
    """Build the testbed, the placement and the tracker or service."""
    from repro.cli import SCALES
    from repro.core.pipeline import SpoofTracker, TestbedSpec, build_testbed
    from repro.live import LiveTracebackService, ReplayScenario
    from repro.obs import Observability, PhaseTimer
    from repro.spoof.sources import make_placement

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "live-adaptive":
        scenario = ReplayScenario(
            seed=seed,
            distribution=DISTRIBUTION,
            num_sources=SOURCES,
            max_configs=max_configs,
            packets_per_window=200,
            batches_per_window=4,
        )
        spec = TestbedSpec(
            seed=TESTBED_SEED,
            topology_params=replace(SCALES["small"], seed=TESTBED_SEED),
        )
        # An armed bundle, as `spooftrack live --serve/--metrics` runs it.
        obs = Observability.for_run("live")
        service = LiveTracebackService(scenario, spec=spec, workers=1, obs=obs)
        steps: List[float] = []

        def run_live():
            clock = time.perf_counter
            while True:
                start = clock()
                more = service.step()
                steps.append(clock() - start)
                if not more:
                    return service.report()

        return Prepared(
            call=run_live, close=service.close, live=True, obs=obs,
            engine=service.engine, step_seconds=steps,
        )

    scale = "paper" if workload == "truth-paper" else "small"
    testbed = build_testbed(seed=TESTBED_SEED, topology_params=SCALES[scale])
    candidates = sorted(testbed.topology.stubs or testbed.graph.ases)
    placement = make_placement(
        DISTRIBUTION, candidates, SOURCES, random.Random(seed + 1)
    )
    obs = Observability(timer=PhaseTimer()) if traced else None
    tracker = SpoofTracker(testbed, workers=1, obs=obs)
    measured = workload == "measured-small"
    return Prepared(
        call=lambda: tracker.run(
            max_configs=max_configs, placement=placement, measured=measured
        ),
        close=tracker.engine.close,
        live=False,
        obs=obs,
        engine=tracker.engine,
    )


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def result_digest(report) -> str:
    """SHA-256 of the sorted clusters and their rounded volumes.

    :func:`check_report` makes sure the ranked clusters are the final
    partition, so hashing them covers every cluster exactly once.
    """
    payload = sorted(
        [sorted(ranked.members), round(ranked.estimated_volume, VOLUME_DIGITS) + 0.0]
        for ranked in report.localization.ranked
    )
    return hashlib.sha256(
        json.dumps(payload, separators=(",", ":")).encode()
    ).hexdigest()


def check_report(report, live: bool) -> List[str]:
    """Problems with one run's outputs (empty when correct)."""
    problems: List[str] = []
    clusters = report.clusters
    covered = set().union(*clusters)
    if any(not cluster for cluster in clusters):
        problems.append("empty cluster")
    if sum(len(cluster) for cluster in clusters) != len(covered):
        problems.append("clusters overlap")
    if covered != set(report.universe):
        problems.append(
            f"clusters cover {len(covered)} ASes, "
            f"universe has {len(report.universe)}"
        )
    if report.localization is None:
        problems.append("no volume attribution")
        return problems
    ranked = report.localization.ranked
    negative = sum(1 for r in ranked if r.estimated_volume < 0)
    if negative:
        problems.append(f"{negative} negative cluster volumes")
    if {r.members for r in ranked} != set(clusters) or len(ranked) != len(clusters):
        problems.append("attributed clusters differ from the partition")
    if live and report.run_stats.dropped_batches:
        problems.append(
            f"live run dropped {report.run_stats.dropped_batches} batches"
        )
    return problems


def quality(report, live: bool) -> Dict[str, float]:
    """Configurations used and the paper's headline quality numbers."""
    scores = report.localization.evaluate_against(report.placement)
    clusters = report.clusters
    return {
        "configs": (
            report.run_stats.configs_consumed if live else len(report.steps)
        ),
        "mean_cluster_size": len(report.universe) / len(clusters),
        "singleton_frac": sum(1 for c in clusters if len(c) == 1) / len(clusters),
        "recall": scores.recall,
        "precision": scores.precision,
    }


# ----------------------------------------------------------------------
# One child process
# ----------------------------------------------------------------------


def run_child(
    workload: str,
    seed: int,
    max_configs: Optional[int] = None,
    traced: bool = False,
    trace_dir: str = "",
) -> Dict:
    """Set up and run one workload once; everything the parent needs.

    Untraced children repeat set-up (see :data:`SETUP_REPEATS`) and time
    the call bare.  A traced child sets up once with every layer wrapped
    and writes its spans to ``<trace_dir>/<workload>.jsonl``.
    """
    result: Dict = {"workload": workload, "seed": seed, "traced": traced}
    try:
        load_program()
        if traced:
            result.update(_traced_child(workload, seed, max_configs, trace_dir))
        else:
            result.update(_timed_child(workload, seed, max_configs))
    except Exception:
        result["error"] = traceback.format_exc()
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return result


def _outputs(prepared: Prepared, report) -> Dict:
    out = {
        "problems": check_report(report, prepared.live),
        "digest": result_digest(report),
        "quality": quality(report, prepared.live),
    }
    if prepared.live:
        out["step_s"] = prepared.step_seconds
    return out


def _timed_child(workload: str, seed: int, max_configs: Optional[int]) -> Dict:
    clock = time.perf_counter
    setup_s: List[float] = []
    prepared: Optional[Prepared] = None
    while True:
        if prepared is not None:
            prepared.close()
            prepared = None
            gc.collect()
        start = clock()
        prepared = prepare(workload, seed, max_configs, traced=False)
        setup_s.append(clock() - start)
        if len(setup_s) >= SETUP_REPEATS or sum(setup_s) >= SETUP_BUDGET_S:
            break
    gc.collect()
    start = clock()
    report = prepared.call()
    run_s = clock() - start
    prepared.close()
    return {"setup_s": setup_s, "run_s": run_s, **_outputs(prepared, report)}


def _traced_child(
    workload: str, seed: int, max_configs: Optional[int], trace_dir: str
) -> Dict:
    from layers import SpanRecorder, layer_metrics, traced

    recorder = SpanRecorder()
    with traced(recorder):
        with recorder.span("bench.setup"):
            prepared = prepare(workload, seed, max_configs, traced=True)
        gc.collect()
        with recorder.span("bench.run"):
            report = prepared.call()
        prepared.close()
    layers = layer_metrics(
        recorder,
        phases=dict(prepared.obs.timer.totals),
        engine=asdict(prepared.engine.stats),
        ingest=asdict(report.ingest) if prepared.live else {},
    )
    if trace_dir:
        recorder.write_jsonl(os.path.join(trace_dir, f"{workload}.jsonl"))
    return {
        "setup_s": [layers["trace.setup_s"]],
        "run_s": layers["trace.run_s"],
        "layers": layers,
        **_outputs(prepared, report),
    }
