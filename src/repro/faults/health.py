"""Runtime invariant monitoring and the per-run resilience report.

The invariants are the properties the paper's method rests on and that
no amount of injected failure may silently break:

* **Volume conservation** — every observed volume map satisfies
  ``offered == attributed + unattributed`` (traffic is dropped or
  degraded *explicitly*, never lost in accounting).
* **Partition coverage** — the final clusters partition the source
  universe exactly: disjoint, non-empty, union equal to the universe.
* **Monotone refinement** — catchment intersection only ever splits
  clusters, so the cluster count never decreases across deployed
  configurations.

An :class:`InvariantMonitor` accumulates check results; the run then
freezes them — together with the injector's fault log and the engine's
containment counters — into a :class:`ResilienceReport` attached to the
:class:`~repro.core.pipeline.TrackerReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from ..types import ASN

#: Relative tolerance for volume-conservation checks (float accumulation).
VOLUME_TOLERANCE = 1e-6


@dataclass(frozen=True)
class InvariantViolation:
    """One failed runtime check."""

    name: str
    detail: str

    def __str__(self) -> str:
        return f"{self.name}: {self.detail}"


class InvariantMonitor:
    """Accumulates invariant check outcomes across one run."""

    def __init__(self) -> None:
        self.checks = 0
        self.violations: List[InvariantViolation] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one check; returns ``ok`` for convenient chaining."""
        self.checks += 1
        if not ok:
            self.violations.append(InvariantViolation(name=name, detail=detail))
        return ok

    # -- the paper's invariants ----------------------------------------

    def check_volume_conservation(
        self, offered: float, attributed: float, unattributed: float
    ) -> bool:
        """``offered == attributed + unattributed`` within tolerance."""
        accounted = attributed + unattributed
        scale = max(1.0, abs(offered))
        ok = abs(offered - accounted) <= VOLUME_TOLERANCE * scale
        return self.check(
            "volume-conservation",
            ok,
            f"offered={offered!r} != attributed+unattributed={accounted!r}",
        )

    def check_partition_coverage(
        self,
        universe: FrozenSet[ASN],
        clusters: Iterable[FrozenSet[ASN]],
    ) -> bool:
        """Clusters are disjoint, non-empty, and cover the universe."""
        seen: set = set()
        for cluster in clusters:
            if not cluster:
                return self.check(
                    "partition-coverage", False, "empty cluster in partition"
                )
            overlap = seen & set(cluster)
            if overlap:
                return self.check(
                    "partition-coverage",
                    False,
                    f"ASes {sorted(overlap)[:5]} appear in multiple clusters",
                )
            seen.update(cluster)
        missing = universe - seen
        extra = seen - universe
        ok = not missing and not extra
        return self.check(
            "partition-coverage",
            ok,
            f"{len(missing)} sources uncovered, {len(extra)} outside universe",
        )

    def check_monotone_refinement(self, cluster_counts: Sequence[int]) -> bool:
        """Cluster counts never decrease along the deployment sequence."""
        for earlier, later in zip(cluster_counts, cluster_counts[1:]):
            if later < earlier:
                return self.check(
                    "monotone-refinement",
                    False,
                    f"cluster count fell from {earlier} to {later}",
                )
        return self.check("monotone-refinement", True)


@dataclass
class ResilienceReport:
    """What the resilience layer saw, contained, and verified in one run.

    Attributes:
        plan_name: the driving fault plan's name ("" without a plan).
        faults_injected: fired faults by kind (from the injector's log).
        retries: retry attempts spent on injected simulation faults.
        faults_bypassed: simulations whose injected fault outlived the
            retry budget and ran with injection suppressed (last-resort
            progress guarantee).
        degraded_configs: configurations whose catchments were partial
            (clustering skipped their degraded links).
        checkpoint_corruptions: checkpoint writes mangled by the plan.
        checkpoint_rollbacks: restores that fell back to a rotated copy.
        invariant_checks: runtime invariant checks evaluated.
        violations: human-readable failed checks (empty = healthy).
    """

    plan_name: str = ""
    faults_injected: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    faults_bypassed: int = 0
    degraded_configs: int = 0
    checkpoint_corruptions: int = 0
    checkpoint_rollbacks: int = 0
    invariant_checks: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        """True when every runtime invariant held."""
        return not self.violations

    @property
    def total_faults(self) -> int:
        """All fired faults across kinds."""
        return sum(self.faults_injected.values())

    def summary(self) -> str:
        """One-line human-readable rendering."""
        fired = (
            ", ".join(
                f"{kind}×{count}"
                for kind, count in sorted(self.faults_injected.items())
            )
            or "none"
        )
        health = (
            f"{self.invariant_checks} invariants ok"
            if self.healthy
            else f"{len(self.violations)} INVARIANT VIOLATIONS"
        )
        parts = [f"faults: {fired}"]
        if self.retries or self.faults_bypassed:
            parts.append(
                f"{self.retries} retries ({self.faults_bypassed} bypassed)"
            )
        if self.degraded_configs:
            parts.append(f"{self.degraded_configs} degraded configs")
        if self.checkpoint_corruptions or self.checkpoint_rollbacks:
            parts.append(
                f"{self.checkpoint_corruptions} ckpt corruptions / "
                f"{self.checkpoint_rollbacks} rollbacks"
            )
        parts.append(health)
        return "; ".join(parts)


def build_resilience_report(
    injector,
    monitor: Optional[InvariantMonitor] = None,
    engine_stats=None,
    degraded_configs: int = 0,
    checkpoint_corruptions: int = 0,
    checkpoint_rollbacks: int = 0,
) -> ResilienceReport:
    """Freeze one run's resilience picture into a report.

    Args:
        injector: the run's :class:`~repro.faults.injection.FaultInjector`
            (may be None when only engine containment is of interest).
        monitor: invariant monitor populated during the run.
        engine_stats: :class:`~repro.core.engine.EngineStats` delta for
            the run (containment counters are read off it).
    """
    report = ResilienceReport(
        plan_name=injector.plan.name if injector is not None else "",
        faults_injected=injector.log.as_dict() if injector is not None else {},
        degraded_configs=degraded_configs,
        checkpoint_corruptions=checkpoint_corruptions,
        checkpoint_rollbacks=checkpoint_rollbacks,
    )
    if engine_stats is not None:
        report.retries = engine_stats.retries
        report.faults_bypassed = engine_stats.faults_bypassed
    if monitor is not None:
        report.invariant_checks = monitor.checks
        report.violations = [str(violation) for violation in monitor.violations]
    return report
