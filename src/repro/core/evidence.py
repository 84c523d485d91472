"""The evidence clustering (§III-B) and NNLS (§III-C) read.

:class:`Evidence` holds the source universe, fixed under the first
(anycast-all) configuration (§IV-d), and per configuration the universe
ASes in each link's catchment.  Batch runs, figures, strategy
comparison, the live service and the staleness experiment all build it
here, so this module alone decides the universe rule, the restriction to
it, smax imputation of measured catchments, fault degradation and the
exclusion of configurations whose routing never settled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING, FrozenSet, Iterable, List, Mapping, Optional,
    Sequence, Tuple,
)

import numpy as np

from ..bgp.announcement import AnnouncementConfig
from ..bgp.simulator import RoutingOutcome
from ..errors import SchedulingError
from ..measurement.catchment import CatchmentHistory
from ..types import ASN, Catchment, LinkId
from .labels import (
    AssignedCatchments, Columns, LabelledCatchments, label_row,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..faults.injection import FaultInjector
    from ..measurement.campaign import MeasurementCampaign


@dataclass(frozen=True)
class EvidenceStep:
    """One deployed configuration: its outcome (the ground truth spoofed
    traffic follows), its catchments restricted to the universe, and the
    links whose catchments are partial.

    ``catchments`` is a :class:`~repro.core.labels.LabelledCatchments`:
    it carries the step's row of :attr:`Evidence.labels`.
    """

    config: AnnouncementConfig
    outcome: RoutingOutcome
    catchments: LabelledCatchments
    degraded: FrozenSet[LinkId] = frozenset()


@dataclass(frozen=True)
class Evidence:
    """The universe and its per-configuration steps."""

    universe: FrozenSet[ASN]
    steps: Tuple[EvidenceStep, ...]
    #: The universe in sorted order: the columns of :attr:`labels`.
    columns: Columns = field(compare=False, repr=False)

    @classmethod
    def build(
        cls,
        configs: Sequence[AnnouncementConfig],
        outcomes: Sequence[RoutingOutcome],
        campaign: Optional["MeasurementCampaign"] = None,
        injector: Optional["FaultInjector"] = None,
        registry=None,
        universe: Optional[Iterable[ASN]] = None,
        bus=None,
    ) -> "Evidence":
        """Build the evidence of ``configs`` from their aligned outcomes.

        With a ``campaign``, catchments are measured through it (and
        ``injector`` and ``registry`` go to the campaign); otherwise they
        are ground truth, thinned by the injector's measurement loss, and
        thinned links are marked degraded.  ``universe`` overrides the
        first configuration's.

        A configuration whose fixpoint never converged has no catchment
        to measure (§IV-a waits out convergence): its outcome is a
        snapshot of an oscillation.  Its step is marked degraded on every
        link, so clustering skips it and NNLS drops it, and each one is
        announced as an ``unconverged`` event on ``bus`` and counted in
        ``registry``.

        Raises:
            SchedulingError: with no configurations and no universe.
        """
        if not configs and universe is None:
            raise SchedulingError("no configurations to build evidence from")
        if campaign is not None:
            history = None if universe is None else CatchmentHistory(universe)
            for index, outcome in enumerate(outcomes):
                assignment = campaign.measure(
                    outcome, fault_token=index, injector=injector,
                    registry=registry,
                ).assignment
                if history is None:
                    history = CatchmentHistory(assignment)
                history.add(assignment)
            columns = Columns.of(history.universe)
            # Each imputed assignment goes straight into its label row;
            # the sets are built only if someone reads them.  Withdrawn
            # links keep an (empty) catchment in every map.
            links = campaign.origin.link_ids
            maps = [
                AssignedCatchments(assignment, links, columns)
                for assignment in history.iter_imputed()
            ]
            steps = map(EvidenceStep, configs, outcomes, maps)
            return cls(
                columns.members,
                _exclude_unconverged(steps, bus, registry),
                columns,
            )
        columns = Columns.of(
            outcomes[0].covered_ases if universe is None else universe
        )
        built: List[EvidenceStep] = []
        for index, (config, outcome) in enumerate(zip(configs, outcomes)):
            # A simulated outcome's row is sliced off its route table;
            # the sets are restricted only when someone reads them.
            catchments = LabelledCatchments(
                label_row(outcome.catchments, columns), outcome.catchments
            )
            degraded: FrozenSet[LinkId] = frozenset()
            if injector is not None:
                thinned, degraded = injector.degrade_catchments(
                    index, catchments
                )
                if degraded:
                    catchments = LabelledCatchments.of(thinned, columns)
            built.append(EvidenceStep(config, outcome, catchments, degraded))
        return cls(
            columns.members, _exclude_unconverged(built, bus, registry), columns
        )

    @property
    def labels(self) -> np.ndarray:
        """The int32 configs × universe link-label matrix.

        Cell ``(c, a)`` is 1 + the position, in sorted link order, of
        the link whose catchment holds universe AS ``a`` (columns in
        sorted order) in step ``c``, or 0 when none does.  Catchments are
        disjoint, so one label per cell is enough.  Degraded links keep
        their (thinned) cells; consumers skip them by
        :attr:`EvidenceStep.degraded`.
        """
        rows = [step.catchments.row.labels for step in self.steps]
        if not rows:
            return np.zeros((0, len(self.columns)), dtype=np.int32)
        return np.stack(rows)

    @property
    def maps(self) -> List[Mapping[LinkId, Catchment]]:
        """Per-configuration catchment maps restricted to the universe."""
        return [step.catchments for step in self.steps]

    @property
    def degraded_steps(self) -> int:
        return sum(1 for step in self.steps if step.degraded)

    def planning_maps(self) -> List[Mapping[LinkId, Catchment]]:
        """Catchment maps without their degraded links: a planner must not
        order the campaign around catchments clustering will skip."""
        return [
            step.catchments if not step.degraded else {
                link: members
                for link, members in step.catchments.items()
                if link not in step.degraded
            }
            for step in self.steps
        ]

    def nnls_inputs(
        self, volume_history: Sequence
    ) -> Tuple[List[Mapping[LinkId, Catchment]], List]:
        """Maps and aligned volumes of the steps without degraded links: a
        partial catchment can straddle final clusters, which NNLS rejects."""
        kept = [
            (step.catchments, volumes)
            for step, volumes in zip(self.steps, volume_history)
            if not step.degraded
        ]
        return [maps for maps, _ in kept], [volumes for _, volumes in kept]

    def reordered(self, order: Sequence[int]) -> "Evidence":
        """The steps at ``order``'s indices, in that order (a plan)."""
        return replace(self, steps=tuple(self.steps[i] for i in order))

    def extended(
        self,
        configs: Sequence[AnnouncementConfig],
        outcomes: Sequence[RoutingOutcome],
    ) -> "Evidence":
        """Append later ground-truth steps (the §V-B splitter's),
        restricted to this universe and never degraded."""
        extra = Evidence.build(configs, outcomes, universe=self.columns)
        return replace(self, steps=self.steps + extra.steps)

    def rebuilt(
        self, outcomes: Sequence[RoutingOutcome], bus=None, registry=None
    ) -> "Evidence":
        """The same configurations re-derived from fresh ground-truth
        outcomes (after route churn) against this fixed universe;
        ``bus`` and ``registry`` as in :meth:`build`."""
        configs = [step.config for step in self.steps]
        return Evidence.build(
            configs, outcomes, universe=self.columns, bus=bus,
            registry=registry,
        )


def _exclude_unconverged(
    steps: Iterable[EvidenceStep], bus=None, registry=None
) -> Tuple[EvidenceStep, ...]:
    """``steps`` with every step whose outcome did not converge degraded
    on all of its links, each such step announced and counted."""
    kept: List[EvidenceStep] = []
    for index, step in enumerate(steps):
        if not step.outcome.converged:
            step = replace(step, degraded=frozenset(step.catchments))
            if bus is not None:
                bus.publish(
                    "unconverged",
                    step=index,
                    config=step.config.label or step.config.describe(),
                    passes=step.outcome.passes,
                )
            if registry is not None:
                registry.counter(
                    "repro_evidence_unconverged_steps_total",
                    help="configurations excluded because routing never settled",
                ).inc()
        kept.append(step)
    return tuple(kept)
