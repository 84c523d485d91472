"""Declarative, seed-driven fault plans for deterministic chaos runs.

A :class:`FaultPlan` is a frozen description of *which* failures strike
*where* and *how hard*: measurement loss that leaves catchments
partial, BGP collector flaps, checkpoint corruption, volume-noise bursts
on observed traffic, and route-churn storms.  Every decision the plan drives is a pure
function of ``(plan.seed, site, tokens)`` — a SHA-256 digest mapped to
the unit interval — never of wall clock, PRNG state, or execution order,
so a chaos run is bit-reproducible: the same plan yields the same faults
at the same places on any machine.

Plans are JSON round-trippable (``spooftrack --fault-plan plan.json``)
and a few named plans ship in :data:`BUNDLED_PLANS` for the chaos suite
and the ``spooftrack chaos`` sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import FaultInjectionError

#: Fault kinds understood by the injector.
MEASUREMENT_LOSS = "measurement-loss"
COLLECTOR_FLAP = "collector-flap"
CHECKPOINT_CORRUPTION = "checkpoint-corruption"
VOLUME_NOISE = "volume-noise"
ROUTE_CHURN = "route-churn"

FAULT_KINDS = (
    MEASUREMENT_LOSS,
    COLLECTOR_FLAP,
    CHECKPOINT_CORRUPTION,
    VOLUME_NOISE,
    ROUTE_CHURN,
)

def stable_unit(seed: int, *tokens) -> float:
    """Deterministic value in ``[0, 1)`` from a seed and tokens.

    Uses SHA-256, not :func:`hash`, so the value is identical across
    processes and interpreter runs (``PYTHONHASHSEED`` does not apply).
    """
    text = "|".join([str(seed), *(str(token) for token in tokens)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        rate: probability the fault fires per opportunity (per
            configuration, per observation window, per checkpoint, …).
        intensity: kind-specific magnitude — fraction of catchment
            members lost (measurement-loss), fraction of vantages or
            traceroutes dropped (collector-flap / measurement-loss in
            measured mode), relative volume perturbation (volume-noise),
            or route drift (route-churn).
        start: first opportunity index the spec is active at.
        stop: exclusive end of the active window (None = forever).
    """

    kind: str
    rate: float = 0.0
    intensity: float = 0.0
    start: int = 0
    stop: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise FaultInjectionError("fault rate must be in [0, 1]")
        if self.intensity < 0.0:
            raise FaultInjectionError("fault intensity cannot be negative")
        if self.start < 0:
            raise FaultInjectionError("fault window start cannot be negative")
        if self.stop is not None and self.stop <= self.start:
            raise FaultInjectionError("fault window stop must exceed start")

    def active_at(self, index: int) -> bool:
        """Whether this spec covers opportunity ``index``."""
        if index < self.start:
            return False
        return self.stop is None or index < self.stop


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of faults.

    The empty plan (no specs) is the identity: an injector built over it
    never fires, and a run with it attached is byte-identical to a run
    with no injection layer at all.
    """

    name: str = ""
    seed: int = 0
    specs: Tuple[FaultSpec, ...] = ()

    @property
    def is_empty(self) -> bool:
        """True when no spec can ever fire."""
        return all(spec.rate == 0.0 for spec in self.specs)

    def specs_for(self, kind: str) -> List[Tuple[int, FaultSpec]]:
        """``(position, spec)`` pairs of the given kind, in plan order.

        The position indexes the *full* spec tuple and feeds the spec's
        draws, so adding or removing a spec ahead of it, of any kind,
        moves its faults; specs appended at the end move nothing.
        """
        return [
            (index, spec)
            for index, spec in enumerate(self.specs)
            if spec.kind == kind
        ]

    def decision(self, *tokens) -> float:
        """Deterministic unit-interval draw for one injection decision."""
        return stable_unit(self.seed, *tokens)

    def scaled(self, factor: float) -> "FaultPlan":
        """A copy with every rate multiplied by ``factor`` (clamped to 1).

        The ``spooftrack chaos`` sweep uses this to trace accuracy versus
        fault intensity without authoring one plan per level.
        """
        if factor < 0:
            raise FaultInjectionError("scale factor cannot be negative")
        specs = tuple(
            FaultSpec(
                kind=spec.kind,
                rate=min(1.0, spec.rate * factor),
                intensity=spec.intensity,
                start=spec.start,
                stop=spec.stop,
            )
            for spec in self.specs
        )
        suffix = f"x{factor:g}"
        return FaultPlan(
            name=f"{self.name}{suffix}" if self.name else suffix,
            seed=self.seed,
            specs=specs,
        )

    # -- serialization --------------------------------------------------

    def as_serializable(self) -> Dict:
        """JSON-safe dump (inverse of :meth:`from_serializable`)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "specs": [
                {
                    "kind": spec.kind,
                    "rate": spec.rate,
                    "intensity": spec.intensity,
                    "start": spec.start,
                    "stop": spec.stop,
                }
                for spec in self.specs
            ],
        }

    @classmethod
    def from_serializable(cls, payload: Dict) -> "FaultPlan":
        """Rebuild a plan dumped by :meth:`as_serializable`.

        Raises:
            FaultInjectionError: on a malformed document.
        """
        try:
            specs = tuple(
                FaultSpec(
                    kind=entry["kind"],
                    rate=float(entry.get("rate", 0.0)),
                    intensity=float(entry.get("intensity", 0.0)),
                    start=int(entry.get("start", 0)),
                    stop=entry.get("stop"),
                )
                for entry in payload.get("specs", ())
            )
            return cls(
                name=str(payload.get("name", "")),
                seed=int(payload.get("seed", 0)),
                specs=specs,
            )
        except FaultInjectionError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise FaultInjectionError(f"malformed fault plan: {exc}")


#: Named plans bundled for the chaos suite and ``spooftrack chaos``.
BUNDLED_PLANS: Dict[str, FaultPlan] = {
    "partial-measurement": FaultPlan(
        name="partial-measurement",
        specs=(
            FaultSpec(kind=MEASUREMENT_LOSS, rate=0.4, intensity=0.3),
            FaultSpec(kind=COLLECTOR_FLAP, rate=0.3, intensity=0.4),
        ),
    ),
    "checkpoint-corruption": FaultPlan(
        name="checkpoint-corruption",
        specs=(FaultSpec(kind=CHECKPOINT_CORRUPTION, rate=0.5),),
    ),
    "volume-noise": FaultPlan(
        name="volume-noise",
        specs=(FaultSpec(kind=VOLUME_NOISE, rate=0.5, intensity=0.5),),
    ),
    "route-churn": FaultPlan(
        name="route-churn",
        specs=(FaultSpec(kind=ROUTE_CHURN, rate=0.1, intensity=0.2, start=2),),
    ),
    "mixed": FaultPlan(
        name="mixed",
        specs=(
            FaultSpec(kind=MEASUREMENT_LOSS, rate=0.2, intensity=0.2),
            FaultSpec(kind=COLLECTOR_FLAP, rate=0.15, intensity=0.3),
            FaultSpec(kind=VOLUME_NOISE, rate=0.25, intensity=0.3),
            FaultSpec(kind=ROUTE_CHURN, rate=0.05, intensity=0.15, start=2),
            FaultSpec(kind=CHECKPOINT_CORRUPTION, rate=0.25),
        ),
    ),
}


def load_fault_plan(source: str) -> FaultPlan:
    """Resolve a plan from a bundled name or a JSON file path.

    Raises:
        FaultInjectionError: when the name is unknown and the path does
            not exist or does not parse.
    """
    if source in BUNDLED_PLANS:
        return BUNDLED_PLANS[source]
    if os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise FaultInjectionError(f"cannot read fault plan {source!r}: {exc}")
        return FaultPlan.from_serializable(payload)
    raise FaultInjectionError(
        f"unknown fault plan {source!r}: not a bundled name "
        f"({sorted(BUNDLED_PLANS)}) and no such file"
    )
