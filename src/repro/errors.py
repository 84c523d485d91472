"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch library failures without masking programming errors such as
:class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TopologyError(ReproError):
    """Raised when an AS-level topology is malformed or inconsistent."""


class RelationshipError(TopologyError):
    """Raised when AS relationship data is contradictory or unknown."""


class AnnouncementError(ReproError):
    """Raised when an announcement configuration is invalid.

    Examples include prepending from a location that is not announced, or
    poisoning via a peering link outside the announcement set.
    """


class SimulationError(ReproError):
    """Raised when BGP route propagation cannot complete."""


class ConvergenceError(SimulationError):
    """Raised when route propagation fails to reach a fixpoint."""


class MeasurementError(ReproError):
    """Raised when catchment measurement inputs are unusable."""


class MappingError(MeasurementError):
    """Raised for invalid IP-to-AS mapping data (bad prefixes, overlaps)."""


class ClusteringError(ReproError):
    """Raised when cluster refinement receives inconsistent catchments."""


class SchedulingError(ReproError):
    """Raised when an announcement schedule cannot be constructed."""


class StrategyError(ReproError):
    """Raised when a traceback strategy is misused or unknown."""


class DataFormatError(ReproError):
    """Raised when an on-disk dataset (as-rel, paths, traces) is malformed."""


class LiveServiceError(ReproError):
    """Raised when the online attribution runtime is misused or its
    state (events, checkpoints) is inconsistent."""


class CheckpointCorruptionError(LiveServiceError):
    """Raised when a checkpoint fails its integrity check and its backup
    ``<path>.1`` is missing or damaged too."""


class FaultInjectionError(ReproError):
    """Raised when a fault plan is malformed or names an unknown fault."""
