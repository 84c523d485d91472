"""Multi-tenant, multi-attack live traceback runtime (fleet mode).

A transit provider defending many customer origin networks runs the
paper's BGP-steered traceback for *all* of them at once.  This package
multiplexes N concurrent attack replays across M tenants in one
process: frozen campaign specs with derived per-shard seeds
(:mod:`~repro.fleet.spec`), a merged timestamped event stream
(:mod:`~repro.fleet.stream`), deterministic weighted fair-share dispatch
(:mod:`~repro.fleet.scheduler`), per-attack shards with crash
containment and checkpoint resume (:mod:`~repro.fleet.shard`),
tenant-tagged observability views (:mod:`~repro.fleet.obs`), and the
serial/asyncio drivers tying them together
(:mod:`~repro.fleet.runtime`).
"""

from .obs import TaggedBus, TaggedRegistry, shard_observability
from .scheduler import FleetScheduler
from .shard import (
    ACTIVE,
    DONE,
    DRAINING,
    EVICTED,
    FAILED,
    PENDING,
    AttackShard,
    ShardReport,
    attribution_digest,
    checkpoint_digest,
)
from .spec import (
    AttackSpec,
    FleetSpec,
    ShardKey,
    derive_seed,
    derive_tenant_seed,
)
from .stream import (
    ACTIONS,
    CHECKPOINT,
    CRASH,
    DRAIN,
    EVICT,
    LAUNCH,
    FleetEvent,
    iter_stream,
    launch_event,
    merge_streams,
    scripted_stream,
)
from .runtime import (
    FleetReport,
    FleetRuntime,
    fleet_digest,
)

__all__ = [
    "ACTIONS",
    "ACTIVE",
    "AttackShard",
    "AttackSpec",
    "CHECKPOINT",
    "CRASH",
    "DONE",
    "DRAIN",
    "DRAINING",
    "EVICT",
    "EVICTED",
    "FAILED",
    "FleetEvent",
    "FleetReport",
    "FleetRuntime",
    "FleetScheduler",
    "FleetSpec",
    "LAUNCH",
    "PENDING",
    "ShardKey",
    "ShardReport",
    "TaggedBus",
    "TaggedRegistry",
    "attribution_digest",
    "checkpoint_digest",
    "derive_seed",
    "derive_tenant_seed",
    "fleet_digest",
    "iter_stream",
    "launch_event",
    "merge_streams",
    "scripted_stream",
    "shard_observability",
]
