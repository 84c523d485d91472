"""Fair-share dispatch of shard work across tenants.

One simulation engine per tenant serves every attack on that tenant, and one
process serves every tenant — so *which shard gets the next unit of
announcement-measurement work* is a policy decision, not an accident of
iteration order.  :class:`FleetScheduler` makes it explicit and
deterministic:

* **Weighted fair share across tenants** — each tenant accumulates
  normalized dispatch debt (``dispatches / weight``); the next unit goes
  to the runnable tenant with the least debt, so a tenant with quota
  weight 2.0 receives twice the work rate of a weight-1.0 tenant, and a
  tenant with many shards cannot crowd out a tenant with one.
* **Round-robin within a tenant** — among a tenant's runnable shards the
  least-recently-dispatched one goes first, which bounds the gap between
  two dispatches of any runnable shard (no shard starvation: with ``n``
  runnable shards and weight floor ``w``, the gap is at most
  ``n * max_weight / w`` dispatches).
* **Fair admission** — the same ordering decides which *pending* shard
  is admitted when an active slot frees up under ``max_active``, so
  admission backpressure cannot starve a tenant either.

All tie-breaks resolve by sorted key, so the dispatch sequence is a pure
function of the registration/record history.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import FleetError
from .spec import ShardKey


class FleetScheduler:
    """Deterministic weighted fair-share scheduler over shard keys.

    Args:
        quotas: per-tenant weights (default 1.0; higher = more work
            share).  Unknown tenants registered later default to 1.0.
        max_active: admission bound on concurrently active shards
            (0 = unbounded).
    """

    def __init__(
        self,
        quotas: Optional[Mapping[str, float]] = None,
        max_active: int = 0,
    ) -> None:
        if max_active < 0:
            raise FleetError("max_active cannot be negative")
        self.max_active = max_active
        self._weights: Dict[str, float] = {}
        for tenant, weight in (quotas or {}).items():
            if weight <= 0:
                raise FleetError(f"tenant {tenant!r} weight must be positive")
            self._weights[tenant] = float(weight)
        self._tenants: Dict[ShardKey, str] = {}
        self._debt: Dict[str, float] = {}
        self._last_dispatch: Dict[ShardKey, int] = {}
        self.dispatches = 0

    # -- membership -----------------------------------------------------

    def register(self, key: ShardKey, tenant: str) -> None:
        """Make a shard schedulable (idempotent)."""
        self._tenants[key] = tenant
        self._weights.setdefault(tenant, 1.0)
        self._debt.setdefault(tenant, 0.0)
        self._last_dispatch.setdefault(key, -1)

    def unregister(self, key: ShardKey) -> None:
        """Forget a shard (evicted/done); tenant debt is retained so a
        respawned tenant does not leapfrog the others."""
        self._tenants.pop(key, None)
        self._last_dispatch.pop(key, None)

    def weight(self, tenant: str) -> float:
        return self._weights.get(tenant, 1.0)

    def tenant_debt(self, tenant: str) -> float:
        """Normalized dispatch debt (dispatches / weight)."""
        return self._debt.get(tenant, 0.0)

    # -- selection ------------------------------------------------------

    def _rank(self, key: ShardKey) -> Tuple[float, str, int, ShardKey]:
        tenant = self._tenants.get(key)
        if tenant is None:
            raise FleetError(f"shard {key!r} is not registered")
        return (
            self._debt.get(tenant, 0.0),
            tenant,
            self._last_dispatch.get(key, -1),
            key,
        )

    def next_key(self, runnable: Sequence[ShardKey]) -> Optional[ShardKey]:
        """The shard the next unit of work goes to (None when idle)."""
        candidates = [key for key in runnable if key in self._tenants]
        if not candidates:
            return None
        return min(candidates, key=self._rank)

    def admission_order(self, pending: Sequence[ShardKey]) -> List[ShardKey]:
        """Pending shards in the order they should be admitted."""
        candidates = [key for key in pending if key in self._tenants]
        return sorted(candidates, key=self._rank)

    def can_admit(self, active_count: int) -> bool:
        """True while another shard may hold a live service."""
        return self.max_active == 0 or active_count < self.max_active

    # -- accounting -----------------------------------------------------

    def record(self, key: ShardKey) -> None:
        """Charge one dispatched unit of work to the shard's tenant."""
        tenant = self._tenants.get(key)
        if tenant is None:
            raise FleetError(f"cannot record dispatch for unknown {key!r}")
        self.dispatches += 1
        self._debt[tenant] = self._debt.get(tenant, 0.0) + 1.0 / self.weight(
            tenant
        )
        self._last_dispatch[key] = self.dispatches

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe accounting view (feeds the ``/tenants`` endpoint)."""
        return {
            "dispatches": self.dispatches,
            "max_active": self.max_active,
            "debt": {
                tenant: round(debt, 6)
                for tenant, debt in sorted(self._debt.items())
            },
            "weights": dict(sorted(self._weights.items())),
        }
