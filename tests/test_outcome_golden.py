"""Golden bit-identity digests of every routing outcome of the schedule.

The BGP fixpoint (compile, dirty scheduling, warm starts) may be made
faster, never different.  These digests pin every outcome the engine
caches while it simulates the full announcement schedule of the
``small`` and ``paper`` testbeds at seed 0, in schedule order and with
warm starts, as :meth:`SpoofTracker.run` drives it: each route field
for field, the catchments, the pass and decision-change counts, and the
``converged`` and ``warm_started`` flags.

A new pin is computed on the commit before the code it covers changes:
in a ``git archive`` copy of it, run :func:`schedule_digest` from this
module with ``PYTHONPATH=src:tests``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cli import SCALES
from repro.core.pipeline import SpoofTracker, build_testbed

SEED = 0

GOLDEN = {
    "small": (
        "a15ffde6f39a67a5836c994620289a2dc7b9abe3470c39af783747d9f079d994",
        473,
    ),
    "paper": (
        "3262ccfbc707827a33e647139e26ac195287df0d2986c46c945464c20a3dcaf0",
        597,
    ),
}


def route_rows(routes) -> list:
    """``(asn, as_path, link_id, learned_from, relationship, local_pref)``
    of every route, in the table's iteration order.

    Read straight off the :class:`RouteTable` arrays: building a
    ``Route`` per AS costs more than the schedule's fixpoints.
    :func:`test_route_rows_match_route_objects` holds the two equal.
    """
    core = routes.core
    asns = core.asns
    link_ids = core.link_ids
    r_link, r_path, r_from = routes.r_link, routes.r_path, routes.r_from
    r_rel, r_lp = routes.r_rel, routes.r_lp
    return [
        (asns[i], r_path[i], link_ids[r_link[i]], r_from[i], int(r_rel[i]), r_lp[i])
        for i in core.order
        if r_link[i] >= 0
    ]


def outcome_record(outcome) -> tuple:
    """Every observable field of one routing outcome, in canonical order."""
    catchments = [
        (link, sorted(members)) for link, members in outcome.catchments.items()
    ]
    return (
        outcome.config.describe(),
        route_rows(outcome.routes),
        catchments,
        outcome.passes,
        outcome.decision_changes,
        outcome.converged,
        outcome.warm_started,
    )


def _run_schedule(scale: str, limit=None):
    testbed = build_testbed(seed=SEED, topology_params=SCALES[scale])
    tracker = SpoofTracker(testbed, workers=1)
    tracker.engine.simulate_many(tracker.schedule[:limit])
    return list(tracker.engine._cache.values())


def schedule_digest(scale: str):
    """SHA-256 over every cached outcome of ``scale``'s full schedule,
    and how many outcomes it covers."""
    outcomes = _run_schedule(scale)
    digest = hashlib.sha256()
    for outcome in outcomes:
        digest.update(repr(outcome_record(outcome)).encode())
    return digest.hexdigest(), len(outcomes)


@pytest.mark.parametrize("scale", sorted(GOLDEN))
def test_schedule_outcomes_match_golden(scale):
    assert schedule_digest(scale) == GOLDEN[scale]


def test_route_rows_match_route_objects():
    """The digest's array rows carry exactly the fields of each Route."""
    for outcome in _run_schedule("small", limit=20):
        assert route_rows(outcome.routes) == [
            (
                asn,
                route.as_path,
                route.link_id,
                route.learned_from,
                int(route.relationship),
                route.local_pref,
            )
            for asn, route in outcome.routes.items()
        ]
