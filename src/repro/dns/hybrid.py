"""Hybrid anycast/unicast DNS mapping.

§4: "a CDN can either apply traffic control on all of its clients (like
unicast) or use anycast on most clients but apply traffic control on a
subset of clients where it wants specific control" -- the approach of
the authors' prior work (Calder et al. 2015), which steers only the
clients with poor anycast performance.

The hybrid is a client -> site map: clients default to their anycast
catchment, and clients on the steer list get an address inside a
specific site's prefix. :func:`build_steering_plan` selects the steer
list from a performance report (clients whose anycast inflation exceeds
a threshold get pinned to their best site).

Under the paper's techniques this hybrid keeps anycast's availability
for the default population *and* -- because the per-site prefixes are
protected by reactive-anycast or proactive-prepending -- no longer
inherits unicast's availability problem for the steered subset, which
was the §3 objection to the prior-work approach.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.measurement.performance import PerformanceReport


@dataclass(frozen=True, slots=True)
class SteeringEntry:
    """One steered client: where it goes and why."""

    client: str
    site: str
    anycast_inflation_ms: float


def build_steering_plan(
    report: PerformanceReport,
    inflation_threshold_ms: float = 5.0,
    max_clients: int | None = None,
) -> list[SteeringEntry]:
    """Pick the clients worth steering, worst inflation first.

    A client is steered to its best site when anycast inflates its RTT
    beyond ``inflation_threshold_ms`` (Calder et al.'s selective-unicast
    idea). ``max_clients`` caps the plan, modelling the operational cost
    of per-client DNS state.
    """
    candidates = [
        SteeringEntry(
            client=c.node,
            site=c.best_site,
            anycast_inflation_ms=c.inflation_ms,
        )
        for c in report.measured
        if c.suboptimal and c.inflation_ms > inflation_threshold_ms and c.best_site
    ]
    candidates.sort(key=lambda e: e.anycast_inflation_ms, reverse=True)
    if max_clients is not None:
        candidates = candidates[:max_clients]
    return candidates
