"""Timeline vacuity analysis (VER23x).

A timeline entry -- a fault of the plan, a scripted ``-e`` event --
earns its runtime only if it can change something. Three ways it
provably cannot:

* it names a link, node or site the world does not contain (VER231 —
  the scheduler would skip it, so the run silently tests nothing);
* every route the planned prefixes produce flows elsewhere: a fault on
  a link that carries no planned-prefix route at any analyzed stable
  state — before failure or after the technique's reaction — cannot
  change forwarding toward those prefixes (VER232);
* the plan is empty, or the entry fires at/after the experiment ends
  (VER233).

VER232's claim is deliberately scoped: such a fault can still perturb
*other* prefixes' routing and transient message traffic, which is why
it warns instead of erroring.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterator

from repro.analysis.findings import Finding
from repro.faults.plan import ACTIONS, link_ends
from repro.verify import checks
from repro.verify.world import VerifyWorld


def check_timeline(
    world: VerifyWorld,
    coverage: tuple[set[frozenset[str]], set[str]] | None = None,
) -> Iterator[Finding]:
    """One walk over ``world.timeline``, entry by entry.

    ``coverage`` is the (links, nodes) union coverage of every analyzed
    propagation (all techniques, normal and post-failure plans); None
    when nothing was analyzed, which turns VER232 off.
    """
    if not world.timeline:
        yield checks.PLAN_VACUOUS.finding(
            "fault plan contains no faults: the drill exercises the "
            "no-fault baseline and every invariant check is vacuously "
            "green",
            world.source,
        )
        return
    topology = world.topology
    for origin, group in groupby(world.timeline, key=lambda edge: edge.origin):
        edges = list(group)
        if world.duration is not None and edges[0].at >= world.duration:
            yield checks.PLAN_VACUOUS.finding(
                f"{origin} fires at t={edges[0].at:g}s "
                f">= the {world.duration:g}s experiment duration: it can "
                "never be observed by this run",
                world.source,
            )
        for target, names in dict.fromkeys(
            (edge.target, ACTIONS[edge.action]) for edge in edges
        ):
            a, b = link_ends(target)
            if names == "site":
                if target not in world.deployment.sites:
                    yield checks.FAULT_UNKNOWN_TARGET.finding(
                        f"{origin}: unknown site {target!r}; deployment has "
                        f"{world.deployment.site_names}",
                        world.source,
                    )
            elif names == "node":
                if target not in topology.ases:
                    yield checks.FAULT_UNKNOWN_TARGET.finding(
                        f"{origin}: unknown node {target!r}; the injector "
                        "would skip this fault",
                        world.source,
                    )
                elif coverage is not None and target not in coverage[1]:
                    yield checks.FAULT_VACUOUS.finding(
                        f"{origin} targets node {target}, which holds no "
                        "route for the planned prefixes in any analyzed "
                        "configuration: delaying or degrading it cannot "
                        "affect forwarding toward the CDN prefixes",
                        world.source,
                    )
            elif missing := sorted({a, b} - topology.ases.keys()):
                yield checks.FAULT_UNKNOWN_TARGET.finding(
                    f"{origin}: unknown node(s) {', '.join(missing)}; the "
                    "injector would skip this fault and the drill would "
                    "test nothing",
                    world.source,
                )
            elif not topology.has_link(a, b):
                yield checks.FAULT_UNKNOWN_TARGET.finding(
                    f"{origin}: no link between {a} and {b} exists in this "
                    "topology; the injector would skip this fault",
                    world.source,
                )
            elif coverage is not None and frozenset((a, b)) not in coverage[0]:
                yield checks.FAULT_VACUOUS.finding(
                    f"{origin} targets link {a} <-> {b}, which carries no "
                    "route for the planned prefixes in any analyzed "
                    "configuration: the fault cannot affect forwarding "
                    "toward the CDN prefixes (other prefixes may still "
                    "notice)",
                    world.source,
                )
