"""VER224 by one fixed point per origination, kept as the reference.

This is ``verify/plans.check_site_dark`` as it stood while the verifier
propagated every origination alone to ask whether it reaches a client:
the check is moved here verbatim, and :func:`fixed_point_alone` is what
``verify_world`` passed it as ``propagate_alone`` (a closure over its
graph, then memoised per call). ``check_site_dark`` over
``valley_free_reach`` must reproduce
its findings on every Gao-Rexford world and may only report *fewer* dark
sites where ``preferences`` overrides hide a route; the differential
tests in ``test_verify_reach.py`` are the only callers.
"""

from typing import Callable, Iterable, Iterator

from repro.analysis.findings import Finding
from repro.core.plan import Origination
from repro.net.addr import IPv4Prefix
from repro.topology.propagation import PropagationResult, SymbolicGraph, propagate
from repro.verify import checks
from repro.verify.world import VerifyWorld


def fixed_point_alone(graph: SymbolicGraph, origination: Origination) -> PropagationResult:
    """The fixed point of ``origination`` with every other site silent."""
    return propagate(graph, [origination], origination.prefix)


def check_site_dark(
    world: VerifyWorld,
    technique_name: str,
    plan: Iterable[Origination],
    propagate_alone: Callable[[Origination], PropagationResult],
) -> Iterator[Finding]:
    clients = [info.node_id for info in world.topology.web_client_ases()]
    if not clients:
        return
    dark: list[tuple[str, IPv4Prefix]] = []
    seen: set[tuple[str, IPv4Prefix]] = set()
    for origination in plan:
        site = world.deployment.site_of_node(origination.node)
        if site is None or (site, origination.prefix) in seen:
            continue
        seen.add((site, origination.prefix))
        alone = propagate_alone(origination)
        if not any(node in alone.best for node in clients):
            dark.append((site, origination.prefix))
    for site, prefix in sorted(dark):
        yield checks.SITE_DARK.finding(
            f"{technique_name} plan: site {site}'s announcement of "
            f"{prefix} reaches no web-client AS even with every other "
            "site silent — the site contributes nothing to availability; "
            "check its provider/peer attachments",
            world.source,
        )
