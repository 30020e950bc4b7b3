"""Announcement-plan analysis (VER22x).

Checks each technique's announcement plan against the world:
does every planned prefix actually reach clients (VER221), do covering
prefixes really cover (VER222), which clients sit on an arbitrary
tie-break between sites (VER223, strict), and can every announcing
site's advertisement reach *anyone*, even in principle (VER224).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.analysis.findings import Finding
from repro.core.plan import Origination
from repro.net.addr import IPv4Prefix
from repro.topology.propagation import PropagationResult, ambiguous_ties
from repro.verify import checks
from repro.verify.world import VerifyWorld


def check_dead_prefix(
    world: VerifyWorld,
    technique_name: str,
    result: PropagationResult,
) -> Iterator[Finding]:
    clients = [info.node_id for info in world.topology.web_client_ases()]
    if not clients:
        return
    served = [node for node in clients if node in result.best]
    if not served:
        yield checks.DEAD_PREFIX.finding(
            f"{technique_name} plan announces {result.prefix} but it "
            f"reaches none of the {len(clients)} web-client AS(es): the "
            "announcement is dead weight and any failover onto it "
            "blackholes",
            world.source,
        )


def check_superprefix_cover(
    world: VerifyWorld,
    technique_name: str,
    plan: Iterable[Origination],
) -> Iterator[Finding]:
    """VER222: a plan that leans on longest-prefix fallthrough needs its
    superprefix to *strictly* cover the specific prefix."""
    planned = {origination.prefix for origination in plan}
    if world.superprefix not in planned:
        return
    if world.superprefix == world.prefix:
        yield checks.SUPERPREFIX_MISMATCH.finding(
            f"{technique_name} plan announces superprefix "
            f"{world.superprefix} identical to the specific prefix: "
            "longest-prefix matching cannot distinguish them, so the "
            "\"fallthrough\" route competes with the specific one instead "
            "of backing it",
            world.source,
        )
    elif not world.superprefix.covers(world.prefix):
        yield checks.SUPERPREFIX_MISMATCH.finding(
            f"{technique_name} plan announces superprefix "
            f"{world.superprefix} which does not cover the specific "
            f"prefix {world.prefix}: withdrawing the specific prefix "
            "cannot fall through to it, so the proactive backup is "
            "never used",
            world.source,
        )


def check_ambiguous_catchment(
    world: VerifyWorld,
    technique_name: str,
    result: PropagationResult,
) -> Iterator[Finding]:
    """VER223 (strict): clients whose site assignment rests on the final
    arbitrary tie-break of the decision process."""
    deployment = world.deployment
    ambiguous: list[str] = []
    for info in world.topology.web_client_ases():
        node = info.node_id
        best = result.best.get(node)
        if best is None:
            continue
        best_site = deployment.site_of_node(best.origin_node)
        if best_site is None:
            continue
        for tie in ambiguous_ties(result, node):
            tie_site = deployment.site_of_node(tie.origin_node)
            if tie_site is not None and tie_site != best_site:
                ambiguous.append(node)
                break
    if ambiguous:
        ambiguous.sort()
        yield checks.AMBIGUOUS_CATCHMENT.finding(
            f"{technique_name} plan for {result.prefix}: "
            f"{len(ambiguous)} client(s) tie between sites on "
            f"(LOCAL_PREF, path length, MED) and land on the arbitrary "
            f"final tie-break ({checks.sample(ambiguous)}); their catchment is "
            "not a property of the configuration and may differ on real "
            "routers",
            world.source,
        )


def check_site_dark(
    world: VerifyWorld,
    technique_name: str,
    plan: Iterable[Origination],
    reach: Callable[[str, frozenset[str] | None], set[str]],
) -> Iterator[Finding]:
    """VER224: sites whose announcements cannot reach any client even in
    isolation.

    A backup site serving zero clients *right now* is normal (that is
    what prepending is for); a site whose announcement alone — with no
    competing sites — still reaches no client is genuinely dark: no
    withdrawal sequence can ever shift traffic to it, so its presence in
    the plan is a false sense of redundancy. Valley-free ``reach`` through
    the origination's scoped first hops is an upper bound on what the
    site can ever serve.
    """
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
        if reach(origination.node, origination.neighbors).isdisjoint(clients):
            dark.append((site, origination.prefix))
    for site, prefix in sorted(dark):
        yield checks.SITE_DARK.finding(
            f"{technique_name} plan: site {site}'s announcement of "
            f"{prefix} reaches no web-client AS even with every other "
            "site silent — the site contributes nothing to availability; "
            "check its provider/peer attachments",
            world.source,
        )
