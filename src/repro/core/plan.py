"""Announcement plans as data (the rule table: docs/architecture.md).

A :class:`Technique` is a value: Table 2 attributes plus ordered
:class:`Rule` rows per lifecycle. :meth:`Technique.originations` expands
them for one world state into the only plan type there is, a tuple of
:class:`Origination`, which every consumer reads; :func:`apply_plan`
alone turns it into ``network.announce`` calls. Row order is announce
order, and that is part of the byte-identity contract (MRAI jitter is
drawn in schedule order).
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass

from repro.net.addr import IPv4Prefix
from repro.topology.testbed import SPECIFIC_PREFIX, SUPERPREFIX, CdnDeployment


@dataclass(frozen=True, slots=True)
class Tradeoff:
    """Table 2 row: qualitative control/availability/risk ratings."""

    control: str
    availability: str
    risk: str


@dataclass(frozen=True, slots=True)
class Origination:
    """One ``network.announce(...)`` call, as data. ``med`` keeps "unset"
    (None) apart from an explicit 0: routers treat both as MED 0, but a
    rendered config sets ``bgp_med`` only for the latter."""

    node: str
    prefix: IPv4Prefix
    prepend: int = 0
    neighbors: frozenset[str] | None = None
    med: int | None = None


@dataclass(frozen=True, slots=True)
class Rule:
    """One table row: which sites announce which prefixes, and how.

    ``sites`` is ``"specific"``, ``"others"`` or ``"all"`` relative to a
    subject: the specific site for normal and failure rows, the
    overloaded site for overload rows. ``prefixes`` names roles: the
    ``"specific"`` /24, the covering ``"super"`` /23. ``shared_neighbors``
    keeps only neighbors shared with the subject (§4's scoped prepending).
    """

    sites: str
    prefixes: tuple[str, ...] = ("specific",)
    prepend: int = 0
    med: int | None = None
    shared_neighbors: bool = False


def _expand(
    rules: Iterable[Rule], deployment: CdnDeployment, subject: str,
    prefix: IPv4Prefix, superprefix: IPv4Prefix,
) -> Iterator[tuple[str, Origination]]:
    """⟨site, origination⟩ per row x selected site x prefix role."""
    topology, prefixes = deployment.topology, {"specific": prefix, "super": superprefix}
    for rule in rules:
        for site in deployment.site_names:
            selected = {"specific": site == subject, "others": site != subject, "all": True}
            if not selected[rule.sites]:
                continue
            node, neighbors = deployment.site_node(site), None
            if rule.shared_neighbors:
                shared = topology.neighbors(deployment.site_node(subject))
                neighbors = frozenset(n for n in topology.neighbors(node) if n in shared)
            for role in rule.prefixes:
                yield site, Origination(node, prefixes[role], rule.prepend, neighbors, rule.med)


@dataclass(frozen=True, slots=True)
class Technique:
    """One announcement strategy for steering clients to sites."""

    name: str  # for figures and benches; encodes prepend count / MED
    tradeoff: Tradeoff
    normal: tuple[Rule, ...]  # Figure 1, "before" columns
    #: rows added while any site is down (Figure 1, "after" column); a
    #: down site itself announces nothing (§4)
    on_failure: tuple[Rule, ...] = ()
    #: what an overloaded site announces *instead of* its normal rows
    #: (docs/load.md); empty = the technique ignores overload
    on_overload: tuple[Rule, ...] = ()
    #: can steer *any* client to the specific site (§5.4.2)
    full_control: bool = True
    #: §5 targets: "beyond-anycast" = those anycast routes elsewhere
    #: (§5.1); "anycast-catchment" = those it routes to the site
    selection_mode: str = "beyond-anycast"
    #: share of an overloaded site's requests DNS diverts elsewhere
    shed_dns_fraction: float = 0.0

    def originations(
        self, deployment: CdnDeployment, specific_site: str,
        prefix: IPv4Prefix = SPECIFIC_PREFIX, superprefix: IPv4Prefix = SUPERPREFIX,
        down: Collection[str] = (), overloaded: Collection[str] = (),
    ) -> tuple[Origination, ...]:
        """The plan for one world state, in announce order."""
        shed = [s for s in deployment.site_names if s in overloaded and self.on_overload]
        rules = self.normal + (self.on_failure if down else ())
        rows = [
            (site, o)
            for site, o in _expand(rules, deployment, specific_site, prefix, superprefix)
            if site not in shed
        ]
        for site in shed:
            rows += _expand(self.on_overload, deployment, site, prefix, superprefix)
        return tuple(o for site, o in rows if site not in down)

    def base_plan(
        self, deployment: CdnDeployment,
        prefix: IPv4Prefix = SPECIFIC_PREFIX, superprefix: IPv4Prefix = SUPERPREFIX,
    ) -> tuple[Origination, ...]:
        """The checkpoint base, derived: normal rows that do not name the
        specific site, ``others`` widened to ``all``. Applying the normal
        plan on top re-originates only where the two differ (the per-site
        delta); neighbor-scoped rows depend on the site, so stay there."""
        rules = [
            Rule("all", rule.prefixes, rule.prepend, rule.med)
            for rule in self.normal
            if rule.sites != "specific" and not rule.shared_neighbors
        ]
        return tuple(o for _, o in _expand(rules, deployment, "", prefix, superprefix))

    @property
    def baseline_key(self) -> str:
        """Cache/seed key of the base snapshot: ``name`` + neighbor scoping."""
        scoped = any(rule.shared_neighbors for rule in self.normal)
        return f"{self.name}+shared" if scoped else self.name


def apply_plan(network, plan: Iterable[Origination]) -> None:
    """Originate ``plan`` on ``network``, in plan order. Re-originating
    an unchanged entry is a no-op at the router, so a target applied over
    a partly matching network (a restored base) changes only the rest."""
    for o in plan:
        network.announce(o.node, o.prefix, prepend=o.prepend, neighbors=o.neighbors, med=o.med or 0)
