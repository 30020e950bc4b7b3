"""Anycast agility playbooks: catchment shifting with prepending.

§4 lists "better load distribution" among the control-based goals the
techniques serve, and §6 relates the approach to Rizvi et al.'s
"Anycast Agility: Network Playbooks to Fight DDoS" (USENIX Security
2022), which precomputes announcement configurations to move anycast
catchments under attack.

A :class:`Playbook` does exactly that on the simulated deployment: it
evaluates a family of per-site prepending configurations offline,
records the resulting catchment split, and can then answer "which
configuration drains site X while keeping load spread Y" at incident
time -- no live experimentation needed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.plan import Origination
from repro.net.addr import IPv4Prefix
from repro.topology.generator import Topology
from repro.topology.propagation import settled_catchment
from repro.topology.testbed import SPECIFIC_PREFIX, CdnDeployment


@dataclass(frozen=True, slots=True)
class PlaybookEntry:
    """One evaluated configuration: prepend counts and its catchment."""

    #: per-site prepend count (0 = plain announcement)
    prepends: tuple[tuple[str, int], ...]
    #: clients attracted per site
    catchment: tuple[tuple[str, int], ...]
    #: clients with no route (should be zero while any site announces)
    unrouted: int

    def load_share(self, site: str) -> float:
        total = sum(count for _, count in self.catchment) + self.unrouted
        if total == 0:
            return 0.0
        per_site = dict(self.catchment)
        return per_site.get(site, 0) / total


@dataclass(slots=True)
class Playbook:
    """Precomputed catchment outcomes for prepending configurations."""

    topology: Topology
    deployment: CdnDeployment
    prefix: IPv4Prefix = SPECIFIC_PREFIX
    entries: list[PlaybookEntry] = field(default_factory=list)

    # ------------------------------------------------------------------

    def evaluate(self, prepends: dict[str, int]) -> PlaybookEntry:
        """Record the catchment every site announcing with the given
        per-site prepending settles to. Sites absent from ``prepends``
        announce plain."""
        plan = [
            Origination(self.deployment.site_node(site), self.prefix, prepends.get(site, 0))
            for site in self.deployment.site_names
        ]
        clients = [info.node_id for info in self.topology.web_client_ases()]
        catchment = settled_catchment(self.deployment, plan, clients)
        counts = Counter(site for site in catchment.values() if site is not None)
        entry = PlaybookEntry(
            prepends=tuple(sorted(prepends.items())),
            catchment=tuple(sorted(counts.items())),
            unrouted=sum(1 for site in catchment.values() if site is None),
        )
        self.entries.append(entry)
        return entry

    def build_drain_plays(self, prepend_levels: tuple[int, ...] = (0, 3, 5)) -> None:
        """Precompute single-site drain configurations: for each site,
        prepend it (only) at each level."""
        self.evaluate({})  # baseline
        for site in self.deployment.site_names:
            for level in prepend_levels:
                if level == 0:
                    continue
                self.evaluate({site: level})

    # ------------------------------------------------------------------
    # Incident-time queries

    def baseline(self) -> PlaybookEntry:
        for entry in self.entries:
            if all(level == 0 for _, level in entry.prepends):
                return entry
        raise LookupError("no baseline play evaluated; call build_drain_plays first")

    def best_drain(self, site: str, max_overload: float = 1.0) -> PlaybookEntry:
        """The evaluated play that minimizes ``site``'s load share while
        keeping every other site's share at or below ``max_overload``."""
        candidates = [
            entry
            for entry in self.entries
            if entry.unrouted == 0
            and all(
                entry.load_share(other) <= max_overload
                for other, _ in entry.catchment
                if other != site
            )
        ]
        if not candidates:
            raise LookupError(f"no play satisfies the overload bound for {site!r}")
        return min(candidates, key=lambda entry: entry.load_share(site))
