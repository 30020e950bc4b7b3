"""Hitlist generation and target selection (§5.1).

The paper probes one address per /24 from ISI's IPv4 Hitlist (~3.5 M
responsive), filters to ~2.8 M prefixes with web clients, and then per
site selects 50 K targets that are (a) within 50 ms RTT of the site and
(b) *not* routed to the site by anycast, spread across ASes.

The synthetic hitlist mirrors that: one candidate address per client AS
/24 (every eyeball/university/stub AS originates one), a responsiveness
draw, and a web-client flag from the AS metadata. Selection applies the
same two criteria; criterion (b) measures "the additional control a
technique provides beyond what is possible with anycast" -- a target
anycast already sends to the site can trivially be steered there by
every technique, so only the others are informative.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.net.addr import IPv4Address
from repro.topology.generator import Topology
from repro.topology.testbed import CdnDeployment

#: §5.1's site-proximity bound: a target is nearby within this RTT
RTT_LIMIT_MS = 50.0


@dataclass(frozen=True, slots=True)
class HitlistEntry:
    """One probeable address."""

    address: IPv4Address
    node: str
    responsive: bool
    web_clients: bool


class Hitlist:
    """One candidate address per client AS, with responsiveness draws."""

    def __init__(
        self,
        topology: Topology,
        responsive_prob: float = 0.95,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= responsive_prob <= 1.0:
            raise ValueError(f"responsive_prob must be in [0, 1], got {responsive_prob}")
        rng = random.Random(seed)
        self.entries: list[HitlistEntry] = []
        for info in topology.ases.values():
            if info.prefix is None:
                continue
            self.entries.append(
                HitlistEntry(
                    address=info.prefix.address(1),
                    node=info.node_id,
                    responsive=rng.random() < responsive_prob,
                    web_clients=info.hosts_web_clients,
                )
            )

    def responsive_web_clients(self) -> list[HitlistEntry]:
        """The paper's probing population: responsive + has web clients."""
        return [e for e in self.entries if e.responsive and e.web_clients]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(slots=True)
class TargetSelection:
    """Targets chosen for one site, with the §5.1 filter bookkeeping."""

    site: str
    #: selected targets: address -> AS node
    targets: dict[IPv4Address, str] = field(default_factory=dict)
    #: candidates within the RTT bound, before the anycast filter
    nearby: int = 0
    #: of the nearby candidates, how many anycast routes to this site
    anycast_routed_here: int = 0

    @property
    def not_routed_by_anycast_frac(self) -> float:
        """Table 1 second row: of nearby targets, the fraction anycast
        routes to a *different* site."""
        if self.nearby == 0:
            return 0.0
        return 1.0 - self.anycast_routed_here / self.nearby


def select_targets(
    topology: Topology,
    deployment: CdnDeployment,
    site: str,
    catchment: dict[str, str | None],
    hitlist: Hitlist,
    max_targets: int = 50,
    exclude_anycast_routed: bool = True,
    seed: int = 0,
) -> TargetSelection:
    """Apply the §5.1 criteria for one site.

    ``catchment`` maps client AS node -> site chosen by pure anycast
    (see :func:`repro.measurement.catchment.anycast_catchment`).
    Targets are spread across ASes (here: one address per AS, selected
    randomly when over budget), as the paper spreads its 50 K.

    A target's RTT, held to :data:`RTT_LIMIT_MS`, is twice
    :meth:`~repro.topology.generator.Topology.settled_latency`, the
    topology's memo of the settled site -> client path's latency, so a
    client is solved and a ⟨site, client⟩ path walked once per topology,
    however many config seeds, selection modes, RTT tables and probers
    ask.
    """
    site_node = deployment.site_node(site)
    selection = TargetSelection(site=site)
    eligible: list[HitlistEntry] = []
    for entry in hitlist.responsive_web_clients():
        latency = topology.settled_latency(site_node, entry.node)
        if latency is None or 2.0 * latency * 1000.0 > RTT_LIMIT_MS:
            continue
        selection.nearby += 1
        if catchment.get(entry.node) == site:
            selection.anycast_routed_here += 1
            if exclude_anycast_routed:
                continue
        eligible.append(entry)
    rng = random.Random(seed)
    if len(eligible) > max_targets:
        eligible = rng.sample(eligible, max_targets)
    selection.targets = {entry.address: entry.node for entry in eligible}
    return selection
