"""Client-to-site performance analysis (anycast suboptimality).

§2's premise, citing Calder et al. and Li et al.: "a subset of clients
are routed to suboptimal sites" under anycast, which is why the CDN
wants control in the first place. This module quantifies that on the
simulated deployment:

* per client, the RTT to the site its technique serves it from, vs the
  RTT to the *best* site within reach;
* the latency-inflation distribution (served minus best) per technique,
  and the fraction of clients that a control-capable technique could
  improve by steering.

Together with the Table-1 control numbers, this closes the paper's
argument loop: anycast leaves measurable latency on the table, and the
hybrid techniques can reclaim it without giving up availability.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.topology.generator import Topology
from repro.topology.testbed import CdnDeployment


@dataclass(frozen=True, slots=True)
class ClientPerformance:
    """RTT view for one client AS."""

    node: str
    served_by: str | None
    served_rtt_ms: float | None
    best_site: str | None
    best_rtt_ms: float | None

    @property
    def inflation_ms(self) -> float | None:
        """Extra latency versus the best reachable site (>= 0)."""
        if self.served_rtt_ms is None or self.best_rtt_ms is None:
            return None
        return max(0.0, self.served_rtt_ms - self.best_rtt_ms)

    @property
    def suboptimal(self) -> bool:
        return self.served_by is not None and self.served_by != self.best_site


@dataclass(slots=True)
class PerformanceReport:
    """Latency inflation across a client population."""

    clients: list[ClientPerformance] = field(default_factory=list)

    @property
    def measured(self) -> list[ClientPerformance]:
        return [c for c in self.clients if c.inflation_ms is not None]

    def suboptimal_fraction(self) -> float:
        """Fraction of clients served by a site other than their best."""
        measured = self.measured
        if not measured:
            return 0.0
        return sum(1 for c in measured if c.suboptimal) / len(measured)

    def inflation_values(self) -> list[float]:
        return [c.inflation_ms for c in self.measured]

    def inflated_fraction(self, threshold_ms: float = 5.0) -> float:
        """Fraction of clients with inflation above ``threshold_ms``."""
        measured = self.measured
        if not measured:
            return 0.0
        over = sum(1 for c in measured if c.inflation_ms > threshold_ms)
        return over / len(measured)


class SiteRttTable:
    """Precomputed RTTs from every client AS to every site.

    One single-origin solve per *client* covers all sites (it settles
    routes from all nodes toward the client; see
    :func:`repro.topology.propagation.path_to`), so the table costs
    O(clients) solves. Each RTT is twice
    :meth:`~repro.topology.generator.Topology.settled_latency`, the
    topology's memo target selection and the prober read too: a ⟨site,
    client⟩ path selection has walked is not walked again.
    """

    def __init__(self, topology: Topology, deployment: CdnDeployment) -> None:
        self.topology = topology
        self.deployment = deployment
        self._rtts: dict[str, dict[str, float]] = {}

    def rtt_ms(self, client: str, site: str) -> float | None:
        per_client = self._rtts.get(client)
        if per_client is None:
            per_client = {}
            for name in self.deployment.site_names:
                latency = self.topology.settled_latency(self.deployment.site_node(name), client)
                if latency is not None:
                    per_client[name] = 2.0 * latency * 1000.0
            self._rtts[client] = per_client
        return per_client.get(site)

    def best_site(self, client: str) -> tuple[str, float] | None:
        """The lowest-RTT site reachable from ``client``."""
        self.rtt_ms(client, self.deployment.site_names[0])  # populate
        per_client = self._rtts[client]
        if not per_client:
            return None
        site = min(per_client, key=per_client.get)
        return site, per_client[site]


def analyze_performance(
    topology: Topology,
    deployment: CdnDeployment,
    serving: dict[str, str | None],
    rtt_table: SiteRttTable | None = None,
) -> PerformanceReport:
    """Latency inflation of a client->site assignment.

    ``serving`` maps client node -> serving site (e.g. an anycast
    catchment from :func:`repro.measurement.catchment.anycast_catchment`,
    or a unicast mapping policy's assignment).
    """
    rtt_table = rtt_table or SiteRttTable(topology, deployment)
    report = PerformanceReport()
    for client, site in serving.items():
        best = rtt_table.best_site(client)
        report.clients.append(
            ClientPerformance(
                node=client,
                served_by=site,
                served_rtt_ms=rtt_table.rtt_ms(client, site) if site else None,
                best_site=best[0] if best else None,
                best_rtt_ms=best[1] if best else None,
            )
        )
    return report
