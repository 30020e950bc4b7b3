"""High-level harnesses for the Appendix A and B studies.

These functions run the full appendix pipelines end-to-end on the
simulated Internet and return per-⟨collector peer, event⟩ samples, the
exact population the paper's Figures 3 and 4 are drawn over. Both the
hypergiant side (mined from routing history, event times estimated) and
the testbed side (ground-truth event times, as the paper has for its own
PEERING announcements) are produced, so the benches can overlay the two
distributions the way the figures do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.bgp.collector import RouteCollector
from repro.bgp.session import DEFAULT_INTERNET_TIMING, SessionTiming
from repro.measurement.convergence import (
    estimate_event_time,
    propagation_times,
    withdrawal_convergence_times,
)
from repro.net.addr import IPv4Prefix
from repro.topology.generator import Topology
from repro.topology.relationships import AsClass
from repro.topology.testbed import SPECIFIC_PREFIX, CdnDeployment


@dataclass(slots=True)
class AppendixSamples:
    """Per-⟨collector peer, event⟩ delays, split by origin population."""

    hypergiant: list[float] = field(default_factory=list)
    testbed: list[float] = field(default_factory=list)

    def combined(self) -> list[float]:
        return self.hypergiant + self.testbed


def _collector_over_core(network, name: str = "ris") -> RouteCollector:
    """Attach a collector to every transit/tier-1/regional router --
    the full-table-peer population of RIS."""
    collector = RouteCollector(name, network)
    for node in network.nodes():
        if node.startswith(("t1-", "tr-", "rg-")):
            collector.attach(node)
    return collector


def _hypergiant_prefixes(topology: Topology, per_giant: int = 2) -> dict[str, list[IPv4Prefix]]:
    """A few /24s per hypergiant, carved from its /20 block."""
    result: dict[str, list[IPv4Prefix]] = {}
    for info in topology.by_class(AsClass.HYPERGIANT):
        subnets = info.prefix.subnets(24)
        result[info.node_id] = subnets[:per_giant]
    return result


def run_withdrawal_study(
    topology: Topology,
    deployment: CdnDeployment,
    sites: list[str] | None = None,
    timing: SessionTiming | None = None,
    seed: int = 0,
    use_estimator: bool = True,
) -> AppendixSamples:
    """Appendix A: unicast withdrawal convergence, hypergiants vs testbed.

    For hypergiant events the withdrawal time is *estimated* with the
    5-in-20s heuristic (as the paper must); for testbed events the true
    withdrawal time is known (as the paper's own announcements are).
    ``use_estimator=False`` uses ground truth everywhere, for measuring
    the estimator's own error.
    """
    timing = timing or DEFAULT_INTERNET_TIMING
    sites = sites if sites is not None else deployment.site_names
    samples = AppendixSamples()
    rng = random.Random(seed)

    # Hypergiant withdrawals: one event per (giant, prefix).
    for giant, prefixes in _hypergiant_prefixes(topology).items():
        for prefix in prefixes:
            with topology.build_network(seed=rng.getrandbits(30), timing=timing) as network:
                collector = _collector_over_core(network)
                network.announce(giant, prefix)
                network.converge()
                collector.clear()
                true_time = network.now
                network.withdraw(giant, prefix)
                network.converge()
                event_time: float | None = true_time
                if use_estimator:
                    event_time = estimate_event_time(collector.entries, prefix, announce=False)
                if event_time is None:
                    continue
                samples.hypergiant.extend(
                    withdrawal_convergence_times(collector, prefix, event_time).values()
                )

    # Testbed withdrawals: one event per site, ground-truth times.
    for site in sites:
        with topology.build_network(seed=rng.getrandbits(30), timing=timing) as network:
            collector = _collector_over_core(network)
            node = deployment.site_node(site)
            network.announce(node, SPECIFIC_PREFIX)
            network.converge()
            collector.clear()
            true_time = network.now
            network.withdraw(node, SPECIFIC_PREFIX)
            network.converge()
            samples.testbed.extend(
                withdrawal_convergence_times(collector, SPECIFIC_PREFIX, true_time).values()
            )
    return samples


def run_propagation_study(
    topology: Topology,
    deployment: CdnDeployment,
    sites: list[str] | None = None,
    timing: SessionTiming | None = None,
    seed: int = 0,
    anycast_origins: int = 3,
) -> AppendixSamples:
    """Appendix B: anycast announcement propagation, Manycast2-style
    prefixes (here: hypergiant anycast) vs testbed anycast.

    Each event announces a fresh anycast prefix from several origins at
    once and measures each collector peer's first-announcement delay.
    """
    timing = timing or DEFAULT_INTERNET_TIMING
    sites = sites if sites is not None else deployment.site_names
    samples = AppendixSamples()
    rng = random.Random(seed)

    # "Manycast2 prefixes": anycast announced by hypergiant + transits
    # (a broader, lower-connectivity population than hypergiants alone,
    # matching the paper's conservative choice).
    giants = [info.node_id for info in topology.by_class(AsClass.HYPERGIANT)]
    transits = [n for n in topology.ases if n.startswith("tr-")]
    for i, giant in enumerate(giants):
        prefix = topology.ases[giant].prefix.subnets(24)[-1]
        origins = [giant] + rng.sample(transits, k=min(anycast_origins - 1, len(transits)))
        with topology.build_network(seed=rng.getrandbits(30), timing=timing) as network:
            collector = _collector_over_core(network)
            event_time = network.now
            for origin in origins:
                network.announce(origin, prefix)
            network.converge()
            samples.hypergiant.extend(
                propagation_times(collector, prefix, event_time).values()
            )

    # Testbed anycast announcements: all sites at once.
    for trial in range(max(1, len(sites) // 2)):
        with topology.build_network(seed=rng.getrandbits(30), timing=timing) as network:
            collector = _collector_over_core(network)
            event_time = network.now
            for site in sites:
                network.announce(deployment.site_node(site), SPECIFIC_PREFIX)
            network.converge()
            samples.testbed.extend(
                propagation_times(collector, SPECIFIC_PREFIX, event_time).values()
            )
    return samples


def announced_prefix_snapshot(topology: Topology) -> dict[str, list[IPv4Prefix]]:
    """A §3-style snapshot of what each hypergiant announces: several
    most-specific /24s plus, for a third of the giants, a covering
    shorter prefix. The paper found 39% of hypergiants' most-specific
    prefixes covered, "ranging from 12% to 95% for individual
    hypergiants" -- one-in-three covering giants lands the aggregate in
    that band."""
    snapshot: dict[str, list[IPv4Prefix]] = {}
    for i, (giant, prefixes) in enumerate(_hypergiant_prefixes(topology, per_giant=3).items()):
        announced = list(prefixes)
        if i % 3 == 0:
            announced.append(topology.ases[giant].prefix)
        snapshot[giant] = announced
    return snapshot
