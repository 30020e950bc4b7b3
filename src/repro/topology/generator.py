"""Internet-like AS topology generation.

The generator builds the structural ingredients the paper's results rest
on: a tier-1 clique at the core, commercial transit ASes with regional
peering, eyeball/access networks hosting web clients, an R&E hierarchy
(backbones peering with each other *and* with commercial transits -- the
mechanism behind Appendix C.1's lost control), hypergiant content
networks with flat, short-path connectivity, and a pool of stub networks.

Everything is parameterised and seeded: the same
:class:`TopologyParams` always yields the same topology.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.bgp.damping import DampingConfig
from repro.bgp.network import BgpNetwork
from repro.bgp.policy import Relationship
from repro.bgp.session import SessionTiming
from repro.net.addr import IPv4Prefix
from repro.topology.geo import REGIONS, link_latency_s, place_in
from repro.topology.propagation import path_to
from repro.topology.relationships import AsClass, AsInfo, RelationshipDataset

#: Base of the address pool handed to client networks (one /24 each).
CLIENT_POOL = IPv4Prefix.parse("10.0.0.0/8")
#: One-way latency of an access hop into a distributed network's local PoP.
ACCESS_LATENCY_S = 0.003
#: Base of the pool carved into hypergiant prefixes (one /20 each).
HYPERGIANT_POOL = IPv4Prefix.parse("151.96.0.0/12")


@dataclass(frozen=True, slots=True)
class TopologyParams:
    """Knobs for :func:`generate_topology`. Defaults give ~230 ASes."""

    seed: int = 42
    n_tier1: int = 6
    n_transit_per_region: int = 3
    #: regional (tier-3) ISPs per region, customers of transits
    n_regional_per_region: int = 3
    n_eyeball_per_region: int = 14
    n_stub_per_region: int = 3
    n_university_per_region: int = 4
    n_re_backbone: int = 2
    n_hypergiant: int = 3
    #: tier-1 providers per transit (multihoming breadth feeds BGP path
    #: hunting: more alternates => longer withdrawal exploration)
    transit_providers: int = 3
    #: transit providers per regional ISP
    regional_providers: int = 2
    #: probability two transits in the same region peer
    transit_peering_prob: float = 0.4
    #: probability two transits in different regions peer
    transit_remote_peering_prob: float = 0.15
    #: probability two regionals in the same region peer
    regional_peering_prob: float = 0.3
    #: probability an eyeball buys from a second upstream
    eyeball_multihome_prob: float = 0.6
    #: probability an R&E backbone peers with a given commercial transit
    re_transit_peering_prob: float = 0.45
    #: probability a hypergiant peers with a given transit
    hypergiant_peering_prob: float = 0.7
    #: fraction of universities that also buy commercial transit
    university_multihome_prob: float = 0.25


@dataclass(frozen=True, slots=True)
class Link:
    """One adjacency: ``relationship`` is what ``b`` is from ``a``'s view."""

    a: str
    b: str
    relationship: Relationship
    latency_s: float


@dataclass(slots=True)
class Topology:
    """A generated AS-level topology (no routers yet; see build_network)."""

    params: TopologyParams
    ases: dict[str, AsInfo] = field(default_factory=dict)
    links: list[Link] = field(default_factory=list)
    #: ``links`` by endpoint, kept by :meth:`add_as` / :meth:`link`:
    #: {node: {neighbor: the neighbor's relationship from node's view}}
    #: (ASes in ``ases`` order, neighbors in ``links`` order; shared,
    #: read-only to callers) and {(a, b): latency}, both directions
    adjacency: dict[str, dict[str, Relationship]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _latencies: dict[tuple[str, str], float] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: the settled-routing memo of :mod:`repro.topology.propagation`.
    #: It depends only on the AS graph, never on BGP state, so it is
    #: shared by every forwarding plane (and sweep cell) over this
    #: topology instead of being re-solved per cell; growth clears it.
    _static_routes: dict = field(default_factory=dict, repr=False, compare=False)
    #: :meth:`hop_latencies` per path tuple, for the forwarding plane's
    #: flights; a pure function of the AS graph too, cleared with it
    _hop_latencies: dict[tuple[str, ...], tuple[float, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: :meth:`settled_latency` per ⟨src, dest⟩, for target selection,
    #: the RTT table and the prober's requests; cleared with the rest
    _settled_latencies: dict[tuple[str, str], float | None] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: the per-link session timings of the last :meth:`build_network`,
    #: ⟨profile, one per link in ``links`` order⟩: every cell of a sweep
    #: builds its network from the same profile, so the timings are
    #: built once, not once per link per cell; a new profile or a grown
    #: ``links`` rebuilds them.
    _link_timings: tuple[SessionTiming | None, Sequence[SessionTiming]] = field(
        default=(None, ()), repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Construction helpers (used by the generator and the testbed)

    def add_as(self, info: AsInfo) -> AsInfo:
        if info.node_id in self.ases:
            raise ValueError(f"duplicate AS node {info.node_id!r}")
        self.ases[info.node_id] = info
        self.adjacency[info.node_id] = {}
        self._static_routes.clear()
        self._hop_latencies.clear()
        self._settled_latencies.clear()
        return info

    def link(self, a: str, b: str, relationship_of_b: Relationship) -> None:
        """Connect ``a`` and ``b`` with geo-derived latency."""
        if a not in self.ases or b not in self.ases:
            raise ValueError(f"unknown AS in link {a!r} <-> {b!r}")
        if self.has_link(a, b):
            raise ValueError(f"link {a!r} <-> {b!r} already exists")
        latency = link_latency_s(self.ases[a].location, self.ases[b].location)
        self.links.append(Link(a, b, relationship_of_b, latency))
        self.adjacency[a][b] = relationship_of_b
        self.adjacency[b][a] = relationship_of_b.inverse()
        self._latencies[(a, b)] = self._latencies[(b, a)] = latency
        self._static_routes.clear()
        self._hop_latencies.clear()
        self._settled_latencies.clear()

    def has_link(self, a: str, b: str) -> bool:
        return (a, b) in self._latencies

    # ------------------------------------------------------------------
    # Queries

    def by_class(self, as_class: AsClass) -> list[AsInfo]:
        return [info for info in self.ases.values() if info.as_class == as_class]

    def web_client_ases(self) -> list[AsInfo]:
        """ASes that host web clients (the paper's target population)."""
        return [info for info in self.ases.values() if info.hosts_web_clients]

    def static_routes_cache(self) -> dict:
        """The shared settled-routing memo, filled by
        :mod:`repro.topology.propagation`: ``{dest_node: {node: next
        hop}}`` of one-origin solves (``path_to``) and, under ``None``,
        the preference-free ``SymbolicGraph`` with its offer tables
        (``SymbolicGraph.from_topology``). Both are pure functions of
        the AS graph, so :meth:`add_as` and :meth:`link` clear it, and
        :meth:`settled_latency`'s memo with it."""
        return self._static_routes

    def neighbors(self, node_id: str) -> dict[str, Relationship]:
        """Neighbors of ``node_id`` with the relationship of each neighbor
        from ``node_id``'s perspective (a fresh copy; mutate freely)."""
        return dict(self.adjacency.get(node_id, {}))

    def link_latency(self, a: str, b: str) -> float:
        try:
            return self._latencies[(a, b)]
        except KeyError:
            raise KeyError(f"no link {a!r} <-> {b!r}") from None

    def hop_latency(self, last_concrete: str, a: str, b: str) -> float:
        """Latency of the hop ``a -> b`` on a path whose most recent
        non-distributed node was ``last_concrete``.

        Distributed networks (tier-1s, R&E backbones, hypergiants) have
        PoPs everywhere, so entering one costs only an access hop; the
        geographic distance is charged when *leaving* it, from the point
        where the path entered (``last_concrete``) to the next concrete
        network.
        """
        a_info = self.ases[a]
        b_info = self.ases[b]
        if b_info.as_class.is_distributed:
            return ACCESS_LATENCY_S
        if a_info.as_class.is_distributed:
            entry = self.ases[last_concrete].location
            return link_latency_s(entry, b_info.location)
        return self.link_latency(a, b)

    def hop_latencies(self, path: Sequence[str]) -> list[float]:
        """The latency of each hop along a node path, distributed-aware:
        each hop is charged from the most recent non-distributed node
        before it (the path's first node until one is crossed)."""
        latencies = []
        last_concrete = path[0]
        for a, b in zip(path, path[1:]):
            latencies.append(self.hop_latency(last_concrete, a, b))
            if not self.ases[b].as_class.is_distributed:
                last_concrete = b
        return latencies

    def memo_hop_latencies(self, path: tuple[str, ...]) -> tuple[float, ...]:
        """:meth:`hop_latencies` of ``path``, memoised per path tuple."""
        latencies = self._hop_latencies.get(path)
        if latencies is None:
            latencies = self._hop_latencies[path] = tuple(self.hop_latencies(path))
        return latencies

    def path_latency(self, path: list[str]) -> float:
        """One-way latency along a node path, distributed-aware."""
        total = 0.0
        for latency in self.hop_latencies(path):
            total += latency
        return total

    def settled_latency(self, src: str, dest: str) -> float | None:
        """One-way latency, seconds, of the path traffic from ``src``
        toward AS ``dest`` takes once a route to ``dest`` alone has
        settled (:func:`~repro.topology.propagation.path_to`), or None
        where policy gives ``src`` no route. Memoised per ⟨src, dest⟩:
        the §5.1 proximity filter, the RTT table and the prober's
        requests all ask it, each pair once per topology."""
        key = (src, dest)
        try:
            return self._settled_latencies[key]
        except KeyError:
            path = path_to(self, src, dest)
            latency = None if path is None else self.path_latency(path)
            self._settled_latencies[key] = latency
            return latency

    def relationship_dataset(
        self, coverage: float = 1.0, rng: random.Random | None = None
    ) -> RelationshipDataset:
        """CAIDA-style relationship data derived from ground truth."""
        raw = [
            (self.ases[link.a].asn, self.ases[link.b].asn, link.relationship)
            for link in self.links
        ]
        return RelationshipDataset.from_links(raw, coverage=coverage, rng=rng)

    # ------------------------------------------------------------------
    # Realization as a BGP network

    def build_network(
        self,
        seed: int | None = None,
        timing: SessionTiming | None = None,
        damping: "DampingConfig | None" = None,
    ) -> BgpNetwork:
        """Instantiate routers and sessions for every AS and link.

        ``timing`` provides the processing-delay/jitter/MRAI profile;
        per-link propagation latency comes from geography and is added to
        the profile's base latency. ``damping`` enables RFC 2439 route
        flap damping at every router.
        """
        timing = timing or SessionTiming()
        network = BgpNetwork(
            seed=self.params.seed if seed is None else seed,
            default_timing=timing,
            damping=damping,
        )
        for info in self.ases.values():
            network.add_router(info.node_id, info.asn)
        for link, link_timing in zip(self.links, self._timings_for(timing)):
            network.connect(
                link.a, link.b, link.relationship,
                timing=link_timing, latency=link.latency_s,
            )
        return network

    def _timings_for(self, timing: SessionTiming) -> Sequence[SessionTiming]:
        """One session timing per link under the profile ``timing``: its
        pacing, plus the link's propagation latency. ``busy_prob`` and
        ``mrai_sigma`` are not carried over, so every session runs
        without them (docs/architecture.md, "MRAI pacing")."""
        built_for, timings = self._link_timings
        if built_for != timing or len(timings) != len(self.links):
            timings = [
                SessionTiming(
                    latency=timing.latency + link.latency_s,
                    jitter=timing.jitter,
                    mrai=timing.mrai,
                )
                for link in self.links
            ]
            self._link_timings = (timing, timings)
        return timings


def generate_topology(params: TopologyParams | None = None) -> Topology:
    """Generate a seeded Internet-like topology."""
    params = params or TopologyParams()
    rng = random.Random(params.seed)
    topo = Topology(params=params)
    regions = list(REGIONS)

    # --- Tier-1 clique ------------------------------------------------
    tier1_ids: list[str] = []
    for i in range(params.n_tier1):
        region = regions[i % len(regions)]
        node = f"t1-{i}"
        topo.add_as(AsInfo(node, 100 + i, AsClass.TIER1, place_in(region, rng)))
        tier1_ids.append(node)
    for a, b in itertools.combinations(tier1_ids, 2):
        topo.link(a, b, Relationship.PEER)

    # --- Commercial transit (tier-2) -----------------------------------
    asn = itertools.count(1000)
    transit_ids: list[str] = []
    transits_by_region: dict[str, list[str]] = {r: [] for r in regions}
    for region in regions:
        for j in range(params.n_transit_per_region):
            node = f"tr-{region}-{j}"
            topo.add_as(AsInfo(node, next(asn), AsClass.TRANSIT, place_in(region, rng)))
            transit_ids.append(node)
            transits_by_region[region].append(node)
            providers = rng.sample(
                tier1_ids, k=min(params.transit_providers, len(tier1_ids))
            )
            for provider in providers:
                topo.link(node, provider, Relationship.PROVIDER)
    for region in regions:
        for a, b in itertools.combinations(transits_by_region[region], 2):
            if rng.random() < params.transit_peering_prob:
                topo.link(a, b, Relationship.PEER)
    for a, b in itertools.combinations(transit_ids, 2):
        if topo.has_link(a, b):
            continue
        if rng.random() < params.transit_remote_peering_prob:
            topo.link(a, b, Relationship.PEER)

    # --- Regional (tier-3) ISPs ----------------------------------------
    regionals_by_region: dict[str, list[str]] = {r: [] for r in regions}
    for region in regions:
        for j in range(params.n_regional_per_region):
            node = f"rg-{region}-{j}"
            topo.add_as(AsInfo(node, next(asn), AsClass.TRANSIT, place_in(region, rng)))
            regionals_by_region[region].append(node)
            local = transits_by_region[region]
            k = min(params.regional_providers, len(local))
            for provider in rng.sample(local, k=k):
                topo.link(node, provider, Relationship.PROVIDER)
    for region in regions:
        for a, b in itertools.combinations(regionals_by_region[region], 2):
            if rng.random() < params.regional_peering_prob:
                topo.link(a, b, Relationship.PEER)

    # --- R&E backbones --------------------------------------------------
    # Backbones alternate between a US home (Internet2/gigapop-style) and
    # a European home (NREN-style). The US ones buy transit from US
    # commercial transits -- giving those transits *customer* routes to
    # everything behind the backbone, the preference Appendix C.1 finds
    # steering traffic away from the commercially-hosted sea1. The EU
    # ones peer with European transits and buy only remote global reach,
    # so routes toward them tie on LOCAL_PREF and path length decides --
    # which is why prepending controls ath so well in Table 1.
    us_regions = [r for r in regions if r.startswith("us-")]
    eu_regions = [r for r in regions if not r.startswith("us-")]
    re_ids: list[str] = []
    re_home: dict[str, str] = {}
    for i in range(params.n_re_backbone):
        home = "us" if i % 2 == 0 else "eu"
        region = (us_regions if home == "us" else eu_regions)[i % 2 + i // 2]
        node = f"re-{i}"
        topo.add_as(
            AsInfo(node, 500 + i, AsClass.RE_BACKBONE, place_in(region, rng))
        )
        re_ids.append(node)
        re_home[node] = home
        if home == "us":
            us_transits = [
                t for r in us_regions for t in transits_by_region[r]
            ]
            for provider in rng.sample(us_transits, k=min(3, len(us_transits))):
                topo.link(node, provider, Relationship.PROVIDER)
        else:
            # One remote provider for global reach; no local providers.
            us_transits = [
                t for r in us_regions for t in transits_by_region[r]
            ]
            topo.link(node, rng.choice(us_transits), Relationship.PROVIDER)
    for a, b in itertools.combinations(re_ids, 2):
        topo.link(a, b, Relationship.PEER)
    for re_node in re_ids:
        home = re_home[re_node]
        home_regions = us_regions if home == "us" else eu_regions
        for region in regions:
            local_prob = (
                params.re_transit_peering_prob if region in home_regions else 0.2
            )
            for transit in transits_by_region[region]:
                if topo.has_link(re_node, transit):
                    continue
                # EU NRENs peer with every transit in their home regions.
                if home == "eu" and region in home_regions:
                    topo.link(re_node, transit, Relationship.PEER)
                elif rng.random() < local_prob:
                    topo.link(re_node, transit, Relationship.PEER)

    # --- Client /24 pool (drawn as needed: ~150 of its 65,536) ----------
    pool_end = CLIENT_POOL.network + CLIENT_POOL.num_addresses()
    client_prefixes = (
        IPv4Prefix(network, 24)
        for network in range(CLIENT_POOL.network, pool_end, 1 << (32 - 24))
    )

    # --- Universities (R&E edge, host web clients) ----------------------
    for region in regions:
        for j in range(params.n_university_per_region):
            node = f"uni-{region}-{j}"
            info = AsInfo(
                node, next(asn), AsClass.UNIVERSITY, place_in(region, rng),
                prefix=next(client_prefixes), tags={"web-clients"},
            )
            topo.add_as(info)
            # Universities join the backbone serving their part of the
            # world (US unis behind the gigapops, EU/SA behind the NRENs).
            home = "us" if region.startswith("us-") else "eu"
            matching = [n for n in re_ids if re_home[n] == home] or re_ids
            backbone = matching[j % len(matching)]
            topo.link(node, backbone, Relationship.PROVIDER)
            if rng.random() < params.university_multihome_prob:
                topo.link(
                    node, rng.choice(transits_by_region[region]), Relationship.PROVIDER
                )

    # --- Eyeball / access networks (host web clients) --------------------
    for region in regions:
        for j in range(params.n_eyeball_per_region):
            node = f"eye-{region}-{j}"
            info = AsInfo(
                node, next(asn), AsClass.EYEBALL, place_in(region, rng),
                prefix=next(client_prefixes), tags={"web-clients"},
            )
            topo.add_as(info)
            # Half the eyeballs sit behind a regional ISP (deeper paths),
            # the rest buy directly from a transit.
            local_regionals = regionals_by_region[region]
            local_transits = transits_by_region[region]
            if local_regionals and rng.random() < 0.5:
                primary = rng.choice(local_regionals)
            else:
                primary = rng.choice(local_transits)
            topo.link(node, primary, Relationship.PROVIDER)
            if rng.random() < params.eyeball_multihome_prob:
                pool = [t for t in local_transits + local_regionals if t != primary]
                if pool:
                    topo.link(node, rng.choice(pool), Relationship.PROVIDER)

    # --- Enterprise stubs (no web clients) -------------------------------
    for region in regions:
        for j in range(params.n_stub_per_region):
            node = f"stub-{region}-{j}"
            info = AsInfo(
                node, next(asn), AsClass.STUB, place_in(region, rng),
                prefix=next(client_prefixes),
            )
            topo.add_as(info)
            topo.link(node, rng.choice(transits_by_region[region]), Relationship.PROVIDER)

    # --- Hypergiants ------------------------------------------------------
    hypergiant_blocks = HYPERGIANT_POOL.subnets(20)
    for i in range(params.n_hypergiant):
        region = regions[(3 * i) % len(regions)]
        node = f"hg-{i}"
        info = AsInfo(
            node, 20000 + i, AsClass.HYPERGIANT, place_in(region, rng),
            prefix=hypergiant_blocks[i], tags={"content"},
        )
        topo.add_as(info)
        for provider in rng.sample(tier1_ids, k=2):
            topo.link(node, provider, Relationship.PROVIDER)
        for transit in transit_ids:
            if rng.random() < params.hypergiant_peering_prob:
                topo.link(node, transit, Relationship.PEER)

    return topo
