"""The emulated CDN deployment (PEERING-testbed stand-in).

§5 of the paper emulates a small CDN with the PEERING testbed: eight
sites (Amsterdam, Athens, Boston, Atlanta, Belo Horizonte is excluded by
the connectivity criterion in some runs, Seattle x2, Salt Lake City,
Madison), each a PEERING PoP announcing from AS47065 through that site's
own providers and peers, with no iBGP between sites.

:func:`build_deployment` reproduces that structure inside a generated
topology: one router per site, all sharing :data:`CDN_ASN`, attached with
the mix of commercial, IXP, and R&E connectivity that drives the paper's
per-site traffic-control differences (§5.4.2):

* ``ams`` sits at a large IXP with broad peering (anycast already favors
  it, so few nearby targets need steering -- Table 1's 15%);
* ``sea1`` connects only to a commercial transit, while ``sea2``, ``slc``,
  ``msn``, ``bos``, ``atl`` sit behind universities inside the R&E
  hierarchy -- the asymmetry that makes sea1 nearly uncontrollable with
  prepending (Table 1's 6%);
* ``ath`` is hosted by an R&E backbone reached over peer links, so path
  length (and therefore prepending) decides routing toward it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.policy import Relationship
from repro.net.addr import IPv4Address, IPv4Prefix
from repro.topology.generator import Topology, TopologyParams, generate_topology
from repro.topology.geo import place_in
from repro.topology.relationships import AsClass, AsInfo

#: ASN shared by all sites, as PEERING's AS47065 is.
CDN_ASN = 47065

#: The /23 allocated to the testbed and its two /24s (§5: "We are
#: allocated the prefix 184.164.244.0/23 ... and the two /24 prefixes
#: within it").
SUPERPREFIX = IPv4Prefix.parse("184.164.244.0/23")
SPECIFIC_PREFIX = IPv4Prefix.parse("184.164.244.0/24")
SECOND_PREFIX = IPv4Prefix.parse("184.164.245.0/24")

#: Source address used for Verfploeter-style probing (§5.2), inside the
#: specific prefix so replies route toward whatever announces it.
PROBE_SOURCE = IPv4Address.parse("184.164.244.10")


@dataclass(frozen=True, slots=True)
class SiteSpec:
    """Where one CDN site attaches to the topology."""

    name: str
    region: str
    #: node ids of ASes providing transit to the site
    providers: tuple[str, ...]
    #: node ids of ASes peering with the site (IXP-style)
    peers: tuple[str, ...] = ()


def default_site_specs() -> list[SiteSpec]:
    """The eight-site deployment mirroring §5's PEERING sites.

    Node names refer to the deterministic ids produced by
    :func:`~repro.topology.generator.generate_topology` with default
    region layout (three transits and four universities per region).
    """
    return [
        SiteSpec(
            name="ams", region="eu-west",
            providers=("tr-eu-west-0",),
            # Broad AMS-IX-style peering: every EU transit plus remote
            # peering with a few US transits. The US peers create the
            # short prepended paths that make prepend-5 visibly better
            # than prepend-3 for the R&E-hosted US sites (Table 1).
            peers=(
                "tr-eu-west-1", "tr-eu-west-2",
                "tr-eu-south-0", "tr-eu-south-1", "tr-eu-south-2",
                "tr-us-east-0", "tr-us-central-0", "tr-us-west-1",
            ),
        ),
        SiteSpec(name="ath", region="eu-south", providers=("re-1",)),
        SiteSpec(name="bos", region="us-east", providers=("uni-us-east-0",)),
        SiteSpec(name="atl", region="us-east", providers=("uni-us-east-1",)),
        SiteSpec(name="sea1", region="us-west", providers=("tr-us-west-0",)),
        SiteSpec(name="sea2", region="us-west", providers=("uni-us-west-0",)),
        SiteSpec(name="slc", region="us-mountain", providers=("uni-us-mountain-0",)),
        SiteSpec(name="msn", region="us-central", providers=("uni-us-central-0",)),
    ]


@dataclass(slots=True)
class CdnDeployment:
    """A topology plus the CDN sites grafted onto it."""

    topology: Topology
    sites: dict[str, SiteSpec] = field(default_factory=dict)

    @property
    def site_names(self) -> list[str]:
        return list(self.sites)

    def site_node(self, name: str) -> str:
        """The router node id for a site name."""
        if name not in self.sites:
            raise KeyError(f"unknown site {name!r}; have {list(self.sites)}")
        return f"site:{name}"

    def site_of_node(self, node_id: str) -> str | None:
        """Inverse of :meth:`site_node`; None for non-site nodes."""
        if node_id.startswith("site:"):
            name = node_id.removeprefix("site:")
            if name in self.sites:
                return name
        return None

def build_deployment(
    topology: Topology | None = None,
    specs: list[SiteSpec] | None = None,
    params: TopologyParams | None = None,
) -> CdnDeployment:
    """Attach CDN sites to ``topology`` (generated on demand).

    Raises ``ValueError`` if a spec references an AS the topology does not
    contain, which catches mismatched :class:`TopologyParams` early.
    """
    topology = topology or generate_topology(params)
    specs = specs if specs is not None else default_site_specs()
    deployment = CdnDeployment(topology=topology)
    import random

    rng = random.Random(topology.params.seed ^ 0x5EED)
    for spec in specs:
        missing = [
            node
            for node in (*spec.providers, *spec.peers)
            if node not in topology.ases
        ]
        if missing:
            raise ValueError(
                f"site {spec.name!r} references unknown ASes {missing}; "
                "adjust TopologyParams or the SiteSpec list"
            )
        node_id = f"site:{spec.name}"
        topology.add_as(
            AsInfo(
                node_id=node_id,
                asn=CDN_ASN,
                as_class=AsClass.CDN,
                location=place_in(spec.region, rng),
                tags={f"site:{spec.name}"},
            )
        )
        for provider in spec.providers:
            topology.link(node_id, provider, Relationship.PROVIDER)
        for peer in spec.peers:
            topology.link(node_id, peer, Relationship.PEER)
        deployment.sites[spec.name] = spec
    return deployment
