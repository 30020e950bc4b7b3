"""Internet-like topologies and the emulated CDN deployment.

The paper runs on the real Internet via the PEERING testbed. This package
replaces that substrate: a seeded generator builds a hierarchical AS
topology (tier-1 clique, transit tiers, eyeball stubs, an R&E hierarchy,
and hypergiants), a geography model provides RTTs for the paper's 50 ms
proximity filter, and :class:`~repro.topology.testbed.CdnDeployment`
attaches the eight PEERING-like sites to it.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Region": ".geo",
    "REGIONS": ".geo",
    "rtt_ms": ".geo",
    "AsClass": ".relationships",
    "AsInfo": ".relationships",
    "RelationshipDataset": ".relationships",
    "Topology": ".generator",
    "TopologyParams": ".generator",
    "generate_topology": ".generator",
    "CdnDeployment": ".testbed",
    "SiteSpec": ".testbed",
    "build_deployment": ".testbed",
})
