"""AS classification and relationship datasets.

Two concerns live here:

* :class:`AsClass` / :class:`AsInfo` — ground-truth metadata about each
  simulated AS (its role in the hierarchy, region, prefix), standing in
  for the ASdb classification the paper uses in Appendix C.1.
* :class:`RelationshipDataset` — a CAIDA-style AS-relationship dataset
  *derived* from the simulated topology, optionally with incomplete
  coverage. Appendix C.1 could only classify 4,866 of its AS-link pairs;
  the ``coverage`` knob reproduces that kind of gap so the divergence
  analysis handles missing data the same way the paper does.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from repro.bgp.policy import LOCAL_PREF, Relationship
from repro.net.addr import IPv4Prefix
from repro.topology.geo import Location


class AsClass(enum.Enum):
    """Role of an AS in the simulated hierarchy (ASdb-style labels)."""

    TIER1 = "tier1"
    TRANSIT = "transit"          # commercial tier-2 / regional transit
    EYEBALL = "eyeball"          # access network hosting web clients
    STUB = "stub"                # enterprise stub, no clients of note
    RE_BACKBONE = "re-backbone"  # research & education backbone
    UNIVERSITY = "university"    # R&E edge network
    HYPERGIANT = "hypergiant"    # large content provider
    CDN = "cdn"                  # the emulated CDN (the testbed ASN)
    IXP_RS = "ixp"               # route server / IXP-ish infrastructure

    @property
    def is_research(self) -> bool:
        """R&E classification used by the Appendix C.1 analysis."""
        return self in (AsClass.RE_BACKBONE, AsClass.UNIVERSITY)

    @property
    def is_distributed(self) -> bool:
        """True for networks with PoPs everywhere (tier-1s, R&E
        backbones, hypergiants). The latency model treats them as
        transparent: distance accrues between the concrete networks
        around them, not to their nominal headquarters location."""
        return self in (AsClass.TIER1, AsClass.RE_BACKBONE, AsClass.HYPERGIANT)


@dataclass(slots=True)
class AsInfo:
    """Metadata for one AS (or CDN site router) in the topology."""

    node_id: str
    asn: int
    as_class: AsClass
    location: Location
    #: the prefix this AS originates for its own hosts, if any
    prefix: IPv4Prefix | None = None
    #: free-form tags ("web-clients", "site:ams", ...)
    tags: set[str] = field(default_factory=set)

    @property
    def hosts_web_clients(self) -> bool:
        return "web-clients" in self.tags


#: a relationship's LOCAL_PREF rank, highest (0) first: customer 0, peer
#: 1, provider 2
_PREFERENCE_RANK = {
    relationship: rank
    for rank, relationship in enumerate(sorted(LOCAL_PREF, key=LOCAL_PREF.get, reverse=True))
}


class RelationshipDataset:
    """AS-relationship data as an external inference would see it.

    Built from topology ground truth, with optional incomplete
    ``coverage`` to model links the real CAIDA dataset cannot classify.
    Lookups are by (ASN, ASN) pair, matching how the paper joins reverse
    traceroute AS paths against CAIDA data.
    """

    def __init__(self, entries: dict[tuple[int, int], Relationship]) -> None:
        self._entries = entries

    @classmethod
    def from_links(
        cls,
        links: list[tuple[int, int, Relationship]],
        coverage: float = 1.0,
        rng: random.Random | None = None,
    ) -> "RelationshipDataset":
        """Build from ground-truth links ``(asn_a, asn_b, rel of b from a)``.

        With ``coverage < 1`` a random subset of links is omitted,
        mirroring real-world classification gaps.
        """
        if not 0.0 <= coverage <= 1.0:
            raise ValueError(f"coverage must be in [0, 1], got {coverage}")
        rng = rng or random.Random(0)
        entries: dict[tuple[int, int], Relationship] = {}
        for a, b, rel in links:
            if coverage < 1.0 and rng.random() > coverage:
                continue
            entries[(a, b)] = rel
            entries[(b, a)] = rel.inverse()
        return cls(entries)

    def lookup(self, a: int, b: int) -> Relationship | None:
        """Relationship of ``b`` from ``a``'s perspective, if classified."""
        return self._entries.get((a, b))

    def __len__(self) -> int:
        return len(self._entries) // 2

    def preference_rank(self, a: int, b: int) -> int | None:
        """Business preference of the a->b link for AS ``a``.

        Lower is more preferred: 0 customer, 1 peer, 2 provider — the
        ordering Appendix C.1 uses to explain why diverging ASes pick
        routes away from the intended site, read off the import policy's
        LOCAL_PREF. None when unclassified (or a collector feed).
        """
        return _PREFERENCE_RANK.get(self.lookup(a, b))
