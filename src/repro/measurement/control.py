"""Traffic-control measurement (Table 1, §5.4.2).

For each site, Table 1 reports:

* of the targets within 50 ms, the fraction that pure anycast routes to
  a *different* site ("Not routed by anycast"); and
* of those, the fraction proactive-prepending can steer to the site when
  the other sites prepend 3 or 5 times.

Techniques whose prefix is unicast in normal operation (unicast,
proactive-superprefix, reactive-anycast) can steer *everything* by
construction, so the interesting measurement is prepending's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.techniques import ProactivePrepending
from repro.measurement.hitlist import Hitlist, TargetSelection, select_targets
from repro.net.addr import IPv4Prefix
from repro.topology.generator import Topology
from repro.topology.propagation import settled_catchment
from repro.topology.testbed import SPECIFIC_PREFIX, CdnDeployment


@dataclass(slots=True)
class ControlResult:
    """One Table 1 column (one site)."""

    site: str
    #: targets within the RTT bound
    nearby: int
    #: of nearby, fraction anycast routes elsewhere (Table 1 row 2)
    not_routed_by_anycast: float
    #: prepend count -> fraction of the not-routed-by-anycast targets that
    #: proactive-prepending steers to the site (Table 1 rows 3-4)
    controllable: dict[int, float] = field(default_factory=dict)


def prepending_catchment(
    topology: Topology,
    deployment: CdnDeployment,
    intended_site: str,
    prepend: int,
    prefix: IPv4Prefix = SPECIFIC_PREFIX,
    nodes: list[str] | None = None,
    restrict_to_shared_neighbors: bool = False,
) -> dict[str, str | None]:
    """Settled catchment under proactive-prepending with one intended
    site (``topology`` is ``deployment.topology``)."""
    technique = ProactivePrepending(
        prepend, restrict_to_shared_neighbors=restrict_to_shared_neighbors
    )
    plan = technique.originations(deployment, intended_site, prefix)
    return settled_catchment(deployment, plan, nodes)


def measure_control(
    topology: Topology,
    deployment: CdnDeployment,
    site: str,
    anycast: dict[str, str | None],
    hitlist: Hitlist | None = None,
    prepends: tuple[int, ...] = (3, 5),
    seed: int = 0,
    restrict_to_shared_neighbors: bool = False,
) -> ControlResult:
    """Measure one Table 1 column.

    ``anycast`` is the pure-anycast catchment (shared across sites).
    Target selection keeps only nearby targets not already routed to the
    site -- §5.1's "additional control beyond anycast" criterion.
    """
    hitlist = hitlist or Hitlist(topology, seed=seed)
    selection: TargetSelection = select_targets(
        topology,
        deployment,
        site,
        anycast,
        hitlist,
        max_targets=10**9,  # Table 1 uses the full eligible population
        exclude_anycast_routed=True,
        seed=seed,
    )
    result = ControlResult(
        site=site,
        nearby=selection.nearby,
        not_routed_by_anycast=selection.not_routed_by_anycast_frac,
    )
    target_nodes = list(selection.targets.values())
    for prepend in prepends:
        if not target_nodes:
            result.controllable[prepend] = 0.0
            continue
        catchment = prepending_catchment(
            topology,
            deployment,
            site,
            prepend,
            nodes=target_nodes,
            restrict_to_shared_neighbors=restrict_to_shared_neighbors,
        )
        steered = sum(1 for node in target_nodes if catchment.get(node) == site)
        result.controllable[prepend] = steered / len(target_nodes)
    return result


def measure_control_all_sites(
    topology: Topology,
    deployment: CdnDeployment,
    anycast: dict[str, str | None],
    **kwargs,
) -> dict[str, ControlResult]:
    """Table 1, all columns."""
    hitlist = kwargs.pop("hitlist", None) or Hitlist(
        topology, seed=kwargs.get("seed", 0)
    )
    return {
        site: measure_control(
            topology, deployment, site, anycast, hitlist=hitlist, **kwargs
        )
        for site in deployment.site_names
    }
