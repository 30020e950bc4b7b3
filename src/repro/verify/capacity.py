"""Site-capacity analysis (VER24x).

When a world carries both a workload profile and a capacity profile,
the verifier can evaluate the "no site over capacity" invariant
*statically*: the symbolic propagation fixed point gives each client's
site, :func:`repro.workload.capacity.expected_site_load` turns client
popularity shares of the peak rate into per-site offered load, and any
site whose load exceeds its configured capacity is flagged (VER241).
That is the same arithmetic the runtime invariant
(:func:`repro.faults.invariants.check_site_capacity`) applies to the
converged network, so a plan the verifier passes cannot fail the
runtime check under the same catchment.

VER241 is a warning, not an error: a technique that starts over
capacity and sheds at runtime (the ``shed-*`` family) is legitimate --
the static check describes the *initial* catchment, before any
overload reaction fires. VER242 (unknown site) and VER243 (vacuous
profile) audit the capacity profile itself.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.analysis.findings import Finding
from repro.net.addr import IPv4Prefix
from repro.topology.propagation import PropagationResult, catchment_of
from repro.verify import checks
from repro.verify.world import VerifyWorld
from repro.workload.capacity import expected_site_load


def check_capacity_sites(world: VerifyWorld) -> Iterator[Finding]:
    """VER242: every site the capacity profile names must be deployed."""
    if world.capacity is None:
        return
    deployed = set(world.deployment.site_names)
    for site in sorted(set(world.capacity.site_rps) - deployed):
        yield checks.CAPACITY_UNKNOWN_SITE.finding(
            f"capacity profile {world.capacity.name!r} sets a limit for "
            f"site {site!r} which the world does not deploy; the limit "
            "can never bind and a typo here silently unconstrains the "
            "intended site",
            world.source,
        )


def check_capacity_vacuity(world: VerifyWorld) -> Iterator[Finding]:
    """VER243: capacity profiles that provably constrain nothing."""
    capacity = world.capacity
    if capacity is None:
        return
    if world.workload is None:
        yield checks.CAPACITY_VACUOUS.finding(
            f"capacity profile {capacity.name!r} given without a workload "
            "profile: no offered load exists to compare against, so the "
            "capacity limits constrain nothing in this world",
            world.source,
        )
        return
    deployed = world.deployment.site_names
    limited = [s for s in deployed if capacity.capacity_for(s) is not None]
    if not limited:
        yield checks.CAPACITY_VACUOUS.finding(
            f"capacity profile {capacity.name!r} leaves every deployed "
            "site unlimited (null default_rps, no per-site entries): the "
            "profile is dead weight",
            world.source,
        )
        return
    peak = world.workload.max_rate()
    binding = [s for s in limited if capacity.capacity_for(s) < peak]
    if not binding:
        yield checks.CAPACITY_VACUOUS.finding(
            f"capacity profile {capacity.name!r}: every limited site's "
            f"capacity meets or exceeds the workload's peak rate "
            f"({peak:.1f} rps), so no catchment -- not even one site "
            "serving everything -- can violate it",
            world.source,
        )


def check_site_over_capacity(
    world: VerifyWorld,
    technique_name: str,
    results: Mapping[IPv4Prefix, PropagationResult],
    regions: Mapping[str, str],
) -> Iterator[Finding]:
    """VER241: sites the initial symbolic catchment overloads at peak.

    ``results`` maps each planned prefix to the verifier's propagation
    fixed point (world preferences included); prefixes VER211 found
    unstable have no catchment to read and are left out.
    """
    if world.capacity is None or world.workload is None:
        return
    clients = [info.node_id for info in world.topology.web_client_ases()]
    catchment = catchment_of(
        world.deployment, [r for r in results.values() if r.stable], clients
    )
    loads = expected_site_load(world.workload, clients, catchment.get, regions)
    for site in sorted(loads):
        limit = world.capacity.capacity_for(site)
        if limit is None or loads[site] <= limit:
            continue
        yield checks.SITE_OVER_CAPACITY.finding(
            f"{technique_name}: symbolic catchment sends site {site} an "
            f"expected peak load of {loads[site]:.1f} rps against a "
            f"capacity of {limit:.1f} rps under workload "
            f"{world.workload.name!r}; unless the technique sheds load "
            "at runtime, requests above capacity are lost",
            world.source,
        )
