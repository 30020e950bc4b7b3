"""The static verifier's orchestrator.

:func:`verify_world` runs every VER2xx analysis over one
:class:`~repro.verify.world.VerifyWorld` and returns a
:class:`~repro.analysis.findings.FindingCollector`, exactly the shape
the pre-flight validator returns — so the CLI gate, the reporters, and
telemetry treat both layers uniformly.

Per-world suppression (``world.suppress``) and the CLI's
``--select``/``--ignore`` mirror the linter's noqa mechanism: suppressed
findings are counted (``verify.suppressed``) but not reported. Checks
marked strict-only in the catalogue are dropped unless the world or the
caller opts into the strict profile.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro import telemetry
from repro.analysis.findings import Finding, FindingCollector, emit_findings
from repro.core.plan import Origination
from repro.net.addr import IPv4Prefix
from repro.topology.propagation import PropagationResult, SymbolicGraph, propagate
from repro.verify import capacity, disputes, plans, safety, vacuity
from repro.verify.checks import CHECKS
from repro.verify.world import VerifyWorld


def verify_world(
    world: VerifyWorld,
    select: set[str] | None = None,
    ignore: set[str] | None = None,
    strict: bool = False,
) -> FindingCollector:
    """Run all static analyses over ``world``.

    ``select`` keeps only the given codes; ``ignore`` drops them (on top
    of ``world.suppress``); ``strict`` enables the opportunity-cost
    checks (VER212/VER223) regardless of the world's own flag.
    """
    tel = telemetry.current()
    effective_strict = strict or world.strict
    suppressed_codes = set(world.suppress) | set(ignore or ())
    graph = SymbolicGraph.from_topology(world.topology, world.preferences)

    findings: list[Finding] = []
    findings += safety.check_gao_cycle(world, graph)
    findings += safety.check_core_partition(world, graph)
    findings += safety.check_client_reach(world, graph)
    findings += capacity.check_capacity_sites(world)
    findings += capacity.check_capacity_vacuity(world)
    client_regions = {
        info.node_id: info.location.region
        for info in world.topology.web_client_ases()
    }

    cache: dict[tuple[frozenset[Origination], object], PropagationResult] = {}
    propagations = 0

    def run_propagation(originations: Iterable[Origination], prefix) -> PropagationResult:
        nonlocal propagations
        # Later originations replace earlier ones at the same node, as
        # BgpRouter.originate does; normalizing here keeps the cache key
        # canonical across plans that only differ in announce order.
        per_node = {o.node: o for o in originations if o.prefix == prefix}
        key = (frozenset(per_node.values()), prefix)
        if key not in cache:
            propagations += 1
            cache[key] = propagate(graph, list(per_node.values()), prefix)
        return cache[key]

    covered_links: set[frozenset[str]] = set()
    covered_nodes: set[str] = set()
    specific = world.chosen_specific_site()
    deployment = world.deployment

    for technique in world.techniques:
        if specific is None:
            break
        plan = technique.originations(
            deployment, specific, world.prefix, world.superprefix
        )
        findings += plans.check_superprefix_cover(world, technique.name, plan)
        results: dict[IPv4Prefix, PropagationResult] = {}
        for prefix in sorted({o.prefix for o in plan}):
            result = run_propagation(plan, prefix)
            results[prefix] = result
            findings += disputes.check_dispute_wheel(world, technique.name, result)
            if not result.stable:
                continue
            covered_links |= result.carried_links()
            covered_nodes |= result.reached()
            findings += plans.check_dead_prefix(world, technique.name, result)
            findings += plans.check_ambiguous_catchment(world, technique.name, result)
        specific_result = results.get(world.prefix)
        if specific_result is not None and specific_result.stable:
            findings += disputes.check_prepend_insufficient(
                world, technique.name, plan, specific_result
            )
        findings += capacity.check_site_over_capacity(
            world, technique.name, results, client_regions
        )
        findings += plans.check_site_dark(
            world, technique.name, plan,
            lambda o: run_propagation([o], o.prefix),
        )
        # Post-failure coverage for vacuity: the failed site's
        # originations are withdrawn and the technique reacts.
        failure_plan = technique.originations(
            deployment, specific, world.prefix, world.superprefix, down={specific}
        )
        for prefix in sorted({o.prefix for o in failure_plan}):
            result = run_propagation(failure_plan, prefix)
            if result.stable:
                covered_links |= result.carried_links()
                covered_nodes |= result.reached()

    findings += disputes.check_damping_starvation(world)

    if world.timeline is not None:
        analyzed = world.techniques and specific is not None
        findings += vacuity.check_timeline(
            world, (covered_links, covered_nodes) if analyzed else None
        )

    kept: list[Finding] = []
    suppressed = 0
    for finding in findings:
        descriptor = CHECKS.get(finding.code)
        if descriptor is not None and descriptor.strict_only and not effective_strict:
            continue
        if finding.code in suppressed_codes:
            suppressed += 1
            continue
        if select and finding.code not in select:
            continue
        kept.append(finding)
    kept.sort(key=lambda finding: finding.sort_key())

    if tel.enabled:
        tel.inc("verify.runs")
        tel.inc("verify.techniques", len(world.techniques))
        tel.inc("verify.propagations", propagations)
        tel.inc("verify.findings", len(kept))
        tel.inc("verify.errors", sum(1 for f in kept if f.severity.blocking))
        if suppressed:
            tel.inc("verify.suppressed", suppressed)
    emit_findings(kept, layer="verify")

    collector = FindingCollector()
    collector.extend(kept)
    return collector
