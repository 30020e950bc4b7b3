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

import functools

from repro import telemetry
from repro.analysis.findings import Finding, FindingCollector, emit_findings
from repro.topology.propagation import (
    PropagationResult,
    SymbolicGraph,
    solve_plan,
    valley_free_reach,
)
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
    #: a site node's reach through one first-hop scope, solved once
    reach = functools.cache(functools.partial(valley_free_reach, graph))
    #: every fixed point this call computes, shared across techniques
    solved: dict[tuple, PropagationResult] = {}

    findings: list[Finding] = []
    findings += safety.check_gao_cycle(world, graph)
    findings += safety.check_core_partition(world, graph)
    findings += safety.check_client_reach(world, reach)
    findings += capacity.check_capacity_sites(world)
    findings += capacity.check_capacity_vacuity(world)
    client_regions = {
        info.node_id: info.location.region
        for info in world.topology.web_client_ases()
    }

    specific = world.chosen_specific_site()
    deployment = world.deployment

    for technique in world.techniques:
        if specific is None:
            break
        plan = technique.originations(
            deployment, specific, world.prefix, world.superprefix
        )
        findings += plans.check_superprefix_cover(world, technique.name, plan)
        results = solve_plan(graph, plan, solved)
        for result in results.values():
            findings += disputes.check_dispute_wheel(world, technique.name, result)
            if not result.stable:
                continue
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
        findings += plans.check_site_dark(world, technique.name, plan, reach)
        if world.timeline is not None:
            # Post-failure coverage for vacuity: the failed site's
            # originations are withdrawn and the technique reacts.
            solve_plan(graph, technique.originations(
                deployment, specific, world.prefix, world.superprefix, down={specific}
            ), solved)

    findings += disputes.check_damping_starvation(world)

    if world.timeline is not None:
        coverage = None
        if world.techniques and specific is not None:
            settled = [result for result in solved.values() if result.stable]
            coverage = (
                set().union(*(result.carried_links() for result in settled)),
                set().union(*(result.reached() for result in settled)),
            )
        findings += vacuity.check_timeline(world, coverage)

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
        tel.inc("verify.propagations", len(solved))
        tel.inc("verify.findings", len(kept))
        tel.inc("verify.errors", sum(1 for f in kept if f.severity.blocking))
        if suppressed:
            tel.inc("verify.suppressed", suppressed)
    emit_findings(kept, layer="verify")

    collector = FindingCollector()
    collector.extend(kept)
    return collector
