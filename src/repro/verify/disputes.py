"""Convergence analysis (VER21x): dispute wheels, prepending, damping.

The SPVP result this leans on (Griffin, Shepherd & Wilfong): if a
policy system has no dispute wheel, it has a unique stable state and
every fair activation schedule converges to it — in particular the
synchronous schedule :func:`repro.topology.propagation.spvp` runs.
Conversely, when the synchronous evaluation revisits a state without
stabilizing, that state cycle *is* a persistent oscillation, so a
dispute wheel exists. Propagation therefore doubles as a sound and
complete oscillation detector for the policies the world expresses
(relationship preferences plus per-AS overrides): ``propagate``
runs SPVP wherever the world sets overrides, and without them the
policy is strictly monotone, has one stable state and cannot
oscillate.

Prepending (VER212) and damping (VER213) are the two knobs the paper
identifies that do not break convergence but can starve it: a prepend
too short leaves length-decided clients unflipped, and damping can
suppress the very reconvergence a failover depends on.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from repro.analysis.findings import Finding
from repro.core.plan import Origination
from repro.topology.propagation import PropagationResult
from repro.verify import checks
from repro.verify.world import VerifyWorld


def check_dispute_wheel(
    world: VerifyWorld,
    technique_name: str,
    result: PropagationResult,
) -> Iterator[Finding]:
    if result.stable:
        return
    involved = list(result.oscillating)
    yield checks.DISPUTE_WHEEL.finding(
        f"{technique_name} plan for {result.prefix}: best-path evaluation "
        f"revisited a prior state after {result.rounds} rounds without "
        f"converging — the preference/export policies form a dispute "
        f"wheel through {checks.sample(involved)}; the event simulation would "
        "oscillate indefinitely",
        world.source,
    )


def check_prepend_insufficient(
    world: VerifyWorld,
    technique_name: str,
    plan: Iterable[Origination],
    result: PropagationResult,
) -> Iterator[Finding]:
    """VER212 (strict): clients a deeper prepend would steer but this one
    does not.

    Only path-length-decided clients count: where the winning (wrong
    site) route and the candidate toward the specific site carry equal
    LOCAL_PREF, a longer prepend grows the wrong route until the
    specific one wins. Clients lost on LOCAL_PREF are out of
    prepending's reach entirely (Appendix C.1) and are not flagged —
    that is the technique's documented trade, not a misconfiguration.
    """
    prepend = max((o.prepend for o in plan if o.prefix == result.prefix), default=0)
    if not prepend:
        return  # the plan steers nothing by path length
    specific = world.chosen_specific_site()
    if specific is None:
        return
    specific_node = world.deployment.site_node(specific)
    flippable: list[str] = []
    for info in world.topology.web_client_ases():
        node = info.node_id
        best = result.best.get(node)
        if best is None or best.origin_node == specific_node:
            continue
        for candidate in result.candidates.get(node, {}).values():
            if candidate.origin_node != specific_node:
                continue
            if candidate.local_pref != best.local_pref:
                continue
            # The wrong route won on length (or the final tie-break)
            # despite carrying the prepend: a deeper prepend flips it.
            if len(best.as_path) <= len(candidate.as_path):
                flippable.append(node)
                break
    if flippable:
        flippable.sort()
        yield checks.PREPEND_INEFFECTIVE.finding(
            f"{technique_name} plan for {result.prefix}: prepend depth "
            f"{prepend} leaves {len(flippable)} length-decided client(s) "
            f"routed away from {specific} ({checks.sample(flippable)}); a "
            "deeper prepend would steer them to the intended site",
            world.source,
        )


def max_suppression_seconds(config) -> float:
    """Worst-case continuous suppression under a damping config.

    A route suppressed at the penalty ceiling stays unusable until
    exponential decay crosses the reuse threshold:
    ``half_life * log2(max_penalty / reuse_threshold)``.
    """
    return config.half_life * math.log2(config.max_penalty / config.reuse_threshold)


def check_damping_starvation(world: VerifyWorld) -> Iterator[Finding]:
    config = world.damping
    if config is None:
        return
    flaps_to_suppress = math.ceil(config.suppress_threshold / config.penalty_per_flap)
    if flaps_to_suppress <= 1:
        yield checks.DAMPING_STARVATION.finding(
            f"damping suppresses after a single flap (penalty "
            f"{config.penalty_per_flap:g} >= threshold "
            f"{config.suppress_threshold:g}): any withdrawal-triggered "
            "path exploration immediately damps the backup route the "
            "failover depends on",
            world.source,
        )
    if world.duration is not None:
        worst = max_suppression_seconds(config)
        if worst >= world.duration:
            yield checks.DAMPING_STARVATION.finding(
                f"worst-case damping suppression is {worst:.0f}s "
                f"(half_life {config.half_life:g}s, ceiling "
                f"{config.max_penalty:g}, reuse {config.reuse_threshold:g}) "
                f">= the {world.duration:g}s experiment: a damped route "
                "can stay suppressed past the end of the run, so measured "
                "downtime would be an artifact of damping, not failover",
                world.source,
            )
