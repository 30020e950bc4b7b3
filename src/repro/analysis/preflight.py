"""Semantic pre-flight validation (the ``PRE`` series).

Static checks on the *objects* of a run — :class:`Topology`,
:class:`CdnDeployment`, scenario timelines, announcement plans, BGP
timing/damping parameters — executed before any simulated event fires.
A misconfigured run otherwise fails mid-simulation (or worse, completes
and quietly corrupts the failover CDFs the paper's comparisons rest on).

Each check returns :class:`~repro.analysis.findings.Finding` objects
with stable ``PREnnn`` codes, the same model the determinism linter
uses, so the CLI and CI report both layers uniformly. ERROR findings
make the experiment commands refuse to run (``--no-check``
overrides); WARNING findings are advisory.

This is stage 1 of the pre-run gate (:func:`repro.cli.common.gate`).
Facts stage 2 (:mod:`repro.verify`) proves -- provider cycles,
superprefix geometry, capacity vacuity -- have no PRE code.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.analysis.findings import Finding, FindingCollector, Severity, emit_findings
from repro.bgp.damping import DampingConfig
from repro.bgp.session import TIMING_FIELDS, SessionTiming
from repro.core.plan import Technique
from repro.faults.plan import Action
from repro.fields import Field, violations
from repro.net.addr import IPv4Address, IPv4Prefix
from repro.topology.generator import Topology
from repro.topology.relationships import AsClass
from repro.topology.testbed import PROBE_SOURCE, SPECIFIC_PREFIX, CdnDeployment
from repro.workload.capacity import CAPACITY_FIELDS, CapacityProfile
from repro.workload.profile import PROFILE_FIELDS, RATE_KINDS, SHAPE_FIELDS, WorkloadProfile

#: expected request volumes past this trigger a PRE145 advisory (the
#: stream is O(1) memory regardless, but the run time is linear in it)
WORKLOAD_VOLUME_CEILING = 20_000_000

#: MRAI values beyond this are treated as a misconfiguration smell (the
#: RFC 4271 default is 30 s; ``DEFAULT_INTERNET_TIMING`` uses 50 s).
MRAI_SANITY_CEILING_S = 60.0

#: the rows of a run's shape: ``--duration`` (``drill --deadline``, a
#: world document's ``duration``), ``--detection-delay`` and
#: ``scenario --grace``
DURATION = Field("duration", lo=0, lo_open=True, code="PRE135")
RUN_SHAPE = (
    DURATION,
    Field("detection_delay", lo=0, code="PRE136"),
    Field("recovery_grace", lo=0, code="PRE137"),
)


def _error(code: str, message: str, source: str) -> Finding:
    return Finding(code=code, message=message, severity=Severity.ERROR, source=source)


def _warning(code: str, message: str, source: str) -> Finding:
    return Finding(code=code, message=message, severity=Severity.WARNING, source=source)


def audit(rows: tuple[Field, ...], record: Any, source: str) -> list[Finding]:
    """One error, under its row's code, per number of ``record`` that
    :func:`repro.fields.violations` refuses."""
    return [_error(row.code, message, source) for row, message in violations(rows, record)]


# ----------------------------------------------------------------------
# Scenario timelines


def check_events(
    timeline: Iterable[Action], capacity: CapacityProfile | None = None
) -> list[Finding]:
    """Audit the order of a run's timeline (scripted events and fault
    plan edges alike).

    Replays the time-sorted actions, the order the scheduler fires them
    in, through a per-site state machine. Brownouts are orthogonal to
    up/drained/failed (a failed site's capacity is moot), so they get
    their own overlay set; they scale ``capacity``, the run's profile,
    so without one they are no-ops (PRE107). Whether each target exists
    and fires before the run ends is the verifier's VER231 / VER233.
    """
    findings: list[Finding] = []
    state: dict[str, str] = {}
    browned: set[str] = set()
    for entry in sorted(timeline, key=lambda entry: entry.at):
        at, kind, site, source = entry.at, entry.action, entry.target, entry.origin
        current = state.get(site, "up")
        if kind in ("fail", "fail-silent"):
            if current == "failed":
                findings.append(_warning(
                    "PRE106", f"site {site!r} fails at {at:g}s but is already failed",
                    source,
                ))
            state[site] = "failed"
        elif kind == "recover":
            if current != "failed":
                findings.append(_error(
                    "PRE105",
                    f"recover of site {site!r} at {at:g}s, but no earlier failure "
                    "precedes it (timeline goes backwards)",
                    source,
                ))
            state[site] = "up"
        elif kind == "drain":
            if current == "failed":
                findings.append(_warning(
                    "PRE106", f"draining site {site!r} at {at:g}s while it is failed",
                    source,
                ))
            elif current == "drained":
                findings.append(_warning(
                    "PRE106", f"site {site!r} drained at {at:g}s but already drained",
                    source,
                ))
            else:
                state[site] = "drained"
        elif kind == "undrain":
            if current != "drained":
                findings.append(_error(
                    "PRE105",
                    f"undrain of site {site!r} at {at:g}s, but no earlier drain "
                    "precedes it (timeline goes backwards)",
                    source,
                ))
            state[site] = "up"
        elif kind == "brownout-start":
            if capacity is None:
                findings.append(_warning(
                    "PRE107",
                    "brownout event in a run with no capacity profile has no "
                    "effect",
                    source,
                ))
            if current == "failed":
                findings.append(_warning(
                    "PRE106",
                    f"brownout of site {site!r} at {at:g}s while it is failed; "
                    "a failed site serves nothing, so the capacity cut is moot",
                    source,
                ))
            elif site in browned:
                findings.append(_warning(
                    "PRE106",
                    f"site {site!r} browned out at {at:g}s but already "
                    "browned out",
                    source,
                ))
            browned.add(site)
        elif kind == "brownout-end":
            if site not in browned:
                findings.append(_error(
                    "PRE105",
                    f"unbrownout of site {site!r} at {at:g}s, but no earlier "
                    "brownout precedes it (timeline goes backwards)",
                    source,
                ))
            browned.discard(site)
    return findings


# ----------------------------------------------------------------------
# Announcement plans


def check_prefix_plan(
    technique: Technique | None,
    prefix: IPv4Prefix = SPECIFIC_PREFIX,
    probe_source: IPv4Address = PROBE_SOURCE,
) -> list[Finding]:
    """The probe source must sit inside the announced specific prefix.

    Otherwise every reply is unroutable and the probing would report a
    100% outage. (Whether the superprefix covers the specific prefix is
    the verifier's VER222.)
    """
    if prefix.contains(probe_source):
        return []
    return [_error(
        "PRE112",
        f"probe source {probe_source} is outside the announced specific "
        f"prefix {prefix}; probe replies would be unroutable",
        f"announcement plan ({technique.name if technique else 'common'})",
    )]


# ----------------------------------------------------------------------
# Topology and deployment structure


def check_topology(topology: Topology) -> list[Finding]:
    """Flags ASes with no links at all (unreachable probe targets).

    Gao-Rexford consistency of the provider digraph is the verifier's
    VER201.
    """
    linked = {end for link in topology.links for end in (link.a, link.b)}
    return [
        _warning(
            "PRE121",
            f"AS {node!r} has no links and is unreachable from everywhere",
            "topology",
        )
        for node in sorted(set(topology.ases) - linked)
    ]


def check_deployment(deployment: CdnDeployment) -> list[Finding]:
    """The CDN grafting itself: every site attached, enough sites."""
    findings: list[Finding] = []
    topology = deployment.topology
    for name in deployment.site_names:
        node = deployment.site_node(name)
        if node not in topology.ases:
            findings.append(_error(
                "PRE122", f"site {name!r} has no router node in the topology",
                f"site {name!r}",
            ))
            continue
        neighbors = topology.neighbors(node)
        if not neighbors:
            findings.append(_error(
                "PRE122",
                f"site {name!r} has no provider or peer links; it can never "
                "announce a route",
                f"site {name!r}",
            ))
        info = topology.ases[node]
        if info.as_class is not AsClass.CDN:
            findings.append(_warning(
                "PRE122",
                f"site {name!r} node is classified {info.as_class.value!r}, "
                "not 'cdn'",
                f"site {name!r}",
            ))
    if len(deployment.sites) < 2:
        findings.append(_error(
            "PRE123",
            f"deployment has {len(deployment.sites)} site(s); failover "
            "experiments need at least two (one to fail, one to absorb)",
            "deployment",
        ))
    return findings


def check_targets(
    topology: Topology, target_nodes: Sequence[str] | None
) -> list[Finding]:
    """Probe targets must exist and originate a client prefix."""
    findings: list[Finding] = []
    if not target_nodes:
        return findings
    for node in target_nodes:
        info = topology.ases.get(node)
        if info is None:
            findings.append(_error(
                "PRE124", f"probe target {node!r} is not in the topology",
                "targets",
            ))
        elif info.prefix is None:
            findings.append(_error(
                "PRE124",
                f"probe target {node!r} has no client prefix; probes to it "
                "cannot be addressed",
                "targets",
            ))
    return findings


# ----------------------------------------------------------------------
# Protocol parameters


def check_timing(
    timing: SessionTiming | None,
    damping: DampingConfig | None = None,
) -> list[Finding]:
    """MRAI / latency / damping parameter sanity."""
    findings: list[Finding] = []
    if timing is not None:
        findings.extend(audit(TIMING_FIELDS, timing, "timing"))
        if timing.mrai == 0:
            findings.append(_warning(
                "PRE130",
                "MRAI is 0: update pacing is disabled, so withdrawal "
                "path-hunting will not show the paper's convergence tail",
                "timing",
            ))
        elif timing.mrai > MRAI_SANITY_CEILING_S:
            findings.append(_warning(
                "PRE132",
                f"MRAI {timing.mrai:g}s exceeds the sanity ceiling "
                f"({MRAI_SANITY_CEILING_S:g}s; RFC 4271 suggests 30s)",
                "timing",
            ))
    if damping is not None:
        if damping.suppress_threshold <= damping.penalty_per_flap:
            findings.append(_warning(
                "PRE133",
                "damping suppresses on the first flap "
                f"(penalty_per_flap={damping.penalty_per_flap:g} >= "
                f"suppress_threshold={damping.suppress_threshold:g}); every "
                "withdrawal will look like a damping outage",
                "damping",
            ))
        if damping.max_penalty < damping.suppress_threshold:
            findings.append(_warning(
                "PRE134",
                f"max_penalty {damping.max_penalty:g} is below the suppress "
                f"threshold {damping.suppress_threshold:g}; no route can ever "
                "be suppressed",
                "damping",
            ))
    return findings


def check_run_shape(
    duration: float | None = None, detection_delay: float | None = None,
    recovery_grace: float | None = None,
) -> list[Finding]:
    """Scalar run parameters that must be sane before scheduling."""
    shape = {"duration": duration, "detection_delay": detection_delay,
             "recovery_grace": recovery_grace}
    return audit(RUN_SHAPE, shape, "run")


# ----------------------------------------------------------------------
# Workload profiles


def check_workload(
    profile: WorkloadProfile | None, duration: float | None = None
) -> list[Finding]:
    """Validate a ``--workload`` profile before streaming from it.

    The profile loader only type-checks; value ranges are validated here
    so a hand-written JSON profile with a negative rate or a degenerate
    Zipf exponent is refused with a stable code instead of raising (or
    silently generating nothing) mid-run.
    """
    if profile is None:
        return []
    source = f"workload profile {profile.name!r}"
    findings = audit(PROFILE_FIELDS, profile, source)
    for index, shape in enumerate(profile.shapes):
        shape_source = f"{source} shape #{index + 1} ({shape.kind})"
        if shape.kind in SHAPE_FIELDS:
            findings.extend(audit(SHAPE_FIELDS[shape.kind], shape, shape_source))
        else:
            findings.append(_error(
                "PRE143",
                f"unknown rate shape kind {shape.kind!r}; "
                f"have {', '.join(RATE_KINDS)}",
                shape_source,
            ))
    # Volume advisory only when the profile and the window are otherwise
    # valid: rate() on a malformed profile, or a trapezoid over an
    # infinite window, could raise or be meaningless.
    if not findings and duration is not None and not check_run_shape(duration):
        expected = profile.expected_requests(duration)
        if expected > WORKLOAD_VOLUME_CEILING:
            findings.append(_warning(
                "PRE145",
                f"profile expects ~{expected:,.0f} requests over "
                f"{duration:g}s (ceiling {WORKLOAD_VOLUME_CEILING:,}); "
                "the stream is O(1) memory but run time is linear in this",
                source,
            ))
    return findings


# ----------------------------------------------------------------------
# Capacity profiles


def check_capacity(
    capacity: CapacityProfile | None,
    deployment: CdnDeployment | None = None,
    workload: WorkloadProfile | None = None,
) -> list[Finding]:
    """Validate a ``--capacity`` profile before any load is offered.

    Like workload profiles, the capacity loader only type-checks; value
    sanity lives here: non-positive rates (PRE150) and a total capacity
    the workload's *baseline* rate already exceeds, which makes every
    technique -- shedding included -- lose requests by construction
    (PRE153). Limits for undeployed sites and a profile with no workload
    to measure against are the verifier's VER242 / VER243.
    """
    if capacity is None:
        return []
    source = f"capacity profile {capacity.name!r}"
    findings = audit(CAPACITY_FIELDS, capacity, source)
    if workload is not None and deployment is not None and not findings:
        limits = [capacity.capacity_for(s) for s in deployment.site_names]
        if all(limit is not None for limit in limits):
            total = sum(limit for limit in limits if limit is not None)
            if total < workload.base_rps:
                findings.append(_warning(
                    "PRE153",
                    f"total deployed capacity {total:g} rps is below the "
                    f"workload's baseline rate {workload.base_rps:g} rps; "
                    "requests are lost to overload no matter how load is "
                    "shed or shifted",
                    source,
                ))
    return findings


# ----------------------------------------------------------------------
# Aggregate entry point


def preflight_run(
    deployment: CdnDeployment,
    technique: Technique | None = None,
    *,
    prefix: IPv4Prefix = SPECIFIC_PREFIX,
    probe_source: IPv4Address = PROBE_SOURCE,
    events: Iterable[Action | tuple[str, str, float]] | None = None,
    duration: float | None = None,
    detection_delay: float | None = None,
    recovery_grace: float | None = None,
    timing: SessionTiming | None = None,
    damping: DampingConfig | None = None,
    target_nodes: Sequence[str] | None = None,
    workload: WorkloadProfile | None = None,
    capacity: CapacityProfile | None = None,
) -> FindingCollector:
    """Run every applicable pre-flight check for one experiment.

    ``events`` is the run's timeline; a ``(kind, site, at)`` triple
    stands for the action it spells. Findings are also emitted through
    the telemetry counters (``analysis.preflight.*``) when a backend is
    installed.
    """
    collector = FindingCollector()
    collector.extend(check_topology(deployment.topology))
    collector.extend(check_deployment(deployment))
    collector.extend(check_prefix_plan(technique, prefix, probe_source))
    if events is not None:
        timeline = [
            e if isinstance(e, Action) else Action(e[2], e[0], e[1]) for e in events
        ]
        collector.extend(check_events(timeline, capacity))
    collector.extend(check_timing(timing, damping))
    collector.extend(check_run_shape(duration, detection_delay, recovery_grace))
    collector.extend(check_targets(deployment.topology, target_nodes))
    collector.extend(check_workload(workload, duration))
    collector.extend(check_capacity(capacity, deployment, workload))
    emit_findings(collector.findings, layer="preflight")
    return collector
