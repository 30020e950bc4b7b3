"""Turn a recorded trace into per-phase / per-router breakdowns.

This is the analysis half of ``repro trace summarize``: pure functions
from a list of :class:`~repro.telemetry.trace.TraceEvent` to plain-data
summaries, so tests and other tools can reuse them without going through
the CLI.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from dataclasses import dataclass, field

from repro.telemetry.trace import (
    BgpUpdateSent,
    DnsRecordChanged,
    FaultInjected,
    FaultSkipped,
    PhaseEnd,
    ProbeLost,
    ProbeReply,
    ProbeSent,
    RootCause,
    SiteFailed,
    SiteSwitched,
    TraceEvent,
    TraceMeta,
)


@dataclass(slots=True)
class PhaseSummary:
    """Aggregated timings for one phase name across its executions."""

    name: str
    runs: int = 0
    wall_s: float = 0.0
    sim_s: float = 0.0
    #: runs that rewound a held fork (tagged ``rewound``) instead of
    #: restoring one, and the routers those rewinds reloaded
    rewinds: int = 0
    rewound_routers: int = 0
    #: probe replies that landed as flights, and replies the prober's
    #: quiet pass wrote (a probing phase's ``flown`` / ``quiet`` tags)
    flown: int = 0
    quiet: int = 0

    @property
    def mean_wall_s(self) -> float:
        return self.wall_s / self.runs if self.runs else 0.0


def fork_split(runs: int, cells: int, routers: int) -> str:
    """The line under a fork phase's row: of its ``runs``, how many
    restored a fork and how many (``cells``) rewound a held one."""
    return f"    {runs - cells} restored, {cells} rewound ({routers} routers reloaded)"


def reply_split(flown: int, quiet: int) -> str:
    """The line under a probing phase's row: of the probe replies it
    wrote, how many landed as flights and how many the quiet pass wrote."""
    return f"    {flown} replies flown, {quiet} quiet"


@dataclass(slots=True)
class TraceSummary:
    """Everything ``repro trace summarize`` reports."""

    total_events: int = 0
    #: event kind -> count
    kinds: dict[str, int] = field(default_factory=dict)
    #: first/last simulated timestamp seen
    t_first: float = 0.0
    t_last: float = 0.0
    #: phase name -> aggregated timings (insertion = first-seen order)
    phases: dict[str, PhaseSummary] = field(default_factory=dict)
    #: sending router -> updates put on the wire
    updates_by_sender: dict[str, int] = field(default_factory=dict)
    #: "announce"/"withdraw" split
    updates_by_type: dict[str, int] = field(default_factory=dict)
    #: site failures in timeline order: (t, site, silent)
    site_failures: list[tuple[float, str, bool]] = field(default_factory=list)
    probes_sent: int = 0
    probe_replies: int = 0
    #: serving site -> replies captured there
    replies_by_site: dict[str, int] = field(default_factory=dict)
    site_switches: int = 0
    #: probes reported lost, and the loss-reason split
    probes_lost: int = 0
    losses_by_reason: dict[str, int] = field(default_factory=dict)
    #: provenance root causes recorded in the trace
    root_causes: int = 0
    #: chaos: faults fired / skipped by an armed plan
    faults_injected: int = 0
    faults_skipped: int = 0
    #: DNS record changes in timeline order: (t, action, site)
    dns_changes: list[tuple[float, str, str]] = field(default_factory=list)
    #: events the recorder's ring buffer evicted before the write
    dropped_events: int = 0


def filter_events(
    events: list[TraceEvent],
    prefix: str | None = None,
    site: str | None = None,
    kind: str | None = None,
) -> list[TraceEvent]:
    """The subset of ``events`` matching every given filter.

    ``prefix`` keeps events carrying that prefix; ``site`` keeps events
    naming the site (a catchment shift matches on either end); ``kind``
    keeps one event kind. Events lacking a filtered attribute are
    dropped -- filtering on a prefix keeps only prefix-carrying events.
    """
    out: list[TraceEvent] = []
    for event in events:
        if kind is not None and event.kind != kind:
            continue
        if prefix is not None and getattr(event, "prefix", None) != prefix:
            continue
        if site is not None:
            if isinstance(event, SiteSwitched):
                if site not in (event.from_site, event.to_site):
                    continue
            elif getattr(event, "site", None) != site:
                continue
        out.append(event)
    return out


def summarize_trace(events: list[TraceEvent]) -> TraceSummary:
    summary = TraceSummary()
    summary.total_events = len(events)
    kinds: TallyCounter[str] = TallyCounter()
    senders: TallyCounter[str] = TallyCounter()
    update_types: TallyCounter[str] = TallyCounter()
    reply_sites: TallyCounter[str] = TallyCounter()
    loss_reasons: TallyCounter[str] = TallyCounter()
    # TraceMeta is bookkeeping prepended at write time (t is not a
    # simulated timestamp), so it stays out of the time range.
    times = [event.t for event in events if not isinstance(event, TraceMeta)]
    if times:
        summary.t_first = min(times)
        summary.t_last = max(times)
    for event in events:
        kinds[event.kind] += 1
        if isinstance(event, PhaseEnd):
            phase = summary.phases.get(event.name)
            if phase is None:
                phase = summary.phases[event.name] = PhaseSummary(event.name)
            phase.runs += 1
            phase.wall_s += event.wall_s
            phase.sim_s += event.sim_s
            if "rewound" in event.tags:
                phase.rewinds += 1
                phase.rewound_routers += event.tags["rewound"]
            if "quiet" in event.tags:
                phase.flown += event.tags["flown"]
                phase.quiet += event.tags["quiet"]
        elif isinstance(event, BgpUpdateSent):
            senders[event.sender] += 1
            update_types[event.update] += 1
        elif isinstance(event, SiteFailed):
            summary.site_failures.append((event.t, event.site, event.silent))
        elif isinstance(event, ProbeSent):
            summary.probes_sent += 1
        elif isinstance(event, ProbeReply):
            summary.probe_replies += 1
            reply_sites[event.site] += 1
        elif isinstance(event, SiteSwitched):
            summary.site_switches += 1
        elif isinstance(event, ProbeLost):
            summary.probes_lost += 1
            loss_reasons[event.reason] += 1
        elif isinstance(event, RootCause):
            summary.root_causes += 1
        elif isinstance(event, FaultInjected):
            summary.faults_injected += 1
        elif isinstance(event, FaultSkipped):
            summary.faults_skipped += 1
        elif isinstance(event, DnsRecordChanged):
            summary.dns_changes.append((event.t, event.action, event.site))
        elif isinstance(event, TraceMeta):
            summary.dropped_events += event.dropped
    summary.kinds = dict(kinds)
    summary.updates_by_sender = dict(senders)
    summary.updates_by_type = dict(update_types)
    summary.replies_by_site = dict(reply_sites)
    summary.losses_by_reason = dict(loss_reasons)
    return summary


def render_summary(summary: TraceSummary, top: int = 10) -> str:
    """Format a summary as the ``repro trace summarize`` report."""
    lines: list[str] = []
    lines.append(
        f"{summary.total_events} events over simulated "
        f"[{summary.t_first:.1f}s, {summary.t_last:.1f}s]"
    )
    if summary.dropped_events:
        lines.append(
            f"  (ring buffer evicted {summary.dropped_events} earlier events "
            "before the write -- totals below undercount)"
        )

    lines.append("")
    lines.append("events by kind:")
    for kind, count in sorted(summary.kinds.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {kind:18s} {count}")

    if summary.phases:
        lines.append("")
        lines.append("phase timings (wall = host seconds, sim = simulated seconds):")
        lines.append(f"  {'phase':22s} {'runs':>5s} {'wall total':>11s} {'wall mean':>10s} {'sim total':>10s}")
        for phase in summary.phases.values():
            lines.append(
                f"  {phase.name:22s} {phase.runs:5d} {phase.wall_s:10.3f}s "
                f"{phase.mean_wall_s:9.3f}s {phase.sim_s:9.1f}s"
            )
            if phase.rewinds:
                lines.append(fork_split(phase.runs, phase.rewinds, phase.rewound_routers))
            if phase.flown or phase.quiet:
                lines.append(reply_split(phase.flown, phase.quiet))

    if summary.site_failures:
        lines.append("")
        lines.append("site failures:")
        for t, site, silent in summary.site_failures:
            lines.append(f"  t={t:8.1f}s {site}" + ("  (silent)" if silent else ""))

    if summary.root_causes or summary.faults_injected or summary.faults_skipped:
        lines.append("")
        parts = [f"{summary.root_causes} root cause(s)"]
        if summary.faults_injected or summary.faults_skipped:
            parts.append(
                f"{summary.faults_injected} fault(s) injected, "
                f"{summary.faults_skipped} skipped"
            )
        lines.append("provenance: " + "; ".join(parts))

    if summary.dns_changes:
        lines.append("")
        lines.append("DNS record changes:")
        for t, action, site in summary.dns_changes:
            lines.append(f"  t={t:8.1f}s {action} {site}")

    if summary.updates_by_type:
        lines.append("")
        split = ", ".join(
            f"{count} {kind}" for kind, count in sorted(summary.updates_by_type.items())
        )
        lines.append(f"BGP updates on the wire: {split}")
        lines.append(f"top senders (of {len(summary.updates_by_sender)} routers):")
        ranked = sorted(summary.updates_by_sender.items(), key=lambda kv: -kv[1])
        for node, count in ranked[:top]:
            lines.append(f"  {node:18s} {count}")
        if len(ranked) > top:
            lines.append(f"  ... {len(ranked) - top} more")

    if summary.probes_sent or summary.probe_replies or summary.probes_lost:
        lines.append("")
        rate = (
            summary.probe_replies / summary.probes_sent if summary.probes_sent else 0.0
        )
        lines.append(
            f"probes: {summary.probes_sent} sent, {summary.probe_replies} replies "
            f"({rate:.1%}), {summary.probes_lost} lost, "
            f"{summary.site_switches} site switches"
        )
        for site, count in sorted(summary.replies_by_site.items(), key=lambda kv: -kv[1]):
            lines.append(f"  replies at {site:12s} {count}")
        for reason, count in sorted(
            summary.losses_by_reason.items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  lost to {reason:14s} {count}")

    return "\n".join(lines)
