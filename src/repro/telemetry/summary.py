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
)


#: the summed fields of a phase's row
PHASE_FIELDS = ("runs", "wall_s", "sim_s")
#: the summed fields of each integer end tag in a phase's row: the tag's
#: sum, and how many of the phase's runs carried it
TAG_FIELDS = ("sum", "runs")


def fold_rows(table: dict, rows, fields: tuple, where: str, blank=None) -> None:
    """Sum ``rows`` -- ``{name: {field: number}}`` -- into ``table``
    (name -> one number per field, then what ``blank()`` adds); any
    other shape is a ``ValueError`` naming ``where``, so a profile read
    from a file is checked by the fold that merges a worker's."""
    if not isinstance(rows, dict):
        raise ValueError(f"{where} must be a table of named entries, got {type(rows).__name__}")
    for name, data in rows.items():
        if not isinstance(data, dict):
            raise ValueError(f"{where}[{name!r}] must be an entry of fields, got {data!r}")
        entry = table.setdefault(name, blank() if blank else [0] * len(fields))
        for i, field in enumerate(fields):
            value = data.get(field)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{where}[{name!r}].{field} must be a number, got {value!r}")
            entry[i] += value


def _fork_note(runs: int, tags: dict) -> str:
    routers, cells = tags["rewound"]
    return f"{runs - cells} restored, {cells} rewound ({routers} routers reloaded)"


def _reply_note(runs: int, tags: dict) -> str:
    return f"{tags['flown'][0]} replies flown, {tags['quiet'][0]} quiet"


def _solve_note(runs: int, tags: dict) -> str:
    solves, selections = tags["solves"]
    return f"{solves} one-origin solves in {selections} up-front selection(s)"


#: end tags -> the note line under the row of a phase whose runs carried
#: all of them: a fork phase's restores vs rewinds of a held fork
#: (``rewound``, the routers reloaded), a probing phase's replies that
#: landed as flights vs the ones the quiet pass wrote (``flown``,
#: ``quiet``) and a sweep's up-front target selection (``solves``, the
#: one-origin solves it ran)
PHASE_NOTES = {
    ("rewound",): _fork_note,
    ("flown", "quiet"): _reply_note,
    ("solves",): _solve_note,
}


class PhaseTable(dict):
    """The one fold of phase records, in first-seen order: phase name ->
    ``[runs, wall_s, sim_s, {integer end tag: [sum, runs that carried
    it]}]``. ``EventProfiler.phases`` is one, :func:`summarize_trace`
    builds one from a trace, and :meth:`lines` prints it for ``repro
    profile`` and ``repro trace summarize`` alike."""

    __slots__ = ()

    def add(self, end: PhaseEnd) -> None:
        """Fold one closed phase in, as a state of one run."""
        tags = {tag: {"sum": n, "runs": 1} for tag, n in end.tags.items() if type(n) is int}
        self.merge_state(
            {end.name: {"runs": 1, "wall_s": end.wall_s, "sim_s": end.sim_s, "tags": tags}}
        )

    def state(self) -> dict:
        """Plain data, sorted: ``{name: {runs, wall_s, sim_s[, tags:
        {tag: {sum, runs}}]}}``."""
        state = {}
        for name, (*sums, tags) in sorted(self.items()):
            entry = state[name] = dict(zip(PHASE_FIELDS, sums))
            if tags:
                entry["tags"] = {tag: dict(zip(TAG_FIELDS, c)) for tag, c in sorted(tags.items())}
        return state

    def merge_state(self, state) -> None:
        """Fold a :meth:`state` in, every field summed."""
        fold_rows(self, state, PHASE_FIELDS, "phases", lambda: [0, 0.0, 0.0, {}])
        for name, data in state.items():
            fold_rows(self[name][3], data.get("tags", {}), TAG_FIELDS, f"phases[{name!r}].tags")

    def lines(self) -> list[str]:
        """The table, each row followed by its note lines, after a blank
        line; nothing for an empty table."""
        if not self:
            return []
        lines = [
            "",
            "phase timings of all phases (wall = host seconds, sim = simulated seconds):",
            f"  {'phase':22s} {'runs':>5s} {'wall total':>11s} {'wall mean':>10s} "
            f"{'sim total':>10s} {'sim/wall':>9s}",
        ]
        for name, (runs, wall_s, sim_s, tags) in self.items():
            mean = wall_s / runs if runs else 0.0
            speedup = sim_s / wall_s if wall_s else 0.0
            lines.append(
                f"  {name:22s} {runs:>5} {wall_s:10.3f}s {mean:9.3f}s "
                f"{sim_s:9.1f}s {speedup:8.1f}x"
            )
            for needed, note in PHASE_NOTES.items():
                if all(tag in tags for tag in needed):
                    lines.append(f"    {note(runs, tags)}")
        return lines


@dataclass(slots=True)
class TraceSummary:
    """Everything ``repro trace summarize`` reports."""

    total_events: int = 0
    #: event kind -> count
    kinds: dict[str, int] = field(default_factory=TallyCounter)
    #: first/last simulated timestamp seen
    t_first: float = 0.0
    t_last: float = 0.0
    #: phase name -> aggregated timings and end tags
    phases: PhaseTable = field(default_factory=PhaseTable)
    #: sending router -> updates put on the wire
    updates_by_sender: dict[str, int] = field(default_factory=TallyCounter)
    #: "announce"/"withdraw" split
    updates_by_type: dict[str, int] = field(default_factory=TallyCounter)
    #: site failures in timeline order: (t, site, silent)
    site_failures: list[tuple[float, str, bool]] = field(default_factory=list)
    probes_sent: int = 0
    probe_replies: int = 0
    #: serving site -> replies captured there
    replies_by_site: dict[str, int] = field(default_factory=TallyCounter)
    site_switches: int = 0
    #: probes reported lost, and the loss-reason split
    probes_lost: int = 0
    losses_by_reason: dict[str, int] = field(default_factory=TallyCounter)
    #: provenance root causes recorded in the trace
    root_causes: int = 0
    #: chaos: faults fired / skipped by an armed plan
    faults_injected: int = 0
    faults_skipped: int = 0


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
    if events:
        summary.t_first = min(event.t for event in events)
        summary.t_last = max(event.t for event in events)
    for event in events:
        summary.kinds[event.kind] += 1
        if isinstance(event, PhaseEnd):
            summary.phases.add(event)
        elif isinstance(event, BgpUpdateSent):
            summary.updates_by_sender[event.sender] += 1
            summary.updates_by_type[event.update] += 1
        elif isinstance(event, SiteFailed):
            summary.site_failures.append((event.t, event.site, event.silent))
        elif isinstance(event, ProbeReply):
            summary.replies_by_site[event.site] += 1
        elif isinstance(event, ProbeLost):
            summary.losses_by_reason[event.reason] += 1
    # The per-kind totals are read off the kind tally, not counted twice.
    kinds = summary.kinds
    summary.probes_sent = kinds[ProbeSent.kind]
    summary.probe_replies = kinds[ProbeReply.kind]
    summary.site_switches = kinds[SiteSwitched.kind]
    summary.probes_lost = kinds[ProbeLost.kind]
    summary.root_causes = kinds[RootCause.kind]
    summary.faults_injected = kinds[FaultInjected.kind]
    summary.faults_skipped = kinds[FaultSkipped.kind]
    return summary


def render_summary(summary: TraceSummary, top: int = 10) -> str:
    """Format a summary as the ``repro trace summarize`` report."""
    lines: list[str] = []
    lines.append(
        f"{summary.total_events} events over simulated "
        f"[{summary.t_first:.1f}s, {summary.t_last:.1f}s]"
    )

    lines.append("")
    lines.append("events by kind:")
    for kind, count in sorted(summary.kinds.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {kind:18s} {count}")

    lines += summary.phases.lines()

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
