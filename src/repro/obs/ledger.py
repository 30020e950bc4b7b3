"""Availability accounting: per-target outage intervals from a trace.

The paper's headline metric is user-visible downtime per redirection
technique (Fig. 2): how many user-seconds were lost, and to what --
packets blackholed while withdrawals converge, caught in transient
forwarding loops, or delivered to the wrong (dead) site. The telemetry
layer records every probe's fate (:class:`ProbeSent` / :class:`ProbeReply`
/ :class:`ProbeLost`); :class:`AvailabilityLedger` rebuilds the prober's
per-target :class:`~repro.dataplane.ping.Probe` records from that
stream, folds them into classified outage intervals and aggregates
user-seconds-lost per technique and site. ``repro report`` renders the
result.

Rows: the ledger keeps two tallies per ⟨technique, site⟩ -- an
:class:`OutageTally` of probe downtime and a
:class:`~repro.workload.engine.WorkloadAccount` of requests, booked from
the run's own ``WorkloadSample`` events -- and a technique's row is its
sites' rows merged. Each kind of row is folded, merged, serialized and
printed in one place, and the JSON and the text table print the same
rows.

Determinism: the ledger is a pure fold over the event list. A parallel
(``--workers N``) run merges each cell's identical event subsequence in
cell order, bracketed by ``CellStart``/``CellEnd`` markers that change
no run's technique or site -- so ledger output is byte-identical between
serial and parallel runs of the same experiment.

Outage model (one simulated "user" per probed target):

* a probe is *failed* when it was reported lost, or when no reply was
  ever captured for its sequence number (reply still in flight at run
  end, or silently absorbed);
* consecutive failed probes to one target form one outage interval,
  from the first failed probe's send time to the send time of the next
  answered probe (the bound on when service returned); a trailing
  outage is closed one probe gap after the last failed send;
* the interval's class is the majority failure reason, folded through
  :data:`repro.dataplane.forwarding.CLASS_BY_REASON` (the table the
  workload engine's request classes come from too) into ``blackhole``,
  ``loop`` or ``wrong-site``; ties break in that order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, TypeVar

from repro.dataplane.forwarding import CLASS_BY_REASON
from repro.dataplane.ping import Probe
from repro.telemetry.trace import (
    ProbeLost,
    ProbeReply,
    ProbeSent,
    TraceEvent,
    WorkloadSample,
    split_runs,
)
from repro.workload.engine import WorkloadAccount, merge_accounts

#: schema tag carried by the JSON rendering (``repro report --json``)
LEDGER_SCHEMA = "repro.availability-ledger/2"

#: outage classes, in tie-break priority order
OUTAGE_CLASSES = ("blackhole", "loop", "wrong-site")

Row = TypeVar("Row")

#: technique -> ⟨its sites' rows merged, site -> row⟩
Rollup = dict[str, tuple[Row, dict[str, Row]]]


@dataclass(frozen=True, slots=True)
class Outage:
    """One contiguous window during which a target got no service."""

    technique: str
    site: str
    target: str
    start: float
    end: float
    probes_missed: int
    outage_class: str  # one of OUTAGE_CLASSES

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


@dataclass(slots=True)
class OutageTally:
    """Probe-level downtime of one ⟨technique, site⟩, or of several merged."""

    user_seconds_lost: float = 0.0
    by_class: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(OUTAGE_CLASSES, 0.0)
    )
    outages: int = 0
    #: targets with at least one outage (a merge counts a target once)
    targets: set[str] = field(default_factory=set)

    def book(self, outage: Outage) -> None:
        self.user_seconds_lost += outage.duration
        self.by_class[outage.outage_class] += outage.duration
        self.outages += 1
        self.targets.add(outage.target)

    @classmethod
    def merged(cls, tallies: Iterable[OutageTally]) -> OutageTally:
        out = cls()
        for tally in tallies:
            out.user_seconds_lost += tally.user_seconds_lost
            for name, seconds in tally.by_class.items():
                out.by_class[name] += seconds
            out.outages += tally.outages
            out.targets |= tally.targets
        return out

    def to_dict(self) -> dict:
        return {
            "user_seconds_lost": round(self.user_seconds_lost, 6),
            "by_class": {name: round(s, 6) for name, s in self.by_class.items()},
            "outages": self.outages,
            "targets_affected": len(self.targets),
        }


class AvailabilityLedger:
    """Classified outage intervals plus their aggregation.

    ``workload`` holds the per-⟨technique, site⟩ request accounts booked
    from :class:`WorkloadSample` events (empty for runs without a
    ``--workload`` profile); probe-level outages and request-level loss
    render side by side in ``repro report``.
    """

    def __init__(
        self,
        outages: list[Outage] | None = None,
        workload: dict[tuple[str, str], WorkloadAccount] | None = None,
    ) -> None:
        self.outages: list[Outage] = outages or []
        self.workload: dict[tuple[str, str], WorkloadAccount] = workload or {}
        #: (technique, site, target) -> the prober's records for that
        #: target, in send order, as :meth:`from_events` rebuilt them
        self.probes: dict[tuple[str, str, str], list[Probe]] = {}

    # ------------------------------------------------------------------
    # Construction

    @classmethod
    def from_events(cls, events: list[TraceEvent]) -> "AvailabilityLedger":
        """Fold a trace into a ledger.

        Run context (technique, site) comes from ``PhaseStart`` tags,
        through :func:`repro.telemetry.trace.split_runs`: experiment,
        drill, and scenario runs all tag their phases, and probe
        sequence numbers restart per run, so probes are matched within
        their run only.
        """
        logs: dict[tuple[str, str, str], list[Probe]] = {}
        #: the same records, by (technique, site, target, seq)
        sent: dict[tuple[str, str, str, int], Probe] = {}
        workload: dict[tuple[str, str], WorkloadAccount] = {}
        for run, event in split_runs(events):
            technique, site = run.technique, run.site
            if isinstance(event, WorkloadSample):
                account = workload.get((technique, site))
                if account is None:
                    account = workload[technique, site] = WorkloadAccount(technique, site)
                account.book(event)
            elif isinstance(event, ProbeSent):
                probe = Probe(event.seq, event.t)
                logs.setdefault((technique, site, event.target), []).append(probe)
                sent[(technique, site, event.target, event.seq)] = probe
            elif isinstance(event, ProbeReply):
                probe = sent.get((technique, site, event.target, event.seq))
                if probe is not None:
                    probe.site, probe.reply_at = event.site, event.t
            elif isinstance(event, ProbeLost):
                probe = sent.get((technique, site, event.target, event.seq))
                if probe is not None:
                    probe.reason = event.reason
        outages: list[Outage] = []
        for (run_technique, run_site, target), probes in logs.items():
            outages.extend(_intervals(run_technique, run_site, target, probes))
        ledger = cls(outages, workload)
        ledger.probes = logs
        return ledger

    # ------------------------------------------------------------------
    # Aggregation

    def user_seconds_lost(self) -> float:
        return sum(outage.duration for outage in self.outages)

    def downtime(self) -> dict[tuple[str, str], OutageTally]:
        """Probe downtime per ⟨technique, site⟩."""
        rows: dict[tuple[str, str], OutageTally] = {}
        for outage in self.outages:
            rows.setdefault((outage.technique, outage.site), OutageTally()).book(outage)
        return rows

    def by_technique(self) -> Rollup[OutageTally]:
        """Per-technique downtime (the Fig. 2 comparison view)."""
        return _rollup(self.downtime(), OutageTally.merged)

    def workload_by_technique(self) -> Rollup[WorkloadAccount]:
        """Per-technique workload accounts (requests, not probes)."""
        return _rollup(self.workload, merge_accounts)

    def to_dict(self) -> dict:
        """Plain-data rendering with a schema tag and stable rounding."""
        out = {
            "schema": LEDGER_SCHEMA,
            "techniques": _nested(self.by_technique(), OutageTally.to_dict),
            "total_user_seconds_lost": round(self.user_seconds_lost(), 6),
            "total_outages": len(self.outages),
        }
        if self.workload:
            out["workload"] = _nested(self.workload_by_technique(), WorkloadAccount.to_dict)
        return out

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, compact separators, newline-
        terminated -- byte-identical for identical outage sets."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def _rollup(
    rows: dict[tuple[str, str], Row], merge: Callable[[Iterable[Row]], Row]
) -> Rollup[Row]:
    """Group ⟨technique, site⟩ rows by technique, with their merge."""
    by_site: dict[str, dict[str, Row]] = {}
    for (technique, site), row in rows.items():
        by_site.setdefault(technique, {})[site] = row
    return {name: (merge(sites.values()), sites) for name, sites in by_site.items()}


def _nested(rollup: Rollup[Row], to_dict: Callable[[Row], dict]) -> dict:
    return {
        name: {**to_dict(total), "sites": {site: to_dict(row) for site, row in sites.items()}}
        for name, (total, sites) in rollup.items()
    }


def _intervals(technique: str, site: str, target: str, probes: list[Probe]) -> list[Outage]:
    """Classified outage intervals for one target's probe records."""
    if not probes:
        return []
    gaps = sorted(b.sent_at - a.sent_at for a, b in zip(probes, probes[1:]))
    median_gap = gaps[len(gaps) // 2] if gaps else 0.0
    outages: list[Outage] = []
    run_start: float | None = None
    run_reasons: list[str] = []

    def close(end: float) -> None:
        nonlocal run_start, run_reasons
        if run_start is None:
            return
        tally: dict[str, int] = {}
        for reason in run_reasons:
            cls = CLASS_BY_REASON.get(reason, "blackhole")
            tally[cls] = tally.get(cls, 0) + 1
        winner = min(tally, key=lambda cls: (-tally[cls], OUTAGE_CLASSES.index(cls)))
        outages.append(
            Outage(
                technique=technique,
                site=site,
                target=target,
                start=run_start,
                end=end,
                probes_missed=len(run_reasons),
                outage_class=winner,
            )
        )
        run_start, run_reasons = None, []

    for probe in probes:
        if probe.site is not None:
            close(end=probe.sent_at)
        else:
            if run_start is None:
                run_start = probe.sent_at
            run_reasons.append(probe.reason or "unanswered")
    if run_start is not None:
        close(end=probes[-1].sent_at + median_gap)
    return outages


# ----------------------------------------------------------------------
# Rendering

#: ⟨heading, width, format, value⟩ per column of the probe table
OUTAGE_COLUMNS: tuple[tuple[str, int, str, Callable[[OutageTally], float]], ...] = (
    ("user-s lost", 12, ".1f", lambda row: row.user_seconds_lost),
    ("blackhole", 10, ".1f", lambda row: row.by_class["blackhole"]),
    ("loop", 8, ".1f", lambda row: row.by_class["loop"]),
    ("wrong-site", 11, ".1f", lambda row: row.by_class["wrong-site"]),
    ("outages", 8, "d", lambda row: row.outages),
    ("targets", 8, "d", lambda row: len(row.targets)),
)

#: the same for the request table
WORKLOAD_COLUMNS: tuple[tuple[str, int, str, Callable[[WorkloadAccount], float]], ...] = (
    ("offered", 10, "d", lambda row: row.offered),
    ("served", 10, "d", lambda row: row.served),
    ("blackhole", 10, "d", lambda row: row.lost_blackhole),
    ("loop", 8, "d", lambda row: row.lost_loop),
    ("wrong-site", 11, "d", lambda row: row.lost_wrong_site),
    ("overload", 9, "d", lambda row: row.lost_overload),
    ("user-min lost", 14, ".1f", lambda row: row.user_minutes_lost),
)


def _table(columns, rollup: Rollup[Row]) -> list[str]:
    """A header, then each technique's row over its sites' rows."""

    def line(label: str, row: Row) -> str:
        cells = " ".join(f"{value(row):{width}{fmt}}" for _, width, fmt, value in columns)
        return f"{label:26s} {cells}"

    header = " ".join(f"{heading:>{width}s}" for heading, width, _, _ in columns)
    lines = [f"{'technique / site':26s} {header}"]
    for name in sorted(rollup):
        total, sites = rollup[name]
        lines.append(line(name, total))
        lines.extend(line(f"  {site}", sites[site]) for site in sorted(sites))
    return lines


def render_report(ledger: AvailabilityLedger) -> str:
    """Format a ledger as the ``repro report`` text output."""
    lines = [
        f"availability ledger: {len(ledger.outages)} outage(s), "
        f"{ledger.user_seconds_lost():.1f} user-seconds lost"
    ]
    downtime = ledger.by_technique()
    if downtime:
        lines += ["", *_table(OUTAGE_COLUMNS, downtime)]
    else:
        lines.append("(no probe activity in the trace)")
    if ledger.workload:
        lines += ["", "workload (requests):"]
        lines += _table(WORKLOAD_COLUMNS, ledger.workload_by_technique())
    return "\n".join(lines)
