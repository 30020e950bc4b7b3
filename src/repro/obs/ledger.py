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
from dataclasses import dataclass

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

#: schema tag carried by the JSON rendering (``repro report --json``)
LEDGER_SCHEMA = "repro.availability-ledger/1"

#: outage classes, in tie-break priority order
OUTAGE_CLASSES = ("blackhole", "loop", "wrong-site")


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


def _workload_bucket() -> dict:
    return {
        "offered": 0, "served": 0, "blackhole": 0, "loop": 0,
        "wrong_site": 0, "overload": 0,
        "user_seconds_lost": 0.0, "samples": 0,
    }


class AvailabilityLedger:
    """Classified outage intervals plus their aggregation.

    ``workload`` holds per-⟨technique, site⟩ request-level accounting
    folded from :class:`WorkloadSample` events (empty for runs without a
    ``--workload`` profile); probe-level outages and request-level loss
    render side by side in ``repro report``.
    """

    def __init__(
        self,
        outages: list[Outage] | None = None,
        workload: dict[tuple[str, str], dict] | None = None,
    ) -> None:
        self.outages: list[Outage] = outages or []
        #: (technique, site) -> workload aggregate (see _workload_bucket)
        self.workload: dict[tuple[str, str], dict] = workload or {}
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
        workload: dict[tuple[str, str], dict] = {}
        for run, event in split_runs(events):
            technique, site = run.technique, run.site
            if isinstance(event, WorkloadSample):
                bucket = workload.setdefault((technique, site), _workload_bucket())
                bucket["offered"] += event.offered
                bucket["served"] += event.served
                bucket["blackhole"] += event.blackhole
                bucket["loop"] += event.loop
                bucket["wrong_site"] += event.wrong_site
                bucket["overload"] += event.overload
                bucket["user_seconds_lost"] += event.user_seconds_lost
                bucket["samples"] += 1
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

    def by_technique(self) -> dict[str, dict]:
        """Per-technique aggregation (the Fig. 2 comparison view)."""
        out: dict[str, dict] = {}
        for outage in self.outages:
            tech = out.setdefault(
                outage.technique,
                {
                    "user_seconds_lost": 0.0,
                    "by_class": {cls: 0.0 for cls in OUTAGE_CLASSES},
                    "outages": 0,
                    "targets_affected": set(),
                    "sites": {},
                },
            )
            site = tech["sites"].setdefault(
                outage.site,
                {
                    "user_seconds_lost": 0.0,
                    "by_class": {cls: 0.0 for cls in OUTAGE_CLASSES},
                    "outages": 0,
                    "targets_affected": set(),
                },
            )
            for bucket in (tech, site):
                bucket["user_seconds_lost"] += outage.duration
                bucket["by_class"][outage.outage_class] += outage.duration
                bucket["outages"] += 1
                bucket["targets_affected"].add(outage.target)
        return out

    def workload_by_technique(self) -> dict[str, dict]:
        """Per-technique workload aggregation (requests, not probes)."""
        out: dict[str, dict] = {}
        for (technique, site), bucket in self.workload.items():
            tech = out.setdefault(technique, {**_workload_bucket(), "sites": {}})
            per_site = tech["sites"].setdefault(site, _workload_bucket())
            for target in (tech, per_site):
                for key in (
                    "offered", "served", "blackhole", "loop", "wrong_site",
                    "overload", "user_seconds_lost", "samples",
                ):
                    target[key] += bucket[key]
        return out

    @staticmethod
    def _workload_dict(bucket: dict) -> dict:
        lost = (
            bucket["blackhole"] + bucket["loop"] + bucket["wrong_site"]
            + bucket["overload"]
        )
        return {
            "offered": bucket["offered"],
            "served": bucket["served"],
            "lost": {
                "blackhole": bucket["blackhole"],
                "loop": bucket["loop"],
                "wrong-site": bucket["wrong_site"],
                "overload": bucket["overload"],
            },
            "requests_lost": lost,
            "user_seconds_lost": round(bucket["user_seconds_lost"], 6),
            "user_minutes_lost": round(bucket["user_seconds_lost"] / 60.0, 6),
        }

    def to_dict(self) -> dict:
        """Plain-data rendering with a schema tag and stable rounding."""
        techniques = {}
        for name, tech in self.by_technique().items():
            techniques[name] = {
                "user_seconds_lost": round(tech["user_seconds_lost"], 6),
                "by_class": {
                    cls: round(v, 6) for cls, v in tech["by_class"].items()
                },
                "outages": tech["outages"],
                "targets_affected": len(tech["targets_affected"]),
                "sites": {
                    site: {
                        "user_seconds_lost": round(data["user_seconds_lost"], 6),
                        "by_class": {
                            cls: round(v, 6) for cls, v in data["by_class"].items()
                        },
                        "outages": data["outages"],
                        "targets_affected": len(data["targets_affected"]),
                    }
                    for site, data in tech["sites"].items()
                },
            }
        out = {
            "schema": LEDGER_SCHEMA,
            "techniques": techniques,
            "total_user_seconds_lost": round(self.user_seconds_lost(), 6),
            "total_outages": len(self.outages),
        }
        if self.workload:
            workload = {}
            for name, tech in self.workload_by_technique().items():
                entry = self._workload_dict(tech)
                entry["sites"] = {
                    site: self._workload_dict(bucket)
                    for site, bucket in tech["sites"].items()
                }
                workload[name] = entry
            out["workload"] = workload
        return out

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, compact separators, newline-
        terminated -- byte-identical for identical outage sets."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"


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


def render_report(ledger: AvailabilityLedger) -> str:
    """Format a ledger as the ``repro report`` text output."""
    techniques = ledger.by_technique()
    lines = [
        f"availability ledger: {len(ledger.outages)} outage(s), "
        f"{ledger.user_seconds_lost():.1f} user-seconds lost"
    ]
    if not techniques:
        lines.append("(no probe activity in the trace)")
        lines.extend(_render_workload(ledger))
        return "\n".join(lines)
    lines.append("")
    lines.append(
        f"{'technique / site':26s} {'user-s lost':>12s} {'blackhole':>10s} "
        f"{'loop':>8s} {'wrong-site':>11s} {'outages':>8s} {'targets':>8s}"
    )
    for name in sorted(techniques):
        tech = techniques[name]
        by_class = tech["by_class"]
        lines.append(
            f"{name:26s} {tech['user_seconds_lost']:12.1f} {by_class['blackhole']:10.1f} "
            f"{by_class['loop']:8.1f} {by_class['wrong-site']:11.1f} "
            f"{tech['outages']:8d} {len(tech['targets_affected']):8d}"
        )
        for site in sorted(tech["sites"]):
            data = tech["sites"][site]
            site_class = data["by_class"]
            lines.append(
                f"  {site:24s} {data['user_seconds_lost']:12.1f} "
                f"{site_class['blackhole']:10.1f} {site_class['loop']:8.1f} "
                f"{site_class['wrong-site']:11.1f} {data['outages']:8d} "
                f"{len(data['targets_affected']):8d}"
            )
    lines.extend(_render_workload(ledger))
    return "\n".join(lines)


def _render_workload(ledger: AvailabilityLedger) -> list[str]:
    """Request-level workload table (empty when no ``--workload`` ran)."""
    workload = ledger.workload_by_technique()
    if not workload:
        return []
    lines = [
        "",
        "workload (requests):",
        f"{'technique / site':26s} {'offered':>10s} {'served':>10s} "
        f"{'blackhole':>10s} {'loop':>8s} {'wrong-site':>11s} "
        f"{'overload':>9s} {'user-min lost':>14s}",
    ]
    for name in sorted(workload):
        tech = workload[name]
        lines.append(
            f"{name:26s} {tech['offered']:10d} {tech['served']:10d} "
            f"{tech['blackhole']:10d} {tech['loop']:8d} "
            f"{tech['wrong_site']:11d} {tech['overload']:9d} "
            f"{tech['user_seconds_lost'] / 60.0:14.1f}"
        )
        for site in sorted(tech["sites"]):
            data = tech["sites"][site]
            lines.append(
                f"  {site:24s} {data['offered']:10d} {data['served']:10d} "
                f"{data['blackhole']:10d} {data['loop']:8d} "
                f"{data['wrong_site']:11d} {data['overload']:9d} "
                f"{data['user_seconds_lost'] / 60.0:14.1f}"
            )
    return lines
