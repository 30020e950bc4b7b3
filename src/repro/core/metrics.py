"""Reconnection and failover metrics (§5.4.1).

Definitions, verbatim from the paper:

* **reconnection time** -- "the delay from our prefix withdrawal until we
  first receive a ping response from the target at any site";
* **failover time** -- "the delay from our prefix withdrawal until the
  first ping response after which the target does not switch sites or
  experience disconnection again".

Both are computed per ⟨failed site, target⟩ from the target's probe
records (:class:`~repro.dataplane.ping.Probe`: sent at, reply arrived
at, receiving site), which the prober completes as replies land.
Targets that never restabilize within the probing window are *censored*:
their metric is None and CDF code treats them as beyond-window mass.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataplane.ping import ProbeLog
from repro.net.addr import IPv4Address


@dataclass(frozen=True, slots=True)
class TargetOutcome:
    """Failure-response summary for one target in one site-failure run."""

    target: IPv4Address
    failed_site: str
    #: seconds from withdrawal to first reply anywhere; None if never
    reconnection_s: float | None
    #: seconds from withdrawal to the start of the stable suffix; None if
    #: the target never stabilized within the probing window (censored)
    failover_s: float | None
    #: site switches observed between reconnection and stabilization
    bounces: int
    #: missing replies observed after the first reconnection
    disconnections: int
    #: site serving the target at the end of the window, if any
    final_site: str | None

    @property
    def stabilized(self) -> bool:
        return self.failover_s is not None


def target_outcome(
    log: ProbeLog, failed_site: str, withdrawal_time: float
) -> TargetOutcome:
    """Compute the §5.4.1 metrics for one target.

    Only probes sent at or after the withdrawal count; a probe was
    answered iff its record names the site its reply reached.
    """
    probes = [p for p in log.probes if p.sent_at >= withdrawal_time]

    reconnection_s: float | None = None
    for probe in probes:
        if probe.site is not None:
            reconnection_s = probe.reply_at - withdrawal_time  # type: ignore[operator]
            break

    # Stable suffix: the earliest k from which every probe was answered,
    # all by the same site.
    failover_s: float | None = None
    final_site: str | None = None
    if probes and probes[-1].site is not None:
        final_site = probes[-1].site
        k = len(probes) - 1
        while k > 0 and probes[k - 1].site == final_site:
            k -= 1
        failover_s = probes[k].reply_at - withdrawal_time  # type: ignore[operator]

    # Bounce/disconnection accounting after first reconnection.
    bounces = 0
    disconnections = 0
    last_site: str | None = None
    for probe in probes:
        if probe.site is None:
            if last_site is not None:
                disconnections += 1
            continue
        if last_site is not None and probe.site != last_site:
            bounces += 1
        last_site = probe.site

    return TargetOutcome(
        target=log.target,
        failed_site=failed_site,
        reconnection_s=reconnection_s,
        failover_s=failover_s,
        bounces=bounces,
        disconnections=disconnections,
        final_site=final_site,
    )


def outcomes_for_run(
    logs: dict[IPv4Address, ProbeLog], failed_site: str, withdrawal_time: float
) -> list[TargetOutcome]:
    """Per-target outcomes for one site-failure run."""
    return [
        target_outcome(log, failed_site, withdrawal_time) for log in logs.values()
    ]


@dataclass(frozen=True, slots=True)
class BounceStatistics:
    """§5.4.1's reconnection-to-failover gap, quantified.

    The paper: "clients may bounce between sites for a short period of
    time after they reconnect for the first time, with most targets
    bouncing once or twice. We also find that, during this interval,
    most targets do not experience periods of unreachability."
    """

    n: int
    #: fraction of (reconnected) targets that bounced at most twice
    at_most_two_bounces: float
    #: fraction that saw no post-reconnection disconnection at all
    no_disconnection: float
    #: mean seconds between reconnection and failover, observed pairs only
    mean_gap_s: float

    def summary(self) -> str:
        return (
            f"n={self.n}, <=2 bounces: {self.at_most_two_bounces:.0%}, "
            f"no disconnection: {self.no_disconnection:.0%}, "
            f"recon->failover gap: {self.mean_gap_s:.1f}s mean"
        )


def bounce_statistics(outcomes: list[TargetOutcome]) -> BounceStatistics:
    """Aggregate the §5.4.1 bounce/disconnection claims over a run."""
    reconnected = [o for o in outcomes if o.reconnection_s is not None]
    if not reconnected:
        return BounceStatistics(
            n=0, at_most_two_bounces=0.0, no_disconnection=0.0, mean_gap_s=0.0
        )
    few_bounces = sum(1 for o in reconnected if o.bounces <= 2)
    clean = sum(1 for o in reconnected if o.disconnections == 0)
    gaps = [
        o.failover_s - o.reconnection_s
        for o in reconnected
        if o.failover_s is not None
    ]
    return BounceStatistics(
        n=len(reconnected),
        at_most_two_bounces=few_bounces / len(reconnected),
        no_disconnection=clean / len(reconnected),
        mean_gap_s=sum(gaps) / len(gaps) if gaps else 0.0,
    )
