"""The §5.4.1 metrics by re-joining sends and replies, kept as the reference.

This is ``core/metrics.target_outcome`` as it stood while the prober kept
a send log and the sites a capture log: the first reply per sequence
number is looked up for every probe sent at or after the withdrawal, and
the arithmetic runs over the joined statuses. The join and the arithmetic
are moved here verbatim; only the inputs changed -- the ``ProbeSent`` /
``ProbeReply`` events of a trace stand in for the send-log and
capture-log entries (same fields: target, seq, send time; target, seq,
arrival time, site). ``target_outcome`` over the prober's records must
reproduce it value for value; the differential test in
``test_probe_record.py`` is the only caller.
"""

from repro.core.metrics import TargetOutcome
from repro.net.addr import IPv4Address
from repro.telemetry.trace import ProbeReply, ProbeSent


def joined_outcome(
    events, target: IPv4Address, failed_site: str, withdrawal_time: float
) -> TargetOutcome:
    """What ``target_outcome`` must return for ``target``, computed from
    one run's trace ``events`` by sequence number."""
    name = str(target)
    replies_by_seq: dict[int, tuple[float, str]] = {}
    for entry in events:
        if isinstance(entry, ProbeReply) and entry.target == name:
            # Keep the first arrival per seq (duplicates cannot happen with
            # unicast delivery, but be defensive).
            replies_by_seq.setdefault(entry.seq, (entry.t, entry.site))

    probes = [
        p for p in events
        if isinstance(p, ProbeSent) and p.target == name and p.t >= withdrawal_time
    ]
    probes.sort(key=lambda p: p.seq)
    statuses: list[tuple[float, str] | None] = [replies_by_seq.get(p.seq) for p in probes]

    reconnection_s: float | None = None
    for status in statuses:
        if status is not None:
            reconnection_s = status[0] - withdrawal_time
            break

    # Stable suffix: the earliest k from which every probe was answered,
    # all by the same site.
    failover_s: float | None = None
    final_site: str | None = None
    if statuses and statuses[-1] is not None:
        final_site = statuses[-1][1]
        k = len(statuses) - 1
        while k > 0:
            prev = statuses[k - 1]
            if prev is None or prev[1] != final_site:
                break
            k -= 1
        if all(
            s is not None and s[1] == final_site for s in statuses[k:]
        ):
            failover_s = statuses[k][0] - withdrawal_time

    # Bounce/disconnection accounting after first reconnection.
    bounces = 0
    disconnections = 0
    seen_first = False
    last_site: str | None = None
    for status in statuses:
        if status is None:
            if seen_first:
                disconnections += 1
            continue
        if seen_first and last_site is not None and status[1] != last_site:
            bounces += 1
        seen_first = True
        last_site = status[1]

    return TargetOutcome(
        target=target,
        failed_site=failed_site,
        reconnection_s=reconnection_s,
        failover_s=failover_s,
        bounces=bounces,
        disconnections=disconnections,
        final_site=final_site,
    )
