"""Two references for the probe loop: the §5.4.1 join, and the prober
whose every target ticked on its own.

**The per-target-tick prober.** Until probing ran in rounds with a quiet
pass, :meth:`Prober.start` scheduled one paced tick per target and every
reply landed as its own event. :class:`TickProber` keeps ``start``,
``_tick`` and ``probe_once`` verbatim; the reply's fate goes through the
shared writer (``Prober._reply_done``) as it always did. The
differential tests in ``test_probe_rounds.py`` (and the hop-chain
reference in ``forwarding_oracle.py``) are its callers.

**The §5.4.1 metrics by re-joining sends and replies.**

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
from repro.dataplane.ping import Probe, ProbeLog, Prober
from repro.net.addr import IPv4Address, cached_str
from repro.telemetry.trace import ProbeLost, ProbeReply, ProbeSent


class TickProber(Prober):
    """The prober whose targets each had their own paced tick."""

    def probe_once(self, target: IPv4Address, target_node: str) -> None:
        """Send one echo request now; the reply (if any) arrives later."""
        engine = self.plane.network.engine
        log = self.logs.get(target)
        if log is None:
            vantage_node = self.deployment.site_node(self.vantage_site)
            latency = self.plane.latency_to_client(vantage_node, target_node)
            log = self.logs[target] = ProbeLog(target, target_node, latency)
        self._seq += 1
        probe = Probe(self._seq, engine.now)
        log.probes.append(probe)
        telemetry = self._telemetry
        if telemetry.enabled:
            telemetry.inc("probe.sent")
            telemetry.emit(
                ProbeSent(t=engine.now, target=cached_str(target), seq=probe.seq)
            )
        if log.request_latency is None:
            # Target unreachable from the vantage: no reply ever.
            probe.reason = "unreachable"
            if telemetry.enabled:
                telemetry.emit(
                    ProbeLost(
                        t=engine.now,
                        target=cached_str(target),
                        seq=probe.seq,
                        reason="unreachable",
                    )
                )
            return
        # The target answers when the request reaches it; the reply is
        # addressed to the request's *source*, which is how §5.2 steers
        # replies toward the prefix under test.
        self.plane.forward(
            log.target_node,
            self.source,
            lambda result: self._reply_done(log.target, probe, result),
            delay=log.request_latency,
        )

    def start(
        self,
        targets: dict[IPv4Address, str],
        interval: float = 1.5,
        duration: float = 600.0,
    ) -> None:
        """Schedule paced probing of ``targets`` (address -> AS node).

        Probes start immediately and repeat every ``interval`` seconds
        until ``duration`` has elapsed on the simulation clock.
        """
        stop_at = self.plane.network.engine.now + duration
        for target, node in targets.items():
            self._tick(target, node, interval, stop_at)

    def _tick(
        self, target: IPv4Address, node: str, interval: float, stop_at: float
    ) -> None:
        # A method, not a closure that names itself: a self-referencing
        # closure is a reference cycle that would outlive the run.
        engine = self.plane.network.engine
        if engine.now > stop_at:
            return
        self.probe_once(target, node)
        engine.schedule(interval, lambda: self._tick(target, node, interval, stop_at))


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
