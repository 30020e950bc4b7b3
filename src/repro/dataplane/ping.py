"""Verfploeter-style probing.

§5.2's measurement loop: ping every controllable target every ~1.5 s for
~600 s, sourcing requests from an address inside the prefix under test so
the *replies* are routed by that prefix's announcements; unique sequence
numbers match responses to requests and expose disconnections.

The prober sends requests from a healthy site over the static policy
path (client prefixes are not part of the dynamic simulation), and the
replies travel hop-by-hop over live FIBs toward the probe source address.
What the paper assembles afterwards from send logs and per-site tcpdump
-- per target, ⟨probe sent at, reply arrived at, receiving site⟩ matched
by sequence number -- is written here as it happens: each echo is one
:class:`Probe`, and its reply's fate lands in the record of its send.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.dataplane.forwarding import (
    ForwardingPlane,
    ForwardResult,
    _Flight,
    delivery_verdict,
)
from repro.net.addr import IPv4Address, cached_str
from repro.telemetry import registry as telemetry_registry
from repro.telemetry.trace import ProbeLost, ProbeReply, ProbeSent, SiteSwitched
from repro.topology.testbed import CdnDeployment

#: §5.2's probing cadence and window: "every ~1.5s for ~600s"
PROBE_INTERVAL_S = 1.5
PROBE_WINDOW_S = 600.0
#: how long a run goes on after its probing window, so the replies of
#: the last rounds land before it is read
DRAIN_SLACK_S = 30.0


@dataclass(slots=True)
class Probe:
    """One echo request and what became of its reply.

    Answered means ``site`` is set (the live site the reply reached, at
    ``reply_at``); lost means ``reason`` is set (a
    :func:`~repro.dataplane.forwarding.delivery_verdict` loss reason, or
    ``unreachable``); neither means the reply was still in flight when
    the run ended.
    """

    seq: int
    sent_at: float
    reply_at: float | None = None
    site: str | None = None
    reason: str | None = None


@dataclass(slots=True)
class ProbeLog:
    """All probes sent toward one target, in send (= seq) order."""

    target: IPv4Address
    target_node: str
    #: one-way latency of the request leg; None when the vantage has no
    #: static path to the target. Fixed per target: the request follows
    #: static policy routes, which cannot move during a run.
    request_latency: float | None
    probes: list[Probe] = field(default_factory=list)


class Prober:
    """Sends paced echo requests and routes the replies.

    Requests are sourced from ``source`` (the paper's 184.164.244.10) at
    ``vantage_site`` -- a site other than the one being failed, exactly as
    §5.2 prescribes, since the failed site can no longer emit probes.

    Probing runs in rounds, one engine event each: every target is
    probed at the same instant, in ``targets`` order. A round that finds
    a window -- a span before anything but this prober can run, so no
    FIB and no dead site can change in it (:meth:`_window`) -- writes
    every round and reply inside it in one pass, per target and without
    events (:meth:`_pass`).
    """

    def __init__(
        self,
        plane: ForwardingPlane,
        deployment: CdnDeployment,
        source: IPv4Address,
        vantage_site: str,
    ) -> None:
        self.plane = plane
        self.deployment = deployment
        self.source = source
        self.vantage_site = vantage_site
        self.logs: dict[IPv4Address, ProbeLog] = {}
        self._seq = 0
        #: failed sites: a reply forwarded to one of these is lost, since
        #: the site is down even while stale FIB entries still point at it
        self.dead_sites: set[str] = set()
        #: last site each target's replies arrived at (site-switch telemetry)
        self._last_site: dict[IPv4Address, str] = {}
        #: this prober's replies in the air, by probe seq: ⟨flight,
        #: target, probe⟩
        self._flights: dict[int, tuple[_Flight, IPv4Address, Probe]] = {}
        #: replies whose fate was written, and how many of them a pass
        #: wrote (the rest landed as flights)
        self.replies = 0
        self.quiet = 0
        self._telemetry = telemetry_registry.current()

    # ------------------------------------------------------------------

    def probe_once(self, target: IPv4Address, target_node: str) -> None:
        """Send one echo request now; the reply (if any) arrives later."""
        log = self._log(target, target_node)
        probe = self._send(log, self.plane.network.engine.now)
        if probe.reason is None:
            self._launch(log, probe)

    def _log(self, target: IPv4Address, target_node: str) -> ProbeLog:
        log = self.logs.get(target)
        if log is None:
            vantage_node = self.deployment.site_node(self.vantage_site)
            latency = self.plane.latency_to_client(vantage_node, target_node)
            log = self.logs[target] = ProbeLog(target, target_node, latency)
        return log

    def _send(self, log: ProbeLog, at: float) -> Probe:
        """Record one echo request to ``log``'s target sent at ``at``."""
        self._seq += 1
        probe = Probe(self._seq, at)
        log.probes.append(probe)
        if log.request_latency is None:
            # Target unreachable from the vantage: no reply ever.
            probe.reason = "unreachable"
        if self._telemetry.enabled:
            self._report_send(log, probe)
        return probe

    def _launch(self, log: ProbeLog, probe: Probe) -> None:
        """Put ``probe``'s reply in the air. The target answers when the
        request reaches it; the reply is addressed to the request's
        *source*, which is how §5.2 steers replies toward the prefix
        under test."""
        target = log.target
        flight = self.plane.launch(
            log.target_node,
            self.source,
            lambda result: self._reply_done(target, probe, result),
            probe.sent_at + log.request_latency,  # type: ignore[operator]
        )
        self._flights[probe.seq] = (flight, target, probe)

    def _reply_done(
        self, target: IPv4Address, probe: Probe, result: ForwardResult
    ) -> None:
        """A reply landed as a flight (:meth:`ForwardingPlane.finish`,
        which counts the drop): write its fate and report it."""
        self._flights.pop(probe.seq, None)
        self.replies += 1
        at = result.completed_at
        site, reason = delivery_verdict(
            result.delivered_to, result.drop_reason, self.deployment, self.dead_sites
        )
        _write(probe, at, site, reason)
        if self._telemetry.enabled:
            self._report_fate(target, probe.seq, at, site, reason)

    def _report_send(self, log: ProbeLog, probe: Probe) -> None:
        """The counter and trace events of one sent probe."""
        telemetry = self._telemetry
        target = cached_str(log.target)
        telemetry.inc("probe.sent")
        telemetry.emit(ProbeSent(t=probe.sent_at, target=target, seq=probe.seq))
        if log.request_latency is None:
            telemetry.emit(
                ProbeLost(t=probe.sent_at, target=target, seq=probe.seq, reason="unreachable")
            )

    def _report_fate(
        self, target: IPv4Address, seq: int, at: float, site: str | None, reason: str | None
    ) -> None:
        """The counters and trace events of one reply's fate, written at
        ``at``: lost for ``reason``, or answered by ``site`` (and a site
        switch when the target's last reply reached another site)."""
        telemetry = self._telemetry
        if reason is not None:
            telemetry.inc("probe.replies_lost")
            telemetry.emit(
                ProbeLost(
                    t=at, target=cached_str(target), seq=seq, reason=reason, site=site or ""
                )
            )
            return
        telemetry.inc("probe.replies")
        telemetry.emit(ProbeReply(t=at, target=cached_str(target), seq=seq, site=site))
        previous = self._last_site.get(target)
        if previous is not None and previous != site:
            telemetry.inc("probe.site_switches")
            telemetry.emit(
                SiteSwitched(
                    t=at, target=cached_str(target), from_site=previous, to_site=site
                )
            )
        self._last_site[target] = site

    # ------------------------------------------------------------------

    def start(
        self,
        targets: dict[IPv4Address, str],
        interval: float,
        duration: float,
    ) -> None:
        """Schedule paced probing of ``targets`` (address -> AS node).

        Probes start immediately and repeat every ``interval`` seconds
        until ``duration`` has elapsed on the simulation clock. An
        interval that cannot advance the clock up to the last round
        (zero, negative, not finite, or too small to move ``stop_at``
        itself) is refused before anything is scheduled: it would
        re-probe one instant forever.
        """
        if math.isnan(duration):
            raise ValueError("probe duration is NaN")
        stop_at = self.plane.network.engine.now + duration
        if not (math.isfinite(interval) and stop_at + interval > stop_at):
            raise ValueError(
                f"probe interval must be finite and advance the clock past "
                f"t={stop_at!r}, got {interval!r}"
            )
        if targets:
            self._round(tuple(targets.items()), interval, stop_at)

    def _round(
        self, targets: tuple[tuple[IPv4Address, str], ...], interval: float, stop_at: float
    ) -> None:
        # A method, not a closure that names itself: a self-referencing
        # closure is a reference cycle that would outlive the run.
        engine = self.plane.network.engine
        if engine.now > stop_at:
            return
        until = self._window()
        if until is not None:
            self._pass(targets, interval, stop_at, until)
            return
        for target, node in targets:
            self.probe_once(target, node)
        engine.schedule(interval, lambda: self._round(targets, interval, stop_at))

    def _window(self) -> float | None:
        """The last instant before anything other than this prober could
        run, or None when this round has no window and runs as events.

        Let H be the first instant a foreign event (a BGP delivery, MRAI
        expiry, FIB install, controller, fault, timeline or workload
        event) could run. H is +inf when every queued event is a landing
        of this prober's replies, stale ones included (``queued_landings``
        counts them, ``in_air`` the flights, which must all be this
        prober's); it is the queue head's time when no landing is queued
        at all, since the head is then foreign. Otherwise it is unknown.
        The window ends at the run's deadline (``EventEngine.deadline``:
        ``run_until``'s, +inf under ``run_until_idle``, None for a bare
        ``step`` and under ``BgpNetwork.converge``, which has no probe
        window to end) or just before H, whichever is first: an event
        queued at H holds a lower sequence number than anything a pass
        schedules, so the engine runs it first.
        """
        plane = self.plane
        engine = plane.network.engine
        deadline = engine.deadline
        if deadline is None:
            return None
        landings = plane.queued_landings
        if engine.pending == landings and plane.in_air == len(self._flights):
            return deadline
        if landings:
            return None
        head = engine.peek()
        if head <= engine.now:  # type: ignore[operator]
            return None  # the head runs right after this round
        return min(deadline, math.nextafter(head, -math.inf))  # type: ignore[arg-type]

    def _pass(
        self,
        targets: tuple[tuple[IPv4Address, str], ...],
        interval: float,
        stop_at: float,
        until: float,
    ) -> None:
        """Write every round from now to ``until`` (or ``stop_at``) and
        every reply landing by ``until`` without an engine event,
        exactly as the events would have.

        No FIB and no dead site changes by ``until``, so each target's
        replies walk one path and get one verdict, both taken once: its
        probes are written in one loop, seq numbers round-major (``seq0
        + r·n + i + 1``) on the same ``t + interval`` float chain, each
        landing time by the flight's own float additions (``t +
        request_latency``, then each hop's latency). Replies in the air
        now (only when this prober's landings are all that is queued)
        that land by ``until`` are taken over on the walk they fly;
        their landing events go stale. A reply landing later is put in
        the air as an ordinary flight, in round-major order, and the
        next round is scheduled at the first instant past the window, so
        a foreign event (or a FIB written between two runs) meets them
        exactly as it would have. The trace is a replay of the records
        (:meth:`_replay`).
        """
        plane = self.plane
        deployment, dead_sites = self.deployment, self.dead_sites
        times = []
        t = plane.network.engine.now
        while t <= stop_at and t <= until:
            times.append(t)
            t += interval
        taken = []
        for seq, (flight, target, probe) in list(self._flights.items()):
            if flight.lands_at <= until:
                plane.take(flight)
                del self._flights[seq]
                walk = flight.walk
                site, reason = delivery_verdict(
                    walk.delivered_to, walk.reason, deployment, dead_sites
                )
                _write(probe, flight.lands_at, site, reason)
                taken.append((flight.lands_at, seq, target, site, reason, walk.delivered_to is None))
        written = len(taken)
        rows = []
        flying = []
        seq0, n, rounds = self._seq, len(targets), len(times)
        for i, (target, node) in enumerate(targets):
            log = self._log(target, node)
            seqs = range(seq0 + i + 1, seq0 + i + 1 + n * rounds, n)
            latency = log.request_latency
            if latency is None:
                probes = [Probe(seq, at, None, None, "unreachable") for seq, at in zip(seqs, times)]
                log.probes += probes
                rows.append((log, probes, 0, None))
                continue
            walk = plane.walk_from(node, self.source)
            hops = plane.hop_latencies(walk)
            site, reason = delivery_verdict(walk.delivered_to, walk.reason, deployment, dead_sites)
            probes = []
            for seq, at in zip(seqs, times):
                lands_at = at + latency
                for hop in hops:
                    lands_at += hop
                if lands_at > until:
                    break
                probes.append(
                    Probe(seq, at, lands_at, site)
                    if reason is None
                    else Probe(seq, at, None, None, reason)
                )
            landed = len(probes)
            if landed < rounds:
                probes += [Probe(seq, at) for seq, at in zip(seqs[landed:], times[landed:])]
                flying.append((landed, log, probes))
            log.probes += probes
            written += landed
            rows.append((log, probes, landed, (hops, site, reason, walk.delivered_to is None)))
        self._seq = seq0 + n * rounds
        if flying:
            for r in range(min(first for first, _, _ in flying), rounds):
                for first, log, probes in flying:
                    if r >= first:
                        self._launch(log, probes[r])
        if t <= stop_at:
            plane.network.engine.schedule_at(
                t, lambda: self._round(targets, interval, stop_at)
            )
        self.replies += written
        self.quiet += written
        if self._telemetry.enabled:
            self._replay(times, rows, taken, written)

    def _replay(self, times: list[float], rows: list, taken: list, written: int) -> None:
        """Report a pass's sends and written replies from its records, in
        the order the engine would have fired their events: by time, and
        at equal times a reply sent before a round landing before that
        round's sends (its event was queued first), landings at one
        instant in send order. A reply in the air when the pass began
        that lands at its first instant lands after that round: its
        landing was queued after the round's event. A dropped reply
        counts ``dataplane.drops``, as :meth:`ForwardingPlane.finish`
        does for a flight."""
        landings = list(taken)
        for log, probes, landed, fate in rows:
            if landed:
                hops, site, reason, dropped = fate
                for probe in probes[:landed]:
                    lands_at = probe.sent_at + log.request_latency
                    for hop in hops:
                        lands_at += hop
                    landings.append((lands_at, probe.seq, log.target, site, reason, dropped))
        landings.sort(key=lambda landing: landing[:2])
        telemetry = self._telemetry
        reported = 0

        def land_before(at: float, first: float) -> None:
            """Report the landings before ``at``, and those at ``at`` of
            replies sent before the probe numbered ``first``."""
            nonlocal reported
            while reported < len(landings) and landings[reported][:2] < (at, first):
                lands_at, seq, target, site, reason, dropped = landings[reported]
                if dropped:
                    telemetry.inc("dataplane.drops")
                self._report_fate(target, seq, lands_at, site, reason)
                reported += 1

        for r, at in enumerate(times):
            if r:
                land_before(at, rows[0][1][r].seq)  # the round's first probe
            for log, probes, _, _ in rows:
                self._report_send(log, probes[r])
        land_before(math.inf, math.inf)
        if written:
            telemetry.inc("probe.quiet", written)


def _write(probe: Probe, at: float, site: str | None, reason: str | None) -> None:
    """Write a reply's fate, landed at ``at``, into its record."""
    if reason is None:
        probe.site = site
        probe.reply_at = at
    else:
        probe.reason = reason
