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

import heapq
import itertools
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
    nothing queued but landings of its own replies knows no FIB can
    change again in the run in progress, and writes the rest of the
    window up to the run's deadline in one pass (:meth:`_quiet_pass`).
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
        #: this prober's replies in the air, by probe seq
        self._flights: dict[int, _Flight] = {}
        #: replies whose fate was written, and how many of them the quiet
        #: pass wrote (the rest landed as flights)
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
        telemetry = self._telemetry
        if telemetry.enabled:
            telemetry.inc("probe.sent")
            telemetry.emit(ProbeSent(t=at, target=cached_str(log.target), seq=probe.seq))
        if log.request_latency is None:
            # Target unreachable from the vantage: no reply ever.
            probe.reason = "unreachable"
            if telemetry.enabled:
                telemetry.emit(
                    ProbeLost(
                        t=at, target=cached_str(log.target), seq=probe.seq, reason="unreachable"
                    )
                )
        return probe

    def _launch(self, log: ProbeLog, probe: Probe) -> None:
        """Put ``probe``'s reply in the air. The target answers when the
        request reaches it; the reply is addressed to the request's
        *source*, which is how §5.2 steers replies toward the prefix
        under test."""
        self._flights[probe.seq] = self.plane.launch(
            log.target_node,
            self.source,
            lambda result: self._reply_done(log.target, probe, result),
            probe.sent_at + log.request_latency,  # type: ignore[operator]
        )

    def _reply_done(
        self, target: IPv4Address, probe: Probe, result: ForwardResult
    ) -> None:
        """The one writer of a reply's fate, for a landing and the quiet
        pass alike (both reach it through :meth:`ForwardingPlane.finish`,
        which counts the drop)."""
        self._flights.pop(probe.seq, None)
        self.replies += 1
        telemetry = self._telemetry
        site, reason = delivery_verdict(
            result.delivered_to, result.drop_reason, self.deployment, self.dead_sites
        )
        if reason is not None:
            probe.reason = reason
            if telemetry.enabled:
                telemetry.inc("probe.replies_lost")
                telemetry.emit(
                    ProbeLost(
                        t=result.completed_at,
                        target=cached_str(target),
                        seq=probe.seq,
                        reason=reason,
                        site=site or "",
                    )
                )
            return
        probe.site = site
        probe.reply_at = result.completed_at
        if telemetry.enabled:
            telemetry.inc("probe.replies")
            telemetry.emit(
                ProbeReply(
                    t=result.completed_at,
                    target=cached_str(target),
                    seq=probe.seq,
                    site=site,
                )
            )
            previous = self._last_site.get(target)
            if previous is not None and previous != site:
                telemetry.inc("probe.site_switches")
                telemetry.emit(
                    SiteSwitched(
                        t=result.completed_at,
                        target=cached_str(target),
                        from_site=previous,
                        to_site=site,
                    )
                )
            self._last_site[target] = site

    # ------------------------------------------------------------------

    def start(
        self,
        targets: dict[IPv4Address, str],
        interval: float = 1.5,
        duration: float = 600.0,
    ) -> None:
        """Schedule paced probing of ``targets`` (address -> AS node).

        Probes start immediately and repeat every ``interval`` seconds
        until ``duration`` has elapsed on the simulation clock. An
        interval that cannot advance the clock (zero, negative or not
        finite) is refused: it would re-probe the same instant forever.
        """
        if not (math.isfinite(interval) and interval > 0):
            raise ValueError(f"probe interval must be finite and > 0, got {interval!r}")
        if math.isnan(duration):
            raise ValueError("probe duration is NaN")
        if targets:
            stop_at = self.plane.network.engine.now + duration
            self._round(tuple(targets.items()), interval, stop_at)

    def _round(
        self, targets: tuple[tuple[IPv4Address, str], ...], interval: float, stop_at: float
    ) -> None:
        # A method, not a closure that names itself: a self-referencing
        # closure is a reference cycle that would outlive the run.
        engine = self.plane.network.engine
        if engine.now > stop_at:
            return
        deadline = engine.deadline
        if deadline is not None and self._quiet():
            self._quiet_pass(targets, interval, stop_at, deadline)
            return
        for target, node in targets:
            self.probe_once(target, node)
        engine.schedule(interval, lambda: self._round(targets, interval, stop_at))

    def _quiet(self) -> bool:
        """Is every queued engine event a landing of one of this prober's
        replies (stale landings included)? Then nothing queued can write
        a FIB again: not a BGP delivery, MRAI expiry or FIB install, nor
        a controller, fault, timeline or workload event."""
        plane = self.plane
        return (
            plane.network.engine.pending == plane.queued_landings
            and plane.in_air == len(self._flights)
        )

    def _quiet_pass(
        self,
        targets: tuple[tuple[IPv4Address, str], ...],
        interval: float,
        stop_at: float,
        deadline: float,
    ) -> None:
        """Write every round from now to ``deadline`` (or ``stop_at``)
        without an engine event, exactly as the events would have.

        The FIBs are fixed until the run's deadline, so each target's
        reply walks one path: its landing time is the flight's own float
        additions (``t + request_latency``, then each hop's latency) and
        its fate goes through the one writer. Writes are merged in the
        order the engine would have fired them: by time, and at equal
        times replies sent earlier (in send order) before the next
        round's sends. A reply still in the air at the deadline is put
        in the air as an ordinary flight, and the next round is
        scheduled on the same ``t + interval`` chain, so a later run (or
        a FIB written between runs) meets them exactly as it would have.
        """
        plane = self.plane
        order = itertools.count()
        # ⟨lands at, send order, log or flight, probe, walk⟩; the replies
        # in the air now were sent first, and a flight has no walk here
        pending: list[tuple] = [
            (flight.lands_at, next(order), flight, None, None)
            for flight in list(self._flights.values())
            if flight.lands_at <= deadline
        ]
        heapq.heapify(pending)
        legs = []
        for target, node in targets:
            log = self._log(target, node)
            walk = None
            if log.request_latency is not None:
                walk = plane.walk_from(node, self.source)
                plane.hop_latencies(walk)
            legs.append((log, walk))
        written = 0
        t = plane.network.engine.now
        while t <= stop_at and t <= deadline:
            for log, walk in legs:
                probe = self._send(log, t)
                if walk is None:
                    continue
                lands_at = t + log.request_latency
                for latency in walk.latencies:
                    lands_at += latency
                if lands_at <= deadline:
                    heapq.heappush(pending, (lands_at, next(order), log, probe, walk))
                else:
                    self._launch(log, probe)
            t += interval
            # Replies landing up to the next round's instant precede its
            # sends: their events were queued before the round's.
            while pending and pending[0][0] <= t:
                self._write(heapq.heappop(pending))
                written += 1
        while pending:
            self._write(heapq.heappop(pending))
            written += 1
        if t <= stop_at:
            plane.network.engine.schedule_at(
                t, lambda: self._round(targets, interval, stop_at)
            )
        self.quiet += written
        if written and self._telemetry.enabled:
            self._telemetry.inc("probe.quiet", written)

    def _write(self, entry: tuple) -> None:
        """Write one reply the quiet pass holds, at its landing time."""
        lands_at, _, held, probe, walk = entry
        if walk is None:
            self.plane.settle(held)
            return
        self.plane.finish(
            ForwardResult(walk.delivered_to, walk.path, lands_at, walk.reason),
            lambda result: self._reply_done(held.target, probe, result),
        )
