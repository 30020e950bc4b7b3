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

from dataclasses import dataclass, field

from repro.dataplane.forwarding import ForwardingPlane, ForwardResult, delivery_verdict
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
        self._telemetry = telemetry_registry.current()

    # ------------------------------------------------------------------

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

    def _reply_done(
        self, target: IPv4Address, probe: Probe, result: ForwardResult
    ) -> None:
        telemetry = self._telemetry
        site, reason = delivery_verdict(result, self.deployment, self.dead_sites)
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
