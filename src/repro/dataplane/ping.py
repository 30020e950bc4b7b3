"""Verfploeter-style probing.

§5.2's measurement loop: ping every controllable target every ~1.5 s for
~600 s, sourcing requests from an address inside the prefix under test so
the *replies* are routed by that prefix's announcements; unique sequence
numbers match responses to requests and expose disconnections.

The prober sends requests from a healthy site over the static policy
path (client prefixes are not part of the dynamic simulation), and the
replies travel hop-by-hop over live FIBs toward the probe source address,
landing in the :class:`~repro.dataplane.capture.SiteCapture` at whichever
site currently attracts them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.dataplane.capture import SiteCapture
from repro.dataplane.forwarding import (
    DROP_LOG_LIMIT,
    ForwardingPlane,
    ForwardResult,
    delivery_verdict,
)
from repro.net.addr import IPv4Address, cached_str
from repro.net.packet import IcmpEcho, IcmpEchoReply
from repro.telemetry import registry as telemetry_registry
from repro.telemetry.trace import ProbeLost, ProbeReply, ProbeSent
from repro.topology.testbed import CdnDeployment


@dataclass(frozen=True, slots=True)
class SentProbe:
    """Bookkeeping for one transmitted echo request."""

    target: IPv4Address
    seq: int
    sent_at: float


@dataclass(slots=True)
class ProbeLog:
    """All probes sent toward one target."""

    target: IPv4Address
    target_node: str
    sent: list[SentProbe] = field(default_factory=list)


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
        capture: SiteCapture,
        source: IPv4Address,
        vantage_site: str,
    ) -> None:
        self.plane = plane
        self.deployment = deployment
        self.capture = capture
        self.source = source
        self.vantage_site = vantage_site
        self.logs: dict[IPv4Address, ProbeLog] = {}
        self._seq = 0
        #: the newest replies that were lost (diagnostics; ring buffer
        #: like ``ForwardingPlane.drops`` -- ``lost_total`` keeps the
        #: full count)
        self.lost_replies: deque[ForwardResult] = deque(maxlen=DROP_LOG_LIMIT)
        #: every lost reply ever recorded, evicted or not
        self.lost_total = 0
        #: failed sites: a reply forwarded to one of these is lost, since
        #: the site is down even while stale FIB entries still point at it
        self.dead_sites: set[str] = set()
        self._telemetry = telemetry_registry.current()

    # ------------------------------------------------------------------

    def probe_once(self, target: IPv4Address, target_node: str) -> None:
        """Send one echo request now; the reply (if any) arrives later."""
        engine = self.plane.network.engine
        log = self.logs.get(target)
        if log is None:
            log = ProbeLog(target=target, target_node=target_node)
            self.logs[target] = log
        self._seq += 1
        seq = self._seq
        log.sent.append(SentProbe(target=target, seq=seq, sent_at=engine.now))
        telemetry = self._telemetry
        if telemetry.enabled:
            telemetry.inc("probe.sent")
            telemetry.emit(ProbeSent(t=engine.now, target=cached_str(target), seq=seq))
        vantage_node = self.deployment.site_node(self.vantage_site)
        latency = self.plane.latency_to_client(vantage_node, target_node)
        if latency is None:
            # Target unreachable from the vantage: no reply ever.
            if telemetry.enabled:
                telemetry.emit(
                    ProbeLost(
                        t=engine.now,
                        target=cached_str(target),
                        seq=seq,
                        reason="unreachable",
                    )
                )
            return
        request = IcmpEcho(src=self.source, dst=target, seq=seq)
        engine.schedule(latency, lambda: self._reply(request, target_node))

    def _reply(self, request: IcmpEcho, target_node: str) -> None:
        reply = request.reply_from(responder=request.dst)
        self.plane.forward(
            target_node, reply, lambda result: self._reply_done(reply, result)
        )

    def _reply_done(self, reply: IcmpEchoReply, result: ForwardResult) -> None:
        telemetry = self._telemetry
        site, reason = delivery_verdict(result, self.deployment, self.dead_sites)
        if reason is not None:
            self.lost_replies.append(result)
            self.lost_total += 1
            if telemetry.enabled:
                telemetry.inc("probe.replies_lost")
                telemetry.emit(
                    ProbeLost(
                        t=result.completed_at,
                        target=cached_str(reply.src),
                        seq=reply.seq,
                        reason=reason,
                        site=site or "",
                    )
                )
            return
        if telemetry.enabled:
            telemetry.inc("probe.replies")
            telemetry.emit(
                ProbeReply(
                    t=result.completed_at,
                    target=cached_str(reply.src),
                    seq=reply.seq,
                    site=site,
                )
            )
        self.capture.record(result.completed_at, site, reply.src, reply.seq)

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
        engine = self.plane.network.engine
        stop_at = engine.now + duration

        def tick(target: IPv4Address, node: str) -> None:
            if engine.now > stop_at:
                return
            self.probe_once(target, node)
            engine.schedule(interval, lambda: tick(target, node))

        for target, node in targets.items():
            tick(target, node)
