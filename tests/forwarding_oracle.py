"""Reply forwarding as it stood while every hop was its own event.

Until the flight replaced it, :meth:`ForwardingPlane.forward` scheduled
one engine event per AS hop (``_hop``), each reading the FIB at its own
instant, and the prober scheduled one more event for the target's reply
(``Prober._reply``) before the first hop. This module keeps the parent's
code verbatim, as the reference the flight is held to
(``tests/test_forwarding_flight.py`` is the only caller):

* :class:`HopChainPlane` -- ``forward``, ``_hop`` and ``snapshot_path``,
  bodies unchanged, on top of the current plane (the static direction
  and ``finish`` are shared);
* :class:`HopChainProber` -- ``probe_once`` ending in the scheduled
  ``_reply``, and ``_reply`` itself;
* :func:`forward_after` -- the one-event departure ``_reply`` made, for
  a plain forward that leaves ``delay`` seconds from now.
"""

from __future__ import annotations

from typing import Callable

from repro.dataplane.forwarding import (
    MAX_HOPS,
    DropReason,
    ForwardingPlane,
    ForwardResult,
)
from repro.dataplane.ping import Probe, ProbeLog
from repro.net.addr import IPv4Address, cached_str
from repro.telemetry.trace import ProbeLost, ProbeSent

from tests.probe_oracle import TickProber


class HopChainPlane(ForwardingPlane):
    """The event-per-hop forwarding plane."""

    def forward(
        self,
        start_node: str,
        dst: IPv4Address,
        on_complete: Callable[[ForwardResult], None],
    ) -> None:
        """Forward a packet for ``dst`` from ``start_node`` using live FIBs.

        Each hop consumes the link's latency on the simulation clock and
        re-resolves the next hop at that future instant. ``on_complete``
        fires exactly once, with delivery or a drop.
        """
        self._hop(dst, start_node, start_node, (start_node,), on_complete, {})

    def _hop(
        self,
        dst: IPv4Address,
        node: str,
        last_concrete: str,
        path: tuple[str, ...],
        on_complete: Callable[[ForwardResult], None],
        seen: dict[str, str],
    ) -> None:
        """One forwarding step. ``seen`` maps each visited node to the
        next hop its FIB resolved at visit time: revisiting a node whose
        entry is unchanged means the packet is in a *stable* loop and is
        dropped immediately as ``LOOP`` instead of burning all
        ``MAX_HOPS`` hops of simulated latency first. A revisit whose
        FIB entry changed mid-flight is a transient loop (convergence in
        progress) and keeps going under the hop-count fallback.
        ``last_concrete`` is the most recent non-distributed node on
        ``path`` (its first node until one is crossed), carried from hop
        to hop by the rule :meth:`Topology.path_latency` states."""
        engine = self.network.engine
        if len(path) > MAX_HOPS:
            self.finish(
                ForwardResult(None, path, engine.now, DropReason.TTL_EXCEEDED), on_complete
            )
            return
        next_hop = self.network.next_hop(node, dst)
        if next_hop is None:
            self.finish(
                ForwardResult(None, path, engine.now, DropReason.NO_ROUTE), on_complete
            )
            return
        if next_hop == node:
            # Locally originated covering prefix: delivered here.
            self.finish(ForwardResult(node, path, engine.now), on_complete)
            return
        if seen.get(node) == next_hop:
            self.finish(
                ForwardResult(None, path, engine.now, DropReason.LOOP), on_complete
            )
            return
        seen[node] = next_hop
        topology = self.topology
        latency = topology.hop_latency(last_concrete, node, next_hop)
        if not topology.ases[next_hop].as_class.is_distributed:
            last_concrete = next_hop
        engine.schedule(
            latency,
            lambda: self._hop(
                dst, next_hop, last_concrete, path + (next_hop,), on_complete, seen
            ),
        )

    def snapshot_path(self, start_node: str, dst: IPv4Address) -> ForwardResult:
        """The path the current FIBs would produce, without advancing time.

        Used by traceroute emulation and catchment checks, where the
        question is "where would a packet go *right now*".
        """
        node = start_node
        path = [node]
        while True:
            if len(path) > MAX_HOPS:
                return ForwardResult(
                    None, tuple(path), self.network.engine.now, DropReason.TTL_EXCEEDED
                )
            next_hop = self.network.next_hop(node, dst)
            if next_hop is None:
                return ForwardResult(
                    None, tuple(path), self.network.engine.now, DropReason.NO_ROUTE
                )
            if next_hop == node:
                return ForwardResult(node, tuple(path), self.network.engine.now)
            if next_hop in path:
                return ForwardResult(
                    None, tuple(path + [next_hop]), self.network.engine.now, DropReason.LOOP
                )
            node = next_hop
            path.append(node)


def forward_after(
    plane: HopChainPlane,
    delay: float,
    start_node: str,
    dst: IPv4Address,
    on_complete: Callable[[ForwardResult], None],
) -> None:
    """``plane.forward`` ``delay`` seconds from now, one event ahead, as
    ``Prober._reply`` started the reply leg."""
    plane.network.engine.schedule(
        delay, lambda: plane.forward(start_node, dst, on_complete)
    )


class HopChainProber(TickProber):
    """The prober whose reply leg was its own event (and whose targets
    each ticked on their own, as they did then)."""

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
        engine.schedule(log.request_latency, lambda: self._reply(log, probe))

    def _reply(self, log: ProbeLog, probe: Probe) -> None:
        """The target answers: its reply is addressed to the request's
        *source*, which is how §5.2 steers replies toward the prefix
        under test."""
        self.plane.forward(
            log.target_node,
            self.source,
            lambda result: self._reply_done(log.target, probe, result),
        )
