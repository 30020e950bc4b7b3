"""Hop-by-hop packet forwarding over live FIBs.

Two forwarding paths exist, matching how the experiment uses them:

* **toward clients** (probe requests): client prefixes are not carried in
  the dynamic BGP simulation, so requests follow the static valley-free
  policy path to the target AS (see
  :mod:`repro.topology.static_routes`) and arrive after its one-way
  latency;
* **toward the CDN** (probe replies): each hop does a longest-prefix-match
  lookup in that router's *current* FIB and the packet advances as an
  event on the simulation clock. Convergence can therefore reroute,
  loop, or blackhole a reply mid-flight.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Collection

from repro.bgp.network import BgpNetwork
from repro.net.addr import IPv4Address
from repro.telemetry import registry as telemetry_registry
from repro.topology.generator import Topology
from repro.topology.static_routes import StaticRoutes, static_routes_for

if TYPE_CHECKING:
    from repro.topology.testbed import CdnDeployment

#: Packets are dropped after this many AS hops (transient loops).
MAX_HOPS = 64

#: Newest drops kept for diagnostics; long sweeps churn out drops
#: indefinitely, so the log is a ring buffer (totals live in the
#: ``dataplane.drops`` telemetry counter, never truncated).
DROP_LOG_LIMIT = 1024


class DropReason(enum.Enum):
    NO_ROUTE = "no-route"
    LOOP = "loop"
    TTL_EXCEEDED = "ttl-exceeded"


@dataclass(frozen=True, slots=True)
class ForwardResult:
    """Outcome of a hop-by-hop forward."""

    delivered_to: str | None
    path: tuple[str, ...]
    #: simulated time of delivery or drop
    completed_at: float
    drop_reason: DropReason | None = None

    @property
    def delivered(self) -> bool:
        return self.delivered_to is not None


#: loss reason -> outage class: the one table the availability ledger
#: (per lost probe) and the workload engine (per lost request) share.
#: The first five reasons come from :func:`delivery_verdict`; the prober
#: adds ``unreachable`` (no static path to the target) and the ledger
#: ``unanswered`` (no reply ever captured).
CLASS_BY_REASON = {
    "no-route": "blackhole",
    "unreachable": "blackhole",
    "unanswered": "blackhole",
    "loop": "loop",
    "ttl-exceeded": "loop",
    "off-net": "wrong-site",
    "dead-site": "wrong-site",
}


def delivery_verdict(
    result: ForwardResult,
    deployment: "CdnDeployment",
    dead_sites: Collection[str] = (),
) -> tuple[str | None, str | None]:
    """Did this delivery count? ⟨landing site, loss reason⟩.

    The reason is None exactly when the forward reached a *live CDN
    site*; otherwise it is the drop reason, ``off-net`` (someone else's
    covering prefix) or ``dead-site`` (a down site stale FIBs still
    point at; returned with the reason).
    """
    if result.delivered_to is None:
        # An undelivered forward always carries its drop reason.
        return None, result.drop_reason.value  # type: ignore[union-attr]
    site = deployment.site_of_node(result.delivered_to)
    if site is None or site in dead_sites:
        return site, "off-net" if site is None else "dead-site"
    return site, None


class ForwardingPlane:
    """Forwards packets over a network built from a topology."""

    def __init__(self, network: BgpNetwork, topology: Topology) -> None:
        self.network = network
        self.topology = topology
        #: the newest dropped forwards, for diagnostics (ring buffer;
        #: ``dropped_total`` keeps the full count)
        self.drops: deque[ForwardResult] = deque(maxlen=DROP_LOG_LIMIT)
        #: every drop ever recorded, evicted or not
        self.dropped_total = 0
        self._telemetry = telemetry_registry.current()

    # ------------------------------------------------------------------
    # Static direction (CDN -> client)

    def static_routes_to(self, dest_node: str) -> StaticRoutes:
        """Cached static policy routes toward ``dest_node``.

        The memo lives on the topology, not the plane: a solve is a
        pure function of the AS graph, and the sweep builds a fresh
        plane per cell -- per-plane caching re-solved the same
        destinations for every cell of the matrix."""
        return static_routes_for(self.topology, dest_node)

    def latency_to_client(self, src_node: str, dest_node: str) -> float | None:
        """One-way latency along the static policy path, seconds."""
        path = self.static_routes_to(dest_node).path(src_node)
        if path is None:
            return None
        return self.topology.path_latency(path)

    # ------------------------------------------------------------------
    # Dynamic direction (client -> CDN prefix), event-driven

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
            self._finish(
                ForwardResult(None, path, engine.now, DropReason.TTL_EXCEEDED), on_complete
            )
            return
        next_hop = self.network.next_hop(node, dst)
        if next_hop is None:
            self._finish(
                ForwardResult(None, path, engine.now, DropReason.NO_ROUTE), on_complete
            )
            return
        if next_hop == node:
            # Locally originated covering prefix: delivered here.
            self._finish(ForwardResult(node, path, engine.now), on_complete)
            return
        if seen.get(node) == next_hop:
            self._finish(
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

    def _finish(
        self, result: ForwardResult, on_complete: Callable[[ForwardResult], None]
    ) -> None:
        if not result.delivered:
            self.drops.append(result)
            self.dropped_total += 1
            if self._telemetry.enabled:
                self._telemetry.inc("dataplane.drops")
        on_complete(result)

    # ------------------------------------------------------------------
    # Instantaneous trace (control-plane view of the current FIBs)

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
