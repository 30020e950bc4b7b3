"""Assembling routers and sessions into a simulated internetwork.

:class:`BgpNetwork` owns the event engine, the RNG, every router, and the
adjacencies between them. Higher layers (topology generators, the CDN
testbed, experiments) talk to the network rather than to individual
routers or sessions.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.bgp.damping import DampingConfig, RouteDamping
from repro.bgp.engine import EventEngine
from repro.bgp.policy import Relationship
from repro.bgp.router import BgpRouter
from repro.bgp.session import Session, SessionTiming
from repro.net.addr import IPv4Address, IPv4Prefix
from repro.telemetry import registry as telemetry_registry
from repro.telemetry.trace import RootCause


class BgpNetwork:
    """A collection of BGP routers plus the engine that drives them."""

    def __init__(
        self,
        seed: int = 0,
        default_timing: SessionTiming | None = None,
        damping: "DampingConfig | None" = None,
    ) -> None:
        self.engine = EventEngine()
        self.rng = random.Random(seed)
        # Point trace-event timestamps at this network's simulated clock
        # (the newest network wins; experiments build one per run).
        telemetry = telemetry_registry.current()
        if telemetry.enabled:
            telemetry.bind_clock(lambda: self.engine.now)
        self._telemetry = telemetry
        #: provenance: monotone cause-id allocator (per network, so a
        #: fresh simulation always numbers its chains from 1 and serial
        #: vs parallel sweeps stay byte-identical) and the currently
        #: active root cause (0 = none). A plain int rather than
        #: itertools.count so checkpoint snapshots can capture it.
        self._next_cause = 1
        self.current_cause = 0
        #: monotone data-plane epoch: bumped on every FIB install anywhere
        #: in the network, so forwarding caches (the workload catchment
        #: cache) can detect "routing may have changed" with one int
        #: compare instead of re-walking FIBs per lookup. Not part of a
        #: checkpoint snapshot: a restored network starts at 0 and any
        #: cache built against it starts cold.
        self.route_version = 0
        #: called after every bump: a forwarding plane with packets in
        #: the air re-walks them (empty while nothing is in flight)
        self.on_route_change: list[Callable[[], None]] = []
        self.default_timing = default_timing or SessionTiming()
        self.damping_config = damping
        self.routers: dict[str, BgpRouter] = {}
        #: adjacency list: node -> {neighbor node: relationship of the
        #: *neighbor* from the node's perspective}.
        self.adjacency: dict[str, dict[str, Relationship]] = {}
        #: per-link one-way data-plane latency in seconds, keyed by
        #: unordered node pair; used by the forwarding plane for RTTs.
        self.link_latency: dict[frozenset[str], float] = {}
        #: failed links awaiting restore: pair -> (a, b, rel of b from a)
        self._failed_links: dict[frozenset[str], tuple[str, str, Relationship]] = {}
        #: per-link session timing, for faithful restore after failure
        self._link_timing: dict[frozenset[str], SessionTiming] = {}
        #: per-link message loss/duplication (fault injection), keyed by
        #: unordered pair; survives fail/restore cycles so a loss window
        #: spanning a link flap keeps applying to the fresh sessions.
        self._link_loss: dict[frozenset[str], tuple[float, float]] = {}

    def _bump_route_version(self) -> None:
        self.route_version += 1
        for rewalk in self.on_route_change:
            rewalk()

    # ------------------------------------------------------------------
    # Lifetime

    def close(self) -> None:
        """Release the network at the end of its run (idempotent).

        A live network is one reference cycle (router -> sessions -> the
        remote router's ``receive``; queued callbacks -> sessions; router
        hooks -> this network; the route-change hook -> a forwarding
        plane with packets in the air). With those edges dropped, reference
        counting frees it the moment its owner lets go -- no collector
        pass. Whoever builds or restores a network closes it.
        """
        self.engine.clear()
        self.on_route_change.clear()
        for router in self.routers.values():
            router.sessions.clear()
            router.fib_delay_source = router.on_fib_change = router.damping = None
        self.routers.clear()

    def __enter__(self) -> "BgpNetwork":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Provenance

    def new_cause(self, action: str, target: str, detail: str = "") -> int:
        """Allocate a fresh cause id for a root action and trace it.

        The id is threaded through every BGP message, route selection,
        and FIB install the action generates, so ``repro explain`` can
        reconstruct the chain. Allocation happens whether or not
        telemetry is enabled (it is deterministic and side-effect-free
        for the simulation), but the :class:`RootCause` event is only
        emitted into an enabled trace.
        """
        cause = self._next_cause
        self._next_cause += 1
        telemetry = self._telemetry
        if telemetry.enabled:
            telemetry.emit(
                RootCause(
                    t=self.engine.now, cause=cause, action=action,
                    target=target, detail=detail,
                )
            )
        return cause

    def root_cause(self, action: str, target: str, detail: str = "") -> int:
        """The active cause, or a fresh root when none is active.

        Root actions nest: a scenario event wraps a controller reaction
        which wraps ``withdraw_all`` -- only the outermost allocates,
        everything inside inherits via :meth:`caused_by`.
        """
        if self.current_cause:
            return self.current_cause
        return self.new_cause(action, target, detail)

    @contextmanager
    def caused_by(self, cause: int) -> Iterator[int]:
        """Scope ``cause`` as the active root for a ``with`` block."""
        previous = self.current_cause
        self.current_cause = cause
        try:
            yield cause
        finally:
            self.current_cause = previous

    # ------------------------------------------------------------------
    # Construction

    def add_router(self, node_id: str, asn: int) -> BgpRouter:
        """Create a router; node ids are unique, ASNs may be shared (sites)."""
        if node_id in self.routers:
            raise ValueError(f"duplicate node id {node_id!r}")
        router = BgpRouter(node_id, asn)
        # Wired here (not in BgpRouter) so checkpoint restore re-attaches
        # the hook for free: restore_network rebuilds routers through
        # this method.
        router.on_fib_change = self._bump_route_version
        if self.default_timing.fib_delay > 0:
            mean = self.default_timing.fib_delay

            def sample() -> tuple["EventEngine", float]:
                return self.engine, self.rng.uniform(0.5 * mean, 1.5 * mean)

            router.fib_delay_source = sample
        if self.damping_config is not None:
            router.damping = RouteDamping(
                self.engine,
                self.damping_config,
                on_release=lambda prefix, r=router: r.reselect_uncaused(prefix),
                owner=node_id,
            )
        self.routers[node_id] = router
        self.adjacency[node_id] = {}
        return router

    def connect(
        self,
        a: str,
        b: str,
        relationship_of_b: Relationship,
        timing: SessionTiming | None = None,
        latency: float | None = None,
    ) -> None:
        """Create a bidirectional adjacency between routers ``a`` and ``b``.

        ``relationship_of_b`` states what ``b`` is from ``a``'s point of
        view; the reverse session gets the inverse relationship. E.g.
        ``connect("stub", "transit", Relationship.PROVIDER)`` makes
        ``transit`` a provider of ``stub``.
        """
        if a == b:
            raise ValueError(f"cannot connect {a!r} to itself")
        router_a = self.routers[a]
        router_b = self.routers[b]
        if b in self.adjacency[a]:
            raise ValueError(f"link {a!r} <-> {b!r} already exists")
        timing = timing or self.default_timing
        session_ab = Session(
            self.engine, self.rng, a, b, relationship_of_b, router_b.receive, timing
        )
        session_ba = Session(
            self.engine,
            self.rng,
            b,
            a,
            relationship_of_b.inverse(),
            router_a.receive,
            timing,
        )
        self.adjacency[a][b] = relationship_of_b
        self.adjacency[b][a] = relationship_of_b.inverse()
        # One key object per link, shared by the three tables (a
        # snapshot copies them and pickles the key once).
        link = frozenset((a, b))
        self.link_latency[link] = latency if latency is not None else timing.latency
        self._link_timing[link] = timing
        loss = self._link_loss.get(link)
        if loss is not None:
            session_ab.loss_prob = session_ba.loss_prob = loss[0]
            session_ab.dup_prob = session_ba.dup_prob = loss[1]
        # Establishment resync inherits the active cause (e.g. the
        # link-up fault that rebuilt this adjacency).
        router_a.add_session(session_ab, cause=self.current_cause)
        router_b.add_session(session_ba, cause=self.current_cause)

    def add_provider(self, customer: str, provider: str, **kwargs) -> None:
        """Convenience: make ``provider`` a provider of ``customer``."""
        self.connect(customer, provider, Relationship.PROVIDER, **kwargs)

    def add_peering(self, a: str, b: str, **kwargs) -> None:
        """Convenience: settlement-free peering between ``a`` and ``b``."""
        self.connect(a, b, Relationship.PEER, **kwargs)

    # ------------------------------------------------------------------
    # Failure injection

    def fail_link(self, a: str, b: str) -> None:
        """Tear down the adjacency between ``a`` and ``b``.

        Both routers flush the routes learned over the link and rerun
        their decision processes; updates already in flight on the link
        are lost. The link can be brought back with :meth:`restore_link`.
        """
        if b not in self.adjacency.get(a, {}):
            raise KeyError(f"no link {a!r} <-> {b!r}")
        cause = self.root_cause("link-down", f"{a}<->{b}")
        # Close the reverse directions first so in-flight deliveries die.
        self.routers[a].sessions[b].closed = True
        self.routers[b].sessions[a].closed = True
        self.routers[a].remove_session(b, cause=cause)
        self.routers[b].remove_session(a, cause=cause)
        relationship = self.adjacency[a].pop(b)
        self.adjacency[b].pop(a)
        self._failed_links[frozenset((a, b))] = (a, b, relationship)

    def restore_link(self, a: str, b: str) -> None:
        """Re-establish a previously failed adjacency.

        Fresh sessions are created with the original relationship and
        timing, and each side receives the other's current table, as at
        BGP session establishment.
        """
        key = frozenset((a, b))
        stored = self._failed_links.pop(key, None)
        if stored is None:
            raise KeyError(f"link {a!r} <-> {b!r} was not failed")
        orig_a, orig_b, relationship = stored
        with self.caused_by(self.root_cause("link-up", f"{a}<->{b}")):
            self.connect(
                orig_a,
                orig_b,
                relationship,
                timing=self._link_timing.get(key),
                latency=self.link_latency.get(key),
            )

    def has_link(self, a: str, b: str) -> bool:
        """True while the adjacency between ``a`` and ``b`` is up."""
        return b in self.adjacency.get(a, {})

    def is_link_failed(self, a: str, b: str) -> bool:
        """True when the link is down and awaiting :meth:`restore_link`."""
        return frozenset((a, b)) in self._failed_links

    def reset_session(self, a: str, b: str) -> None:
        """Hard-reset the BGP session between ``a`` and ``b`` with
        immediate re-establishment (hold-timer expiry, process restart).

        Unlike :meth:`fail_link`/:meth:`restore_link` -- which destroy
        and rebuild the adjacency -- the same :class:`Session` objects
        survive, modelling one TCP connection bouncing: messages in
        flight are lost, both Adj-RIB-Ins flush the neighbor's routes
        and rerun their decision processes, then each side reopens with
        cleared transfer state and re-advertises its Loc-RIB per export
        policy.
        """
        if b not in self.adjacency.get(a, {}):
            raise KeyError(f"no link {a!r} <-> {b!r}")
        cause = self.root_cause("session-reset", f"{a}<->{b}")
        router_a = self.routers[a]
        router_b = self.routers[b]
        session_ab = router_a.sessions[b]
        session_ba = router_b.sessions[a]
        # Down phase: in-flight messages die, learned routes flush, and
        # the resulting best-path changes export to *other* neighbors
        # (sends toward the closed session are swallowed).
        session_ab.closed = True
        session_ba.closed = True
        router_a.flush_neighbor(b, cause)
        router_b.flush_neighbor(a, cause)
        # Up phase: reset session state and exchange full tables, as at
        # initial establishment. The resync exports carry the reset's
        # cause across the new delivery epoch, so provenance survives
        # the reopen.
        session_ab.reopen()
        session_ba.reopen()
        router_a.resync_session(b, cause=cause)
        router_b.resync_session(a, cause=cause)

    def set_message_loss(
        self, a: str, b: str, loss_prob: float = 0.0, dup_prob: float = 0.0
    ) -> None:
        """Set per-message loss/duplication on the ``a <-> b`` link.

        Applies to both directions of the live sessions and is
        remembered per link, so sessions rebuilt by
        :meth:`restore_link` inherit it. Pass zeros to clear.
        """
        if not 0.0 <= loss_prob <= 1.0 or not 0.0 <= dup_prob <= 1.0:
            raise ValueError(
                f"probabilities must be in [0, 1], got loss={loss_prob} dup={dup_prob}"
            )
        key = frozenset((a, b))
        if loss_prob == 0.0 and dup_prob == 0.0:
            self._link_loss.pop(key, None)
        else:
            self._link_loss[key] = (loss_prob, dup_prob)
        if self.has_link(a, b):
            for session in (self.routers[a].sessions[b], self.routers[b].sessions[a]):
                session.loss_prob = loss_prob
                session.dup_prob = dup_prob

    def fail_node(self, node: str) -> list[str]:
        """Fail every adjacency of ``node`` (router crash / facility
        outage). Returns the now-disconnected neighbor list."""
        neighbors = list(self.adjacency.get(node, {}))
        if neighbors:
            # One root action: every per-link teardown inherits the same
            # cause, so `repro explain` shows a single node-down chain
            # instead of one unrelated chain per adjacency.
            with self.caused_by(self.root_cause("node-down", node)):
                for neighbor in neighbors:
                    self.fail_link(node, neighbor)
        return neighbors

    # ------------------------------------------------------------------
    # Announcement control (the knobs experiments turn)

    def announce(
        self,
        node: str,
        prefix: IPv4Prefix,
        prepend: int = 0,
        neighbors: frozenset[str] | None = None,
        med: int = 0,
    ) -> None:
        """Originate ``prefix`` at ``node`` (optionally prepended/scoped,
        optionally carrying a MED for supporting neighbors)."""
        cause = self.root_cause("announce", node, str(prefix))
        self.routers[node].originate(
            prefix, prepend=prepend, neighbors=neighbors, med=med, cause=cause
        )

    def withdraw(self, node: str, prefix: IPv4Prefix) -> bool:
        """Withdraw ``node``'s origination of ``prefix``."""
        cause = self.root_cause("withdraw", node, str(prefix))
        return self.routers[node].withdraw_origin(prefix, cause=cause)

    def withdraw_all(self, node: str) -> list[IPv4Prefix]:
        """Withdraw every prefix originated at ``node`` (site failure)."""
        router = self.routers[node]
        prefixes = router.originated_prefixes()
        if prefixes:
            cause = self.root_cause("withdraw-all", node)
            for prefix in prefixes:
                router.withdraw_origin(prefix, cause=cause)
        return prefixes

    # ------------------------------------------------------------------
    # Time control

    def run_for(self, seconds: float) -> None:
        """Advance simulated time by ``seconds``."""
        self.engine.advance(seconds)

    def converge(self, max_seconds: float = 3600.0) -> float:
        """Run until no BGP events remain (or ``max_seconds`` elapse).

        Returns the simulated time at which the network went quiet. When
        the deadline hits first, the clock is clamped *at* the deadline
        and the overdue event stays queued, exactly like
        :meth:`EventEngine.run_until` -- an event scheduled past the
        deadline never executes, so the clock cannot overshoot.
        """
        deadline = self.engine.now + max_seconds
        while True:
            when = self.engine.peek()
            if when is None:
                return self.engine.now
            if when > deadline:
                self.engine.run_until(deadline)
                return self.engine.now
            self.engine.step()

    @property
    def now(self) -> float:
        return self.engine.now

    # ------------------------------------------------------------------
    # Lookup helpers

    def router(self, node_id: str) -> BgpRouter:
        return self.routers[node_id]

    def next_hop(self, node_id: str, address: IPv4Address) -> str | None:
        """FIB lookup at ``node_id``: next-hop node for ``address``.

        Returns the node's own id when the covering prefix is locally
        originated, or None when there is no route.
        """
        match = self.routers[node_id].fib.lookup(address)
        if match is None:
            return None
        return match[1]

    def nodes(self) -> list[str]:
        return list(self.routers)

    def neighbors(self, node_id: str) -> dict[str, Relationship]:
        return dict(self.adjacency[node_id])
