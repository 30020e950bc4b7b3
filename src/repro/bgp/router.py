"""A BGP speaker.

One :class:`BgpRouter` models one AS's routing view -- or, for the CDN,
one *site*: PEERING announces from a single ASN at many sites, so several
routers may share an ASN while keeping independent sessions and RIBs
(there is no iBGP between PEERING sites).

The router implements the standard update-processing loop: import,
Adj-RIB-In maintenance, best-path selection, FIB installation, and
export with per-session MRAI pacing. Policy is not here: what it keeps
of an update and what it tells which neighbor are
:func:`repro.bgp.policy.imported` and :func:`~repro.bgp.policy.exported`.

The Adj-RIB-In is ``{prefix: {neighbor: route}}`` (what each neighbor
advertised and has not withdrawn; no entry for a prefix nobody
advertises), the Loc-RIB ``{prefix: selected route}``. Withdrawal path
hunting exists because Adj-RIB-In entries from other neighbors remain
valid-looking after the origin withdraws: the decision process keeps
promoting them until withdrawals arrive on every session.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING

from repro.bgp.policy import LOCAL_ORIGIN_PREF, exported, imported
from repro.bgp.route import Route, Update, better, select_best
from repro.bgp.session import Session
from repro.net.addr import IPv4Prefix, cached_str
from repro.net.lpm import LpmTable
from repro.telemetry import registry as telemetry_registry
from repro.telemetry.trace import FibInstalled, RouteSelected

if TYPE_CHECKING:
    from repro.bgp.damping import RouteDamping
    from repro.bgp.engine import EventEngine


@dataclass(frozen=True, slots=True)
class OriginConfig:
    """How this router originates one prefix.

    Attributes:
        prepend: extra copies of the ASN on the exported path
            (proactive-prepending announces backup routes with 3 or 5).
        neighbors: if not None, export the origination only to these
            remote node ids (the paper's refinement of announcing
            prepended routes only to neighbors that also connect to the
            intended site).
        med: Multi-Exit Discriminator attached to the exported
            announcements (the §4 alternative to prepending for
            neighbors that honour MED).
    """

    prepend: int = 0
    neighbors: frozenset[str] | None = None
    med: int = 0


class BgpRouter:
    """A BGP speaker identified by ``node_id`` and owned by AS ``asn``."""

    def __init__(self, node_id: str, asn: int) -> None:
        self.node_id = node_id
        self.asn = asn
        self.sessions: dict[str, Session] = {}
        self.adj_rib_in: dict[IPv4Prefix, dict[str, Route]] = {}
        self.loc_rib: dict[IPv4Prefix, Route] = {}
        #: FIB mapping prefix -> next-hop node id; ``node_id`` itself means
        #: locally delivered (the prefix is originated here). A settled
        #: FIB holds at most two prefixes, a /24 and its covering /23, so
        #: a lookup is two dict probes (docs/architecture.md, "FIB shape").
        self.fib: LpmTable[str] = LpmTable()
        #: how each originated prefix is announced
        self.origins: dict[IPv4Prefix, OriginConfig] = {}
        #: optional RIB->FIB download lag, wired by BgpNetwork: returns
        #: (engine, delay sampler). When unset, FIB updates are immediate.
        self.fib_delay_source: Callable[[], tuple["EventEngine", float]] | None = None
        #: optional route flap damping, wired by BgpNetwork
        self.damping: "RouteDamping | None" = None
        #: set once the Adj-RIB-In has held a route with a MED (since
        #: construction, or in the snapshot a restore read): ``better`` is
        #: then not transitive, and every selection must be the full
        #: scan's order-dependent answer (see :meth:`receive`)
        self.med_heard = False
        #: invoked with this node's id after every FIB install, wired by
        #: BgpNetwork to bump its ``route_version`` and tell the
        #: forwarding planes which FIB moved
        self.on_fib_change: Callable[[str], None] | None = None
        #: where this router notes that its state may change: every entry
        #: below that can change it adds the node id (BgpNetwork shares one
        #: set among its routers, for checkpoint rewind)
        self.touched: set[str] = set()
        #: provenance id of the root action currently being processed;
        #: set on entry (receive / originate / withdraw / session ops)
        #: and attached to every selection, FIB install, and export it
        #: triggers. 0 marks uncaused background activity.
        self._current_cause = 0
        telemetry = telemetry_registry.current()
        self._telemetry = telemetry
        # Hot-path counters resolved once: receive/_reselect/_install_fib
        # run tens of thousands of times per experiment, and the dict
        # lookup inside Telemetry.inc() is measurable at that volume.
        if telemetry.enabled:
            self._updates_received = telemetry.counter("bgp.updates_received")
            self._rib_churn = telemetry.counter("bgp.rib_churn")
            self._fib_installs = telemetry.counter("bgp.fib_installs")
            self._updates_suppressed = telemetry.counter("bgp.updates_suppressed")
        else:
            self._updates_received = self._rib_churn = self._fib_installs = None
            self._updates_suppressed = None

    # ------------------------------------------------------------------
    # Wiring

    def add_session(self, session: Session, cause: int = 0) -> None:
        """Register the outgoing half of an adjacency toward a neighbor."""
        if session.local != self.node_id:
            raise ValueError(
                f"session local end {session.local!r} does not match router {self.node_id!r}"
            )
        if session.remote in self.sessions:
            raise ValueError(f"duplicate session {self.node_id!r} -> {session.remote!r}")
        self.sessions[session.remote] = session
        # A new neighbor receives our current table (typical of session
        # establishment). Collector taps attached mid-experiment rely on it.
        self.resync_session(session.remote, cause=cause)

    def resync_session(self, remote: str, cause: int = 0) -> None:
        """Advertise the full Loc-RIB toward ``remote`` per export policy.

        Runs at session establishment and after a session reset
        re-establishes (fault injection): the reopened session starts
        with an empty ``advertised`` set and the peer's Adj-RIB-In has
        been flushed, so the full-table exchange brings both ends back
        in sync. ``cause`` tags the resync's exports with the reset's
        provenance id, so causal chains span the reopen epoch.
        """
        if not self.loc_rib:
            return  # nothing to advertise: every session of a cold build
        self.touched.add(self.node_id)
        self._current_cause = cause
        sessions = (self.sessions[remote],)
        for prefix, best in self.loc_rib.items():
            self._export(prefix, best, sessions)

    def remove_session(self, remote: str, cause: int = 0) -> None:
        """Tear down the adjacency toward ``remote`` (link/node failure).

        All routes learned from the neighbor are flushed and the decision
        process reruns for each affected prefix, exactly as a BGP session
        reset would.
        """
        session = self.sessions.pop(remote, None)
        if session is None:
            raise KeyError(f"{self.node_id!r} has no session to {remote!r}")
        session.closed = True
        self.flush_neighbor(remote, cause)

    def flush_neighbor(self, remote: str, cause: int) -> None:
        """Forget every route ``remote`` advertised (its session went
        down) and rerun the decision process for each prefix it had."""
        self.touched.add(self.node_id)
        self._current_cause = cause
        for prefix in [p for p, heard in self.adj_rib_in.items() if remote in heard]:
            self._forget(prefix, remote)
            self._reselect(prefix)

    def _forget(self, prefix: IPv4Prefix, neighbor: str) -> None:
        heard = self.adj_rib_in.get(prefix)
        if heard is not None and heard.pop(neighbor, None) is not None and not heard:
            del self.adj_rib_in[prefix]

    # ------------------------------------------------------------------
    # Origination (the CDN controller's knobs)

    def originate(
        self,
        prefix: IPv4Prefix,
        prepend: int = 0,
        neighbors: frozenset[str] | None = None,
        med: int = 0,
        cause: int = 0,
    ) -> None:
        """Originate ``prefix``, replacing any previous origination of it.

        Changing the export shape of an existing origination (prepend,
        MED, neighbor scope) re-exports even though the locally selected
        route is unchanged -- draining a live site works by exactly this
        kind of in-place re-origination.
        """
        if prepend < 0:
            raise ValueError(f"prepend must be >= 0, got {prepend}")
        self.touched.add(self.node_id)
        previous = self.origins.get(prefix)
        config = OriginConfig(prepend=prepend, neighbors=neighbors, med=med)
        self.origins[prefix] = config
        self._current_cause = cause
        self._reselect(prefix)
        if previous is not None and previous != config:
            self._export(prefix, self.loc_rib.get(prefix), self.sessions.values())

    def withdraw_origin(self, prefix: IPv4Prefix, cause: int = 0) -> bool:
        """Stop originating ``prefix``; True if it was originated."""
        if prefix not in self.origins:
            return False
        self.touched.add(self.node_id)
        del self.origins[prefix]
        self._current_cause = cause
        self._reselect(prefix)
        return True

    def originated_prefixes(self) -> list[IPv4Prefix]:
        """A copy: callers withdraw while they iterate."""
        return list(self.origins)

    # ------------------------------------------------------------------
    # Update processing

    def receive(self, update: Update) -> None:
        """Process one update from a neighbor (called by session delivery).

        Without damping or MEDs, ``better`` is a strict total order and
        the Loc-RIB holds the best of the candidates, so the best path
        moves only when the update beats it or takes it away: a route that
        beats it is the new best, and only an update from the best's own
        neighbor that does not beat it needs the full scan. Damping
        (suppressed candidates) and MEDs (an order-dependent answer)
        always take the full scan.
        """
        sender = update.sender
        session = self.sessions.get(sender)
        if session is None:
            raise ValueError(f"{self.node_id!r}: update from unknown neighbor {sender!r}")
        self.touched.add(self.node_id)
        # Inherit the update's provenance: whatever this router now
        # re-selects, installs, or re-exports descends from the same root.
        self._current_cause = update.cause
        if self._updates_received is not None:
            self._updates_received.inc()
        if self.damping is not None:
            self._account_flap(update)
        prefix = update.prefix
        route = update.route
        if route is not None:
            route = imported(route, self.asn, session.relationship)
        if route is None:
            self._forget(prefix, sender)
        else:
            self.adj_rib_in.setdefault(prefix, {})[sender] = route
            if route.med:
                self.med_heard = True
        if self.damping is not None or self.med_heard:
            self._reselect(prefix)
            return
        best = self.loc_rib.get(prefix)
        if route is not None and (best is None or better(route, best)):
            self._adopt(prefix, route)
        elif best is not None and best.learned_from == sender:
            self._reselect(prefix)

    def _account_flap(self, update: Update) -> None:
        """RFC 2439 accounting: a withdrawal of a held route, or an
        announcement replacing one, is a flap. Initial reachability is
        not charged."""
        existing = self.adj_rib_in.get(update.prefix, {}).get(update.sender)
        if existing is None:
            return
        route = update.route
        if route is None or (route.as_path, route.med) != (existing.as_path, existing.med):
            self.damping.record_flap(update.prefix, update.sender)

    def reselect_uncaused(self, prefix: IPv4Prefix) -> None:
        """Re-run selection with no provenance (cause 0).

        Timer-driven re-selections -- damping suppression releases --
        have no single root action to attribute to; their downstream
        churn is tagged as background activity.
        """
        self.touched.add(self.node_id)
        self._current_cause = 0
        self._reselect(prefix)

    def _reselect(self, prefix: IPv4Prefix) -> None:
        """Re-run the decision process and propagate any best-path change.

        The candidates are what the neighbors advertise -- minus those
        route flap damping currently suppresses, whose Adj-RIB-In entries
        stay -- plus the local route while this router originates the
        prefix; that one carries LOCAL_ORIGIN_PREF and so always wins.
        """
        candidates = list(self.adj_rib_in.get(prefix, {}).values())
        if self.damping is not None:
            suppressed = self.damping.suppressed_neighbors(prefix)
            if suppressed:
                candidates = [r for r in candidates if r.learned_from not in suppressed]
        if prefix in self.origins:
            candidates.append(Route(prefix, (), None, LOCAL_ORIGIN_PREF, self.node_id))
        best = select_best(candidates)
        if best != self.loc_rib.get(prefix):
            self._adopt(prefix, best)

    def _adopt(self, prefix: IPv4Prefix, best: Route | None) -> None:
        """Make ``best`` the selected route (None: no route) and propagate
        the change: trace it, install it, export it."""
        if best is None:
            del self.loc_rib[prefix]
        else:
            self.loc_rib[prefix] = best
        telemetry = self._telemetry
        if telemetry.enabled:
            self._rib_churn.inc()
            telemetry.emit(
                RouteSelected(
                    t=telemetry.now(),
                    node=self.node_id,
                    prefix=cached_str(prefix),
                    via=best.learned_from if best is not None else None,
                    as_path_len=len(best.as_path) if best is not None else 0,
                    cause=self._current_cause,
                )
            )
        self._schedule_fib_install(prefix)
        self._export(prefix, best, self.sessions.values())

    def _schedule_fib_install(self, prefix: IPv4Prefix) -> None:
        """Install the current best into the FIB, after the RIB->FIB lag.

        The install callback re-reads the Loc-RIB at fire time, so a burst
        of best-path changes converges the FIB to the final state. The
        provenance id is captured at schedule time: the install belongs
        to the root action that triggered this selection, even though it
        fires after the router has moved on to other work.
        """
        cause = self._current_cause
        if self.fib_delay_source is None:
            self._install_fib(prefix, cause)
            return
        engine, delay = self.fib_delay_source()
        if delay <= 0:
            self._install_fib(prefix, cause)
        else:
            engine.schedule(delay, lambda: self._install_fib(prefix, cause))

    def _install_fib(self, prefix: IPv4Prefix, cause: int = 0) -> None:
        best = self.loc_rib.get(prefix)
        if best is None:
            self.fib.remove(prefix)
            next_hop = None
        else:
            next_hop = best.learned_from or self.node_id
            self.fib.insert(prefix, next_hop)
        if self.on_fib_change is not None:
            self.on_fib_change(self.node_id)
        telemetry = self._telemetry
        if telemetry.enabled:
            self._fib_installs.inc()
            telemetry.emit(
                FibInstalled(
                    t=telemetry.now(),
                    node=self.node_id,
                    prefix=cached_str(prefix),
                    next_hop=next_hop,
                    cause=cause,
                )
            )

    # ------------------------------------------------------------------
    # Export

    def _export(
        self, prefix: IPv4Prefix, best: Route | None, sessions: Iterable[Session]
    ) -> None:
        """Tell each of ``sessions`` what export policy lets its far end
        hear of ``best``: a route, or the withdrawal of whatever was --
        :meth:`offer`, with the policy evaluated once per relationship.

        Of what :func:`exported` reads, only split horizon and the
        origination's neighbor scope depend on the session beyond its
        relationship, so those two are checked here per session and every
        other session of a relationship is sent the one route written for
        the first of them.
        """
        cause = self._current_cause
        if best is not None:
            learned_from = best.learned_from
            origin = self.origins.get(prefix)
            scope = origin.neighbors if learned_from is None and origin is not None else None
            via = self.sessions.get(learned_from)
            learned_over = via.relationship if via is not None else None
            by_class: dict[int, Route | None] = {}
        silent = 0
        for session in sessions:
            route = None
            if best is not None:
                remote = session.remote
                if remote != learned_from and (scope is None or remote in scope):
                    key = session.export_class
                    if key in by_class:
                        route = by_class[key]
                    else:
                        route = by_class[key] = exported(
                            best, self.node_id, self.asn, origin, learned_over,
                            remote, session.relationship,
                        )
            if route is None and prefix not in session.advertised and not (
                session._pending and prefix in session._pending
            ):
                # The withdrawal of what the far end never heard, with
                # nothing pending to cancel: ``send`` would only count it
                # (a closed session not even that), so it is not called.
                if not session.closed:
                    silent += 1
                continue
            session.send(prefix, route, cause)
        if silent and self._updates_suppressed is not None:
            self._updates_suppressed.inc(silent)

    def offer(self, session: Session, prefix: IPv4Prefix, best: Route | None) -> Route | None:
        """``best`` as the far end of ``session`` hears it (None: not at
        all). Every Loc-RIB change exports at once, so on a quiet network
        the offer of the Loc-RIB's route is the last update the session
        sent: what the invariant checker holds the peer's Adj-RIB-In to."""
        if best is None:
            return None
        via = self.sessions.get(best.learned_from)
        return exported(
            best, self.node_id, self.asn, self.origins.get(prefix),
            via.relationship if via is not None else None,
            session.remote, session.relationship,
        )

    # ------------------------------------------------------------------
    # Introspection

    def best_route(self, prefix: IPv4Prefix) -> Route | None:
        """The currently selected route for ``prefix`` (exact match)."""
        return self.loc_rib.get(prefix)

    def __repr__(self) -> str:
        return f"BgpRouter({self.node_id!r}, AS{self.asn})"
